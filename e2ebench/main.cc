// End-to-end benchmark of the sharded engine: one workload per process.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            --run-dir DIR --state-dir DIR [--state-key K] [--smoke]
//
// The process pins itself to one CPU, generates the workload from the
// seed, runs one untimed warm-up pass, then repeats timed passes for about
// S seconds. Its last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// passes are traced and the metrics are the per-layer ones (README.md).
// Every pass runs every output check; deterministic counts must repeat
// across passes, and across runs of one seed and one binary (recorded
// under --state-dir, keyed by --state-key).

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "net/net_client.h"
#include "net/net_server.h"
#include "pass.h"
#include "serve/match_service.h"
#include "trace.h"
#include "workload.h"

namespace {

using namespace e2ebench;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string run_dir = ".bench_build/e2ebench-run";
  std::string state_dir;
  std::string state_key = "unkeyed";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "error: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--run-dir") {
      args->run_dir = value;
    } else if (flag == "--state-dir") {
      args->state_dir = value;
    } else if (flag == "--state-key") {
      args->state_key = value;
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "error: invalid value for %s: %s\n", flag.c_str(),
                   value.c_str());
      return false;
    }
  }
  if (args->workload.empty() || !(args->seconds > 0)) {
    std::fprintf(stderr, "error: --workload and a positive --seconds are "
                         "required\n");
    return false;
  }
  return true;
}

/// Pin the process to the last CPU of its allowed set. Called before any
/// thread starts, so every thread (server pool included) inherits it.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int chosen = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) chosen = cpu;
  }
  if (chosen < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(chosen, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? chosen : -1;
}

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

double MinOf(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

/// Per-index minimum across passes (all passes have the same calls).
std::vector<double> CallMinima(const std::vector<std::vector<double>>& passes) {
  std::vector<double> out;
  for (const auto& pass : passes) {
    if (out.empty()) {
      out = pass;
      continue;
    }
    for (size_t i = 0; i < out.size() && i < pass.size(); ++i) {
      out[i] = std::min(out[i], pass[i]);
    }
  }
  return out;
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

/// Nearest-rank quantile.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The end-to-end figures of a set of passes: each call's fastest time
/// across the passes, summed over the calls of one pass.
std::vector<Metric> EndToEnd(const std::vector<PassResult>& passes,
                             double setup_s) {
  std::vector<std::vector<double>> ingest, churn, bursts;
  std::vector<double> save, restore, publish, batch;
  for (const PassResult& p : passes) {
    ingest.push_back(p.times.ingest);
    churn.push_back(p.times.churn);
    bursts.push_back(p.times.bursts);
    save.insert(save.end(), p.times.save.begin(), p.times.save.end());
    restore.push_back(p.times.restore);
    publish.insert(publish.end(), p.times.publish.begin(),
                   p.times.publish.end());
    batch.push_back(p.times.batch);
  }
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  const double burst_s = Sum(CallMinima(bursts));
  const double ingest_s = Sum(CallMinima(ingest));
  const double churn_s = Sum(CallMinima(churn));
  const PassCounts& counts = passes.front().counts;
  return {
      {"setup_s", setup_s, "s"},
      {"pass_s",
       ingest_s + churn_s + MinOf(save) + MinOf(restore) + MinOf(publish) +
           burst_s + MinOf(batch),
       "s"},
      {"ingest_s", ingest_s, "s"},
      {"churn_s", churn_s, "s"},
      {"save_s", MinOf(save), "s"},
      {"restore_s", MinOf(restore), "s"},
      {"publish_s", MinOf(publish), "s"},
      {"query_burst_qps",
       burst_s > 0 ? static_cast<double>(counts.queries) / burst_s : 0.0,
       "queries/s"},
      {"batch_s", MinOf(batch), "s"},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
      {"checkpoint_bytes", static_cast<double>(counts.checkpoint_bytes),
       "bytes"},
  };
}

/// Durations of the engine's mutation calls of one traced pass, in order.
std::vector<double> MutationDurations(const Tracer& tracer, uint64_t id) {
  std::vector<double> out;
  for (const SpanRecord& s : tracer.spans()) {
    if (s.trace_id == id && (s.name == "shard.Ingest" ||
                             s.name == "shard.Remove" ||
                             s.name == "shard.Update")) {
      out.push_back(s.end - s.start);
    }
  }
  return out;
}

/// The per-layer figures of the traced passes `ids` (trace id 0 = set-up).
std::vector<Metric> PerLayer(const Tracer& tracer,
                             const std::vector<uint64_t>& ids,
                             const std::vector<PassResult>& traced) {
  auto fastest = [&](const char* name, const char* parent = "") {
    double best = std::numeric_limits<double>::infinity();
    for (uint64_t id : ids) best = std::min(best, tracer.SumSelf(id, name, parent));
    return best;
  };
  // For a call a pass repeats: its fastest single call.
  auto fastest_call = [&](const char* name, const char* parent) {
    double best = std::numeric_limits<double>::infinity();
    for (uint64_t id : ids) best = std::min(best, MinOf(tracer.Durations(id, name, parent)));
    return best;
  };
  std::vector<std::vector<double>> mutations, bursts;
  std::vector<double> roundtrips;
  for (uint64_t id : ids) {
    mutations.push_back(MutationDurations(tracer, id));
    bursts.push_back(tracer.Durations(id, "net.Call"));
    for (double d : tracer.Durations(id, "net.GroupOf")) roundtrips.push_back(d);
  }
  const std::vector<double> mutation = CallMinima(mutations);
  const PassCounts& counts = traced.front().counts;
  auto count = [](uint64_t v) { return static_cast<double>(v); };
  return {
      {"datagen.generate_s", tracer.SumSelf(0, "datagen.Generate"), "s"},
      {"nn.finetune_s", tracer.SumSelf(0, "nn.FineTune"), "s"},
      {"blocking.index_add_s", fastest("blocking.index_add"), "s"},
      {"blocking.index_remove_s", fastest("blocking.index_remove"), "s"},
      {"blocking.index_rebuild_s", fastest("blocking.index_rebuild"), "s"},
      {"blocking.batch_s",
       fastest("blocking.IdOverlapBlocker") +
           fastest("blocking.TokenOverlapBlocker"),
       "s"},
      {"blocking.candidate_pairs",
       count(traced.front().candidate_pairs_after_feed), "pairs"},
      {"matching.score_s", fastest("matching.score"), "s"},
      {"matching.pairs_scored", count(counts.pairs_scored), "pairs"},
      {"matching.cache_hits", count(counts.cache_hits), "pairs"},
      {"core.cleanup_s", fastest("core.cleanup"), "s"},
      {"graph.min_cut_calls", count(counts.min_cut_calls), "calls"},
      {"graph.betweenness_calls", count(counts.betweenness_calls), "calls"},
      {"shard.components_rebuilt", count(counts.components_rebuilt),
       "components"},
      {"shard.mutation_p50_ms", Quantile(mutation, 0.5) * 1e3, "ms"},
      {"shard.mutation_max_ms", MinOf(mutation) > 0
                                    ? *std::max_element(mutation.begin(),
                                                        mutation.end()) * 1e3
                                    : 0.0,
       "ms"},
      {"serve.serialize_s", fastest("serve.serialize"), "s"},
      {"serve.deserialize_s", fastest("serve.deserialize"), "s"},
      {"serve.snapshot_s", fastest_call("serve.Snapshot", "publish"), "s"},
      {"serve.publish_s", fastest_call("serve.Publish", "publish"), "s"},
      {"net.burst_call_us", Quantile(CallMinima(bursts), 0.5) * 1e6, "us"},
      {"net.roundtrip_p50_us", Quantile(roundtrips, 0.5) * 1e6, "us"},
      {"net.roundtrip_p99_us", Quantile(roundtrips, 0.99) * 1e6, "us"},
  };
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  char value[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

/// Compare `counts` with those an earlier run of this seed and binary
/// recorded, or record them. Returns a failure message, or "".
std::string CheckAcrossRuns(const Args& args, const PassCounts& counts) {
  if (args.state_dir.empty()) return "";
  std::error_code ec;
  std::filesystem::create_directories(args.state_dir, ec);
  const std::string path = args.state_dir + "/" + args.workload +
                           (args.smoke ? "-smoke-" : "-") +
                           std::to_string(args.seed) + ".counts";
  const std::string mine = args.state_key + "\n" + counts.ToString() + "\n";
  std::ifstream in(path);
  if (in) {
    std::stringstream recorded;
    recorded << in.rdbuf();
    const std::string earlier = recorded.str();
    if (earlier.rfind(args.state_key + "\n", 0) == 0) {
      return earlier == mine ? ""
                             : "counts differ from an earlier run of this "
                               "seed: " + earlier + " vs " + mine;
    }
  }
  std::ofstream(path) << mine;
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  const std::unique_ptr<WorkloadSpec> spec =
      FindWorkload(args.workload, args.smoke);
  if (spec == nullptr) {
    std::fprintf(stderr, "error: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const int cpu = PinToOneCpu();

  // Set-up: data, matcher, server, client. Timed once, cold.
  Tracer tracer(args.trace);
  Workload workload;
  tracer.Time("setup", [&] {
    tracer.Time("datagen.Generate",
                [&] { workload = GenerateWorkload(*spec, args.seed); });
    const char* name = spec->matcher == MatcherKind::kTransformer
                           ? "nn.FineTune"
                           : "matching.HeuristicIdMatcher";
    tracer.Time(name, [&] { workload.matcher = MakeMatcher(workload); });
  });
  gralmatch::MatchService service;
  auto server = gralmatch::NetServer::Start(&service, {});
  if (!server.ok()) {
    std::fprintf(stderr, "error: server start: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  auto client = gralmatch::NetClient::Connect((*server)->port());
  if (!client.ok()) {
    std::fprintf(stderr, "error: connect: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }
  const double setup_s = Seconds(process_start);

  if (args.trace && spec->matcher == MatcherKind::kIdentifier) {
    // The identifier workloads train nothing; the nn layer's figure is a
    // replay of the same one-epoch fine-tune on this workload's records.
    tracer.Time("nn.FineTune", [&] {
      FineTuneTransformer(workload.dataset, args.seed);
    });
  }

  PassEnv env;
  env.workload = &workload;
  env.service = &service;
  env.server = server->get();
  env.client = client->get();
  env.tracer = &tracer;
  env.checkpoint_dir = args.run_dir + "/checkpoint";
  env.resave_dir = args.run_dir + "/resave";

  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  PassCounts reference;
  auto run = [&](bool replay) {
    const Clock::time_point start = Clock::now();
    PassResult result = RunPass(&env, replay);
    const PassTimes& t = result.times;
    std::fprintf(stderr,
                 "pass at %7.2f s: ingest %.4f churn %.4f save %.4f restore "
                 "%.4f publish %.5f query %.4f batch %.4f\n",
                 std::chrono::duration<double>(start - process_start).count(),
                 Sum(t.ingest), Sum(t.churn), MinOf(t.save), t.restore,
                 MinOf(t.publish),
                 Sum(t.bursts), t.batch);
    attempted += result.attempted;
    failed += result.failed;
    for (const std::string& f : result.failures) failures.push_back(f);
    if (failures.empty() && result.counts != reference) {
      failures.push_back("counts differ between passes: " +
                         result.counts.ToString() + " vs " +
                         reference.ToString());
    }
    return result;
  };

  // Warm-up: untimed and untraced, with the blocking replay check (f).
  const bool tracing = tracer.enabled();
  tracer.set_enabled(false);
  const PassResult warm = RunPass(&env, /*replay=*/true);
  attempted += warm.attempted;
  failed += warm.failed;
  failures = warm.failures;
  reference = warm.counts;
  std::fprintf(stderr, "pinned to cpu %d; setup %.3f s; counts: %s\n", cpu,
               setup_s, reference.ToString().c_str());
  std::fprintf(stderr, "implied-pair precision: components %.6f, groups %.6f\n",
               warm.precision_before, warm.precision_after);

  std::vector<PassResult> passes;
  std::vector<uint64_t> traced_ids;
  const Clock::time_point measure_start = Clock::now();
  if (tracing) {
    // One untraced pass for the overhead comparison, then traced passes.
    const PassResult untraced = run(false);
    tracer.set_enabled(true);
    uint64_t id = 1;
    while (failures.empty()) {
      tracer.set_trace_id(id);
      passes.push_back(run(true));
      traced_ids.push_back(id++);
      if (Seconds(measure_start) >= args.seconds) break;
    }
    const std::vector<Metric> plain = EndToEnd({untraced}, setup_s);
    const std::vector<Metric> traced = EndToEnd({passes.front()}, setup_s);
    for (size_t i = 1; i + 2 < plain.size(); ++i) {
      std::fprintf(stderr, "trace overhead %-16s untraced %.6g traced %.6g\n",
                   plain[i].name.c_str(), plain[i].value, traced[i].value);
    }
  } else {
    while (failures.empty()) {
      passes.push_back(run(false));
      if (passes.size() >= 3 && Seconds(measure_start) >= args.seconds) break;
    }
  }
  if (failures.empty()) {
    const std::string across = CheckAcrossRuns(args, reference);
    if (!across.empty()) failures.push_back(across);
  }
  std::fprintf(stderr, "%zu %s passes in %.3f s\n", passes.size(),
               tracing ? "traced" : "timed", Seconds(measure_start));

  std::vector<Metric> metrics;
  if (!passes.empty()) {
    metrics = tracing ? PerLayer(tracer, traced_ids, passes)
                      : EndToEnd(passes, setup_s);
  }
  if (tracing) {
    std::ofstream(args.run_dir + "/trace-" + args.workload + "-" +
                  std::to_string(args.seed) + ".json")
        << tracer.ToJson();
  }

  client->reset();
  (*server)->Stop();
  for (size_t i = 0; i < failures.size() && i < 20; ++i) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failures[i].c_str());
  }
  const bool correct = failures.empty() && failed == 0;
  std::printf("%s\n", ResultJson(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
