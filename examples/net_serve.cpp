// Serving over the wire: the net layer end to end. A synthetic securities
// feed streams through a ShardedPipeline (one shard), each batch published
// as an epoch to a MatchService fronted by a NetServer on an ephemeral
// loopback port — while concurrent NetClient threads fire pipelined query
// bursts at it. Every burst must resolve against one epoch (its replies'
// epochs agree, and GroupOf/Members within the burst are mutually
// consistent); after the run, every record's answer over the wire must
// equal the direct MatchService::View() answer. Exits nonzero on any
// violation.
//
// The whole stack runs instrumented (obs/metrics.h): the pipeline, the
// service and the server share one MetricsRegistry, and the final scrape
// goes over the wire via the kMetrics opcode — the same path a production
// collector would use. `--metrics-dump text|json` prints the scrape.
//
//   ./examples/net_serve [--groups N] [--batches K] [--clients C]
//       [--num_threads T] [--metrics-dump text|json]

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "datagen/financial_gen.h"
#include "exec/thread_pool.h"
#include "matching/baselines.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "obs/metrics.h"
#include "serve/match_service.h"
#include "shard/sharded_pipeline.h"

using namespace gralmatch;

int main(int argc, char** argv) {
  CliFlags flags = CliFlags::Parse(argc, argv);
  const size_t num_groups =
      static_cast<size_t>(std::max<int64_t>(1, flags.GetInt("groups", 80)));
  const size_t num_batches =
      static_cast<size_t>(std::max<int64_t>(1, flags.GetInt("batches", 8)));
  const size_t num_clients =
      static_cast<size_t>(std::max<int64_t>(1, flags.GetInt("clients", 3)));

  SyntheticConfig gen_config;
  gen_config.seed = 404;
  gen_config.num_groups = num_groups;
  FinancialBenchmark bench = FinancialGenerator(gen_config).Generate();
  const std::vector<Record>& records = bench.securities.records.records();
  const size_t batch_size = (records.size() + num_batches - 1) / num_batches;

  ShardedPipelineConfig config;
  config.base.pipeline.cleanup.gamma = 8;
  config.base.pipeline.cleanup.mu = 4;
  config.base.pipeline.pre_cleanup_threshold = 12;
  config.base.pipeline.match_threshold = 0.5;
  config.base.pipeline.num_threads =
      ResolveNumThreads(flags.GetInt("num_threads", 2));
  HeuristicIdMatcher matcher;

  // One registry across the whole stack: pipeline phases, publish latency,
  // and the server's RPC/shedding instruments all land in it.
  obs::MetricsRegistry registry;
  config.base.pipeline.metrics = &registry;

  ShardedPipeline pipeline(config);
  MatchService service(&registry);
  NetServerOptions options;
  options.max_connections = num_clients + 1;
  options.metrics = &registry;
  auto server = NetServer::Start(&service, options);
  if (!server.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  const uint16_t port = (*server)->port();
  std::printf("Serving %zu security records (%zu batches) on loopback port "
              "%u to %zu clients.\n",
              records.size(), num_batches, port, num_clients);

  // Client threads fire pipelined bursts for the whole run. Each burst must
  // come back internally consistent: one epoch, and the queried record in
  // its own group's member list.
  std::atomic<bool> done{false};
  std::atomic<size_t> total_queries{0};
  std::vector<std::thread> clients;
  clients.reserve(num_clients);
  for (size_t t = 0; t < num_clients; ++t) {
    clients.emplace_back([&, t] {
      auto client = NetClient::Connect(port);
      if (!client.ok()) {
        std::fprintf(stderr, "client %zu connect failed: %s\n", t,
                     client.status().ToString().c_str());
        std::abort();
      }
      size_t queries = 0;
      uint32_t rng_state = static_cast<uint32_t>(t) * 2654435761u + 1u;
      while (!done.load(std::memory_order_acquire)) {
        rng_state = rng_state * 1664525u + 1013904223u;
        const int64_t r = static_cast<int64_t>(rng_state % records.size());
        auto replies = (*client)->Call(
            {NetRequest::GroupOf(r), NetRequest::Stats()});
        if (!replies.ok() || !(*replies)[0].status.ok() ||
            !(*replies)[1].status.ok()) {
          std::fprintf(stderr, "client %zu: burst failed\n", t);
          std::abort();
        }
        if ((*replies)[0].epoch != (*replies)[1].epoch) {
          std::fprintf(stderr, "client %zu: burst spanned epochs %llu/%llu\n",
                       t,
                       static_cast<unsigned long long>((*replies)[0].epoch),
                       static_cast<unsigned long long>((*replies)[1].epoch));
          std::abort();
        }
        auto members = (*client)->Members((*replies)[0].group);
        // Members is a second call and may land on a newer epoch; only a
        // same-epoch answer is checked against the burst.
        if (members.ok() && members->epoch == (*replies)[0].epoch &&
            (*replies)[0].group != kNoGroup) {
          bool found = false;
          for (RecordId m : members->members) found = found || m == r;
          if (!found) {
            std::fprintf(stderr, "client %zu: record %lld missing from its "
                                 "own group at epoch %llu\n",
                         t, static_cast<long long>(r),
                         static_cast<unsigned long long>(members->epoch));
            std::abort();
          }
        }
        ++queries;
      }
      total_queries.fetch_add(queries);
    });
  }

  for (size_t b = 0; b < num_batches; ++b) {
    const size_t begin = std::min(b * batch_size, records.size());
    const size_t end = std::min(begin + batch_size, records.size());
    std::vector<Record> batch(records.begin() + static_cast<long>(begin),
                              records.begin() + static_cast<long>(end));
    Result<IngestReport> ingested = pipeline.Ingest(batch, matcher);
    if (!ingested.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n",
                   ingested.status().ToString().c_str());
      return 1;
    }
    const uint64_t epoch = service.Publish(pipeline.Snapshot().ValueOrDie(),
                                           pipeline.records().size());
    std::printf("  epoch %2llu: +%zu records published\n",
                static_cast<unsigned long long>(epoch),
                ingested->records_added);
  }
  done.store(true, std::memory_order_release);
  for (auto& client : clients) client.join();

  // Final sweep: the wire answers must equal the direct view's, record for
  // record.
  auto checker = NetClient::Connect(port);
  if (!checker.ok()) {
    std::fprintf(stderr, "checker connect failed\n");
    return 1;
  }
  const MatchSnapshotPtr view = service.View();
  for (size_t r = 0; r < records.size(); ++r) {
    auto reply = (*checker)->GroupOf(static_cast<int64_t>(r));
    if (!reply.ok() ||
        reply->group != view->GroupOf(static_cast<RecordId>(r))) {
      std::fprintf(stderr, "FAIL: wire GroupOf(%zu) differs from the direct "
                           "view\n",
                   r);
      return 1;
    }
  }
  auto stats = (*checker)->Stats();
  if (!stats.ok() || !(*stats == view->stats())) {
    std::fprintf(stderr, "FAIL: wire Stats differs from the direct view\n");
    return 1;
  }

  // Scrape the live server over the wire — the kMetrics opcode answers
  // with the registry's text dump, exactly what a collector would pull.
  auto scrape = (*checker)->Metrics();
  if (!scrape.ok() ||
      scrape->find("net_requests_served_total") == std::string::npos ||
      scrape->find("pipeline_scoring_seconds_count") == std::string::npos) {
    std::fprintf(stderr, "FAIL: wire metrics scrape missing expected "
                         "instruments\n");
    return 1;
  }

  const NetServerCounters counters = (*server)->counters();
  (*server)->Stop();
  std::printf("\nFinal epoch %llu: %zu records, %zu groups; %zu client "
              "queries answered in %llu batches over %llu connections.\n",
              static_cast<unsigned long long>(stats->epoch),
              stats->num_records, stats->num_groups, total_queries.load(),
              static_cast<unsigned long long>(counters.batches),
              static_cast<unsigned long long>(counters.connections_accepted));
  std::printf("PASS: every wire answer equals the direct view's.\n");

  const std::string dump_mode = flags.GetString("metrics-dump", "");
  if (dump_mode == "json") {
    std::printf("%s\n", obs::DumpMetricsJson(registry).c_str());
  } else if (!dump_mode.empty()) {
    std::printf("%s", obs::DumpMetricsText(registry).c_str());
  }
  return 0;
}
