// Ingest-while-querying through the incremental engine, end to end. A
// synthetic securities feed streams in batches through a ShardedPipeline
// (content-hash routed across --shards shard-local states, candidates
// exchanged globally, scored shard-parallel, merged into global
// components). After each batch the ingest thread publishes an epoch
// snapshot to a MatchService, while reader threads concurrently answer
// GroupOf / Members / Stats queries against whatever epoch is current —
// every reader always sees one consistent epoch.
//
// Mid-stream the run exercises durability: the pipeline is checkpointed to
// a manifest + per-shard files, destroyed, restored from disk (the restore
// must reproduce the saved snapshot), and ingestion resumes.
//
// The run exits nonzero unless the final snapshot is identical to BOTH
//   (a) a from-scratch batch EntityGroupPipeline::Run on the union, and
//   (b) an unsharded (S=1) run of the same schedule,
// i.e. it drives the shard-count-invariance and checkpoint contracts that
// tests/shard_test.cc pins, through the public API.
//
// The run is instrumented (obs/metrics.h): blocking / routing / exchange /
// scoring / cleanup phase latencies, mutation counters, publish timings
// and the checkpoint save/load timings all land in one MetricsRegistry
// (the unsharded control runs uninstrumented so the dump reflects the
// served run only). `--metrics-dump text|json` prints the final scrape.
//
//   ./examples/sharded_loop [--groups N] [--batches K] [--shards S]
//       [--readers R] [--num_threads T] [--checkpoint_dir PATH]
//       [--metrics-dump text|json]

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "blocking/id_overlap.h"
#include "blocking/token_overlap.h"
#include "common/cli.h"
#include "core/pipeline.h"
#include "datagen/financial_gen.h"
#include "exec/thread_pool.h"
#include "matching/baselines.h"
#include "obs/metrics.h"
#include "serve/match_service.h"
#include "serve/sharded_checkpoint.h"
#include "shard/sharded_pipeline.h"

using namespace gralmatch;

namespace {

PipelineResult Reference(const RecordTable& records,
                         const IncrementalPipelineConfig& config,
                         const PairwiseMatcher& matcher) {
  Dataset ds;
  ds.records = records;
  CandidateSet candidates;
  IdOverlapBlocker().AddCandidates(ds, &candidates);
  TokenOverlapBlocker(config.token).AddCandidates(ds, &candidates);
  return EntityGroupPipeline(config.pipeline)
      .Run(ds, candidates.ToVector(), matcher);
}

bool SameResult(const PipelineResult& a, const PipelineResult& b) {
  return a.predicted_pairs == b.predicted_pairs && a.groups == b.groups &&
         a.pre_cleanup_components == b.pre_cleanup_components;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags = CliFlags::Parse(argc, argv);
  const size_t num_groups =
      static_cast<size_t>(std::max<int64_t>(1, flags.GetInt("groups", 80)));
  const size_t num_batches =
      static_cast<size_t>(std::max<int64_t>(1, flags.GetInt("batches", 8)));
  const size_t num_shards =
      static_cast<size_t>(std::max<int64_t>(1, flags.GetInt("shards", 4)));
  const size_t num_readers =
      static_cast<size_t>(std::max<int64_t>(0, flags.GetInt("readers", 3)));
  const std::string checkpoint_dir =
      flags.GetString("checkpoint_dir", "sharded_loop_ckpt");

  SyntheticConfig gen_config;
  gen_config.seed = 404;
  gen_config.num_groups = num_groups;
  FinancialBenchmark bench = FinancialGenerator(gen_config).Generate();
  const std::vector<Record>& records = bench.securities.records.records();
  const size_t batch_size = (records.size() + num_batches - 1) / num_batches;
  std::printf("Feed: %zu security records in %zu batches of <=%zu across "
              "%zu shards, %zu readers.\n",
              records.size(), num_batches, batch_size, num_shards,
              num_readers);

  ShardedPipelineConfig config;
  config.base.pipeline.cleanup.gamma = 8;
  config.base.pipeline.cleanup.mu = 4;
  config.base.pipeline.pre_cleanup_threshold = 12;
  config.base.pipeline.match_threshold = 0.5;
  config.base.pipeline.num_threads =
      ResolveNumThreads(flags.GetInt("num_threads", 2));
  config.num_shards = num_shards;
  config.router_seed = 7;
  HeuristicIdMatcher matcher;

  // One registry for the served run: pipeline phases, publish latency and
  // the checkpoint drill all record into it.
  obs::MetricsRegistry registry;
  config.base.pipeline.metrics = &registry;

  auto sharded = std::make_unique<ShardedPipeline>(config);
  MatchService service(&registry);
  // The unsharded control runs the same schedule; shard-count invariance
  // says the two snapshots never diverge.
  ShardedPipelineConfig control_config;
  control_config.base = config.base;
  control_config.base.pipeline.metrics = nullptr;
  ShardedPipeline unsharded(control_config);

  // Readers hammer the service for the whole run: they see epoch 0 (empty)
  // until the first publish, then whichever epoch is current.
  std::atomic<bool> done{false};
  std::atomic<size_t> total_queries{0};
  std::vector<std::thread> readers;
  readers.reserve(num_readers);
  for (size_t t = 0; t < num_readers; ++t) {
    readers.emplace_back([&service, &done, &total_queries, t] {
      size_t queries = 0;
      uint32_t rng_state = static_cast<uint32_t>(t) * 2654435761u + 1u;
      while (!done.load(std::memory_order_acquire)) {
        MatchSnapshotPtr view = service.View();
        const ServeStats stats = view->stats();
        if (stats.num_records == 0) continue;
        rng_state = rng_state * 1664525u + 1013904223u;
        const RecordId r = static_cast<RecordId>(rng_state % stats.num_records);
        const GroupId gid = view->GroupOf(r);
        // Within one view, GroupOf and Members always agree — a torn read
        // across epochs would trip this.
        const auto& members = view->Members(gid);
        bool found = false;
        for (RecordId m : members) found = found || m == r;
        if (!found) {
          std::fprintf(stderr, "reader %zu: record %d missing from its own "
                               "group at epoch %llu\n",
                       t, r, static_cast<unsigned long long>(stats.epoch));
          std::abort();
        }
        ++queries;
      }
      total_queries.fetch_add(queries);
    });
  }

  auto ingest_batch = [&](size_t index) {
    // Clamp both ends: more batches than records leaves trailing indexes
    // with an empty (but well-defined) slice.
    const size_t begin = std::min(index * batch_size, records.size());
    const size_t end = std::min(begin + batch_size, records.size());
    std::vector<Record> batch(records.begin() + static_cast<long>(begin),
                              records.begin() + static_cast<long>(end));
    Result<IngestReport> sharded_report = sharded->Ingest(batch, matcher);
    Result<IngestReport> mono_report = unsharded.Ingest(batch, matcher);
    if (!sharded_report.ok() || !mono_report.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n",
                   (!sharded_report.ok() ? sharded_report.status()
                                         : mono_report.status())
                       .ToString()
                       .c_str());
      std::abort();
    }
    const IngestReport& report = *sharded_report;
    const uint64_t epoch = service.Publish(sharded->Snapshot().ValueOrDie(),
                                           sharded->records().size());
    std::printf("  epoch %2llu: +%zu records, %zu scored, %zu cache hits, "
                "%zu/%zu components rebuilt\n",
                static_cast<unsigned long long>(epoch), report.records_added,
                report.pairs_scored, report.cache_hits,
                report.components_rebuilt,
                report.components_rebuilt + report.components_reused);
  };

  const size_t half = num_batches / 2;
  std::printf("Ingesting first %zu batches...\n", half);
  for (size_t b = 0; b < half; ++b) ingest_batch(b);

  // Durability drill: manifest + per-shard files, destroy, restore, verify.
  // Passing the registry times the save/load into the checkpoint_*_seconds
  // histograms; the bytes written are identical either way. The readers
  // keep querying the last published epoch throughout.
  Status saved = SaveShardedCheckpoint(*sharded, checkpoint_dir, &registry);
  if (!saved.ok()) {
    std::fprintf(stderr, "checkpoint save failed: %s\n",
                 saved.ToString().c_str());
    std::abort();
  }
  const PipelineResult before = sharded->Snapshot().ValueOrDie();
  sharded.reset();
  auto restored = LoadShardedCheckpoint(checkpoint_dir, matcher,
                                        /*num_threads_override=*/0, &registry);
  if (!restored.ok()) {
    std::fprintf(stderr, "checkpoint load failed: %s\n",
                 restored.status().ToString().c_str());
    std::abort();
  }
  sharded = restored.MoveValueUnsafe();
  // The registry pointer never enters the manifest or shard bodies, so the
  // restored pipeline comes back uninstrumented until re-wired.
  sharded->set_metrics(&registry);
  if (!SameResult(sharded->Snapshot().ValueOrDie(), before)) {
    std::fprintf(stderr, "restored snapshot differs from saved state\n");
    std::abort();
  }
  std::printf("Checkpointed %zu records to %s/ (manifest + %zu shard "
              "files), restarted from it (snapshot identical).\n",
              sharded->records().size(), checkpoint_dir.c_str(),
              sharded->num_shards());

  std::printf("Ingesting remaining batches while readers query...\n");
  for (size_t b = half; b < num_batches; ++b) ingest_batch(b);

  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  const ServeStats stats = service.Stats();
  std::printf("\nFinal epoch %llu: %zu records, %zu groups (%zu matched), "
              "%zu positive pairs; readers answered %zu queries during "
              "ingestion.\n",
              static_cast<unsigned long long>(stats.epoch), stats.num_records,
              stats.num_groups, stats.num_matched_groups,
              stats.num_predicted_pairs, total_queries.load());
  for (size_t s = 0; s < sharded->num_shards(); ++s) {
    std::printf("  shard %zu owns %zu records\n", s,
                sharded->ShardRecordCount(s));
  }

  const PipelineResult final_snapshot = sharded->Snapshot().ValueOrDie();
  if (!SameResult(final_snapshot, unsharded.Snapshot().ValueOrDie())) {
    std::fprintf(stderr, "FAIL: sharded snapshot differs from the "
                         "unsharded (S=1) run\n");
    return 1;
  }
  if (!SameResult(final_snapshot,
                  Reference(sharded->records(), control_config.base,
                            matcher))) {
    std::fprintf(stderr, "FAIL: final snapshot differs from the "
                         "from-scratch reference\n");
    return 1;
  }
  std::printf("PASS: sharded + restarted run equals both the unsharded run "
              "and the from-scratch reference (%zu matcher calls, %zu cache "
              "hits).\n",
              sharded->total_matcher_calls(), sharded->total_cache_hits());

  const std::string dump_mode = flags.GetString("metrics-dump", "");
  if (dump_mode == "json") {
    std::printf("%s\n", obs::DumpMetricsJson(registry).c_str());
  } else if (!dump_mode.empty()) {
    std::printf("%s", obs::DumpMetricsText(registry).c_str());
  }
  return 0;
}
