#ifndef GRALMATCH_SHARD_SHARDED_PIPELINE_H_
#define GRALMATCH_SHARD_SHARDED_PIPELINE_H_

/// \file sharded_pipeline.h
/// The incremental entity-group matching engine. Record batches arrive via
/// Ingest(), corrections via Update() and deletions via Remove(), and
/// blocking, scores and groups update in place instead of being recomputed
/// from scratch. The record space is split across S shard-local states
/// (S = 1 is the unsharded case), and the result is the same at every S.
///
/// Each Ingest round runs four phases:
///
///  1. Route: a deterministic content-hash ShardRouter assigns every new
///     record to a shard (shard_router.h). Pair ownership follows record
///     ownership: a pair belongs to the shard of its smaller record id.
///  2. Exchange: shards publish their new records' blocking keys
///     (identifier values, content tokens) and the CandidateExchange folds
///     every publication into global incremental indexes, producing the
///     exact candidate-pair delta — including pairs and retractions that
///     span shards (candidate_exchange.h).
///  3. Score: each shard scores the delta pairs it owns that miss its
///     shard-local cache, all shards concurrently on one ThreadPool (the
///     flattened task list keeps per-shard slices contiguous).
///  4. Merge: every shard's positive-edge transitions are merged and
///     union-found into *global* components — cross-shard edges join
///     components living on different shards — and the shared
///     dirty-component cleanup (shard/group_store.h) re-cleans exactly the
///     touched region.
///
/// Remove() and Update() extend the same machinery to the full CRUD
/// surface: a removal tombstones the records (ids are never recycled and
/// payloads stay in the table), the exchange retracts their blocking keys
/// globally, owner shards evict the cached scores the dead records touch,
/// and the dirty-component cleanup re-cleans exactly the components that
/// lost a node or an edge. An update is an exact remove-then-add of the new
/// payload inside one mutation round.
///
/// Schedule-equivalence contract (enforced by tests/shard_test.cc and
/// tests/crud_test.cc): Snapshot() after ANY interleaved add/update/delete
/// schedule, at any shard count S and any thread count, is identical —
/// predicted pairs, pre-cleanup components, groups, and all cleanup
/// counters — to the S=1 result on the same mutation sequence and to a
/// from-scratch EntityGroupPipeline::Run on the final surviving record set
/// (modulo the monotone id compaction a fresh run would assign). Only the
/// wall-clock fields differ in meaning: Snapshot() reports times
/// accumulated across mutations. The argument: the exchange reproduces the
/// global candidate set exactly (additions and retractions both); a pair's
/// owner shard is stable, so the union of shard caches equals the S=1
/// cache key-for-key (each pair scored at most once per fingerprint,
/// pipeline-wide); the positive set is the same threshold test on the same
/// scores; and the merge feeds the identical transition stream to the
/// identical GroupStore machinery. The S=1 result itself equals the batch
/// pipeline's because both blockers delegate to the same incremental
/// indexes and the dirty-component rebuild reproduces the batch cleanup's
/// tie-breaks (shard/group_store.h).
///
/// Checkpoints are partitioned the same way the state is: one framed file
/// per shard plus a manifest (serve/sharded_checkpoint.h).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/record.h"
#include "matching/matcher.h"
#include "shard/candidate_exchange.h"
#include "shard/group_store.h"
#include "shard/pipeline_types.h"
#include "shard/shard_router.h"
#include "shard/shard_state.h"

namespace gralmatch {

class BinaryReader;
class BinaryWriter;
class ThreadPool;

/// Parameters of the sharded pipeline: the matching and blocking config
/// plus the partitioning.
struct ShardedPipelineConfig {
  /// Blocking/threshold/cleanup semantics (shard/pipeline_types.h);
  /// num_threads sizes the one pool all shards share.
  IncrementalPipelineConfig base;
  /// Number of shard-local states (clamped to at least 1).
  size_t num_shards = 1;
  /// Router seed: changes the partition, never the result.
  uint64_t router_seed = 0;
};

/// \brief Incremental entity-group matching pipeline over S shards.
class ShardedPipeline {
 public:
  explicit ShardedPipeline(ShardedPipelineConfig config);
  ~ShardedPipeline();

  ShardedPipeline(const ShardedPipeline&) = delete;
  ShardedPipeline& operator=(const ShardedPipeline&) = delete;

  /// Append `batch` to the record set and route, exchange, score and merge
  /// it; see file comment. The returned report is identical at every shard
  /// count (same scoring and cache-hit counts, same dirty-component scoping
  /// — only wall-clock differs). The matcher must be const-thread-safe (as
  /// in the batch pipeline). A matcher whose Fingerprint() differs from the
  /// previous call's invalidates every shard's score cache: every current
  /// candidate pair is rescored and every component re-cleaned. An empty
  /// batch is permitted (useful to swap matchers without new data).
  ///
  /// Fail-fast on a throwing matcher: an exception out of the matcher
  /// aborts the call with records and blocking indexes already updated but
  /// scores/groups not. The exception is swallowed, the pipeline is marked
  /// *poisoned*, and an Internal error is returned; every later mutation,
  /// Snapshot() and checkpoint save returns the same clean error. Discard a
  /// poisoned pipeline (or restore from a checkpoint) — re-ingesting the
  /// same batch would append its records a second time.
  Result<IngestReport> Ingest(const std::vector<Record>& batch,
                              const PairwiseMatcher& matcher);

  /// Tombstone `ids` pipeline-wide in one dirty pass: their blocking keys
  /// are retracted, their cached scores evicted, and every component that
  /// lost a node, an edge or a provenance bit is re-cleaned. Every id must
  /// be in range, alive and unique — a bad set is an InvalidArgument error
  /// and mutates nothing (no poisoning). `matcher` may be consulted: a
  /// retraction can re-admit a bucket or token that was previously over
  /// its cap, and re-admitted never-scored pairs must be scored.
  Result<IngestReport> Remove(const std::vector<RecordId>& ids,
                              const PairwiseMatcher& matcher);

  /// Replace each record's payload: an exact removal of the old ids plus an
  /// ingest of the new payloads in one mutation round (one dirty-component
  /// pass). New payloads get fresh ids; same validation as Remove.
  Result<IngestReport> Update(const std::vector<RecordUpdate>& batch,
                              const PairwiseMatcher& matcher);

  /// Current result; see the schedule-equivalence contract above.
  Result<PipelineResult> Snapshot() const;

  /// OK, or the poison error describing why the pipeline must be discarded.
  Status status() const;

  /// All ingested records in ingest order, ids assigned contiguously
  /// (global ids — shard membership never renumbers a record). Tombstoned
  /// records keep their slot; check is_alive().
  const RecordTable& records() const { return records_; }

  /// Liveness per record id (parallel to records()); 1 = alive.
  const std::vector<char>& alive() const { return alive_; }
  bool is_alive(RecordId id) const {
    return id >= 0 && static_cast<size_t>(id) < alive_.size() &&
           alive_[static_cast<size_t>(id)] != 0;
  }
  size_t num_dead() const { return num_dead_; }
  size_t num_live() const { return records_.size() - num_dead_; }

  const ShardedPipelineConfig& config() const { return config_; }

  /// Re-wire the observability sink. Runtime-only — never serialized into
  /// the manifest or shard bodies — so a pipeline restored from a sharded
  /// checkpoint always comes back uninstrumented; call this to resume
  /// recording into a caller-owned registry.
  void set_metrics(obs::MetricsRegistry* metrics) {
    config_.base.pipeline.metrics = metrics;
  }

  const ShardRouter& router() const { return router_; }
  size_t num_shards() const { return shards_.size(); }

  /// Records currently owned by `shard`.
  size_t ShardRecordCount(size_t shard) const {
    return shards_[shard].owned.size();
  }

  /// Fingerprint of the matcher used by the last mutation ("" before the
  /// first). The checkpoint manifest stores it and the loader compares it
  /// against the serving matcher, because the score caches are only valid
  /// under it.
  const std::string& fingerprint() const { return fingerprint_; }

  /// Cumulative matcher invocations / cache hits, summed over shards.
  size_t total_matcher_calls() const;
  size_t total_cache_hits() const;

  // -- Checkpoint bodies ----------------------------------------------------
  // Framing (magic, version, per-file checksums, the manifest's per-shard
  // checksum list) is serve/sharded_checkpoint.h's job.

  /// Global coordinator state: config (shard count and router seed
  /// included), fingerprint, record count, component-id high-water mark and
  /// cumulative wall-clock totals. Everything else lives in shard bodies.
  Status SerializeManifestBody(BinaryWriter* writer) const;

  /// Every shard's slice, one writer per shard (`writers` is resized to
  /// num_shards()): its records (with global ids), its tombstones (only
  /// when the pipeline has any dead record — tombstone-free pipelines keep
  /// the version 1 byte layout, serve/sharded_checkpoint.h stamps the
  /// version to match), score cache, positives, counters, and the
  /// components whose smallest node it owns. All slices serialize in one
  /// call so the component store is bucketed by owner shard in a single
  /// pass instead of scanned once per shard.
  Status SerializeShardBodies(std::vector<BinaryWriter>* writers) const;

  /// Reassemble a pipeline from a manifest body and all S shard bodies (in
  /// shard order), parsed under checkpoint format `version`. The global
  /// blocking indexes are rebuilt from the reassembled record table and
  /// tombstone set — index state is a pure function of (records,
  /// tombstones), so the rebuilt exchange produces exactly the deltas the
  /// saved one would — and every cross-shard invariant is re-validated:
  /// record ids must cover [0, n) exactly, each record must route to the
  /// shard that stored it, every candidate must be scored in its owner
  /// shard's cache, positives must be owned candidates, components must
  /// partition consistently and never contain a tombstoned record. Any
  /// violation is a clean error.
  static Result<std::unique_ptr<ShardedPipeline>> DeserializeFromParts(
      BinaryReader* manifest_body, std::vector<BinaryReader>* shard_bodies,
      uint32_t version, size_t num_threads_override = 0);

 private:
  IngestReport MutateImpl(const std::vector<Record>& adds,
                          const std::vector<RecordId>& removal_ids,
                          const PairwiseMatcher& matcher);

  Status ValidateRemovals(const std::vector<RecordId>& ids) const;

  Status PoisonError() const;

  /// Owner shard of a pair: the shard of its smaller record id.
  size_t OwnerOf(const RecordPair& pair) const {
    return shard_of_record_[static_cast<size_t>(pair.a)];
  }

  ShardedPipelineConfig config_;
  ShardRouter router_;
  std::unique_ptr<ThreadPool> pool_;
  RecordTable records_;
  /// Liveness per record id (parallel to records_); tombstoned slots stay.
  std::vector<char> alive_;
  size_t num_dead_ = 0;
  /// Shard per record id (parallel to records_).
  std::vector<uint32_t> shard_of_record_;
  std::vector<ShardState> shards_;
  CandidateExchange exchange_;

  /// Current candidate pairs -> blocker provenance bits (global: the
  /// cleanup needs provenance for pairs of any shard).
  std::unordered_map<RecordPair, uint32_t, RecordPairHash> candidate_prov_;
  std::string fingerprint_;

  /// Global components (cross-shard edges merge shard-disjoint node sets).
  GroupStore store_;

  bool poisoned_ = false;
  std::string poison_reason_;

  double scoring_seconds_total_ = 0.0;
  double cleanup_seconds_total_ = 0.0;
};

}  // namespace gralmatch

#endif  // GRALMATCH_SHARD_SHARDED_PIPELINE_H_
