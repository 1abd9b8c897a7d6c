#ifndef GRALMATCH_SHARD_SHARD_STATE_H_
#define GRALMATCH_SHARD_SHARD_STATE_H_

/// \file shard_state.h
/// The shard-local slice of a ShardedPipeline: which records the router
/// assigned to the shard, and the scoring state of the pairs the shard
/// *owns*. Pair ownership is deterministic — a pair belongs to the shard of
/// its smaller record id — so every pair has exactly one score cache
/// responsible for it and the union of all shard caches reproduces the
/// S=1 cache key-for-key (the heart of the shard-count invariance proof in
/// sharded_pipeline.h).
///
/// Only per-pair state is partitioned; the global state (records, blocking
/// indexes, component store) stays in the coordinating pipeline.

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "data/ground_truth.h"
#include "data/record.h"
#include "shard/group_store.h"

namespace gralmatch {

class BinaryReader;
class BinaryWriter;

/// \brief One shard's records and pair-scoring state.
struct ShardState {
  /// Global ids of the records routed to this shard, ascending (appended in
  /// ingest order, and ids are assigned in ingest order).
  std::vector<RecordId> owned;
  /// Score cache for the pairs this shard owns, under the pipeline's
  /// current matcher fingerprint.
  std::unordered_map<RecordPair, double, RecordPairHash> score_cache;
  /// Owned pairs currently at or above the match threshold.
  std::unordered_set<RecordPair, RecordPairHash> positives;
  /// Cumulative matcher invocations / cache hits attributed to this shard.
  size_t matcher_calls = 0;
  size_t cache_hits = 0;

  /// Serialize this shard's slice — owned records (with global ids and full
  /// payloads, so the union of all shard files reassembles the record
  /// table), tombstones (the owned ids that are dead in the pipeline-global
  /// `alive` mask; written only when `with_tombstones`, which the pipeline
  /// sets for ALL shards exactly when any record pipeline-wide is dead, so
  /// the per-file layout is a function of the checkpoint version alone),
  /// score cache, positives, counters, and the components whose smallest
  /// node this shard owns (`owned_components`, from the global GroupStore).
  /// Map-backed state is written sorted, so equal slices serialize to equal
  /// bytes.
  void Save(const RecordTable& records, const std::vector<char>& alive,
            bool with_tombstones,
            const std::vector<std::pair<int32_t, const GroupStore::ComponentState*>>&
                owned_components,
            BinaryWriter* writer) const;
};

/// Parsed form of ShardState::Save output; the coordinating pipeline merges
/// the parts of every shard back into global state.
struct ShardCheckpointPart {
  /// (global id, payload), ascending by id.
  std::vector<std::pair<RecordId, Record>> records;
  /// Dead ids owned by this shard, ascending (format v2+; empty before).
  std::vector<RecordId> tombstones;
  std::unordered_map<RecordPair, double, RecordPairHash> score_cache;
  std::vector<RecordPair> positives;
  size_t matcher_calls = 0;
  size_t cache_hits = 0;
  std::vector<std::pair<int32_t, GroupStore::ComponentState>> components;

  /// Read one shard body laid out under checkpoint format `version`.
  /// `num_records` bounds every record id and pair; record ids must be
  /// strictly ascending within the shard and tombstones must be a strictly
  /// ascending subset of them. Structural validation only — cross-shard
  /// invariants are the pipeline's job.
  static Result<ShardCheckpointPart> Parse(BinaryReader* reader,
                                           size_t num_records,
                                           uint32_t version);
};

}  // namespace gralmatch

#endif  // GRALMATCH_SHARD_SHARD_STATE_H_
