#ifndef GRALMATCH_SHARD_PIPELINE_TYPES_H_
#define GRALMATCH_SHARD_PIPELINE_TYPES_H_

/// \file pipeline_types.h
/// The value types of the incremental engine's API (shard/sharded_pipeline.h):
/// the matching and blocking configuration it maintains, one record
/// correction, and the report of one mutation.

#include <cstddef>

#include "blocking/token_overlap.h"
#include "core/pipeline.h"
#include "data/record.h"

namespace gralmatch {

/// Matching and blocking parameters of the incremental engine: the batch
/// pipeline's config plus the blocking setup it maintains incrementally.
struct IncrementalPipelineConfig {
  /// Threshold, cleanup, pre-cleanup and num_threads semantics are exactly
  /// those of the batch EntityGroupPipeline.
  PipelineConfig pipeline;
  /// Token Overlap blocking parameters (num_threads is taken from
  /// `pipeline.num_threads`, not from here).
  TokenOverlapBlocker::Options token;
  bool use_token_blocker = true;
  bool use_id_blocker = true;
};

/// One correction: tombstone the live record `id` and ingest `record` as
/// its replacement (under a fresh id — ids are never recycled).
struct RecordUpdate {
  RecordId id = kInvalidRecord;
  Record record;
};

/// What one Ingest/Update/Remove call did — cache effectiveness and
/// dirty-component scoping, for observability and tests.
struct IngestReport {
  size_t records_added = 0;
  size_t records_removed = 0;
  /// Candidate pairs that entered / left the maintained candidate set.
  size_t candidates_added = 0;
  size_t candidates_removed = 0;
  /// Matcher invocations this call (pairs scored for the first time under
  /// the current fingerprint).
  size_t pairs_scored = 0;
  /// Candidate pairs whose score was served from the cache (pairs that
  /// re-entered the candidate set after a retraction).
  size_t cache_hits = 0;
  /// Cached scores dropped because an endpoint was tombstoned (ids are
  /// never recycled, so an evicted entry can never be asked for again).
  size_t cache_evictions = 0;
  /// Components re-cleaned vs. spliced through unchanged.
  size_t components_rebuilt = 0;
  size_t components_reused = 0;
  double scoring_seconds = 0.0;
  double cleanup_seconds = 0.0;
};

}  // namespace gralmatch

#endif  // GRALMATCH_SHARD_PIPELINE_TYPES_H_
