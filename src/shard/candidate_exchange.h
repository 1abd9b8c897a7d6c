#ifndef GRALMATCH_SHARD_CANDIDATE_EXCHANGE_H_
#define GRALMATCH_SHARD_CANDIDATE_EXCHANGE_H_

/// \file candidate_exchange.h
/// The cross-shard candidate discovery layer. Blocking is inherently global
/// — a token's document-frequency eligibility, the rising max-df cap, and a
/// record's top-n ranking all depend on the *whole* record set, and an
/// identifier bucket spans every shard holding the value — so shard-local
/// indexes alone would miss (or mistakenly keep) pairs whose evidence lives
/// on another shard.
///
/// The exchange solves this exactly rather than approximately: each shard
/// publishes its new records' blocking keys (identifier values and content
/// tokens, extracted shard-parallel via the indexes' ExtractKeys hooks), and
/// the exchange folds every shard's publications into one pair of global
/// incremental indexes (blocking/incremental_index.h). Pairs spanning shards
/// are therefore discovered — and retracted — exactly as one pair of
/// indexes over the whole record set would, which is what makes the sharded
/// pipeline's shard-count-invariance contract (sharded_pipeline.h) provable
/// instead of probabilistic.

#include <vector>

#include "blocking/incremental_index.h"
#include "data/record.h"
#include "shard/pipeline_types.h"

namespace gralmatch {

class ThreadPool;

/// Blocking keys one shard publishes for one newly ingested record.
struct RecordKeys {
  std::vector<std::string> id_keys;     ///< IncrementalIdOverlapIndex keys
  std::vector<std::string> token_keys;  ///< IncrementalTokenOverlapIndex keys
};

/// \brief Global blocking state fed by per-shard key publications.
class CandidateExchange {
 public:
  explicit CandidateExchange(const IncrementalPipelineConfig& config)
      : use_id_(config.use_id_blocker),
        use_token_(config.use_token_blocker),
        token_options_(config.token),
        token_index_(config.token) {}

  /// Exact candidate-set changes of one exchange round, per blocking.
  struct Deltas {
    CandidateDelta id;
    CandidateDelta token;
  };

  /// Fold the batch's published keys into the global indexes.
  /// `published[k]` holds the keys of record `records.size() - published.size() + k`
  /// (the newly appended tail), extracted by that record's owner shard with
  /// the respective index's ExtractKeys. Returns the exact global deltas.
  Deltas Exchange(const RecordTable& records,
                  std::vector<RecordKeys> published, ThreadPool* pool);

  /// Cross-shard retraction round: pull `removed_ids` (in range, live,
  /// unique, any owner shard) out of the global indexes. Keys are
  /// re-extracted from the records' retained payloads, so no shard needs to
  /// republish anything. Returns the exact global deltas — retraction can
  /// *add* pairs (a bucket shrinking back under its cap, a df falling back
  /// into eligibility).
  Deltas Retract(const RecordTable& records,
                 const std::vector<RecordId>& removed_ids, ThreadPool* pool);

  /// Rebuild the global indexes from scratch over `records` minus
  /// `dead_ids` (checkpoint restore): one bulk round of every record's
  /// publications followed by one bulk retraction of the tombstoned ids.
  /// Index state is a pure function of (record table, tombstone set) —
  /// every structure is defined by those plus the options, not by arrival
  /// history — so the rebuilt exchange diffs future batches exactly as the
  /// original would have.
  void RebuildFromRecords(const RecordTable& records,
                          const std::vector<RecordId>& dead_ids,
                          ThreadPool* pool);

  const IncrementalIdOverlapIndex& id_index() const { return id_index_; }
  const IncrementalTokenOverlapIndex& token_index() const {
    return token_index_;
  }

 private:
  bool use_id_ = true;
  bool use_token_ = true;
  TokenOverlapBlocker::Options token_options_;
  IncrementalIdOverlapIndex id_index_;
  IncrementalTokenOverlapIndex token_index_;
};

}  // namespace gralmatch

#endif  // GRALMATCH_SHARD_CANDIDATE_EXCHANGE_H_
