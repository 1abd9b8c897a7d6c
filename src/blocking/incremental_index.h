#ifndef GRALMATCH_BLOCKING_INCREMENTAL_INDEX_H_
#define GRALMATCH_BLOCKING_INCREMENTAL_INDEX_H_

/// \file incremental_index.h
/// Incremental blocking indexes for streaming ingestion: the Token Overlap
/// and ID Overlap blockings maintained as in-place updatable inverted
/// indexes. Each AddRecords call absorbs a batch of appended records and
/// each RemoveRecords call retracts previously added ones; both return the
/// exact delta of the blocker's candidate-pair set, with the recomputation
/// scoped to the records the mutation can actually affect (dirty records /
/// touched identifier buckets).
///
/// Invariant: after any sequence of AddRecords/RemoveRecords calls, the
/// current pair set equals the batch blocker run on the live records. The
/// batch blockers (TokenOverlapBlocker, securities-mode IdOverlapBlocker)
/// delegate to these indexes, so the equivalence holds by construction —
/// there is one implementation of the blocking semantics, not two.
///
/// Note that both blockings are *not* monotone in their inputs: an
/// identifier bucket that grows past the bucket cap retracts every pair it
/// previously produced, a token crossing the document-frequency bounds
/// changes overlap counts globally, and a new record can displace an old one
/// from a record's top-n list. This is why AddRecords reports removed pairs
/// as well as added ones.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "blocking/id_overlap.h"
#include "blocking/token_overlap.h"
#include "common/status.h"
#include "data/record.h"

namespace gralmatch {

class BinaryReader;
class BinaryWriter;
class ThreadPool;

/// Candidate-pair membership changes produced by one AddRecords or
/// RemoveRecords call. `added` pairs entered the blocker's current candidate
/// set, `removed` pairs left it; both are sorted ascending and disjoint.
struct CandidateDelta {
  std::vector<RecordPair> added;
  std::vector<RecordPair> removed;
};

/// \brief In-place updatable Token Overlap blocking (§5.3.1 semantics).
///
/// Maintains per-record token sets, document frequencies and postings. A
/// mutation fully re-ranks only the records whose top-n list can change in
/// ways the old list cannot tell: records that gain or lose an overlap with
/// another surviving record. Every other record's overlaps with the records
/// it already ranked are unchanged, so its new list follows exactly from the
/// old one (see AddPublishedRecords and RemoveRecords).
class IncrementalTokenOverlapIndex {
 public:
  IncrementalTokenOverlapIndex() : options_() {}
  /// `options.num_threads` is ignored; pass a pool to AddRecords instead.
  explicit IncrementalTokenOverlapIndex(TokenOverlapBlocker::Options options)
      : options_(options) {}

  /// Absorb records [num_records(), records.size()). `records` must contain
  /// every previously added record unchanged; `pool` (optional) fans out
  /// tokenization and re-ranking without affecting the result.
  CandidateDelta AddRecords(const RecordTable& records,
                            ThreadPool* pool = nullptr);

  /// The blocking keys one record publishes to a candidate-exchange layer:
  /// its content tokens, sorted and deduplicated. Document-frequency
  /// eligibility is deliberately *not* applied here — the df bounds are a
  /// property of the global record set, which only the index (fed by every
  /// shard's publications) can evaluate.
  static std::vector<std::string> ExtractKeys(const Record& record);

  /// Key-publication hook for the candidate-exchange layer
  /// (shard/candidate_exchange.h): absorb records
  /// [num_records(), records.size()) whose keys were already extracted by
  /// the publishing side. `published[k]` must equal
  /// ExtractKeys(records.at(num_records() + k)); AddRecords is exactly
  /// ExtractKeys on each new record followed by this call, so both paths
  /// produce identical deltas and identical index state.
  ///
  /// Re-ranked in full: the new records, the holders of a touched token
  /// whose eligibility flipped while it had at least two pre-batch holders,
  /// and the holders of untouched tokens re-admitted by the rising df cap.
  /// Every other old record kept all of its overlaps with old records, so
  /// its new list is the top-n of its old list plus the new records that
  /// overlap it in at least min_overlap tokens (read off the new records'
  /// own rankings — overlap is symmetric).
  CandidateDelta AddPublishedRecords(
      const RecordTable& records,
      std::vector<std::vector<std::string>> published,
      ThreadPool* pool = nullptr);

  /// Retract previously added records. Each id in `removed_ids` (in range,
  /// unique, not yet removed) gives up its tokens: document frequencies
  /// drop and the max-df cap is recomputed from the live-record count.
  /// Re-ranked: the live holders of an eligibility-flipped token that still
  /// has at least two live holders (including tokens pushed back *under*
  /// the falling cap), the holders of untouched tokens dropped by the
  /// falling cap, and the live records whose kept list held a removed
  /// record. No other live record has a live-live overlap changed, so its
  /// list stands. `records` must still hold the removed records' payloads
  /// (the table is append-only; removal is logical). The delta may contain
  /// added pairs: retraction is not monotone either, a df falling back into
  /// [2, max_df] re-admits its token.
  CandidateDelta RemoveRecords(const RecordTable& records,
                               const std::vector<RecordId>& removed_ids,
                               ThreadPool* pool = nullptr);

  /// Current candidate pairs (unsorted).
  std::vector<RecordPair> CurrentPairs() const;

  size_t num_records() const { return num_records_; }
  /// Live (non-retracted) records; the max-df cap is a fraction of this
  /// count, not of the table size.
  size_t num_live() const { return num_live_; }
  /// Restore the live count after LoadState (which defaults every record to
  /// alive — the owning pipeline carries the tombstone set).
  void SetNumLive(size_t live) { num_live_ = live; }
  size_t num_tokens() const { return tokens_.size(); }

  /// Serialize the complete index state (options included) into `writer`.
  /// Map-backed members are emitted in sorted order, so the bytes are a
  /// deterministic function of the logical state.
  void SaveState(BinaryWriter* writer) const;

  /// Restore the state written by SaveState, replacing the current contents.
  /// The per-record sources are re-read from the record table on the next
  /// mutation. Returns an error on truncated or inconsistent input, leaving
  /// the index in an unspecified state that must be discarded.
  Status LoadState(BinaryReader* reader);

 private:
  struct TokenInfo {
    uint32_t df = 0;
    std::vector<RecordId> postings;  ///< holders, ascending record id
  };

  /// A record and its overlap count with the record being ranked.
  struct Scored {
    RecordId id;
    uint32_t count;
  };
  /// A record's replacement top-n list, installed by InstallKept.
  struct KeptUpdate {
    RecordId record;
    std::vector<RecordId> kept;
  };

  /// Every other-source record overlapping `record` in at least min_overlap
  /// eligible tokens, in no particular order.
  std::vector<Scored> Overlaps(RecordId record) const;
  /// Eligible tokens `a` and `b` share.
  uint32_t OverlapCount(RecordId a, RecordId b) const;
  /// The top-n of `ranked` by (count desc, id asc), the batch blocker's
  /// tie-break; partially sorts `ranked` but keeps every element.
  std::vector<RecordId> TopN(std::vector<Scored>* ranked) const;
  /// Top-n other-source records by token overlap for one record.
  std::vector<RecordId> RankRecord(RecordId record) const;
  /// Extend sources_ to the first `n` records of `records`.
  void SyncSources(const RecordTable& records, size_t n);
  /// Recompute the df cap from the live-record count.
  void UpdateMaxDf();
  /// Current document frequency of every token, by token id.
  std::vector<uint32_t> DocumentFrequencies() const;
  /// Set `(*marks)[r] = mark` for every holder r of a token whose
  /// eligibility flipped between the pre-mutation state (`old_df`, indexed
  /// by token id, and `old_max_df`) and now, while at least two of its
  /// holders stayed through the mutation.
  void MarkFlippedHolders(const std::vector<uint32_t>& old_df,
                          uint32_t old_max_df, std::vector<char>* marks,
                          char mark) const;
  /// Replace each update's kept list in order, bumping the refcount of every
  /// pair that entered or left it, and return the membership delta.
  CandidateDelta InstallKept(std::vector<KeptUpdate> updates);

  TokenOverlapBlocker::Options options_;
  size_t num_records_ = 0;
  size_t num_live_ = 0;
  uint32_t max_df_ = 1;
  std::unordered_map<std::string, int32_t> token_id_;
  std::vector<TokenInfo> tokens_;
  /// Token ids per record (unique).
  std::vector<std::vector<int32_t>> record_tokens_;
  /// Current top-n candidate list per record.
  std::vector<std::vector<RecordId>> kept_;
  /// Pair -> number of kept-lists currently containing it (1 or 2).
  std::unordered_map<RecordPair, uint32_t, RecordPairHash> refcount_;
  /// Source of each record, so ranking never dereferences the record table.
  /// Derived and never serialized: LoadState clears it and the next
  /// mutation re-reads it from the table.
  std::vector<SourceId> sources_;
};

/// \brief In-place updatable ID Overlap blocking (securities mode): records
/// sharing an identifier value become candidates while the value's bucket
/// stays within [2, max_bucket] holders. Buckets growing past the cap
/// retract their pairs, exactly as a from-scratch run would drop them.
class IncrementalIdOverlapIndex {
 public:
  IncrementalIdOverlapIndex() = default;
  explicit IncrementalIdOverlapIndex(size_t max_bucket)
      : max_bucket_(max_bucket) {}

  /// Absorb records [num_records(), records.size()); same contract as
  /// IncrementalTokenOverlapIndex::AddRecords.
  CandidateDelta AddRecords(const RecordTable& records,
                            ThreadPool* pool = nullptr);

  /// The blocking keys one record publishes: its identifier values, in
  /// attribute order with repeats preserved (a record carrying one value
  /// under several attributes publishes it once per attribute, exactly as
  /// the index ingests it).
  static std::vector<std::string> ExtractKeys(const Record& record);

  /// Key-publication hook; same contract as the token index's
  /// AddPublishedRecords: `published[k]` must equal
  /// ExtractKeys(records.at(num_records() + k)).
  CandidateDelta AddPublishedRecords(
      const RecordTable& records,
      const std::vector<std::vector<std::string>>& published,
      ThreadPool* pool = nullptr);

  /// Retract previously added records: each removed id's identifier values
  /// release their holder entries (surviving holder order preserved, empty
  /// buckets retained), and every touched bucket re-derives its pair
  /// contribution — a bucket shrinking back into [2, max_bucket] holders
  /// *re-admits* pairs it had overflowed away. Preconditions as for
  /// IncrementalTokenOverlapIndex::RemoveRecords.
  CandidateDelta RemoveRecords(const RecordTable& records,
                               const std::vector<RecordId>& removed_ids,
                               ThreadPool* pool = nullptr);

  /// Current candidate pairs (unsorted).
  std::vector<RecordPair> CurrentPairs() const;

  size_t num_records() const { return num_records_; }

  /// Serialize / restore the complete index state; same contract as the
  /// token index's SaveState/LoadState. Bucket holder order is preserved
  /// verbatim (it determines how future batches diff against the past).
  void SaveState(BinaryWriter* writer) const;
  Status LoadState(BinaryReader* reader);

 private:
  size_t max_bucket_ = IdOverlapBlocker::kMaxBucket;
  size_t num_records_ = 0;
  /// Identifier value -> holder record ids (insertion order, may repeat a
  /// record that carries the value under several attributes).
  std::unordered_map<std::string, std::vector<RecordId>> index_;
  /// Pair -> number of identifier buckets currently producing it.
  std::unordered_map<RecordPair, uint32_t, RecordPairHash> refcount_;
};

}  // namespace gralmatch

#endif  // GRALMATCH_BLOCKING_INCREMENTAL_INDEX_H_
