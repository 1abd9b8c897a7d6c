#include "blocking/incremental_index.h"

#include <algorithm>
#include <utility>

#include "common/binary_io.h"
#include "exec/parallel.h"
#include "text/normalize.h"

namespace gralmatch {

namespace {

/// Serialize a pair->refcount map in sorted pair order (deterministic bytes).
void WriteRefcounts(
    const std::unordered_map<RecordPair, uint32_t, RecordPairHash>& refcount,
    BinaryWriter* writer) {
  std::vector<std::pair<RecordPair, uint32_t>> entries(refcount.begin(),
                                                       refcount.end());
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  writer->WriteU64(entries.size());
  for (const auto& [pair, count] : entries) {
    writer->WriteI32(pair.a);
    writer->WriteI32(pair.b);
    writer->WriteU32(count);
  }
}

/// Read a pair->refcount map whose record ids must lie in [0, limit) and
/// whose counts must be positive (zero entries are never stored).
Status ReadRefcounts(
    BinaryReader* reader, size_t limit,
    std::unordered_map<RecordPair, uint32_t, RecordPairHash>* refcount) {
  uint64_t count = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(12, &count));
  refcount->clear();
  refcount->reserve(static_cast<size_t>(count));
  for (uint64_t k = 0; k < count; ++k) {
    RecordPair pair;
    uint32_t refs = 0;
    GRALMATCH_RETURN_NOT_OK(reader->ReadI32(&pair.a));
    GRALMATCH_RETURN_NOT_OK(reader->ReadI32(&pair.b));
    GRALMATCH_RETURN_NOT_OK(reader->ReadU32(&refs));
    if (pair.a < 0 || pair.b < 0 || static_cast<size_t>(pair.a) >= limit ||
        static_cast<size_t>(pair.b) >= limit || refs == 0) {
      return Status::IOError("corrupted index state: bad refcount entry");
    }
    (*refcount)[pair] = refs;
  }
  return Status::OK();
}

void WriteRecordIds(const std::vector<RecordId>& ids, BinaryWriter* writer) {
  writer->WriteU64(ids.size());
  for (RecordId id : ids) writer->WriteI32(id);
}

/// Read a RecordId vector whose entries must lie in [0, limit).
Status ReadRecordIds(BinaryReader* reader, size_t limit,
                     std::vector<RecordId>* ids) {
  uint64_t count = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(4, &count));
  ids->clear();
  ids->reserve(static_cast<size_t>(count));
  for (uint64_t k = 0; k < count; ++k) {
    RecordId id = kInvalidRecord;
    GRALMATCH_RETURN_NOT_OK(reader->ReadI32(&id));
    if (id < 0 || static_cast<size_t>(id) >= limit) {
      return Status::IOError("corrupted index state: record id " +
                             std::to_string(id) + " out of range");
    }
    ids->push_back(id);
  }
  return Status::OK();
}

using RefcountMap = std::unordered_map<RecordPair, uint32_t, RecordPairHash>;

/// One mutation's refcount bookkeeping. Bump adjusts a pair's refcount and
/// snapshots its pre-mutation value once; Finish compares each touched
/// pair's snapshot against its current count, emits the membership
/// transitions and drops zero entries. Deltas are sorted so callers see a
/// deterministic order regardless of hash-map iteration.
class RefcountDelta {
 public:
  explicit RefcountDelta(RefcountMap* refcount) : refcount_(refcount) {}

  void Bump(const RecordPair& pair, int delta) {
    uint32_t& count = (*refcount_)[pair];
    old_ref_.emplace(pair, count);
    count = static_cast<uint32_t>(static_cast<int>(count) + delta);
  }

  CandidateDelta Finish() {
    CandidateDelta delta;
    for (const auto& [pair, old_count] : old_ref_) {
      auto it = refcount_->find(pair);
      const uint32_t now = it == refcount_->end() ? 0 : it->second;
      if (old_count == 0 && now > 0) {
        delta.added.push_back(pair);
      } else if (old_count > 0 && now == 0) {
        delta.removed.push_back(pair);
      }
      if (now == 0 && it != refcount_->end()) refcount_->erase(it);
    }
    std::sort(delta.added.begin(), delta.added.end());
    std::sort(delta.removed.begin(), delta.removed.end());
    return delta;
  }

 private:
  RefcountMap* refcount_;
  RefcountMap old_ref_;
};

bool Eligible(uint32_t df, uint32_t max_df) { return df >= 2 && df <= max_df; }

/// Per-thread scratch for ranking: a dense overlap counter indexed by record
/// id, kept all-zero between rankings by resetting only the entries listed
/// in `touched`, so one ranking costs the postings it scans, not the table.
struct OverlapCounter {
  std::vector<uint32_t> count;
  std::vector<RecordId> touched;
};

OverlapCounter& ThreadCounter(size_t num_records) {
  thread_local OverlapCounter counter;
  if (counter.count.size() < num_records) counter.count.resize(num_records);
  return counter;
}

}  // namespace

// ---------------------------------------------------------------------------
// Token Overlap
// ---------------------------------------------------------------------------

std::vector<IncrementalTokenOverlapIndex::Scored>
IncrementalTokenOverlapIndex::Overlaps(RecordId record) const {
  OverlapCounter& counter = ThreadCounter(num_records_);
  const SourceId source = sources_[static_cast<size_t>(record)];
  for (int32_t tid : record_tokens_[static_cast<size_t>(record)]) {
    const TokenInfo& info = tokens_[static_cast<size_t>(tid)];
    if (!Eligible(info.df, max_df_)) continue;
    // The source test also skips `record` itself.
    for (RecordId other : info.postings) {
      if (sources_[static_cast<size_t>(other)] == source) continue;
      if (counter.count[static_cast<size_t>(other)]++ == 0) {
        counter.touched.push_back(other);
      }
    }
  }
  std::vector<Scored> ranked;
  for (RecordId other : counter.touched) {
    uint32_t& count = counter.count[static_cast<size_t>(other)];
    if (count >= options_.min_overlap) ranked.push_back({other, count});
    count = 0;
  }
  counter.touched.clear();
  return ranked;
}

uint32_t IncrementalTokenOverlapIndex::OverlapCount(RecordId a,
                                                    RecordId b) const {
  uint32_t count = 0;
  for (int32_t tid : record_tokens_[static_cast<size_t>(a)]) {
    const TokenInfo& info = tokens_[static_cast<size_t>(tid)];
    if (Eligible(info.df, max_df_) &&
        std::binary_search(info.postings.begin(), info.postings.end(), b)) {
      ++count;
    }
  }
  return count;
}

std::vector<RecordId> IncrementalTokenOverlapIndex::TopN(
    std::vector<Scored>* ranked) const {
  const size_t keep = std::min(options_.top_n, ranked->size());
  std::partial_sort(ranked->begin(), ranked->begin() + static_cast<long>(keep),
                    ranked->end(), [](const Scored& a, const Scored& b) {
                      if (a.count != b.count) return a.count > b.count;
                      return a.id < b.id;
                    });
  std::vector<RecordId> kept;
  kept.reserve(keep);
  for (size_t k = 0; k < keep; ++k) kept.push_back((*ranked)[k].id);
  return kept;
}

std::vector<RecordId> IncrementalTokenOverlapIndex::RankRecord(
    RecordId record) const {
  std::vector<Scored> ranked = Overlaps(record);
  return TopN(&ranked);
}

void IncrementalTokenOverlapIndex::SyncSources(const RecordTable& records,
                                               size_t n) {
  for (size_t r = sources_.size(); r < n; ++r) {
    sources_.push_back(records.at(static_cast<RecordId>(r)).source());
  }
}

void IncrementalTokenOverlapIndex::UpdateMaxDf() {
  // The df cap is a fraction of the *live* record count: a from-scratch run
  // on the survivors never sees the retracted records at all.
  max_df_ = static_cast<uint32_t>(options_.max_token_df *
                                  static_cast<double>(num_live_)) +
            1;
}

std::vector<uint32_t> IncrementalTokenOverlapIndex::DocumentFrequencies()
    const {
  std::vector<uint32_t> df;
  df.reserve(tokens_.size());
  for (const TokenInfo& info : tokens_) df.push_back(info.df);
  return df;
}

void IncrementalTokenOverlapIndex::MarkFlippedHolders(
    const std::vector<uint32_t>& old_df, uint32_t old_max_df,
    std::vector<char>* marks, char mark) const {
  for (size_t tid = 0; tid < tokens_.size(); ++tid) {
    const TokenInfo& info = tokens_[tid];
    // The smaller df counts the holders present on both sides: a flip with
    // fewer than two of them changes no overlap between such records. An
    // untouched token (equal dfs) flips only when the moving cap crosses it.
    if (std::min(old_df[tid], info.df) < 2 ||
        Eligible(old_df[tid], old_max_df) == Eligible(info.df, max_df_)) {
      continue;
    }
    for (RecordId r : info.postings) (*marks)[static_cast<size_t>(r)] = mark;
  }
}

CandidateDelta IncrementalTokenOverlapIndex::InstallKept(
    std::vector<KeptUpdate> updates) {
  RefcountDelta delta(&refcount_);
  for (KeptUpdate& update : updates) {
    const RecordId i = update.record;
    std::vector<RecordId>& before = kept_[static_cast<size_t>(i)];
    const std::vector<RecordId>& after = update.kept;
    for (RecordId o : before) {
      if (std::find(after.begin(), after.end(), o) == after.end()) {
        delta.Bump(RecordPair(i, o), -1);
      }
    }
    for (RecordId o : after) {
      if (std::find(before.begin(), before.end(), o) == before.end()) {
        delta.Bump(RecordPair(i, o), +1);
      }
    }
    before = std::move(update.kept);
  }
  return delta.Finish();
}

std::vector<std::string> IncrementalTokenOverlapIndex::ExtractKeys(
    const Record& record) {
  auto toks = TokenizeContentWords(record.AllText());
  std::sort(toks.begin(), toks.end());
  toks.erase(std::unique(toks.begin(), toks.end()), toks.end());
  return toks;
}

CandidateDelta IncrementalTokenOverlapIndex::AddRecords(
    const RecordTable& records, ThreadPool* pool) {
  const size_t old_n = num_records_;
  const size_t new_n = records.size();
  if (new_n <= old_n) return {};

  // Tokenize the new records (deduplicated tokens); records are independent,
  // so this fans out.
  std::vector<std::vector<std::string>> new_tokens(new_n - old_n);
  ParallelFor(
      pool, 0, new_tokens.size(),
      [&](size_t k) {
        new_tokens[k] =
            ExtractKeys(records.at(static_cast<RecordId>(old_n + k)));
      },
      /*grain=*/32);
  return AddPublishedRecords(records, std::move(new_tokens), pool);
}

CandidateDelta IncrementalTokenOverlapIndex::AddPublishedRecords(
    const RecordTable& records, std::vector<std::vector<std::string>> published,
    ThreadPool* pool) {
  const size_t old_n = num_records_;
  const size_t new_n = records.size();
  if (new_n <= old_n) return {};
  SyncSources(records, new_n);

  // Intern tokens and update document frequencies / postings in place.
  const uint32_t old_max_df = max_df_;
  std::vector<uint32_t> old_df = DocumentFrequencies();
  record_tokens_.resize(new_n);
  for (size_t k = 0; k < published.size(); ++k) {
    const RecordId rid = static_cast<RecordId>(old_n + k);
    auto& ids = record_tokens_[static_cast<size_t>(rid)];
    ids.reserve(published[k].size());
    for (auto& tok : published[k]) {
      auto [it, inserted] =
          token_id_.emplace(std::move(tok), static_cast<int32_t>(tokens_.size()));
      if (inserted) {
        tokens_.emplace_back();
        old_df.push_back(0);
      }
      const int32_t tid = it->second;
      TokenInfo& info = tokens_[static_cast<size_t>(tid)];
      ++info.df;
      info.postings.push_back(rid);
      ids.push_back(tid);
    }
  }
  num_records_ = new_n;
  num_live_ += published.size();
  UpdateMaxDf();

  // Records to re-rank: the new ones, plus the holders of every token whose
  // eligibility flipped with at least two old holders (a touched token, or
  // an untouched one re-admitted by the rising cap). A flip with fewer old
  // holders changes only overlaps with new records, which the new records'
  // own rankings see.
  constexpr char kRerank = 1, kMerge = 2;
  std::vector<char> role(new_n, 0);
  std::fill(role.begin() + static_cast<long>(old_n), role.end(), kRerank);
  MarkFlippedHolders(old_df, old_max_df, &role, kRerank);

  // Rank every re-ranked record into its own slot. A new record's full
  // candidate list is kept: it holds the counts its old candidates need.
  std::vector<RecordId> rerank_ids;
  for (size_t r = 0; r < new_n; ++r) {
    if (role[r] == kRerank) rerank_ids.push_back(static_cast<RecordId>(r));
  }
  const size_t first_new = rerank_ids.size() - (new_n - old_n);
  std::vector<std::vector<RecordId>> ranked_kept(rerank_ids.size());
  std::vector<std::vector<Scored>> new_overlaps(new_n - old_n);
  ParallelFor(
      pool, 0, rerank_ids.size(),
      [&](size_t k) {
        std::vector<Scored> ranked = Overlaps(rerank_ids[k]);
        ranked_kept[k] = TopN(&ranked);
        if (k >= first_new) new_overlaps[k - first_new] = std::move(ranked);
      },
      /*grain=*/4);

  // Every other old record that a new record overlaps enough merges those
  // new records into its old list. Its overlaps with old records did not
  // change, and a record outside its old top-n still trails all n of them.
  std::vector<std::vector<Scored>> offers(old_n);
  for (size_t k = 0; k < new_overlaps.size(); ++k) {
    const RecordId r = static_cast<RecordId>(old_n + k);
    for (const Scored& s : new_overlaps[k]) {
      const size_t h = static_cast<size_t>(s.id);
      if (h < old_n && role[h] != kRerank) offers[h].push_back({r, s.count});
    }
  }
  new_overlaps.clear();
  std::vector<RecordId> merge_ids;
  for (size_t h = 0; h < old_n; ++h) {
    if (offers[h].empty()) continue;
    role[h] = kMerge;
    merge_ids.push_back(static_cast<RecordId>(h));
  }
  std::vector<std::vector<RecordId>> merged_kept(merge_ids.size());
  ParallelFor(
      pool, 0, merge_ids.size(),
      [&](size_t k) {
        const RecordId h = merge_ids[k];
        std::vector<Scored>& ranked = offers[static_cast<size_t>(h)];
        for (RecordId o : kept_[static_cast<size_t>(h)]) {
          ranked.push_back({o, OverlapCount(h, o)});
        }
        merged_kept[k] = TopN(&ranked);
      },
      /*grain=*/16);

  // Install in ascending record order, the order a full re-rank bumps the
  // refcounts in, so even the refcount map's iteration order is unchanged.
  std::vector<KeptUpdate> updates;
  updates.reserve(rerank_ids.size() + merge_ids.size());
  size_t next_ranked = 0, next_merged = 0;
  for (size_t r = 0; r < new_n; ++r) {
    const RecordId id = static_cast<RecordId>(r);
    if (role[r] == kRerank) {
      updates.push_back({id, std::move(ranked_kept[next_ranked++])});
    } else if (role[r] == kMerge) {
      updates.push_back({id, std::move(merged_kept[next_merged++])});
    }
  }
  kept_.resize(new_n);
  return InstallKept(std::move(updates));
}

CandidateDelta IncrementalTokenOverlapIndex::RemoveRecords(
    const RecordTable& records, const std::vector<RecordId>& removed_ids,
    ThreadPool* pool) {
  if (removed_ids.empty()) return {};
  SyncSources(records, num_records_);

  // Release the removed records' tokens: each df drops and the record
  // leaves the postings (which therefore keep listing exactly the live
  // holders).
  const uint32_t old_max_df = max_df_;
  const std::vector<uint32_t> old_df = DocumentFrequencies();
  for (RecordId r : removed_ids) {
    for (int32_t tid : record_tokens_[static_cast<size_t>(r)]) {
      TokenInfo& info = tokens_[static_cast<size_t>(tid)];
      --info.df;
      info.postings.erase(
          std::remove(info.postings.begin(), info.postings.end(), r),
          info.postings.end());
    }
  }
  num_live_ -= removed_ids.size();
  UpdateMaxDf();

  // Records to re-rank: the live holders of every token whose eligibility
  // flipped with at least two live holders (a touched token, or an
  // untouched one pushed over the falling cap), and every live record that
  // kept a removed one and must now pull a replacement from beyond its
  // top-n.
  constexpr char kRerank = 1, kRemoved = 2;
  std::vector<char> role(num_records_, 0);
  for (RecordId r : removed_ids) role[static_cast<size_t>(r)] = kRemoved;
  MarkFlippedHolders(old_df, old_max_df, &role, kRerank);
  for (size_t h = 0; h < num_records_; ++h) {
    if (role[h] != 0) continue;
    for (RecordId o : kept_[h]) {
      if (role[static_cast<size_t>(o)] == kRemoved) {
        role[h] = kRerank;
        break;
      }
    }
  }

  std::vector<RecordId> rerank_ids;
  for (size_t r = 0; r < num_records_; ++r) {
    if (role[r] == kRerank) rerank_ids.push_back(static_cast<RecordId>(r));
  }
  std::vector<std::vector<RecordId>> ranked_kept(rerank_ids.size());
  ParallelFor(
      pool, 0, rerank_ids.size(),
      [&](size_t k) { ranked_kept[k] = RankRecord(rerank_ids[k]); },
      /*grain=*/4);

  // The removed records' own kept lists retract wholesale, then the
  // re-ranked records install theirs.
  std::vector<KeptUpdate> updates;
  updates.reserve(removed_ids.size() + rerank_ids.size());
  for (RecordId r : removed_ids) {
    updates.push_back({r, {}});
    record_tokens_[static_cast<size_t>(r)].clear();
  }
  for (size_t k = 0; k < rerank_ids.size(); ++k) {
    updates.push_back({rerank_ids[k], std::move(ranked_kept[k])});
  }
  return InstallKept(std::move(updates));
}

std::vector<RecordPair> IncrementalTokenOverlapIndex::CurrentPairs() const {
  std::vector<RecordPair> out;
  out.reserve(refcount_.size());
  for (const auto& [pair, count] : refcount_) out.push_back(pair);
  return out;
}

void IncrementalTokenOverlapIndex::SaveState(BinaryWriter* writer) const {
  writer->WriteU64(options_.top_n);
  writer->WriteU64(options_.min_overlap);
  writer->WriteDouble(options_.max_token_df);
  writer->WriteU64(num_records_);
  writer->WriteU32(max_df_);

  // Tokens in id order: interning order matters because the (count desc,
  // id asc) ranking tie-break compares token-holder record ids — it must
  // survive the round trip exactly.
  std::vector<const std::string*> token_of_id(tokens_.size(), nullptr);
  for (const auto& [text, tid] : token_id_) {
    token_of_id[static_cast<size_t>(tid)] = &text;
  }
  writer->WriteU64(tokens_.size());
  for (size_t tid = 0; tid < tokens_.size(); ++tid) {
    writer->WriteString(*token_of_id[tid]);
    writer->WriteU32(tokens_[tid].df);
    WriteRecordIds(tokens_[tid].postings, writer);
  }

  writer->WriteU64(record_tokens_.size());
  for (const auto& ids : record_tokens_) {
    writer->WriteU64(ids.size());
    for (int32_t tid : ids) writer->WriteI32(tid);
  }
  writer->WriteU64(kept_.size());
  for (const auto& ids : kept_) WriteRecordIds(ids, writer);
  WriteRefcounts(refcount_, writer);
}

Status IncrementalTokenOverlapIndex::LoadState(BinaryReader* reader) {
  uint64_t top_n = 0, min_overlap = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&top_n));
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&min_overlap));
  options_.top_n = static_cast<size_t>(top_n);
  options_.min_overlap = static_cast<size_t>(min_overlap);
  GRALMATCH_RETURN_NOT_OK(reader->ReadDouble(&options_.max_token_df));
  options_.num_threads = 1;  // ignored by this class; pools come via callers

  uint64_t num_records = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&num_records));
  num_records_ = static_cast<size_t>(num_records);
  // The serialized state predates tombstones; the owning pipeline restores
  // the live count via SetNumLive once it knows the tombstone set.
  num_live_ = num_records_;
  GRALMATCH_RETURN_NOT_OK(reader->ReadU32(&max_df_));

  uint64_t num_tokens = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(13, &num_tokens));
  token_id_.clear();
  tokens_.clear();
  tokens_.reserve(static_cast<size_t>(num_tokens));
  sources_.clear();
  for (uint64_t tid = 0; tid < num_tokens; ++tid) {
    std::string text;
    GRALMATCH_RETURN_NOT_OK(reader->ReadString(&text));
    TokenInfo info;
    GRALMATCH_RETURN_NOT_OK(reader->ReadU32(&info.df));
    GRALMATCH_RETURN_NOT_OK(ReadRecordIds(reader, num_records_, &info.postings));
    auto [it, inserted] =
        token_id_.emplace(std::move(text), static_cast<int32_t>(tid));
    (void)it;
    if (!inserted) {
      return Status::IOError("corrupted token index: duplicate token text");
    }
    tokens_.push_back(std::move(info));
  }

  uint64_t rows = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(8, &rows));
  if (rows != num_records_) {
    return Status::IOError("corrupted token index: per-record token rows " +
                           std::to_string(rows) + " != record count " +
                           std::to_string(num_records_));
  }
  record_tokens_.assign(static_cast<size_t>(rows), {});
  for (auto& ids : record_tokens_) {
    uint64_t count = 0;
    GRALMATCH_RETURN_NOT_OK(reader->ReadCount(4, &count));
    ids.reserve(static_cast<size_t>(count));
    for (uint64_t k = 0; k < count; ++k) {
      int32_t tid = -1;
      GRALMATCH_RETURN_NOT_OK(reader->ReadI32(&tid));
      if (tid < 0 || static_cast<size_t>(tid) >= tokens_.size()) {
        return Status::IOError("corrupted token index: token id " +
                               std::to_string(tid) + " out of range");
      }
      ids.push_back(tid);
    }
  }

  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(8, &rows));
  if (rows != num_records_) {
    return Status::IOError("corrupted token index: kept-list rows " +
                           std::to_string(rows) + " != record count " +
                           std::to_string(num_records_));
  }
  kept_.assign(static_cast<size_t>(rows), {});
  for (auto& ids : kept_) {
    GRALMATCH_RETURN_NOT_OK(ReadRecordIds(reader, num_records_, &ids));
  }
  return ReadRefcounts(reader, num_records_, &refcount_);
}

// ---------------------------------------------------------------------------
// ID Overlap
// ---------------------------------------------------------------------------

namespace {

/// Cross-source pairs of the first `count` holders of one identifier bucket
/// (sorted, deduplicated); empty when the bucket is outside [2, max_bucket].
std::vector<RecordPair> BucketPairs(const RecordTable& records,
                                    const std::vector<RecordId>& holders,
                                    size_t count, size_t max_bucket) {
  std::vector<RecordPair> out;
  if (count < 2 || count > max_bucket) return out;
  for (size_t i = 0; i < count; ++i) {
    for (size_t j = i + 1; j < count; ++j) {
      if (holders[i] == holders[j]) continue;
      if (records.at(holders[i]).source() == records.at(holders[j]).source()) {
        continue;
      }
      out.emplace_back(holders[i], holders[j]);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Bump the set difference of each touched bucket's before/after pair
/// lists (both sorted unique) and return the membership delta.
template <typename BucketDiff>
CandidateDelta ApplyBucketDiffs(const std::vector<BucketDiff>& diffs,
                                RefcountMap* refcount) {
  RefcountDelta delta(refcount);
  for (const BucketDiff& d : diffs) {
    for (const RecordPair& p : d.before) {
      if (!std::binary_search(d.after.begin(), d.after.end(), p)) {
        delta.Bump(p, -1);
      }
    }
    for (const RecordPair& p : d.after) {
      if (!std::binary_search(d.before.begin(), d.before.end(), p)) {
        delta.Bump(p, +1);
      }
    }
  }
  return delta.Finish();
}

}  // namespace

std::vector<std::string> IncrementalIdOverlapIndex::ExtractKeys(
    const Record& record) {
  std::vector<std::string> keys;
  for (const auto& attr : IdentifierAttributes()) {
    for (auto& value : record.GetMulti(attr)) {
      keys.push_back(std::move(value));
    }
  }
  return keys;
}

CandidateDelta IncrementalIdOverlapIndex::AddRecords(const RecordTable& records,
                                                     ThreadPool* pool) {
  const size_t old_n = num_records_;
  const size_t new_n = records.size();
  if (new_n <= old_n) return {};
  std::vector<std::vector<std::string>> published;
  published.reserve(new_n - old_n);
  for (size_t r = old_n; r < new_n; ++r) {
    published.push_back(ExtractKeys(records.at(static_cast<RecordId>(r))));
  }
  return AddPublishedRecords(records, published, pool);
}

CandidateDelta IncrementalIdOverlapIndex::AddPublishedRecords(
    const RecordTable& records,
    const std::vector<std::vector<std::string>>& published, ThreadPool* pool) {
  const size_t old_n = num_records_;
  const size_t new_n = records.size();
  if (new_n <= old_n) return {};

  // Append the new holders, remembering each touched bucket's pre-batch
  // size. Bucket vectors are stable across rehashing (node-based map), so
  // pointers key the touched set safely.
  std::unordered_map<const std::vector<RecordId>*, size_t> touched;
  for (size_t r = old_n; r < new_n; ++r) {
    for (const auto& value : published[r - old_n]) {
      std::vector<RecordId>& holders = index_[value];
      touched.emplace(&holders, holders.size());
      holders.push_back(static_cast<RecordId>(r));
    }
  }
  num_records_ = new_n;

  // Per touched bucket, diff the pre-batch contribution against the current
  // one (each bucket ranks into its own slot; the merge below is serial).
  struct BucketDiff {
    const std::vector<RecordId>* holders;
    size_t old_count;
    std::vector<RecordPair> before, after;
  };
  std::vector<BucketDiff> diffs;
  diffs.reserve(touched.size());
  for (const auto& [holders, old_count] : touched) {
    diffs.push_back({holders, old_count, {}, {}});
  }
  ParallelFor(
      pool, 0, diffs.size(),
      [&](size_t k) {
        BucketDiff& d = diffs[k];
        d.before = BucketPairs(records, *d.holders, d.old_count, max_bucket_);
        d.after =
            BucketPairs(records, *d.holders, d.holders->size(), max_bucket_);
      },
      /*grain=*/4);

  return ApplyBucketDiffs(diffs, &refcount_);
}

CandidateDelta IncrementalIdOverlapIndex::RemoveRecords(
    const RecordTable& records, const std::vector<RecordId>& removed_ids,
    ThreadPool* pool) {
  if (removed_ids.empty()) return {};

  // Re-extract each removed record's keys from its (retained) payload,
  // snapshot every touched bucket's pre-removal holders once, then erase
  // the record's occurrences in place — surviving holder order is
  // preserved, and emptied buckets stay (their residue is what future
  // diffs slice against, exactly as an overflowed bucket's is).
  struct BucketDiff {
    const std::vector<RecordId>* holders;
    std::vector<RecordId> old_holders;
    std::vector<RecordPair> before, after;
  };
  std::vector<BucketDiff> diffs;
  std::unordered_map<const std::vector<RecordId>*, size_t> touched;
  for (RecordId r : removed_ids) {
    for (const auto& value : ExtractKeys(records.at(r))) {
      auto it = index_.find(value);
      if (it == index_.end()) continue;
      std::vector<RecordId>& holders = it->second;
      auto [slot, inserted] = touched.emplace(&holders, diffs.size());
      if (inserted) diffs.push_back({&holders, holders, {}, {}});
      (void)slot;
      holders.erase(std::remove(holders.begin(), holders.end(), r),
                    holders.end());
    }
  }

  ParallelFor(
      pool, 0, diffs.size(),
      [&](size_t k) {
        BucketDiff& d = diffs[k];
        d.before = BucketPairs(records, d.old_holders, d.old_holders.size(),
                               max_bucket_);
        d.after =
            BucketPairs(records, *d.holders, d.holders->size(), max_bucket_);
      },
      /*grain=*/4);

  return ApplyBucketDiffs(diffs, &refcount_);
}

std::vector<RecordPair> IncrementalIdOverlapIndex::CurrentPairs() const {
  std::vector<RecordPair> out;
  out.reserve(refcount_.size());
  for (const auto& [pair, count] : refcount_) out.push_back(pair);
  return out;
}

void IncrementalIdOverlapIndex::SaveState(BinaryWriter* writer) const {
  writer->WriteU64(max_bucket_);
  writer->WriteU64(num_records_);
  // Buckets in sorted value order for deterministic bytes; holder lists
  // verbatim (their insertion order is the prefix future diffs slice on).
  std::vector<const std::string*> values;
  values.reserve(index_.size());
  for (const auto& [value, holders] : index_) values.push_back(&value);
  std::sort(values.begin(), values.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  writer->WriteU64(values.size());
  for (const std::string* value : values) {
    writer->WriteString(*value);
    WriteRecordIds(index_.at(*value), writer);
  }
  WriteRefcounts(refcount_, writer);
}

Status IncrementalIdOverlapIndex::LoadState(BinaryReader* reader) {
  uint64_t max_bucket = 0, num_records = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&max_bucket));
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&num_records));
  max_bucket_ = static_cast<size_t>(max_bucket);
  num_records_ = static_cast<size_t>(num_records);

  uint64_t buckets = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(16, &buckets));
  index_.clear();
  index_.reserve(static_cast<size_t>(buckets));
  for (uint64_t k = 0; k < buckets; ++k) {
    std::string value;
    GRALMATCH_RETURN_NOT_OK(reader->ReadString(&value));
    std::vector<RecordId> holders;
    GRALMATCH_RETURN_NOT_OK(ReadRecordIds(reader, num_records_, &holders));
    auto [it, inserted] = index_.emplace(std::move(value), std::move(holders));
    (void)it;
    if (!inserted) {
      return Status::IOError("corrupted id index: duplicate identifier value");
    }
  }
  return ReadRefcounts(reader, num_records_, &refcount_);
}

}  // namespace gralmatch
