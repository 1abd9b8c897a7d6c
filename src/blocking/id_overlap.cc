#include "blocking/id_overlap.h"

#include <cstdlib>
#include <memory>
#include <unordered_map>
#include <utility>

#include "blocking/incremental_index.h"
#include "exec/parallel.h"

namespace gralmatch {

const std::vector<std::string>& IdentifierAttributes() {
  static const std::vector<std::string> kAttrs = {"isin", "cusip", "sedol",
                                                  "valor", "lei"};
  return kAttrs;
}

namespace {

/// Expand every identifier bucket into its cross-source pairs, fanning the
/// buckets out over `num_threads` workers. Each bucket writes to its own
/// slot and the pairs are merged into `out` in bucket order; CandidateSet
/// deduplicates with provenance union, so the result is identical for every
/// thread count.
void EmitBucketPairs(
    const std::unordered_map<std::string, std::vector<RecordId>>& index,
    const RecordTable& records, size_t max_bucket, size_t num_threads,
    BlockerKind kind, CandidateSet* out) {
  std::vector<const std::vector<RecordId>*> buckets;
  buckets.reserve(index.size());
  for (const auto& [value, holders] : index) {
    if (holders.size() >= 2 && holders.size() <= max_bucket) {
      buckets.push_back(&holders);
    }
  }

  std::unique_ptr<ThreadPool> pool_storage = MaybeMakePool(num_threads);

  std::vector<std::vector<RecordPair>> bucket_pairs(buckets.size());
  ParallelFor(
      pool_storage.get(), 0, buckets.size(),
      [&](size_t bi) {
        const std::vector<RecordId>& holders = *buckets[bi];
        for (size_t i = 0; i < holders.size(); ++i) {
          for (size_t j = i + 1; j < holders.size(); ++j) {
            if (holders[i] == holders[j]) continue;
            if (records.at(holders[i]).source() ==
                records.at(holders[j]).source()) {
              continue;
            }
            bucket_pairs[bi].emplace_back(holders[i], holders[j]);
          }
        }
      },
      /*grain=*/8);
  for (const auto& pairs : bucket_pairs) {
    for (const RecordPair& pair : pairs) out->Add(pair, kind);
  }
}

}  // namespace

void IdOverlapBlocker::AddCandidates(const Dataset& dataset,
                                     CandidateSet* out) const {
  if (securities_ == nullptr) {
    // Securities mode: direct identifier overlap, delegated to the
    // incremental index with one batch holding every record so the
    // incremental path (shard/) shares this implementation and stays
    // equivalent to a from-scratch run by construction.
    std::unique_ptr<ThreadPool> pool = MaybeMakePool(options_.num_threads);
    IncrementalIdOverlapIndex index(kMaxBucket);
    CandidateDelta delta = index.AddRecords(dataset.records, pool.get());
    for (const RecordPair& pair : delta.added) out->Add(pair, kind());
    return;
  }

  // Companies mode: overlap through issued securities.
  // identifier value -> issuing company records.
  std::unordered_map<std::string, std::vector<RecordId>> index;
  for (size_t i = 0; i < securities_->size(); ++i) {
    const Record& sec = securities_->at(static_cast<RecordId>(i));
    std::string_view issuer = sec.Get("issuer_ref");
    if (issuer.empty()) continue;
    RecordId company =
        static_cast<RecordId>(std::atoi(std::string(issuer).c_str()));
    if (company < 0 || static_cast<size_t>(company) >= dataset.records.size()) {
      continue;
    }
    for (const auto& attr : IdentifierAttributes()) {
      for (const auto& value : sec.GetMulti(attr)) {
        index[value].push_back(company);
      }
    }
  }
  EmitBucketPairs(index, dataset.records, kMaxBucket, options_.num_threads,
                  kind(), out);
}

}  // namespace gralmatch
