#include "blocking/token_overlap.h"

#include <memory>

#include "blocking/incremental_index.h"
#include "exec/parallel.h"

namespace gralmatch {

void TokenOverlapBlocker::AddCandidates(const Dataset& dataset,
                                        CandidateSet* out) const {
  if (dataset.records.size() < 2) return;
  // Delegate to the incremental index with a single batch holding every
  // record: the incremental and batch paths share one implementation of
  // the blocking semantics, so incremental ingestion (shard/) is equivalent to
  // a from-scratch run by construction. Tokenization and per-record ranking
  // fan out over the pool; the result is thread-count invariant.
  std::unique_ptr<ThreadPool> pool = MaybeMakePool(options_.num_threads);
  IncrementalTokenOverlapIndex index(options_);
  CandidateDelta delta = index.AddRecords(dataset.records, pool.get());
  for (const RecordPair& pair : delta.added) out->Add(pair, kind());
}

}  // namespace gralmatch
