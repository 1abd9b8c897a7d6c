#ifndef GRALMATCH_E2EBENCH_CHECKS_H_
#define GRALMATCH_E2EBENCH_CHECKS_H_

/// \file checks.h
/// Output checks of one pass. Each is computed apart from the code it
/// checks (its own union-find, its own identifier reading, its own
/// precision count) and returns one message per violation, so
/// checks_test.cc can feed each a deliberately wrong result and see it
/// fail.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "data/record.h"
#include "matching/matcher.h"
#include "net/wire.h"
#include "serve/match_service.h"

namespace e2ebench {

using Failures = std::vector<std::string>;

/// A checkpoint directory's files: name -> bytes.
using FileMap = std::map<std::string, std::string>;

/// Map a result computed on a compacted table back to the original sparse
/// ids; `original[c]` is the original id of compact id c (monotone).
gralmatch::PipelineResult RemapToOriginal(
    gralmatch::PipelineResult compact,
    const std::vector<gralmatch::NodeId>& original);

/// (a) The engine's snapshot equals the batch oracle (already remapped):
/// predicted pairs, pre-cleanup components, groups and cleanup counters.
Failures CheckOracle(const gralmatch::PipelineResult& engine,
                     const gralmatch::PipelineResult& oracle);

/// (b) Structural properties of a snapshot over the liveness vector
/// `alive`: the groups partition exactly the live records, no group has
/// more than `mu` members, every group lies inside one pre-cleanup
/// component, the pre-cleanup components are the connected components of
/// the predicted pairs, and `added - removed` equals the live count.
Failures CheckProperties(const gralmatch::PipelineResult& snapshot,
                         const std::vector<char>& alive, size_t added,
                         size_t removed, size_t mu);

/// (b) Identifier workloads: every predicted pair shares an identifier
/// value (isin, cusip, sedol, valor or lei).
Failures CheckSharedIdentifiers(const std::vector<gralmatch::RecordPair>& pairs,
                                const gralmatch::RecordTable& records);

/// (b) Transformer workload: up to `sample` predicted pairs, rescored one
/// at a time with MatchProbability, each clear `threshold`.
Failures CheckRescore(const std::vector<gralmatch::RecordPair>& pairs,
                      const gralmatch::RecordTable& records,
                      const gralmatch::PairwiseMatcher& matcher,
                      double threshold, size_t sample);

/// Implied-pair precision of a clustering against ground truth: the share
/// of within-cluster pairs whose records are one entity (1 when a
/// clustering implies no pair).
double ImpliedPairPrecision(
    const std::vector<std::vector<gralmatch::NodeId>>& clusters,
    const std::vector<gralmatch::EntityId>& entity_of);

/// (c) The cleaned groups' implied-pair precision is no lower than the
/// pre-cleanup components'.
Failures CheckCleanupPrecision(const gralmatch::PipelineResult& snapshot,
                               const std::vector<gralmatch::EntityId>& entity_of);

/// (d) The restored snapshot equals the saved one, and re-saving the
/// restored engine wrote the same files, byte for byte.
Failures CheckCheckpoint(const gralmatch::PipelineResult& saved,
                         const gralmatch::PipelineResult& restored,
                         const FileMap& saved_files,
                         const FileMap& resaved_files);

/// (e) Every reply answers its request against `view`: same epoch, GroupOf
/// equals the in-process GroupOf, Members equals the in-process Members
/// and contains `probes[i]` (the record its group id was drawn from),
/// Stats equals the view's. The server served exactly what was sent.
Failures CheckServing(const std::vector<gralmatch::NetRequest>& sent,
                      const std::vector<gralmatch::RecordId>& probes,
                      const std::vector<gralmatch::NetReply>& replies,
                      const gralmatch::MatchSnapshot& view,
                      uint64_t requests_served);

/// (f) The replayed incremental indexes' current pairs equal the batch
/// blockers' candidates on the same live records (both in original ids).
Failures CheckBlockingReplay(std::vector<gralmatch::RecordPair> replayed,
                             std::vector<gralmatch::RecordPair> batch);

}  // namespace e2ebench

#endif  // GRALMATCH_E2EBENCH_CHECKS_H_
