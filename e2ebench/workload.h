#ifndef GRALMATCH_E2EBENCH_WORKLOAD_H_
#define GRALMATCH_E2EBENCH_WORKLOAD_H_

/// \file workload.h
/// The benchmark's inputs: a seeded multi-source securities feed, the
/// correction rounds applied to it, the engine configuration and the
/// matcher. Everything here is a pure function of (workload name, seed,
/// size), so two runs with one seed feed the program identical inputs.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "matching/matcher.h"
#include "shard/sharded_pipeline.h"
#include "stream/incremental_pipeline.h"

namespace e2ebench {

enum class MatcherKind { kIdentifier, kTransformer };

/// The shape of one workload. Only inputs differ between workloads; the
/// pass that consumes them is the same code.
struct WorkloadSpec {
  std::string name;
  size_t num_groups = 0;
  MatcherKind matcher = MatcherKind::kIdentifier;
  size_t num_shards = 1;
  size_t ingest_batches = 1;
  size_t correction_rounds = 1;
  /// Per round, as a share of the feed's record count: one Remove of this
  /// many live records, then one Update of this many others.
  double remove_share = 0.05;
  double update_share = 0.05;
  /// Snapshot + MatchService::Publish after every mutation.
  bool publish_each_mutation = false;
  /// Queries per pass and requests per pipelined burst.
  size_t queries = 0;
  size_t burst = 64;
};

/// Every workload the benchmark knows, at full size.
const std::vector<WorkloadSpec>& AllWorkloads();

/// The named workload, or nullptr. `smoke` shrinks it (fewer groups and
/// queries) so the whole suite runs in seconds with every check on.
std::unique_ptr<WorkloadSpec> FindWorkload(const std::string& name,
                                           bool smoke);

/// One correction round: a Remove call, then an Update call.
struct CorrectionRound {
  std::vector<gralmatch::RecordId> removals;
  std::vector<gralmatch::RecordUpdate> updates;
};

/// Generated inputs of one workload.
struct Workload {
  WorkloadSpec spec;
  uint64_t seed = 0;
  /// The generator's output, in generator order (the matcher trains on it).
  gralmatch::Dataset dataset;
  /// The feed, in ingest order; record ids are assigned in this order.
  std::vector<std::vector<gralmatch::Record>> batches;
  std::vector<CorrectionRound> rounds;
  /// Ground-truth entity of every record id the pass creates (feed ids,
  /// then the fresh ids the updates get).
  std::vector<gralmatch::EntityId> entity_of;
  /// Liveness the pass must end with, per record id.
  std::vector<char> final_alive;
  gralmatch::ShardedPipelineConfig config;
  std::unique_ptr<gralmatch::PairwiseMatcher> matcher;
};

/// Generator seed of every workload's record set (18,313 securities at
/// 4,000 groups, 1,911 at 400).
constexpr uint64_t kRecordSeed = 404;

/// Generate the records, the feed schedule and the corrections. The matcher
/// is left null; MakeMatcher builds it (its set-up is timed apart).
Workload GenerateWorkload(const WorkloadSpec& spec, uint64_t seed);

/// The workload's matcher. For the transformer workload this builds the
/// vocabulary and fine-tunes one epoch on pairs sampled from the dataset's
/// training split.
std::unique_ptr<gralmatch::PairwiseMatcher> MakeMatcher(
    const Workload& workload);

/// One-epoch fine-tune of a fresh transformer on `dataset`: the nn layer's
/// training step, shared by MakeMatcher and the traced replay.
std::unique_ptr<gralmatch::PairwiseMatcher> FineTuneTransformer(
    const gralmatch::Dataset& dataset, uint64_t seed);

}  // namespace e2ebench

#endif  // GRALMATCH_E2EBENCH_WORKLOAD_H_
