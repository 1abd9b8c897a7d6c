// Golden regression tests pinning the exact Table-4-style quality metrics of
// the full pipeline on both fixtures. The structural suites assert
// inequalities (post >= pre precision, bounds); these pin the *numbers*, so
// a change that silently shifts quality — a blocker emitting one pair more,
// a tie-break flipped in the cleanup — fails loudly instead of drifting.
// Every pinned value is integer-derived (match counts, edge counts) or an
// exact ratio of integers; the pipeline under a string-equality matcher uses
// no transcendental math, so the values are stable across
// compilers/platforms. If a deliberate semantic change moves them, re-derive
// with the printout below each EXPECT block and update the constants in the
// same commit that explains why.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/id_overlap.h"
#include "blocking/token_overlap.h"
#include "core/pipeline.h"
#include "datagen/financial_gen.h"
#include "datagen/wdc_gen.h"
#include "eval/metrics.h"
#include "matching/baselines.h"
#include "matching/cascade_matcher.h"
#include "shard/sharded_pipeline.h"
#include "text/normalize.h"

namespace gralmatch {
namespace {

TEST(GoldenFinancial, SecuritiesPipelineMetricsPinned) {
  // Same fixture as the integration suite (seed 505, 250 groups), ID +
  // Token Overlap blocking, the deterministic identifier-overlap matcher,
  // and the paper's cleanup configuration.
  SyntheticConfig config;
  config.seed = 505;
  config.num_groups = 250;
  FinancialBenchmark bench = FinancialGenerator(config).Generate();

  CandidateSet candidates;
  IdOverlapBlocker().AddCandidates(bench.securities, &candidates);
  TokenOverlapBlocker::Options topts;
  topts.top_n = 5;
  TokenOverlapBlocker(topts).AddCandidates(bench.securities, &candidates);
  EXPECT_EQ(candidates.size(), 1863u);

  PipelineConfig pipe_config;
  pipe_config.cleanup.gamma = 25;
  pipe_config.cleanup.mu = 5;
  pipe_config.pre_cleanup_threshold = 50;
  HeuristicIdMatcher matcher;
  PipelineResult result = EntityGroupPipeline(pipe_config)
                              .Run(bench.securities, candidates.ToVector(),
                                   matcher);

  EXPECT_EQ(result.predicted_pairs.size(), 1222u);
  EXPECT_EQ(result.groups.size(), 519u);
  EXPECT_EQ(result.cleanup_stats.pre_cleanup_edges_removed, 0u);
  EXPECT_EQ(result.cleanup_stats.min_cut_calls, 0u);
  EXPECT_EQ(result.cleanup_stats.min_cut_edges_removed, 0u);
  EXPECT_EQ(result.cleanup_stats.betweenness_calls, 40u);
  EXPECT_EQ(result.cleanup_stats.betweenness_edges_removed, 40u);

  const PrfMetrics pre =
      GroupPrf(result.pre_cleanup_components, bench.securities.truth);
  EXPECT_EQ(pre.tp, 1241u);
  EXPECT_EQ(pre.fp, 32u);
  EXPECT_EQ(pre.fn, 354u);

  const PrfMetrics post = GroupPrf(result.groups, bench.securities.truth);
  EXPECT_EQ(post.tp, 1195u);
  EXPECT_EQ(post.fp, 26u);
  EXPECT_EQ(post.fn, 400u);

  // Table-4-style derived scores (exact ratios of the integers above).
  EXPECT_NEAR(pre.Precision(), 0.9748625295, 1e-9);
  EXPECT_NEAR(pre.Recall(), 0.7780564263, 1e-9);
  EXPECT_NEAR(post.Precision(), 0.9787059787, 1e-9);
  EXPECT_NEAR(post.Recall(), 0.7492163009, 1e-9);
  EXPECT_NEAR(post.F1(), 0.8487215909, 1e-9);
  EXPECT_NEAR(ClusterPurity(result.groups, bench.securities.truth),
              0.9866666667, 1e-9);
}

// ---------------------------------------------------------------------------
// Cascade quality contract. Gate: an exact-rational token-Jaccard matcher
// (integer ratios, no libm — stable across compilers like every other pin
// here). Expensive: the 0/1 HeuristicIdMatcher. Two pins:
//   1. exact_reference mode reproduces the expensive-only pipeline exactly;
//   2. the real cascade's quality delta is a set of constants, not a hope —
//      if a band change moves P/R, this fails loudly.
// ---------------------------------------------------------------------------

/// Token Jaccard of AllText: common/total is an exact ratio of small
/// integers, so scores and band comparisons are bit-stable everywhere.
class JaccardGateMatcher : public PairwiseMatcher {
 public:
  std::string name() const override { return "jaccard-gate"; }
  double MatchProbability(const Record& a, const Record& b) const override {
    auto ta = Tokens(a);
    auto tb = Tokens(b);
    if (ta.empty() && tb.empty()) return 0.0;
    size_t common = 0, ia = 0, ib = 0;
    while (ia < ta.size() && ib < tb.size()) {
      if (ta[ia] < tb[ib]) {
        ++ia;
      } else if (tb[ib] < ta[ia]) {
        ++ib;
      } else {
        ++common;
        ++ia;
        ++ib;
      }
    }
    const size_t total = ta.size() + tb.size() - common;
    return static_cast<double>(common) /
           static_cast<double>(total == 0 ? 1 : total);
  }

 private:
  static std::vector<std::string> Tokens(const Record& rec) {
    auto toks = TokenizeContentWords(rec.AllText());
    std::sort(toks.begin(), toks.end());
    toks.erase(std::unique(toks.begin(), toks.end()), toks.end());
    return toks;
  }
};

struct CascadeFixture {
  FinancialBenchmark bench;
  std::vector<Candidate> candidates;
  PipelineConfig pipe_config;

  CascadeFixture() {
    SyntheticConfig config;
    config.seed = 505;
    config.num_groups = 250;
    bench = FinancialGenerator(config).Generate();
    CandidateSet set;
    IdOverlapBlocker().AddCandidates(bench.securities, &set);
    TokenOverlapBlocker::Options topts;
    topts.top_n = 5;
    TokenOverlapBlocker(topts).AddCandidates(bench.securities, &set);
    candidates = set.ToVector();
    pipe_config.cleanup.gamma = 25;
    pipe_config.cleanup.mu = 5;
    pipe_config.pre_cleanup_threshold = 50;
  }
};

TEST(GoldenFinancial, CascadeExactReferenceReproducesExpensivePipeline) {
  CascadeFixture fx;
  HeuristicIdMatcher expensive;
  JaccardGateMatcher gate;
  CascadeMatcher::Options opts;
  opts.lower_threshold = 0.25;
  opts.upper_threshold = 0.7;
  opts.exact_reference = true;
  CascadeMatcher reference(&gate, &expensive, opts);

  EntityGroupPipeline pipeline(fx.pipe_config);
  PipelineResult expensive_only =
      pipeline.Run(fx.bench.securities, fx.candidates, expensive);
  PipelineResult cascaded =
      pipeline.Run(fx.bench.securities, fx.candidates, reference);

  // Bitwise: exact_reference mode exercises the gather/scatter machinery but
  // must return the expensive matcher's scores for every pair.
  EXPECT_EQ(cascaded.predicted_pairs, expensive_only.predicted_pairs);
  EXPECT_EQ(cascaded.pre_cleanup_components,
            expensive_only.pre_cleanup_components);
  EXPECT_EQ(cascaded.groups, expensive_only.groups);

  // The gate still ran over every candidate: the band counters are the
  // pinned would-be cascade split of the 1863 candidates.
  const CascadeMatcher::Stats stats = reference.stats();
  EXPECT_EQ(stats.gate_resolved + stats.escalated, 1863u);
  EXPECT_EQ(stats.escalated, 1243u);
  EXPECT_EQ(stats.gate_resolved, 620u);
}

TEST(GoldenFinancial, CascadeQualityDeltaPinned) {
  // The real cascade (same band) against the pinned expensive-only metrics
  // of SecuritiesPipelineMetricsPinned: post tp 1195 / fp 26 / fn 400. The
  // delta below IS the cascade contract on this fixture — the gate resolves
  // 620 of the 1863 candidates on its own (only 1243 reach the expensive
  // tier, a third fewer calls) at a cost of 4 tp (1195 -> 1191) while
  // buying back 8 fp (26 -> 18).
  CascadeFixture fx;
  HeuristicIdMatcher expensive;
  JaccardGateMatcher gate;
  CascadeMatcher::Options opts;
  opts.lower_threshold = 0.25;
  opts.upper_threshold = 0.7;
  CascadeMatcher cascade(&gate, &expensive, opts);

  PipelineResult result = EntityGroupPipeline(fx.pipe_config)
                              .Run(fx.bench.securities, fx.candidates, cascade);

  const CascadeMatcher::Stats stats = cascade.stats();
  EXPECT_EQ(stats.escalated, 1243u);
  EXPECT_EQ(stats.gate_resolved, 620u);

  EXPECT_EQ(result.predicted_pairs.size(), 1209u);
  EXPECT_EQ(result.groups.size(), 522u);

  const PrfMetrics post = GroupPrf(result.groups, fx.bench.securities.truth);
  EXPECT_EQ(post.tp, 1191u);
  EXPECT_EQ(post.fp, 18u);
  EXPECT_EQ(post.fn, 404u);

  // Re-derivation printout (see file header):
  std::printf(
      "cascade: escalated=%llu gate_resolved=%llu pairs=%zu groups=%zu "
      "tp=%zu fp=%zu fn=%zu\n",
      static_cast<unsigned long long>(stats.escalated),
      static_cast<unsigned long long>(stats.gate_resolved),
      result.predicted_pairs.size(), result.groups.size(),
      static_cast<size_t>(post.tp), static_cast<size_t>(post.fp),
      static_cast<size_t>(post.fn));
}

TEST(GoldenFinancial, CorrectionScheduleMetricsPinned) {
  // Full CRUD streaming on the pinned fixture: ingest everything, then a
  // fixed correction schedule — two deletion waves over the security table.
  // Pins the post-delete quality (deleted records' truth pairs become
  // unreachable, so they count against recall) and the exact bookkeeping of
  // the removal path: retracted candidates, evicted cache entries, and the
  // cleanup work of the from-scratch-equivalent snapshot. A change that
  // silently shifts what deletion retracts or re-cleans fails here loudly.
  SyntheticConfig config;
  config.seed = 505;
  config.num_groups = 250;
  FinancialBenchmark bench = FinancialGenerator(config).Generate();

  ShardedPipelineConfig stream_config;
  stream_config.base.pipeline.cleanup.gamma = 25;
  stream_config.base.pipeline.cleanup.mu = 5;
  stream_config.base.pipeline.pre_cleanup_threshold = 50;
  stream_config.base.token.top_n = 5;
  ShardedPipeline pipeline(stream_config);
  HeuristicIdMatcher matcher;

  std::vector<Record> all;
  for (size_t i = 0; i < bench.securities.records.size(); ++i) {
    all.push_back(bench.securities.records.at(static_cast<RecordId>(i)));
  }
  ASSERT_TRUE(pipeline.Ingest(all, matcher).ok());

  // Wave 1: every 7th record. Wave 2: every 11th offset by 1, skipping ids
  // wave 1 already killed.
  std::vector<RecordId> wave1, wave2;
  for (size_t i = 0; i < all.size(); i += 7) {
    wave1.push_back(static_cast<RecordId>(i));
  }
  for (size_t i = 1; i < all.size(); i += 11) {
    if (i % 7 != 0) wave2.push_back(static_cast<RecordId>(i));
  }
  IngestReport report1 = pipeline.Remove(wave1, matcher).ValueOrDie();
  IngestReport report2 = pipeline.Remove(wave2, matcher).ValueOrDie();

  EXPECT_EQ(report1.candidates_removed, 520u);
  EXPECT_EQ(report1.cache_evictions, 520u);
  EXPECT_EQ(report2.candidates_removed, 242u);
  EXPECT_EQ(report2.cache_evictions, 241u);

  PipelineResult result = pipeline.Snapshot().ValueOrDie();
  EXPECT_EQ(result.predicted_pairs.size(), 728u);
  EXPECT_EQ(result.groups.size(), 469u);
  EXPECT_EQ(result.cleanup_stats.pre_cleanup_edges_removed, 0u);
  EXPECT_EQ(result.cleanup_stats.min_cut_calls, 0u);
  EXPECT_EQ(result.cleanup_stats.min_cut_edges_removed, 0u);
  EXPECT_EQ(result.cleanup_stats.betweenness_calls, 22u);
  EXPECT_EQ(result.cleanup_stats.betweenness_edges_removed, 22u);

  const PrfMetrics post = GroupPrf(result.groups, bench.securities.truth);
  EXPECT_EQ(post.tp, 709u);
  EXPECT_EQ(post.fp, 21u);
  EXPECT_EQ(post.fn, 886u);
  EXPECT_NEAR(post.Precision(), 0.9712328767, 1e-9);
  EXPECT_NEAR(post.Recall(), 0.4445141066, 1e-9);
  EXPECT_NEAR(post.F1(), 0.6098924731, 1e-9);

  // Re-derivation printout (see file header):
  std::printf(
      "corrections: w1_cand_removed=%zu w1_evicted=%zu w2_cand_removed=%zu "
      "w2_evicted=%zu pairs=%zu groups=%zu pre_removed=%zu mincut=%zu/%zu "
      "betw=%zu/%zu tp=%zu fp=%zu fn=%zu P=%.10f R=%.10f F1=%.10f\n",
      report1.candidates_removed, report1.cache_evictions,
      report2.candidates_removed, report2.cache_evictions,
      result.predicted_pairs.size(), result.groups.size(),
      result.cleanup_stats.pre_cleanup_edges_removed,
      result.cleanup_stats.min_cut_calls,
      result.cleanup_stats.min_cut_edges_removed,
      result.cleanup_stats.betweenness_calls,
      result.cleanup_stats.betweenness_edges_removed,
      static_cast<size_t>(post.tp), static_cast<size_t>(post.fp),
      static_cast<size_t>(post.fn), post.Precision(), post.Recall(),
      post.F1());
}

TEST(GoldenWdc, PerfectPredictionsCleanupMetricsPinned) {
  // The paper's WDC finding in pinned numbers: with perfect pairwise
  // predictions and heterogeneous group sizes, mu = 5 over-splits — post
  // precision stays 1.0 while recall collapses to 426/1289.
  WdcConfig config;
  config.num_entities = 150;
  config.seed = 99;
  Dataset products = WdcProductsGenerator(config).Generate();

  std::vector<Candidate> positives;
  for (const auto& pair : products.truth.AllTruePairs()) {
    positives.push_back({pair, kBlockerTokenOverlap});
  }
  EXPECT_EQ(positives.size(), 1289u);

  PipelineConfig pipe_config;
  pipe_config.cleanup.gamma = 25;
  pipe_config.cleanup.mu = 5;
  PipelineResult result =
      EntityGroupPipeline(pipe_config)
          .RunOnPredictions(products.records.size(), positives);

  EXPECT_EQ(result.predicted_pairs.size(), 1289u);
  EXPECT_EQ(result.groups.size(), 264u);
  EXPECT_EQ(result.cleanup_stats.pre_cleanup_edges_removed, 0u);
  EXPECT_EQ(result.cleanup_stats.min_cut_calls, 0u);
  EXPECT_EQ(result.cleanup_stats.betweenness_calls, 863u);
  EXPECT_EQ(result.cleanup_stats.betweenness_edges_removed, 863u);

  const PrfMetrics pre = GroupPrf(result.pre_cleanup_components,
                                  products.truth);
  EXPECT_EQ(pre.tp, 1289u);
  EXPECT_EQ(pre.fp, 0u);
  EXPECT_EQ(pre.fn, 0u);

  const PrfMetrics post = GroupPrf(result.groups, products.truth);
  EXPECT_EQ(post.tp, 426u);
  EXPECT_EQ(post.fp, 0u);
  EXPECT_EQ(post.fn, 863u);

  EXPECT_NEAR(post.Precision(), 1.0, 1e-12);
  EXPECT_NEAR(post.Recall(), 0.3304887510, 1e-9);
  EXPECT_NEAR(post.F1(), 0.4967930029, 1e-9);
  EXPECT_NEAR(ClusterPurity(result.groups, products.truth), 1.0, 1e-12);
}

}  // namespace
}  // namespace gralmatch
