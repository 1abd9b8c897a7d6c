// Google-benchmark microbenchmarks for the performance-critical kernels:
// graph algorithms (Stoer-Wagner min cut, Brandes edge betweenness,
// connected components), the parallel cleanup hot path at 1/2/4 threads,
// text kernels and transformer inference. The pipeline layers (ingest,
// churn, checkpoint save/restore, serving, RPC queries) are timed end to
// end at 18k records by e2ebench/, not here.
//
// Thread-count convention for comparing BENCH_graph_micro.json artifacts:
// the `/threads:N` suffix of BM_GraphCleanup names the worker count; speedup
// claims compare `/threads:N real_time` against `/threads:1` *of the same
// artifact* (same machine, same build) — never across machines.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/cleanup.h"
#include "datagen/financial_gen.h"
#include "exec/parallel.h"
#include "graph/betweenness.h"
#include "graph/graph.h"
#include "graph/min_cut.h"
#include "matching/transformer_matcher.h"
#include "nn/transformer.h"
#include "text/similarity.h"
#include "text/vocab.h"

namespace gralmatch {
namespace {

/// Random connected graph: spanning tree plus 2n extra edges.
Graph MakeRandomGraph(size_t n, uint64_t seed) {
  Rng rng(seed);
  Graph g(n);
  for (size_t v = 1; v < n; ++v) {
    g.AddEdge(static_cast<NodeId>(rng.Uniform(v)), static_cast<NodeId>(v))
        .ValueOrDie();
  }
  // Discard-free here: ValueOrDie asserts success; ids are in range.
  for (size_t k = 0; k < 2 * n; ++k) {
    NodeId a = static_cast<NodeId>(rng.Uniform(n));
    NodeId b = static_cast<NodeId>(rng.Uniform(n));
    if (a != b) (void)g.AddEdge(a, b).ValueOrDie();
  }
  return g;
}

void BM_StoerWagnerMinCut(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Graph g = MakeRandomGraph(n, 1);
  auto comp = g.ComponentOf(0);
  for (auto _ : state) {
    auto cut = StoerWagnerMinCut(g, comp);
    benchmark::DoNotOptimize(cut);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_StoerWagnerMinCut)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Complexity();

void BM_EdgeBetweenness(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Graph g = MakeRandomGraph(n, 2);
  auto comp = g.ComponentOf(0);
  for (auto _ : state) {
    auto bc = EdgeBetweenness(g, comp);
    benchmark::DoNotOptimize(bc);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_EdgeBetweenness)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Complexity();

void BM_ConnectedComponents(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Graph g = MakeRandomGraph(n, 3);
  for (auto _ : state) {
    auto comps = g.ConnectedComponents();
    benchmark::DoNotOptimize(comps);
  }
}
BENCHMARK(BM_ConnectedComponents)->Arg(1000)->Arg(10000);

/// The cleanup hot path's workload shape: many independent oversized noisy
/// communities (no cross edges), each of which phase 1 must min-cut apart
/// and phase 2 must trim down to mu.
Graph MakeClusteredGraph(size_t communities, size_t community_size,
                         uint64_t seed) {
  Rng rng(seed);
  Graph g(communities * community_size);
  for (size_t c = 0; c < communities; ++c) {
    const size_t begin = c * community_size;
    const size_t end = begin + community_size;
    // Discard audited: synthetic in-range endpoints, so AddEdge cannot
    // fail; the edge ids are unused.
    for (size_t a = begin; a < end; ++a) {
      // Ring for connectivity plus random chords.
      size_t b = a + 1 == end ? begin : a + 1;
      (void)g.AddEdge(static_cast<NodeId>(a), static_cast<NodeId>(b));
      for (size_t c2 = a + 2; c2 < end; ++c2) {
        if (rng.Bernoulli(0.12)) {
          (void)g.AddEdge(static_cast<NodeId>(a), static_cast<NodeId>(c2));
        }
      }
    }
  }
  return g;
}

/// The GraLMatch cleanup at range(0) worker threads. Components are
/// independent, so the parallel path fans them out; /threads:1 is the serial
/// reference the speedup is measured against (same artifact only).
void BM_GraphCleanup(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  Graph g = MakeClusteredGraph(/*communities=*/12, /*community_size=*/48, 7);
  GraphCleanupConfig config;
  config.gamma = 24;
  config.mu = 6;
  GraLMatchCleanup cleanup(config);
  ThreadPool pool(threads);
  ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
  for (auto _ : state) {
    g.RestoreAllEdges();  // O(E) memset, negligible next to the cleanup
    auto groups = cleanup.Run(&g, nullptr, pool_ptr);
    benchmark::DoNotOptimize(groups);
  }
}
BENCHMARK(BM_GraphCleanup)->Arg(1)->Arg(2)->Arg(4)->ArgName("threads")
    ->UseRealTime()->Unit(benchmark::kMillisecond);

/// Dispatch overhead of the ParallelFor chunking for a cheap body.
void BM_ParallelForDispatch(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  ThreadPool pool(threads);
  std::vector<double> out(4096);
  for (auto _ : state) {
    ParallelFor(
        &pool, 0, out.size(),
        [&out](size_t i) { out[i] = static_cast<double>(i) * 0.5; },
        /*grain=*/64);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ParallelForDispatch)->Arg(1)->Arg(2)->Arg(4)->ArgName("threads")
    ->UseRealTime();

void BM_Levenshtein(benchmark::State& state) {
  std::string a = "crowdstrike holdings incorporated";
  std::string b = "crowd strike platforms international";
  for (auto _ : state) {
    benchmark::DoNotOptimize(Levenshtein(a, b));
  }
}
BENCHMARK(BM_Levenshtein);

void BM_JaroWinkler(benchmark::State& state) {
  std::string a = "crowdstrike holdings incorporated";
  std::string b = "crowd strike platforms international";
  for (auto _ : state) {
    benchmark::DoNotOptimize(JaroWinkler(a, b));
  }
}
BENCHMARK(BM_JaroWinkler);

void BM_VocabEncode(benchmark::State& state) {
  SubwordVocab vocab;
  vocab.Train({"crowdstrike holdings provides security solutions",
               "quantum energy resources limited zurich",
               "data pipeline analytics incorporated"},
              1000);
  std::string text =
      "Quantum CrowdStrike Data Pipeline unseenword123 Zurich Analytics";
  for (auto _ : state) {
    benchmark::DoNotOptimize(vocab.EncodeText(text));
  }
}
BENCHMARK(BM_VocabEncode);

void BM_TransformerPredict(benchmark::State& state) {
  TransformerConfig config;
  config.vocab_size = 6000;
  config.max_seq_len = static_cast<size_t>(state.range(0));
  TransformerClassifier model(config);
  Rng rng(4);
  std::vector<int32_t> tokens(config.max_seq_len);
  for (auto& t : tokens) t = static_cast<int32_t>(rng.Uniform(6000));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Predict(tokens));
  }
}
BENCHMARK(BM_TransformerPredict)->Arg(48)->Arg(96);

// Batched matcher inference: every iteration scores the same 256 fixture
// pairs through TransformerMatcher::ScoreBatch in chunks of `batch`, so the
// per-iteration work is constant and the batch:32 / batch:256 rows against
// batch:1 *of the same artifact* are the amortization win of the packed
// forward pass (one activation workspace and weight-matrix sweep per chunk
// instead of per pair). Scores are bitwise-identical across rows by the
// ScoreBatch contract — this knob trades nothing but allocator traffic.
// Scores 256 fixed pairs through TransformerMatcher::ScoreBatch in chunks of
// `batch`, so batch:1 is the per-pair baseline and batch:256 one packed
// forward pass. The model is sized so the layer weights (~2.5 MB) exceed a
// typical L2 cache with short sequences: that is the regime real transformer
// inference lives in — per-pair scoring re-streams every weight matrix from
// shared cache for each pair, while a packed batch streams them once per
// layer. At the tiny default config (d_model 32, weights ~260 KB) everything
// stays cache-hot and the batch rows collapse to within noise of each other,
// which would benchmark the allocator, not the batching.
void BM_MatcherScoreBatch(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  static const RecordTable* records = [] {
    SyntheticConfig config;
    config.seed = 505;
    config.num_groups = 120;
    return new RecordTable(
        FinancialGenerator(config).Generate().securities.records);
  }();
  static const TransformerMatcher* matcher = [] {
    TransformerMatcherConfig config;
    config.d_model = 128;
    config.num_heads = 4;
    config.num_layers = 2;
    config.d_ff = 1024;
    config.max_seq_len = 6;
    auto* m = new TransformerMatcher(config);
    m->BuildVocab(*records);
    return m;
  }();
  constexpr size_t kPairs = 256;
  std::vector<RecordPair> pairs;
  pairs.reserve(kPairs);
  for (size_t i = 0; i < kPairs; ++i) {
    const RecordId a = static_cast<RecordId>((2 * i) % records->size());
    const RecordId b = static_cast<RecordId>((2 * i + 1) % records->size());
    pairs.push_back(RecordPair(a, b));
  }
  std::vector<double> scores(kPairs, 0.0);
  for (auto _ : state) {
    for (size_t begin = 0; begin < kPairs; begin += batch) {
      const size_t count = std::min(batch, kPairs - begin);
      matcher->ScoreBatch(*records,
                          Span<const RecordPair>(pairs.data() + begin, count),
                          Span<double>(scores.data() + begin, count));
    }
    benchmark::DoNotOptimize(scores);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kPairs));
}
BENCHMARK(BM_MatcherScoreBatch)->Arg(1)->Arg(32)->Arg(256)->ArgName("batch")
    ->Unit(benchmark::kMillisecond);

void BM_TransformerTrainStep(benchmark::State& state) {
  TransformerConfig config;
  config.vocab_size = 6000;
  config.max_seq_len = 48;
  TransformerClassifier model(config);
  Rng rng(5);
  std::vector<int32_t> tokens(config.max_seq_len);
  for (auto& t : tokens) t = static_cast<int32_t>(rng.Uniform(6000));
  int label = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.ForwardBackward(tokens, label));
    label ^= 1;
  }
}
BENCHMARK(BM_TransformerTrainStep);

}  // namespace
}  // namespace gralmatch

BENCHMARK_MAIN();
