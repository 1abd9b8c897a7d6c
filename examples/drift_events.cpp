// Recreates the narrative of Figures 2-4 of the paper on a hand-built
// miniature — but as a *stream*, driving the real incremental API: the
// "Crowdstrike" record group spread over four data sources arrives first,
// then the "Crowdstreet" near-collision, and finally a corporate-event batch
// (an acquisition whose identifier overwrites make one group only
// transitively matchable, plus the false positive pairwise edge that glues
// two groups together until GraLMatch removes it). After every ingest the
// incremental engine (ShardedPipeline, one shard) reports how little it
// recomputed; the snapshot is checked against a from-scratch run of the
// batch pipeline — the engine's batch-equivalence guarantee. A final
// corrections batch then retracts the false positive's source record via
// Update/Remove and re-checks the snapshot against a from-scratch run on
// the survivors: schedule equivalence, the CRUD extension of the same
// guarantee.
//
//   ./examples/drift_events

#include <cstdio>
#include <string>
#include <vector>

#include "blocking/id_overlap.h"
#include "blocking/token_overlap.h"
#include "core/pipeline.h"
#include "data/dataset.h"
#include "matching/matcher.h"
#include "shard/sharded_pipeline.h"

using namespace gralmatch;

namespace {

/// The paper's Figure 2/4 matcher behaviour in miniature: matches identical
/// ISINs and obvious name alignments, plus one deliberate false positive
/// between Crowdstrike and Crowdstreet records.
class FigureMatcher : public PairwiseMatcher {
 public:
  std::string name() const override { return "figure-matcher"; }
  double MatchProbability(const Record& a, const Record& b) const override {
    if (!a.Get("isin").empty() && a.Get("isin") == b.Get("isin")) return 0.95;
    std::string_view na = a.Get("name"), nb = b.Get("name");
    if (na == nb) return 0.9;  // exact name alignment (Herotel vs Herotel)
    // Text alignment: "Crowdstrike"-family names match each other...
    bool strike_a = na.find("strike") != std::string_view::npos ||
                    na.find("Strike") != std::string_view::npos;
    bool strike_b = nb.find("strike") != std::string_view::npos ||
                    nb.find("Strike") != std::string_view::npos;
    if (strike_a && strike_b) return 0.9;
    // ...and the long shared character sequences of "Crowdstreet" produce
    // the false positive of Figure 4.
    bool street_a = na.find("street") != std::string_view::npos;
    bool street_b = nb.find("street") != std::string_view::npos;
    if ((strike_a && street_b) || (street_a && strike_b)) {
      return (na.find("Crowd Strike") != std::string_view::npos ||
              nb.find("Crowd Strike") != std::string_view::npos)
                 ? 0.7   // one false positive pair slips through
                 : 0.2;
    }
    if (street_a && street_b) return 0.9;
    return 0.05;
  }
};

Record MakeRecord(SourceId source, const char* name, const char* isin) {
  Record rec(source, RecordKind::kCompany);
  rec.Set("name", name);
  if (isin && *isin) rec.Set("isin", isin);
  return rec;
}

void PrintGroups(const PipelineResult& result) {
  for (const auto& group : result.groups) {
    std::printf("  {");
    for (size_t i = 0; i < group.size(); ++i) {
      std::printf("%s#%d", i ? ", " : "", group[i]);
    }
    std::printf("}\n");
  }
}

void PrintReport(const IngestReport& report) {
  std::printf("  ingest: +%zu records, +%zu/-%zu candidates, %zu scored, "
              "%zu cache hits, %zu components rebuilt, %zu reused\n",
              report.records_added, report.candidates_added,
              report.candidates_removed, report.pairs_scored,
              report.cache_hits, report.components_rebuilt,
              report.components_reused);
}

}  // namespace

int main() {
  // Configure the incremental pipeline with the real blockers: ID Overlap
  // pairs identical ISINs; Token Overlap pairs names sharing a token (the
  // miniature's names are short, so one shared token qualifies and every
  // token stays eligible).
  IncrementalPipelineConfig config;
  config.pipeline.cleanup.gamma = 8;
  config.pipeline.cleanup.mu = 4;  // four data sources
  config.token.top_n = 5;
  config.token.min_overlap = 1;
  config.token.max_token_df = 1.0;
  ShardedPipelineConfig sharded_config;
  sharded_config.base = config;
  ShardedPipeline pipeline(sharded_config);
  FigureMatcher matcher;

  // --- Batch 1: the Crowdstrike group, four naming variations (Figure 2).
  // #1's spaced spelling shares no *token* with the others, so only its
  // identifier ties it into the group — and its "Crowd" token is what the
  // Crowdstreet near-collision will later latch onto.
  std::vector<Record> batch1 = {
      MakeRecord(0, "Crowdstrike Plt.", "US31807756E"),
      MakeRecord(1, "Crowd Strike Platforms", "US318077DSIE"),
      MakeRecord(2, "Crowdstrike Holdings", "US318077DSIE"),
      MakeRecord(3, "CrowdStrike", "US318077DSIE"),
  };
  std::printf("=== Batch 1: Crowdstrike arrives (Figure 2) ===\n");
  PrintReport(pipeline.Ingest(batch1, matcher).ValueOrDie());
  PrintGroups(pipeline.Snapshot().ValueOrDie());

  // --- Batch 2: the Crowdstreet near-collision.
  std::vector<Record> batch2 = {
      MakeRecord(0, "Crowdstreet Inc", "US9022617"),
      MakeRecord(1, "Crowdstreet", "US9022617"),
      MakeRecord(2, "Crowd street Properties", ""),
  };
  std::printf("\n=== Batch 2: Crowdstreet near-collision ===\n");
  PrintReport(pipeline.Ingest(batch2, matcher).ValueOrDie());
  PrintGroups(pipeline.Snapshot().ValueOrDie());

  // --- Batch 3: the corporate event (Figure 3). Herotel is acquired by
  // Hearst; record #8's identifiers were overwritten with the acquirer's,
  // so #7 and #9/#10 only match transitively through #8. The batch also
  // carries the false-positive glue edge of Figure 4.
  std::vector<Record> batch3 = {
      MakeRecord(0, "Herotel", "ZA55511111"),
      MakeRecord(1, "Herotel", "US4444HRST"),  // overwritten identifiers
      MakeRecord(2, "Hearst", "US4444HRST"),
      MakeRecord(3, "Hearst Corporation", "US4444HRST"),
  };
  std::printf("\n=== Batch 3: acquisition drift + false positive ===\n");
  IngestReport report = pipeline.Ingest(batch3, matcher).ValueOrDie();
  PrintReport(report);
  std::printf("  (the Crowd* components were untouched by this batch: "
              "%zu spliced through unchanged)\n",
              report.components_reused);

  PipelineResult result = pipeline.Snapshot().ValueOrDie();
  bool herotel_direct = false;
  for (const auto& pair : result.predicted_pairs) {
    if (pair == RecordPair(7, 9) || pair == RecordPair(7, 10)) {
      herotel_direct = true;
    }
  }
  std::printf("Herotel #7 vs Hearst #9/#10 predicted directly: %s\n",
              herotel_direct ? "yes" : "no (only transitively via #8!)");
  std::printf("Post-cleanup groups (the false #1-#6 Crowdstrike-Crowdstreet "
              "edge had the maximum betweenness and was removed; #6 stays a "
              "singleton because token blocking never aligned its spaced "
              "spelling with the other Crowdstreet records):\n");
  PrintGroups(result);

  // --- The batch-equivalence guarantee, demonstrated: a from-scratch run
  // of the batch pipeline over the union of the three batches.
  Dataset ds;
  ds.records = pipeline.records();
  CandidateSet candidates;
  IdOverlapBlocker().AddCandidates(ds, &candidates);
  TokenOverlapBlocker(config.token).AddCandidates(ds, &candidates);
  PipelineResult reference = EntityGroupPipeline(config.pipeline)
                                 .Run(ds, candidates.ToVector(), matcher);
  const bool equivalent =
      result.predicted_pairs == reference.predicted_pairs &&
      result.pre_cleanup_components == reference.pre_cleanup_components &&
      result.groups == reference.groups;
  std::printf("\nIncremental snapshot == from-scratch batch run: %s\n",
              equivalent ? "yes (batch equivalence holds)" : "NO — BUG");
  std::printf("Matcher calls across all ingests: %zu (each pair scored at "
              "most once; cache hits: %zu)\n",
              pipeline.total_matcher_calls(), pipeline.total_cache_hits());

  // --- Batch 4: corrections. Source 1 retracts the spaced "Crowd Strike
  // Platforms" spelling — a data-entry error, and the very name that fed
  // Figure 4's false-positive edge — and republishes the fixed spelling;
  // source 2 delists "Crowd street Properties". Updates are exact
  // remove + re-add in one dirty pass; removals retract candidates
  // exactly and evict the dead records' cached scores.
  std::printf("\n=== Batch 4: corrections (update + removal) ===\n");
  const size_t calls_before = pipeline.total_matcher_calls();
  RecordUpdate correction;
  correction.id = 1;
  correction.record = MakeRecord(1, "CrowdStrike Platforms", "US318077DSIE");
  PrintReport(pipeline.Update({correction}, matcher).ValueOrDie());
  IngestReport removal = pipeline.Remove({6}, matcher).ValueOrDie();
  std::printf("  remove: -%zu records, -%zu candidates, %zu cache "
              "evictions\n",
              removal.records_removed, removal.candidates_removed,
              removal.cache_evictions);
  std::printf("  matcher calls for both corrections: %zu — the corrected "
              "record's pairs are new, every surviving pair came from the "
              "cache\n",
              pipeline.total_matcher_calls() - calls_before);
  result = pipeline.Snapshot().ValueOrDie();
  std::printf("Groups after the corrections (the corrected record re-enters "
              "as #%zu and now token-matches its group directly; the false "
              "edge no longer exists for cleanup to cut):\n",
              pipeline.records().size() - 1);
  PrintGroups(result);

  // --- Schedule equivalence, the CRUD extension of the guarantee above:
  // after updates and removals the reference is a from-scratch batch run
  // on the *survivors*. Compact the live records, run the batch pipeline,
  // and map its compact ids back to the sparse live ids (the map is
  // monotone, so pair and group orderings are preserved).
  Dataset survivors;
  std::vector<RecordId> original;
  for (size_t id = 0; id < pipeline.records().size(); ++id) {
    if (!pipeline.is_alive(static_cast<RecordId>(id))) continue;
    original.push_back(static_cast<RecordId>(id));
    survivors.records.Add(pipeline.records().at(static_cast<RecordId>(id)));
  }
  CandidateSet survivor_candidates;
  IdOverlapBlocker().AddCandidates(survivors, &survivor_candidates);
  TokenOverlapBlocker(config.token).AddCandidates(survivors,
                                                  &survivor_candidates);
  PipelineResult survivor_reference =
      EntityGroupPipeline(config.pipeline)
          .Run(survivors, survivor_candidates.ToVector(), matcher);
  for (RecordPair& pair : survivor_reference.predicted_pairs) {
    pair = RecordPair(original[static_cast<size_t>(pair.a)],
                      original[static_cast<size_t>(pair.b)]);
  }
  for (auto& group : survivor_reference.groups) {
    for (NodeId& id : group) id = original[static_cast<size_t>(id)];
  }
  const bool schedule_equivalent =
      result.predicted_pairs == survivor_reference.predicted_pairs &&
      result.groups == survivor_reference.groups;
  std::printf("\nSnapshot == from-scratch run on the survivors: %s\n",
              schedule_equivalent ? "yes (schedule equivalence holds)"
                                  : "NO — BUG");
  return (equivalent && schedule_equivalent) ? 0 : 1;
}
