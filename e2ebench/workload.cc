#include "workload.h"

#include <algorithm>
#include <cctype>

#include "blocking/id_overlap.h"
#include "common/rng.h"
#include "datagen/financial_gen.h"
#include "matching/baselines.h"
#include "matching/pair_sampling.h"
#include "matching/transformer_matcher.h"

namespace e2ebench {

using namespace gralmatch;

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> out;

    // Identifier matcher, 8 large batches: blocking does nearly all the
    // work and scoring is almost free.
    WorkloadSpec bulk;
    bulk.name = "bulk-id-18k";
    bulk.num_groups = 4000;
    bulk.matcher = MatcherKind::kIdentifier;
    bulk.num_shards = 4;
    bulk.ingest_batches = 8;
    bulk.correction_rounds = 2;
    bulk.remove_share = 0.05;
    bulk.update_share = 0.05;
    bulk.queries = 16384;
    out.push_back(bulk);

    // The same records in 32 small batches and 4 smaller correction
    // rounds, publishing after each mutation: per-mutation costs dominate.
    WorkloadSpec trickle = bulk;
    trickle.name = "trickle-id-18k";
    trickle.ingest_batches = 32;
    trickle.correction_rounds = 4;
    trickle.remove_share = 0.1 / 4;
    trickle.update_share = 0.1 / 4;
    trickle.publish_each_mutation = true;
    out.push_back(trickle);

    // Fine-tuned transformer matcher on 2k records: scoring dominates and
    // blocking is small.
    WorkloadSpec transformer;
    transformer.name = "transformer-2k";
    transformer.num_groups = 400;
    transformer.matcher = MatcherKind::kTransformer;
    transformer.num_shards = 1;
    transformer.ingest_batches = 8;
    transformer.correction_rounds = 2;
    transformer.remove_share = 0.05;
    transformer.update_share = 0.05;
    transformer.queries = 16384;
    out.push_back(transformer);
    return out;
  }();
  return kWorkloads;
}

std::unique_ptr<WorkloadSpec> FindWorkload(const std::string& name,
                                           bool smoke) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name != name) continue;
    auto out = std::make_unique<WorkloadSpec>(spec);
    if (smoke) {
      out->num_groups = spec.matcher == MatcherKind::kTransformer ? 60 : 150;
      out->ingest_batches = std::min<size_t>(spec.ingest_batches, 16);
      out->correction_rounds = std::min<size_t>(spec.correction_rounds, 4);
      out->remove_share = spec.remove_share * spec.correction_rounds /
                          out->correction_rounds;
      out->update_share = spec.update_share * spec.correction_rounds /
                          out->correction_rounds;
      out->queries = 640;
    }
    return out;
  }
  return nullptr;
}

namespace {

/// A correction a data steward would make: fix the casing of the name, drop
/// a stale identifier, or drop a trailing name word. The record keeps its
/// entity; its blocking keys may change.
Record Correct(const Record& original, size_t k) {
  Record fixed = original;
  if (k % 3 == 1) {
    std::vector<std::string> present;
    for (const std::string& attr : IdentifierAttributes()) {
      if (fixed.Has(attr)) present.push_back(attr);
    }
    if (present.size() >= 2) {
      fixed.Erase(present.back());
      return fixed;
    }
  }
  std::string name(fixed.Get("name"));
  if (k % 3 == 2) {
    const size_t cut = name.find_last_of(' ');
    if (cut != std::string::npos && cut > 0) {
      fixed.Set("name", name.substr(0, cut));
      return fixed;
    }
  }
  for (char& c : name) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  fixed.Set("name", name);
  return fixed;
}

/// `count` distinct live ids, drawn in a seeded order, marked dead.
std::vector<RecordId> DrawLive(std::vector<RecordId>* live, size_t count,
                               Rng* rng) {
  count = std::min(count, live->size());
  // Partial Fisher-Yates from the back: the drawn ids leave `live`.
  std::vector<RecordId> drawn;
  drawn.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t j = static_cast<size_t>(rng->Uniform(live->size()));
    drawn.push_back((*live)[j]);
    (*live)[j] = live->back();
    live->pop_back();
  }
  return drawn;
}

}  // namespace

Workload GenerateWorkload(const WorkloadSpec& spec, uint64_t seed) {
  Workload w;
  w.spec = spec;
  w.seed = seed;

  // The records, the feed and the corrections are fixed, so runs with
  // different seeds do the same work; the seed draws the shard routing, the
  // queries and the transformer's training.
  SyntheticConfig gen;
  gen.seed = kRecordSeed;
  gen.num_groups = spec.num_groups;
  w.dataset = FinancialGenerator(gen).Generate().securities;

  // The feed interleaves the sources in one fixed order.
  const size_t n = w.dataset.records.size();
  std::vector<RecordId> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<RecordId>(i);
  Rng feed_order(kRecordSeed ^ 0xFEEDull);
  feed_order.Shuffle(&order);

  const size_t batches = std::max<size_t>(1, spec.ingest_batches);
  const size_t per_batch = (n + batches - 1) / batches;
  std::vector<Record> feed;
  feed.reserve(n);
  for (RecordId original : order) {
    feed.push_back(w.dataset.records.at(original));
    w.entity_of.push_back(w.dataset.truth.entity_of(original));
  }
  for (size_t begin = 0; begin < n; begin += per_batch) {
    const size_t end = std::min(n, begin + per_batch);
    w.batches.emplace_back(feed.begin() + static_cast<long>(begin),
                           feed.begin() + static_cast<long>(end));
  }

  // Corrections, drawn over record identities (generator ids, then one
  // fresh identity per update). Engine ids follow the engine's rule: the
  // feed takes ids in feed order, and an update's new payload takes the
  // next id.
  std::vector<RecordId> id_of(n);
  for (size_t pos = 0; pos < n; ++pos) {
    id_of[static_cast<size_t>(order[pos])] = static_cast<RecordId>(pos);
  }
  std::vector<RecordId> live(n);
  for (size_t i = 0; i < n; ++i) live[i] = static_cast<RecordId>(i);
  std::vector<Record> payload = feed;
  w.final_alive.assign(n, 1);
  Rng schedule(kRecordSeed ^ 0xC0DEull);
  const size_t removes = static_cast<size_t>(spec.remove_share * n);
  const size_t updates = static_cast<size_t>(spec.update_share * n);
  size_t corrected = 0;
  for (size_t r = 0; r < spec.correction_rounds; ++r) {
    CorrectionRound round;
    for (RecordId identity : DrawLive(&live, removes, &schedule)) {
      round.removals.push_back(id_of[static_cast<size_t>(identity)]);
    }
    std::sort(round.removals.begin(), round.removals.end());
    for (RecordId id : round.removals) w.final_alive[static_cast<size_t>(id)] = 0;
    for (RecordId identity : DrawLive(&live, updates, &schedule)) {
      RecordUpdate update;
      update.id = id_of[static_cast<size_t>(identity)];
      update.record = Correct(payload[static_cast<size_t>(update.id)],
                              corrected++);
      w.final_alive[static_cast<size_t>(update.id)] = 0;
      const RecordId fresh = static_cast<RecordId>(payload.size());
      payload.push_back(update.record);
      id_of.push_back(fresh);
      w.entity_of.push_back(w.entity_of[static_cast<size_t>(update.id)]);
      w.final_alive.push_back(1);
      live.push_back(fresh);
      round.updates.push_back(std::move(update));
    }
    w.rounds.push_back(std::move(round));
  }

  // The paper's cleanup settings: gamma = 25, mu = 5 (the number of
  // sources), Pre-Cleanup threshold 50. One worker thread: the exec layer
  // is not measured (see README.md).
  w.config.base.pipeline.cleanup.gamma = 25;
  w.config.base.pipeline.cleanup.mu = 5;
  w.config.base.pipeline.pre_cleanup_threshold = 50;
  w.config.base.pipeline.match_threshold = 0.5;
  w.config.base.pipeline.num_threads = 1;
  w.config.num_shards = spec.num_shards;
  w.config.router_seed = seed;
  return w;
}

std::unique_ptr<PairwiseMatcher> FineTuneTransformer(const Dataset& dataset,
                                                     uint64_t seed) {
  TransformerMatcherConfig config;
  config.seed = seed ^ 0x7777;
  config.trainer.epochs = 1;
  config.trainer.lr = 1.5e-3f;
  config.trainer.shuffle_seed = seed ^ 0xD00D;
  auto matcher = std::make_unique<TransformerMatcher>(config);

  Rng split_rng(seed ^ 0x5B17);
  const GroupSplit split = SplitByGroups(dataset.truth, &split_rng);
  RecordTable train_records;
  for (RecordId id : split.RecordsIn(SplitPart::kTrain)) {
    train_records.Add(dataset.records.at(id));
  }
  matcher->BuildVocab(train_records);

  PairSamplingOptions options;
  options.seed = seed ^ 0x9A1B5;
  options.max_positives = 1500;
  const std::vector<LabeledPair> train =
      SamplePairs(dataset, split, SplitPart::kTrain, options);
  options.max_positives = 300;
  const std::vector<LabeledPair> val =
      SamplePairs(dataset, split, SplitPart::kValidation, options);
  matcher->FineTune(dataset.records, train, val);
  return matcher;
}

std::unique_ptr<PairwiseMatcher> MakeMatcher(const Workload& workload) {
  if (workload.spec.matcher == MatcherKind::kTransformer) {
    return FineTuneTransformer(workload.dataset, workload.seed);
  }
  return std::make_unique<HeuristicIdMatcher>();
}

}  // namespace e2ebench
