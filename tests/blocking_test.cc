// Tests for the blocking module: candidate-set provenance, ID Overlap
// (securities and companies modes), Token Overlap and Issuer Match.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "blocking/blocker.h"
#include "blocking/id_overlap.h"
#include "blocking/incremental_index.h"
#include "blocking/issuer_match.h"
#include "blocking/token_overlap.h"
#include "common/rng.h"

namespace gralmatch {
namespace {

TEST(CandidateSetTest, DeduplicatesAndUnionsProvenance) {
  CandidateSet set;
  set.Add(RecordPair(1, 2), kBlockerIdOverlap);
  set.Add(RecordPair(2, 1), kBlockerTokenOverlap);  // same pair
  set.Add(RecordPair(3, 4), kBlockerTokenOverlap);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.ProvenanceOf(RecordPair(1, 2)),
            kBlockerIdOverlap | kBlockerTokenOverlap);
  EXPECT_EQ(set.ProvenanceOf(RecordPair(3, 4)),
            static_cast<uint32_t>(kBlockerTokenOverlap));
  EXPECT_EQ(set.ProvenanceOf(RecordPair(9, 10)), 0u);

  auto v = set.ToVector();
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0].pair, RecordPair(1, 2));  // deterministic order
}

TEST(CandidateSetTest, MergeCombinesSets) {
  CandidateSet a, b;
  a.Add(RecordPair(0, 1), kBlockerIdOverlap);
  b.Add(RecordPair(0, 1), kBlockerIssuerMatch);
  b.Add(RecordPair(2, 3), kBlockerIdOverlap);
  a.Merge(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.ProvenanceOf(RecordPair(0, 1)),
            kBlockerIdOverlap | kBlockerIssuerMatch);
}

Dataset MakeSecuritiesDataset() {
  Dataset ds;
  ds.name = "securities";
  auto add = [&](SourceId src, const char* isin, const char* cusip,
                 EntityId entity) {
    Record rec(src, RecordKind::kSecurity);
    if (isin) rec.Set("isin", isin);
    if (cusip) rec.Set("cusip", cusip);
    RecordId id = ds.records.Add(std::move(rec));
    ds.truth.Assign(id, entity);
    return id;
  };
  add(0, "US1", "C1", 100);      // 0
  add(1, "US1", nullptr, 100);   // 1: shares ISIN with 0
  add(2, nullptr, "C1", 100);    // 2: shares CUSIP with 0
  add(0, "US2", nullptr, 200);   // 3
  add(1, "US2", nullptr, 200);   // 4: shares ISIN with 3
  add(1, "US9", nullptr, 300);   // 5: no overlaps
  return ds;
}

TEST(IdOverlapTest, SecuritiesModeFindsSharedIdentifiers) {
  Dataset ds = MakeSecuritiesDataset();
  CandidateSet out;
  IdOverlapBlocker blocker;
  blocker.AddCandidates(ds, &out);
  EXPECT_EQ(out.ProvenanceOf(RecordPair(0, 1)),
            static_cast<uint32_t>(kBlockerIdOverlap));
  EXPECT_EQ(out.ProvenanceOf(RecordPair(0, 2)),
            static_cast<uint32_t>(kBlockerIdOverlap));
  EXPECT_EQ(out.ProvenanceOf(RecordPair(3, 4)),
            static_cast<uint32_t>(kBlockerIdOverlap));
  EXPECT_EQ(out.ProvenanceOf(RecordPair(1, 2)), 0u) << "no shared value";
  EXPECT_EQ(out.ProvenanceOf(RecordPair(0, 5)), 0u);
}

TEST(IdOverlapTest, SameSourcePairsExcluded) {
  Dataset ds;
  Record a(0, RecordKind::kSecurity);
  a.Set("isin", "X");
  Record b(0, RecordKind::kSecurity);  // same source
  b.Set("isin", "X");
  ds.truth.Assign(ds.records.Add(std::move(a)), 1);
  ds.truth.Assign(ds.records.Add(std::move(b)), 1);
  CandidateSet out;
  IdOverlapBlocker blocker;
  blocker.AddCandidates(ds, &out);
  EXPECT_EQ(out.size(), 0u);
}

TEST(IdOverlapTest, MultiValuedIdentifiersMatch) {
  Dataset ds;
  Record a(0, RecordKind::kSecurity);
  a.Set("isin", "A|B");
  Record b(1, RecordKind::kSecurity);
  b.Set("isin", "B|C");
  ds.truth.Assign(ds.records.Add(std::move(a)), 1);
  ds.truth.Assign(ds.records.Add(std::move(b)), 1);
  CandidateSet out;
  IdOverlapBlocker blocker;
  blocker.AddCandidates(ds, &out);
  EXPECT_EQ(out.size(), 1u);
}

TEST(IdOverlapTest, CompaniesModeJoinsThroughSecurities) {
  // Companies 0 (src 0) and 1 (src 1) issue securities sharing an ISIN;
  // company 2 (src 2) does not.
  Dataset companies;
  companies.truth.Assign(
      companies.records.Add(Record(0, RecordKind::kCompany)), 1);
  companies.truth.Assign(
      companies.records.Add(Record(1, RecordKind::kCompany)), 1);
  companies.truth.Assign(
      companies.records.Add(Record(2, RecordKind::kCompany)), 2);

  RecordTable securities;
  auto add_sec = [&](SourceId src, const char* isin, RecordId issuer) {
    Record rec(src, RecordKind::kSecurity);
    rec.Set("isin", isin);
    rec.Set("issuer_ref", std::to_string(issuer));
    securities.Add(std::move(rec));
  };
  add_sec(0, "SHARED", 0);
  add_sec(1, "SHARED", 1);
  add_sec(2, "OTHER", 2);

  CandidateSet out;
  IdOverlapBlocker blocker(&securities);
  blocker.AddCandidates(companies, &out);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_NE(out.ProvenanceOf(RecordPair(0, 1)), 0u);
}

Dataset MakeTextDataset() {
  Dataset ds;
  auto add = [&](SourceId src, const char* name, EntityId entity) {
    Record rec(src, RecordKind::kCompany);
    rec.Set("name", name);
    RecordId id = ds.records.Add(std::move(rec));
    ds.truth.Assign(id, entity);
    return id;
  };
  add(0, "Crowd Strike Platforms", 1);   // 0
  add(1, "Crowd Strike Platforms Inc", 1);  // 1
  add(2, "Crowd Street Properties", 2);  // 2
  add(0, "Quantum Energy Resources", 3); // 3
  add(1, "Quantum Energy Resources Ltd", 3);  // 4
  add(2, "Totally Unrelated Newco", 4);  // 5
  return ds;
}

TEST(TokenOverlapTest, FindsTextAlignedPairs) {
  Dataset ds = MakeTextDataset();
  TokenOverlapBlocker::Options opts;
  opts.top_n = 3;
  opts.min_overlap = 2;
  opts.max_token_df = 1.0;  // tiny dataset: keep all tokens
  TokenOverlapBlocker blocker(opts);
  CandidateSet out;
  blocker.AddCandidates(ds, &out);
  EXPECT_NE(out.ProvenanceOf(RecordPair(0, 1)), 0u);
  EXPECT_NE(out.ProvenanceOf(RecordPair(3, 4)), 0u);
  // "Crowd" overlap alone (1 token) must not qualify at min_overlap=2...
  // 0 and 2 share "crowd" only -> excluded.
  EXPECT_EQ(out.ProvenanceOf(RecordPair(0, 2)), 0u);
  // The isolated record pairs with nothing.
  EXPECT_EQ(out.ProvenanceOf(RecordPair(0, 5)), 0u);
}

TEST(TokenOverlapTest, TopNLimitsCandidatesPerRecord) {
  // One record overlapping with many others across sources.
  Dataset ds;
  auto add = [&](SourceId src, const std::string& name) {
    Record rec(src, RecordKind::kCompany);
    rec.Set("name", name);
    RecordId id = ds.records.Add(std::move(rec));
    ds.truth.Assign(id, id);
    return id;
  };
  add(0, "alpha beta gamma");
  for (int i = 0; i < 10; ++i) {
    add(1, "alpha beta gamma delta" + std::to_string(i));
  }
  TokenOverlapBlocker::Options opts;
  opts.top_n = 4;
  opts.min_overlap = 2;
  opts.max_token_df = 1.0;
  TokenOverlapBlocker blocker(opts);
  CandidateSet out;
  blocker.AddCandidates(ds, &out);
  // Record 0 keeps at most top_n partners; partners also keep record 0, so
  // the total stays bounded by the union (each of the 10 keeps record 0 as
  // its only cross-source partner).
  size_t with_zero = 0;
  for (const auto& cand : out.ToVector()) {
    if (cand.pair.a == 0) ++with_zero;
  }
  EXPECT_EQ(with_zero, 10u);  // symmetric direction keeps them
}

TEST(TokenOverlapTest, SameSourceNeverPaired) {
  Dataset ds;
  auto add = [&](SourceId src, const char* name, EntityId e) {
    Record rec(src, RecordKind::kCompany);
    rec.Set("name", name);
    ds.truth.Assign(ds.records.Add(std::move(rec)), e);
  };
  add(0, "same tokens here", 1);
  add(0, "same tokens here", 1);
  TokenOverlapBlocker::Options opts;
  opts.max_token_df = 1.0;
  TokenOverlapBlocker blocker(opts);
  CandidateSet out;
  blocker.AddCandidates(ds, &out);
  EXPECT_EQ(out.size(), 0u);
}

TEST(IssuerMatchTest, PairsSecuritiesOfMatchedIssuers) {
  // Companies 0, 1, 2; 0 and 1 are in the same (previously matched) group.
  std::vector<int64_t> company_group = {5, 5, 6};

  Dataset securities;
  auto add_sec = [&](SourceId src, RecordId issuer, EntityId entity) {
    Record rec(src, RecordKind::kSecurity);
    rec.Set("name", "Common Stock");
    rec.Set("issuer_ref", std::to_string(issuer));
    RecordId id = securities.records.Add(std::move(rec));
    securities.truth.Assign(id, entity);
    return id;
  };
  add_sec(0, 0, 100);  // 0 issued by company 0
  add_sec(1, 1, 100);  // 1 issued by company 1 (same group)
  add_sec(2, 2, 200);  // 2 issued by company 2 (other group)

  IssuerMatchBlocker blocker(&company_group);
  CandidateSet out;
  blocker.AddCandidates(securities, &out);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(out.ProvenanceOf(RecordPair(0, 1)),
            static_cast<uint32_t>(kBlockerIssuerMatch));
}

TEST(IssuerMatchTest, UngroupedAndMissingIssuersSkipped) {
  std::vector<int64_t> company_group = {-1, -1};
  Dataset securities;
  Record a(0, RecordKind::kSecurity);
  a.Set("issuer_ref", "0");
  Record b(1, RecordKind::kSecurity);
  b.Set("issuer_ref", "1");
  Record c(1, RecordKind::kSecurity);  // no issuer_ref at all
  securities.truth.Assign(securities.records.Add(std::move(a)), 1);
  securities.truth.Assign(securities.records.Add(std::move(b)), 1);
  securities.truth.Assign(securities.records.Add(std::move(c)), 1);

  IssuerMatchBlocker blocker(&company_group);
  CandidateSet out;
  blocker.AddCandidates(securities, &out);
  EXPECT_EQ(out.size(), 0u);
}

// ---------------------------------------------------------------------------
// Incremental indexes: after any split schedule, the maintained pair set
// must equal the batch blocker run on the union.
// ---------------------------------------------------------------------------

std::vector<RecordPair> SortedPairs(std::vector<RecordPair> pairs) {
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

std::vector<RecordPair> BatchTokenPairs(const RecordTable& records,
                                        TokenOverlapBlocker::Options options) {
  Dataset ds;
  ds.records = records;
  CandidateSet out;
  TokenOverlapBlocker(options).AddCandidates(ds, &out);
  std::vector<RecordPair> pairs;
  for (const auto& cand : out.ToVector()) pairs.push_back(cand.pair);
  return pairs;
}

std::vector<RecordPair> BatchIdPairs(const RecordTable& records) {
  Dataset ds;
  ds.records = records;
  CandidateSet out;
  IdOverlapBlocker().AddCandidates(ds, &out);
  std::vector<RecordPair> pairs;
  for (const auto& cand : out.ToVector()) pairs.push_back(cand.pair);
  return pairs;
}

/// Prefix of a record table as its own table.
RecordTable Prefix(const RecordTable& records, size_t n) {
  RecordTable out;
  for (size_t i = 0; i < n; ++i) out.Add(records.at(static_cast<RecordId>(i)));
  return out;
}

TEST(IncrementalIdOverlapIndexTest, BucketOverflowRetractsItsPairs) {
  // 50 records sharing one identifier: within the cap, pairs exist. Growing
  // the bucket to 70 (> kMaxBucket = 64) must retract every pair, exactly
  // like a from-scratch run on all 70 records would produce none.
  RecordTable records;
  for (int i = 0; i < 70; ++i) {
    Record rec(static_cast<SourceId>(i % 3), RecordKind::kSecurity);
    rec.Set("isin", "SHARED000001");
    records.Add(std::move(rec));
  }

  IncrementalIdOverlapIndex index;
  CandidateDelta first = index.AddRecords(Prefix(records, 50));
  EXPECT_GT(first.added.size(), 0u);
  EXPECT_EQ(first.removed.size(), 0u);
  EXPECT_EQ(SortedPairs(index.CurrentPairs()),
            BatchIdPairs(Prefix(records, 50)));

  CandidateDelta second = index.AddRecords(records);
  EXPECT_EQ(second.added.size(), 0u);
  EXPECT_EQ(second.removed.size(), first.added.size());
  EXPECT_TRUE(index.CurrentPairs().empty());
  EXPECT_TRUE(BatchIdPairs(records).empty());
}

TEST(IncrementalIdOverlapIndexTest, RandomSplitsMatchBatch) {
  Rng rng(11);
  RecordTable records;
  for (int i = 0; i < 120; ++i) {
    Record rec(static_cast<SourceId>(i % 4), RecordKind::kSecurity);
    rec.Set("isin", "ISIN" + std::to_string(rng.Uniform(25)));
    if (rng.Bernoulli(0.5)) {
      rec.Set("cusip", "CUSIP" + std::to_string(rng.Uniform(10)));
    }
    records.Add(std::move(rec));
  }
  for (int round = 0; round < 4; ++round) {
    IncrementalIdOverlapIndex index;
    size_t ingested = 0;
    while (ingested < records.size()) {
      ingested += 1 + rng.Uniform(records.size() - ingested < 30
                                      ? records.size() - ingested
                                      : 30);
      index.AddRecords(Prefix(records, ingested));
      EXPECT_EQ(SortedPairs(index.CurrentPairs()),
                BatchIdPairs(Prefix(records, ingested)))
          << "round " << round << " after " << ingested << " records";
    }
  }
}

TEST(IncrementalTokenOverlapIndexTest, MaxDfCapReadmitsTokensAsNGrows) {
  // "zephyr" appears in 3 records. At n = 10 the df cap is
  // floor(0.05 * 10) + 1 = 1, so the token is ineligible and produces no
  // pairs; at n = 60 the cap is 4 and the token becomes eligible again —
  // the index must emit the pairs the from-scratch run now finds.
  TokenOverlapBlocker::Options options;
  options.min_overlap = 1;
  RecordTable records;
  for (int i = 0; i < 60; ++i) {
    Record rec(static_cast<SourceId>(i % 3), RecordKind::kCompany);
    std::string name = "filler" + std::to_string(i) + " unique" +
                       std::to_string(i * 7);
    if (i < 3) name = "zephyr dynamics " + std::to_string(i);
    rec.Set("name", name);
    records.Add(std::move(rec));
  }

  IncrementalTokenOverlapIndex index(options);
  index.AddRecords(Prefix(records, 10));
  EXPECT_EQ(SortedPairs(index.CurrentPairs()),
            BatchTokenPairs(Prefix(records, 10), options));
  EXPECT_TRUE(index.CurrentPairs().empty());

  CandidateDelta delta = index.AddRecords(records);
  EXPECT_GT(delta.added.size(), 0u);
  EXPECT_EQ(SortedPairs(index.CurrentPairs()),
            BatchTokenPairs(records, options));
  EXPECT_FALSE(index.CurrentPairs().empty());
}

TEST(IncrementalTokenOverlapIndexTest, TopNDisplacementRetractsPair) {
  // top_n = 1: A's only slot initially holds B; the later-arriving C
  // overlaps A more and displaces B, so pair (A,B) must be retracted
  // (B's own slot prefers D throughout).
  TokenOverlapBlocker::Options options;
  options.top_n = 1;
  options.min_overlap = 1;
  options.max_token_df = 1.0;  // keep every token eligible

  RecordTable records;
  auto add = [&](SourceId source, const std::string& name) {
    Record rec(source, RecordKind::kCompany);
    rec.Set("name", name);
    return records.Add(std::move(rec));
  };
  RecordId a = add(0, "papaya quartz");
  RecordId b = add(1, "papaya rhubarb saffron");
  add(2, "rhubarb saffron");              // D: B's best partner
  RecordId c = add(2, "papaya quartz");   // arrives last, displaces B from A

  IncrementalTokenOverlapIndex index(options);
  index.AddRecords(Prefix(records, 3));
  std::vector<RecordPair> before = SortedPairs(index.CurrentPairs());
  EXPECT_EQ(before, BatchTokenPairs(Prefix(records, 3), options));
  EXPECT_TRUE(std::binary_search(before.begin(), before.end(),
                                 RecordPair(a, b)));

  CandidateDelta delta = index.AddRecords(records);
  EXPECT_EQ(SortedPairs(index.CurrentPairs()),
            BatchTokenPairs(records, options));
  ASSERT_EQ(delta.removed.size(), 1u);
  EXPECT_EQ(delta.removed[0], RecordPair(a, b));
  EXPECT_TRUE(std::find(delta.added.begin(), delta.added.end(),
                        RecordPair(a, c)) != delta.added.end());
}

/// Sorted pairs of `a` missing from `b` (both sorted).
std::vector<RecordPair> PairsMinus(const std::vector<RecordPair>& a,
                                   const std::vector<RecordPair>& b) {
  std::vector<RecordPair> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

TEST(IncrementalTokenOverlapIndexTest, RandomSplitsMatchBatch) {
  // The second grid point keeps one slot per record under a low df cap, so
  // ties, displacements and eligibility flips happen on most batches.
  TokenOverlapBlocker::Options loose;
  loose.top_n = 3;
  loose.min_overlap = 2;
  loose.max_token_df = 0.2;
  TokenOverlapBlocker::Options tight;
  tight.top_n = 1;
  tight.min_overlap = 1;
  tight.max_token_df = 0.15;
  Rng rng(13);
  const std::vector<std::string> vocab = {
      "alpha", "bravo", "carbon", "delta",  "ember",  "falcon",
      "grove", "helix", "indigo", "jasper", "krypton"};
  RecordTable records;
  for (int i = 0; i < 100; ++i) {
    Record rec(static_cast<SourceId>(i % 4), RecordKind::kCompany);
    std::string name;
    const size_t words = 2 + rng.Uniform(4);
    for (size_t w = 0; w < words; ++w) {
      if (w) name += " ";
      name += vocab[rng.Uniform(vocab.size())];
    }
    rec.Set("name", name);
    records.Add(std::move(rec));
  }
  for (const TokenOverlapBlocker::Options& options : {loose, tight}) {
    for (int round = 0; round < 3; ++round) {
      IncrementalTokenOverlapIndex index(options);
      std::vector<RecordPair> previous;
      size_t ingested = 0;
      while (ingested < records.size()) {
        ingested += 1 + rng.Uniform(records.size() - ingested < 20
                                        ? records.size() - ingested
                                        : 20);
        const CandidateDelta delta = index.AddRecords(Prefix(records, ingested));
        const std::vector<RecordPair> current =
            SortedPairs(index.CurrentPairs());
        EXPECT_EQ(current, BatchTokenPairs(Prefix(records, ingested), options))
            << "top_n " << options.top_n << " round " << round << " after "
            << ingested << " records";
        EXPECT_EQ(delta.added, PairsMinus(current, previous));
        EXPECT_EQ(delta.removed, PairsMinus(previous, current));
        previous = current;
      }
    }
  }
}

/// A token index over hand-written records that checks, after every call,
/// the pair set against the batch blocker on the survivors and the delta
/// against the pair sets before and after.
class TokenIndexScenario {
 public:
  explicit TokenIndexScenario(TokenOverlapBlocker::Options options)
      : options_(options), index_(options) {}

  RecordId Add(SourceId source, const std::string& name) {
    Record rec(source, RecordKind::kCompany);
    rec.Set("name", name);
    alive_.push_back(1);
    return records_.Add(std::move(rec));
  }

  /// Absorb every record added since the last call.
  CandidateDelta Ingest() { return Check(index_.AddRecords(records_)); }

  CandidateDelta Remove(const std::vector<RecordId>& ids) {
    for (RecordId id : ids) alive_[static_cast<size_t>(id)] = 0;
    return Check(index_.RemoveRecords(records_, ids));
  }

  std::vector<RecordPair> Pairs() const { return previous_; }

 private:
  CandidateDelta Check(CandidateDelta delta) {
    RecordTable survivors;
    std::vector<RecordId> original;
    for (size_t i = 0; i < records_.size(); ++i) {
      if (!alive_[i]) continue;
      survivors.Add(records_.at(static_cast<RecordId>(i)));
      original.push_back(static_cast<RecordId>(i));
    }
    std::vector<RecordPair> expected;
    for (const RecordPair& p : BatchTokenPairs(survivors, options_)) {
      expected.emplace_back(original[static_cast<size_t>(p.a)],
                            original[static_cast<size_t>(p.b)]);
    }
    const std::vector<RecordPair> current = SortedPairs(index_.CurrentPairs());
    EXPECT_EQ(current, SortedPairs(expected));
    EXPECT_EQ(delta.added, PairsMinus(current, previous_));
    EXPECT_EQ(delta.removed, PairsMinus(previous_, current));
    previous_ = current;
    return delta;
  }

  TokenOverlapBlocker::Options options_;
  IncrementalTokenOverlapIndex index_;
  RecordTable records_;
  std::vector<char> alive_;
  std::vector<RecordPair> previous_;
};

TokenOverlapBlocker::Options EveryTokenEligible(size_t top_n) {
  TokenOverlapBlocker::Options options;
  options.top_n = top_n;
  options.min_overlap = 1;
  options.max_token_df = 1.0;
  return options;
}

TEST(IncrementalTokenOverlapIndexTest, RemovedKeptRecordPullsReplacement) {
  // A keeps B (3 shared tokens) over C (2). Removing B must re-rank A, which
  // pulls C from beyond its top-1 — although B's only token flip ("mango",
  // df 2 -> 1) leaves a single holder and re-ranks nobody by itself.
  TokenIndexScenario s(EveryTokenEligible(/*top_n=*/1));
  const RecordId a = s.Add(0, "kiwi lemon mango");
  const RecordId b = s.Add(1, "kiwi lemon mango");
  const RecordId c = s.Add(1, "kiwi lemon quince");
  const RecordId e = s.Add(0, "kiwi lemon quince");  // C's own best partner
  s.Ingest();
  EXPECT_EQ(s.Pairs(),
            (std::vector<RecordPair>{RecordPair(a, b), RecordPair(c, e)}));

  const CandidateDelta delta = s.Remove({b});
  EXPECT_EQ(delta.removed, std::vector<RecordPair>{RecordPair(a, b)});
  EXPECT_EQ(delta.added, std::vector<RecordPair>{RecordPair(a, c)});
}

TEST(IncrementalTokenOverlapIndexTest, DfFlipsOneToTwoAndTwoToOne) {
  // "olive" goes df 1 -> 2 when C arrives (its old holder A must learn of C
  // from C's own ranking) and back 2 -> 1 when C leaves.
  TokenIndexScenario s(EveryTokenEligible(/*top_n=*/2));
  const RecordId a = s.Add(0, "olive pepper");
  const RecordId b = s.Add(1, "pepper");
  s.Ingest();
  EXPECT_EQ(s.Pairs(), std::vector<RecordPair>{RecordPair(a, b)});

  const RecordId c = s.Add(1, "olive");
  CandidateDelta delta = s.Ingest();
  EXPECT_EQ(delta.added, std::vector<RecordPair>{RecordPair(a, c)});
  EXPECT_TRUE(delta.removed.empty());

  delta = s.Remove({c});
  EXPECT_EQ(delta.removed, std::vector<RecordPair>{RecordPair(a, c)});
  EXPECT_TRUE(delta.added.empty());

  // "pepper" 2 -> 1 takes the last pair with it; a fresh holder re-admits.
  delta = s.Remove({b});
  EXPECT_EQ(delta.removed, std::vector<RecordPair>{RecordPair(a, b)});
  const RecordId d = s.Add(2, "pepper");
  delta = s.Ingest();
  EXPECT_EQ(delta.added, std::vector<RecordPair>{RecordPair(a, d)});
}

TEST(IncrementalTokenOverlapIndexTest, NewRecordDisplacesCountTieById) {
  // H's single slot holds X, which tied Z at one shared token and won by
  // id. R arrives sharing two tokens with H and displaces X; later T and U,
  // also at two, tie R and lose by id, so H keeps R.
  TokenIndexScenario s(EveryTokenEligible(/*top_n=*/1));
  const RecordId h = s.Add(0, "cedar dune");
  const RecordId x = s.Add(1, "cedar fig");
  const RecordId xp = s.Add(0, "cedar fig");  // X's own best partner
  const RecordId z = s.Add(1, "dune gum");
  const RecordId zp = s.Add(0, "dune gum");  // Z's own best partner
  s.Ingest();
  EXPECT_EQ(s.Pairs(), (std::vector<RecordPair>{
                           RecordPair(h, x), RecordPair(x, xp),
                           RecordPair(z, zp)}));

  const RecordId r = s.Add(2, "cedar dune");
  CandidateDelta delta = s.Ingest();
  EXPECT_EQ(delta.removed, std::vector<RecordPair>{RecordPair(h, x)});
  EXPECT_EQ(delta.added, std::vector<RecordPair>{RecordPair(h, r)});

  const RecordId t = s.Add(2, "cedar dune gum");
  const RecordId u = s.Add(1, "cedar dune gum");  // T's own best partner
  delta = s.Ingest();
  EXPECT_TRUE(delta.removed.empty());
  EXPECT_EQ(delta.added, std::vector<RecordPair>{RecordPair(t, u)});
}

}  // namespace
}  // namespace gralmatch
