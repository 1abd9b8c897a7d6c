// Test suite for the serving subsystem: durable checkpoints and concurrent
// epoch-snapshot serving.
//
// Checkpoints, at one shard (a manifest plus one shard file): Save -> Load
// -> Snapshot() must be bitwise-identical to the pre-save Snapshot() on both
// fixtures and across multi-batch schedules, and ingestion *after* a Load
// must still satisfy the stream_test batch-equivalence guarantee at 1/2/8
// threads — a restored pipeline is indistinguishable from one that never
// restarted, down to the score cache (no pair is rescored after a reload).
// Corrupted inputs — empty or truncated files (every prefix of the manifest
// and of the shard file), bad magic, future versions, bit flips, trailing
// garbage, fingerprint mismatches — must fail with a clean Status, never
// crash (exercised under ASan in CI). tests/shard_test.cc covers the same
// format at S > 1.
//
// Serving: MatchService publishes immutable epoch snapshots; a
// reader/ingester stress test (run under TSan in CI) checks every view is
// internally consistent and epochs are monotonic while ingestion races on.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "blocking/id_overlap.h"
#include "common/binary_io.h"
#include "blocking/token_overlap.h"
#include "core/pipeline.h"
#include "datagen/financial_gen.h"
#include "datagen/wdc_gen.h"
#include "serve/framing.h"
#include "serve/match_service.h"
#include "serve/sharded_checkpoint.h"
#include "shard/sharded_pipeline.h"
#include "text/normalize.h"

namespace gralmatch {
namespace {

// ---------------------------------------------------------------------------
// Matcher and fixtures (mirrors stream_test.cc so the equivalence contract
// under test is the same one)
// ---------------------------------------------------------------------------

/// Deterministic token-Jaccard matcher with a tunable scale that changes its
/// fingerprint (see stream_test.cc).
class JaccardMatcher : public PairwiseMatcher {
 public:
  explicit JaccardMatcher(double scale = 1.0) : scale_(scale) {}

  std::string name() const override { return "jaccard"; }
  std::string Fingerprint() const override {
    return "jaccard#" + std::to_string(scale_);
  }
  double MatchProbability(const Record& a, const Record& b) const override {
    auto ta = Tokens(a);
    auto tb = Tokens(b);
    if (ta.empty() && tb.empty()) return 0.0;
    size_t common = 0;
    size_t ia = 0, ib = 0;
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
    double score = scale_ * static_cast<double>(common) /
                   static_cast<double>(total == 0 ? 1 : total);
    return score > 1.0 ? 1.0 : score;
  }

 private:
  static std::vector<std::string> Tokens(const Record& rec) {
    auto toks = TokenizeContentWords(rec.AllText());
    std::sort(toks.begin(), toks.end());
    toks.erase(std::unique(toks.begin(), toks.end()), toks.end());
    return toks;
  }

  double scale_;
};

/// One-shard pipeline configuration.
ShardedPipelineConfig ServeConfig(size_t num_threads) {
  ShardedPipelineConfig config;
  config.base.pipeline.cleanup.gamma = 6;
  config.base.pipeline.cleanup.mu = 3;
  config.base.pipeline.pre_cleanup_threshold = 9;
  config.base.pipeline.match_threshold = 0.25;
  config.base.pipeline.num_threads = num_threads;
  config.base.token.top_n = 5;
  return config;
}

std::vector<Record> FinancialRecords(size_t num_groups = 60) {
  SyntheticConfig config;
  config.seed = 505;
  config.num_groups = num_groups;
  FinancialBenchmark bench = FinancialGenerator(config).Generate();
  return bench.securities.records.records();
}

std::vector<Record> WdcRecords() {
  WdcConfig config;
  config.num_entities = 120;
  config.seed = 77;
  return WdcProductsGenerator(config).Generate().records.records();
}

/// Ingest `records` in `batches` equal batches.
void IngestAll(ShardedPipeline* pipeline, const std::vector<Record>& records,
               size_t begin, size_t end, size_t batches,
               const PairwiseMatcher& matcher) {
  const size_t span = end - begin;
  const size_t batch_size = (span + batches - 1) / batches;
  for (size_t offset = begin; offset < end; offset += batch_size) {
    const size_t stop = std::min(offset + batch_size, end);
    std::vector<Record> batch(records.begin() + static_cast<long>(offset),
                              records.begin() + static_cast<long>(stop));
    ASSERT_TRUE(pipeline->Ingest(batch, matcher).ok());
  }
}

/// From-scratch reference over the pipeline's current record set.
PipelineResult RunBatchReference(const RecordTable& records,
                                 const IncrementalPipelineConfig& config,
                                 const PairwiseMatcher& matcher) {
  Dataset ds;
  ds.records = records;
  CandidateSet candidates;
  if (config.use_id_blocker) {
    IdOverlapBlocker::Options opts;
    opts.num_threads = config.pipeline.num_threads;
    IdOverlapBlocker(opts).AddCandidates(ds, &candidates);
  }
  if (config.use_token_blocker) {
    TokenOverlapBlocker::Options opts = config.token;
    opts.num_threads = config.pipeline.num_threads;
    TokenOverlapBlocker(opts).AddCandidates(ds, &candidates);
  }
  return EntityGroupPipeline(config.pipeline)
      .Run(ds, candidates.ToVector(), matcher);
}

/// Full bitwise equality, wall-clock fields included: a reloaded pipeline
/// restores the accumulated seconds bit-for-bit.
void ExpectBitwiseIdentical(const PipelineResult& a, const PipelineResult& b,
                            const std::string& context) {
  EXPECT_EQ(a.predicted_pairs, b.predicted_pairs) << context;
  EXPECT_EQ(a.pre_cleanup_components, b.pre_cleanup_components) << context;
  EXPECT_EQ(a.groups, b.groups) << context;
  EXPECT_EQ(a.cleanup_stats.pre_cleanup_edges_removed,
            b.cleanup_stats.pre_cleanup_edges_removed)
      << context;
  EXPECT_EQ(a.cleanup_stats.min_cut_calls, b.cleanup_stats.min_cut_calls)
      << context;
  EXPECT_EQ(a.cleanup_stats.min_cut_edges_removed,
            b.cleanup_stats.min_cut_edges_removed)
      << context;
  EXPECT_EQ(a.cleanup_stats.betweenness_calls,
            b.cleanup_stats.betweenness_calls)
      << context;
  EXPECT_EQ(a.cleanup_stats.betweenness_edges_removed,
            b.cleanup_stats.betweenness_edges_removed)
      << context;
  EXPECT_EQ(a.cleanup_stats.seconds, b.cleanup_stats.seconds) << context;
  EXPECT_EQ(a.inference_seconds, b.inference_seconds) << context;
}

/// Counters only (the reference run's wall-clock legitimately differs).
void ExpectEquivalent(const PipelineResult& incremental,
                      const PipelineResult& reference,
                      const std::string& context) {
  EXPECT_EQ(incremental.predicted_pairs, reference.predicted_pairs) << context;
  EXPECT_EQ(incremental.pre_cleanup_components,
            reference.pre_cleanup_components)
      << context;
  EXPECT_EQ(incremental.groups, reference.groups) << context;
  EXPECT_EQ(incremental.cleanup_stats.pre_cleanup_edges_removed,
            reference.cleanup_stats.pre_cleanup_edges_removed)
      << context;
  EXPECT_EQ(incremental.cleanup_stats.min_cut_calls,
            reference.cleanup_stats.min_cut_calls)
      << context;
  EXPECT_EQ(incremental.cleanup_stats.min_cut_edges_removed,
            reference.cleanup_stats.min_cut_edges_removed)
      << context;
  EXPECT_EQ(incremental.cleanup_stats.betweenness_calls,
            reference.cleanup_stats.betweenness_calls)
      << context;
  EXPECT_EQ(incremental.cleanup_stats.betweenness_edges_removed,
            reference.cleanup_stats.betweenness_edges_removed)
      << context;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Parent of this process's checkpoint directories: ctest runs every test
/// case in its own process, several at once, and two processes must never
/// save into (or garbage-collect) one directory.
const std::string& ScratchRoot() {
  static const std::string root =
      TempPath("serve_test_" + std::to_string(getpid()));
  return root;
}

/// Removes the scratch root once every test of the process has run.
class RemoveScratchRoot : public ::testing::Environment {
 public:
  void TearDown() override { std::filesystem::remove_all(ScratchRoot()); }
};
[[maybe_unused]] const ::testing::Environment* const kRemoveScratchRoot =
    ::testing::AddGlobalTestEnvironment(new RemoveScratchRoot);

std::string CheckpointDir(const std::string& name) {
  mkdir(ScratchRoot().c_str(), 0777);
  return ScratchRoot() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  return ReadWholeFile(path).ValueOrDie();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The files of a one-shard checkpoint, read into memory: the manifest and
/// the shard file under the content-addressed name the manifest gives it.
struct CheckpointImage {
  std::string manifest;
  std::string shard;
  std::string shard_name;

  bool operator==(const CheckpointImage& other) const {
    return manifest == other.manifest && shard == other.shard &&
           shard_name == other.shard_name;
  }
};

/// Save `pipeline` into `dir` and read the checkpoint back as bytes.
CheckpointImage SaveImage(const ShardedPipeline& pipeline,
                          const std::string& dir) {
  EXPECT_TRUE(SaveShardedCheckpoint(pipeline, dir).ok());
  CheckpointImage image;
  image.manifest = ReadFile(ShardedManifestPath(dir));
  const std::vector<std::string> paths = ShardFilePaths(dir).ValueOrDie();
  EXPECT_EQ(paths.size(), 1u);
  image.shard = ReadFile(paths[0]);
  image.shard_name = paths[0].substr(paths[0].find_last_of('/') + 1);
  return image;
}

/// Write `image` into `dir` — the manifest, and the shard bytes under the
/// name the *original* manifest gave them, whatever the bytes now are —
/// and load it.
Result<std::unique_ptr<ShardedPipeline>> LoadImage(
    const CheckpointImage& image, const std::string& dir,
    const PairwiseMatcher& matcher, size_t num_threads_override = 0) {
  mkdir(dir.c_str(), 0777);
  WriteFile(ShardedManifestPath(dir), image.manifest);
  WriteFile(dir + "/" + image.shard_name, image.shard);
  return LoadShardedCheckpoint(dir, matcher, num_threads_override);
}

/// Replace the trailing FNV-1a 64 checksum of a framed image with the one
/// its (patched) content now has.
std::string WithFixedChecksum(std::string image) {
  image.resize(image.size() - 8);
  BinaryWriter fixed;
  fixed.WriteBytes(image.data(), image.size());
  fixed.WriteU64(Fnv1a64(std::string_view(image)));
  return fixed.buffer();
}

/// Repair every framing layer after a deliberate patch of the shard bytes:
/// the shard file's trailing checksum, its content-addressed name, the
/// manifest's recorded checksum for it, and the manifest's own trailer —
/// so the patch reaches the validators behind the checksums.
void Reframe(CheckpointImage* image) {
  image->shard = WithFixedChecksum(image->shard);
  const uint64_t checksum = Fnv1a64(image->shard);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(checksum));
  image->shard_name = std::string("shard-0-") + hex + ".grlm";
  // Manifest layout: magic 8, version u32, fingerprint (u64 length +
  // bytes), u64 shard count, then the one shard checksum.
  BinaryReader reader(std::string_view(image->manifest).substr(12));
  std::string fingerprint;
  ASSERT_TRUE(reader.ReadString(&fingerprint).ok());
  const size_t pos = 12 + 8 + fingerprint.size() + 8;
  BinaryWriter patched;
  patched.WriteU64(checksum);
  image->manifest.replace(pos, 8, patched.buffer());
  image->manifest = WithFixedChecksum(image->manifest);
}

/// Cut the manifest, then the shard file, to every proper prefix (one byte
/// shorter at a time, down to empty); each load must fail cleanly, and the
/// intact files must load before each sweep.
void ExpectEveryTruncationFails(const CheckpointImage& image,
                                const std::string& dir) {
  JaccardMatcher matcher;
  for (const std::string& path :
       {ShardedManifestPath(dir), dir + "/" + image.shard_name}) {
    ASSERT_TRUE(LoadImage(image, dir, matcher).ok());
    for (size_t len = ReadFile(path).size(); len-- > 0;) {
      ASSERT_EQ(truncate(path.c_str(), static_cast<off_t>(len)), 0);
      ASSERT_FALSE(LoadShardedCheckpoint(dir, matcher).ok())
          << path << " cut to " << len << " bytes";
    }
  }
}

// ---------------------------------------------------------------------------
// Checkpoint round trips (one shard: the unsharded case of the format)
// ---------------------------------------------------------------------------

TEST(CheckpointTest, RoundTripIsBitwiseIdenticalOnFinancialFixture) {
  const std::vector<Record> records = FinancialRecords();
  JaccardMatcher matcher;
  ShardedPipeline pipeline(ServeConfig(2));
  // Mid-stream and end-of-stream checkpoints both round-trip exactly.
  IngestAll(&pipeline, records, 0, records.size() / 2, 3, matcher);
  const std::string dir = CheckpointDir("serve_roundtrip_financial");
  for (int phase = 0; phase < 2; ++phase) {
    ASSERT_TRUE(SaveShardedCheckpoint(pipeline, dir).ok());
    auto restored = LoadShardedCheckpoint(dir, matcher);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    ExpectBitwiseIdentical((*restored)->Snapshot().ValueOrDie(),
                           pipeline.Snapshot().ValueOrDie(),
                           "phase " + std::to_string(phase));
    EXPECT_EQ((*restored)->records().size(), pipeline.records().size());
    EXPECT_EQ((*restored)->num_shards(), 1u);
    EXPECT_EQ((*restored)->total_matcher_calls(),
              pipeline.total_matcher_calls());
    EXPECT_EQ((*restored)->total_cache_hits(), pipeline.total_cache_hits());
    EXPECT_EQ((*restored)->fingerprint(), pipeline.fingerprint());
    if (phase == 0) {
      IngestAll(&pipeline, records, records.size() / 2, records.size(), 3,
                matcher);
    }
  }
}

TEST(CheckpointTest, RoundTripIsBitwiseIdenticalOnWdcFixture) {
  const std::vector<Record> records = WdcRecords();
  JaccardMatcher matcher;
  ShardedPipelineConfig config = ServeConfig(1);
  config.base.pipeline.match_threshold = 0.35;
  ShardedPipeline pipeline(config);
  IngestAll(&pipeline, records, 0, records.size(), 5, matcher);
  const std::string dir = CheckpointDir("serve_roundtrip_wdc");
  ASSERT_TRUE(SaveShardedCheckpoint(pipeline, dir).ok());
  auto restored = LoadShardedCheckpoint(dir, matcher);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectBitwiseIdentical((*restored)->Snapshot().ValueOrDie(),
                         pipeline.Snapshot().ValueOrDie(), "wdc");
}

TEST(CheckpointTest, SerializationIsDeterministic) {
  const std::vector<Record> records = FinancialRecords(40);
  JaccardMatcher matcher;
  ShardedPipeline pipeline(ServeConfig(4));
  IngestAll(&pipeline, records, 0, records.size(), 4, matcher);
  const CheckpointImage image =
      SaveImage(pipeline, CheckpointDir("serve_determinism_a"));
  // Same pipeline, same bytes (and the same content-addressed name).
  EXPECT_TRUE(SaveImage(pipeline, CheckpointDir("serve_determinism_b")) ==
              image);
  // Save -> Load -> Save reproduces the checkpoint byte for byte (the
  // format has no hash-map iteration order or other incidental state).
  auto restored =
      LoadImage(image, CheckpointDir("serve_determinism_load"), matcher);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(SaveImage(**restored, CheckpointDir("serve_determinism_c")) ==
              image);
}

TEST(CheckpointTest, FileRoundTripViaSaveAndLoad) {
  const std::vector<Record> records = FinancialRecords(40);
  JaccardMatcher matcher;
  ShardedPipeline pipeline(ServeConfig(1));
  IngestAll(&pipeline, records, 0, records.size(), 2, matcher);

  const std::string dir = CheckpointDir("serve_file_roundtrip");
  ASSERT_TRUE(SaveShardedCheckpoint(pipeline, dir).ok());
  // The atomic-rename staging files must not linger: the directory holds
  // exactly the manifest and the one shard file.
  DIR* handle = opendir(dir.c_str());
  ASSERT_NE(handle, nullptr);
  std::vector<std::string> names;
  while (dirent* entry = readdir(handle)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  closedir(handle);
  EXPECT_EQ(names.size(), 2u);
  for (const std::string& name : names) {
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
  }

  auto restored = LoadShardedCheckpoint(dir, matcher);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectBitwiseIdentical((*restored)->Snapshot().ValueOrDie(),
                         pipeline.Snapshot().ValueOrDie(), "file");
}

TEST(CheckpointTest, ConcurrentSaversToOnePathNeverTearTheFile) {
  // Regression test: two threads saving to the same path used to race on
  // one shared `<path>.tmp` staging name — writer A's rename could publish
  // bytes writer B was still appending. With per-call unique temp names
  // every published image is one writer's complete bytes. Run under TSan
  // in CI.
  const std::string path = TempPath("serve_concurrent_save.ckpt");
  std::remove(path.c_str());
  const std::string image_a(1 << 16, 'A');
  const std::string image_b(1 << 16, 'B');
  std::atomic<bool> done{false};

  auto saver = [&path](const std::string& image) {
    for (int i = 0; i < 24; ++i) {
      ASSERT_TRUE(WriteFileAtomically(path, image).ok());
    }
  };
  // A concurrent reader must only ever observe a complete image — the
  // whole point of publish-by-rename.
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      auto image = ReadWholeFile(path);
      if (!image.ok()) continue;  // not yet published for the first time
      ASSERT_TRUE(*image == image_a || *image == image_b)
          << "torn read of " << image->size() << " bytes";
    }
  });
  std::thread writer_a(saver, image_a);
  std::thread writer_b(saver, image_b);
  writer_a.join();
  writer_b.join();
  done.store(true, std::memory_order_release);
  reader.join();

  auto final_image = ReadWholeFile(path);
  ASSERT_TRUE(final_image.ok()) << final_image.status().ToString();
  EXPECT_TRUE(*final_image == image_a || *final_image == image_b);

  // Every staging file was renamed or unlinked — none linger.
  const size_t slash = path.find_last_of('/');
  const std::string dir = path.substr(0, slash);
  const std::string base = path.substr(slash + 1);
  DIR* handle = opendir(dir.c_str());
  ASSERT_NE(handle, nullptr);
  while (dirent* entry = readdir(handle)) {
    const std::string name = entry->d_name;
    EXPECT_FALSE(name.size() > base.size() && name.compare(0, base.size(), base) == 0)
        << "stray staging file: " << name;
  }
  closedir(handle);
  std::remove(path.c_str());
}

TEST(CheckpointTest, PostLoadIngestionKeepsBatchEquivalenceAtEveryThreadCount) {
  const std::vector<Record> records = FinancialRecords();
  JaccardMatcher matcher;
  ShardedPipeline pipeline(ServeConfig(2));
  IngestAll(&pipeline, records, 0, records.size() / 2, 3, matcher);
  const std::string dir = CheckpointDir("serve_post_load_threads");
  ASSERT_TRUE(SaveShardedCheckpoint(pipeline, dir).ok());

  for (size_t threads : {1u, 2u, 8u}) {
    auto restored =
        LoadShardedCheckpoint(dir, matcher, /*num_threads_override=*/threads);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ((*restored)->config().base.pipeline.num_threads, threads);
    IngestAll(restored->get(), records, records.size() / 2, records.size(), 4,
              matcher);
    ExpectEquivalent(
        (*restored)->Snapshot().ValueOrDie(),
        RunBatchReference((*restored)->records(), (*restored)->config().base,
                          matcher),
        "post-load ingest at threads=" + std::to_string(threads));
  }
}

TEST(CheckpointTest, PostLoadIngestionNeverRescoresCachedPairs) {
  // The matcher-call count of (ingest, reload, ingest) must equal that of
  // an uninterrupted run: the restored score cache serves every pair the
  // first half already scored.
  const std::vector<Record> records = FinancialRecords();
  JaccardMatcher matcher;

  ShardedPipeline uninterrupted(ServeConfig(1));
  IngestAll(&uninterrupted, records, 0, records.size() / 2, 3, matcher);
  IngestAll(&uninterrupted, records, records.size() / 2, records.size(), 3,
            matcher);

  ShardedPipeline first_half(ServeConfig(1));
  IngestAll(&first_half, records, 0, records.size() / 2, 3, matcher);
  const std::string dir = CheckpointDir("serve_post_load_no_rescore");
  ASSERT_TRUE(SaveShardedCheckpoint(first_half, dir).ok());
  auto restored = LoadShardedCheckpoint(dir, matcher);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  IngestAll(restored->get(), records, records.size() / 2, records.size(), 3,
            matcher);

  EXPECT_EQ((*restored)->total_matcher_calls(),
            uninterrupted.total_matcher_calls());
  EXPECT_EQ((*restored)->total_cache_hits(), uninterrupted.total_cache_hits());
}

TEST(CheckpointTest, EmptyPipelineRoundTrips) {
  JaccardMatcher matcher;
  ShardedPipeline pipeline(ServeConfig(1));
  const std::string dir = CheckpointDir("serve_empty_roundtrip");
  const CheckpointImage image = SaveImage(pipeline, dir);
  auto restored = LoadShardedCheckpoint(dir, matcher);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->records().size(), 0u);
  EXPECT_TRUE((*restored)->fingerprint().empty());
  ExpectBitwiseIdentical((*restored)->Snapshot().ValueOrDie(),
                         pipeline.Snapshot().ValueOrDie(), "empty");
  EXPECT_TRUE(SaveImage(**restored, CheckpointDir("serve_empty_resave")) ==
              image);
}

// ---------------------------------------------------------------------------
// Corruption and version handling (every case must fail cleanly, not crash;
// CI runs this suite under ASan+UBSan)
// ---------------------------------------------------------------------------

class CheckpointCorruptionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const std::vector<Record> records = FinancialRecords(40);
    JaccardMatcher matcher;
    ShardedPipeline pipeline(ServeConfig(1));
    IngestAll(&pipeline, records, 0, records.size(), 3, matcher);
    image_ = new CheckpointImage(
        SaveImage(pipeline, CheckpointDir("serve_corruption_fixture")));
  }
  static void TearDownTestSuite() {
    delete image_;
    image_ = nullptr;
  }

  static CheckpointImage* image_;
};

CheckpointImage* CheckpointCorruptionTest::image_ = nullptr;

TEST_F(CheckpointCorruptionTest, EmptyInputFailsCleanly) {
  JaccardMatcher matcher;
  CheckpointImage empty_manifest = *image_;
  empty_manifest.manifest.clear();
  auto result = LoadImage(empty_manifest, CheckpointDir("serve_empty_input"),
                          matcher);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);

  CheckpointImage empty_shard = *image_;
  empty_shard.shard.clear();
  result = LoadImage(empty_shard, CheckpointDir("serve_empty_input"), matcher);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST_F(CheckpointCorruptionTest, BadMagicRejected) {
  JaccardMatcher matcher;
  CheckpointImage image = *image_;
  image.manifest[0] ^= 0x5a;
  auto result = LoadImage(image, CheckpointDir("serve_bad_magic"), matcher);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("magic"), std::string::npos);

  // A shard file with a wrong magic but consistent checksums gets past the
  // manifest's address check to the magic check.
  image = *image_;
  image.shard[0] ^= 0x5a;
  Reframe(&image);
  result = LoadImage(image, CheckpointDir("serve_bad_magic"), matcher);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("magic"), std::string::npos);
}

TEST_F(CheckpointCorruptionTest, TruncationAtAnyPrefixFailsCleanly) {
  ExpectEveryTruncationFails(*image_, CheckpointDir("serve_truncation"));
}

TEST_F(CheckpointCorruptionTest, FutureVersionRejected) {
  JaccardMatcher matcher;
  // Version lives at offset 8 (after the 8-byte magic), little-endian, in
  // the manifest and the shard file alike; the checksums are recomputed so
  // only the version is wrong.
  CheckpointImage image = *image_;
  image.manifest[8] = static_cast<char>(kShardedCheckpointVersion + 1);
  image.manifest = WithFixedChecksum(image.manifest);
  auto result = LoadImage(image, CheckpointDir("serve_future"), matcher);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("newer"), std::string::npos);

  image = *image_;
  image.shard[8] = static_cast<char>(kShardedCheckpointVersion + 1);
  Reframe(&image);
  result = LoadImage(image, CheckpointDir("serve_future"), matcher);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("newer"), std::string::npos);
}

TEST_F(CheckpointCorruptionTest, FingerprintMismatchRejected) {
  // The matcher changed between save and load: the cached scores are not
  // its scores, so the checkpoint must be refused, not silently trusted.
  JaccardMatcher retrained(1.4);
  auto result =
      LoadImage(*image_, CheckpointDir("serve_fingerprint"), retrained);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("fingerprint"), std::string::npos);
}

TEST_F(CheckpointCorruptionTest, BodyBitFlipCaughtByChecksum) {
  JaccardMatcher matcher;
  for (double frac : {0.3, 0.6, 0.9}) {
    CheckpointImage image = *image_;
    const size_t pos = 24 + static_cast<size_t>(
                                static_cast<double>(image.shard.size() - 32) *
                                frac);
    image.shard[pos] ^= 0x01;
    auto result = LoadImage(image, CheckpointDir("serve_flip"), matcher);
    ASSERT_FALSE(result.ok()) << "shard flip at " << pos;
    EXPECT_EQ(result.status().code(), StatusCode::kIoError);
    EXPECT_NE(result.status().message().find("does not match the manifest"),
              std::string::npos);
  }
  // The manifest body (coordinator state) sits between the checksum list
  // and the trailer.
  CheckpointImage image = *image_;
  image.manifest[image.manifest.size() - 24] ^= 0x01;
  auto result = LoadImage(image, CheckpointDir("serve_flip"), matcher);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("checksum"), std::string::npos);
}

TEST_F(CheckpointCorruptionTest, TrailingGarbageRejected) {
  // Appending bytes shifts the checksum-covered region, so the whole-image
  // checksum (manifest) or the recorded address (shard file) catches it.
  JaccardMatcher matcher;
  CheckpointImage image = *image_;
  image.manifest += "extra";
  auto result = LoadImage(image, CheckpointDir("serve_garbage"), matcher);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);

  image = *image_;
  image.shard += "extra";
  result = LoadImage(image, CheckpointDir("serve_garbage"), matcher);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST_F(CheckpointCorruptionTest, HeaderFingerprintBitFlipIsCorruptionNotMismatch) {
  // A damaged fingerprint byte must be diagnosed as file corruption — not
  // as "the matcher changed", which would send the operator hunting for a
  // model that never existed. The manifest's fingerprint string starts at
  // offset 20 (magic 8 + version 4 + u64 length prefix).
  JaccardMatcher matcher;
  CheckpointImage image = *image_;
  image.manifest[20] ^= 0x01;
  auto result = LoadImage(image, CheckpointDir("serve_fp_flip"), matcher);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("checksum"), std::string::npos);
}

TEST_F(CheckpointCorruptionTest, MissingFileFailsCleanly) {
  JaccardMatcher matcher;
  auto result = LoadShardedCheckpoint("/nonexistent/dir/checkpoint", matcher);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

// ---------------------------------------------------------------------------
// Tombstone sections (format v2): corruption within the tombstone bytes must
// fail as a clean Status, and pre-tombstone (version 1) checkpoints must keep
// loading — a tombstone-free pipeline emits the version 1 layout
// byte-for-byte, so the fixture of the suite above doubles as genuine v1
// coverage; this suite pins the v2 side.
// ---------------------------------------------------------------------------

class TombstoneCheckpointCorruptionTest : public ::testing::Test {
 protected:
  // The removal set {11, 22, 33} makes the shard file's tombstone section
  // start with a 20-byte sequence (u64 count 3, i32 ids 11, 22, 33) the
  // fixture asserts is unique in the file, so tests can corrupt tombstone
  // bytes specifically.
  static constexpr size_t kTombstonePatternLength = 20;

  static void SetUpTestSuite() {
    const std::vector<Record> records = FinancialRecords(40);
    JaccardMatcher matcher;
    ShardedPipeline pipeline(ServeConfig(1));
    IngestAll(&pipeline, records, 0, records.size(), 3, matcher);
    pipeline.Remove({11, 22, 33}, matcher).ValueOrDie();
    image_ = new CheckpointImage(
        SaveImage(pipeline, CheckpointDir("serve_tombstone_fixture")));

    BinaryWriter pattern;
    pattern.WriteU64(3);
    pattern.WriteI32(11);
    pattern.WriteI32(22);
    pattern.WriteI32(33);
    const size_t first = image_->shard.find(pattern.buffer());
    ASSERT_NE(first, std::string::npos);
    ASSERT_EQ(image_->shard.find(pattern.buffer(), first + 1),
              std::string::npos)
        << "tombstone byte pattern is not unique; pick different ids";
    tombstone_offset_ = first;
  }
  static void TearDownTestSuite() {
    delete image_;
    image_ = nullptr;
  }

  static CheckpointImage* image_;
  static size_t tombstone_offset_;
};

CheckpointImage* TombstoneCheckpointCorruptionTest::image_ = nullptr;
size_t TombstoneCheckpointCorruptionTest::tombstone_offset_ = 0;

TEST_F(TombstoneCheckpointCorruptionTest, TombstonedImagesStampVersionTwo) {
  EXPECT_EQ(static_cast<uint32_t>(static_cast<uint8_t>(image_->manifest[8])),
            kShardedCheckpointVersion);
  EXPECT_EQ(static_cast<uint32_t>(static_cast<uint8_t>(image_->shard[8])),
            kShardedCheckpointVersion);
  JaccardMatcher matcher;
  auto restored =
      LoadImage(*image_, CheckpointDir("serve_tomb_v2"), matcher).ValueOrDie();
  EXPECT_EQ(restored->num_dead(), 3u);
  EXPECT_FALSE(restored->is_alive(11));
  EXPECT_FALSE(restored->is_alive(22));
  EXPECT_FALSE(restored->is_alive(33));
  EXPECT_TRUE(SaveImage(*restored, CheckpointDir("serve_tomb_v2_resave")) ==
              *image_);
}

TEST_F(TombstoneCheckpointCorruptionTest, TruncationAtAnyPrefixFailsCleanly) {
  // Every prefix includes every cut inside the tombstone section.
  ASSERT_GT(image_->shard.size(), tombstone_offset_ + kTombstonePatternLength);
  ExpectEveryTruncationFails(*image_, CheckpointDir("serve_tomb_truncation"));
}

TEST_F(TombstoneCheckpointCorruptionTest, TombstoneBitFlipCaughtByChecksum) {
  JaccardMatcher matcher;
  for (size_t k = 0; k < kTombstonePatternLength; k += 2) {
    CheckpointImage image = *image_;
    image.shard[tombstone_offset_ + k] ^= 0x01;
    auto result = LoadImage(image, CheckpointDir("serve_tomb_flip"), matcher);
    ASSERT_FALSE(result.ok()) << "flip at tombstone byte " << k;
    EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  }
}

TEST_F(TombstoneCheckpointCorruptionTest,
       StructurallyInvalidTombstonesRejectedPastTheChecksum) {
  // With every checksum repaired, the patch must be caught by the tombstone
  // section's own validation: ids strictly ascending and stored by the
  // shard.
  JaccardMatcher matcher;

  CheckpointImage reordered = *image_;
  reordered.shard[tombstone_offset_ + 12] = 11;  // second id 22 -> 11
  Reframe(&reordered);
  auto result =
      LoadImage(reordered, CheckpointDir("serve_tomb_structure"), matcher);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("ascending"), std::string::npos);

  CheckpointImage out_of_range = *image_;
  out_of_range.shard[tombstone_offset_ + 16] = 0x7f;  // third id 33 -> huge
  out_of_range.shard[tombstone_offset_ + 17] = 0x7f;
  Reframe(&out_of_range);
  result =
      LoadImage(out_of_range, CheckpointDir("serve_tomb_structure"), matcher);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST_F(TombstoneCheckpointCorruptionTest,
       PreTombstoneCheckpointsStillLoadAndRoundTrip) {
  // A tombstone-free pipeline writes the version 1 layout byte for byte —
  // exactly what a pre-tombstone writer produced — and a v1 checkpoint
  // must load, round-trip, and accept removals (restamping v2) afterwards.
  const std::vector<Record> records = FinancialRecords(40);
  JaccardMatcher matcher;
  ShardedPipeline pipeline(ServeConfig(1));
  IngestAll(&pipeline, records, 0, records.size(), 3, matcher);
  const CheckpointImage v1 = SaveImage(pipeline, CheckpointDir("serve_v1"));
  EXPECT_EQ(static_cast<uint32_t>(static_cast<uint8_t>(v1.manifest[8])), 1u);
  EXPECT_EQ(static_cast<uint32_t>(static_cast<uint8_t>(v1.shard[8])), 1u);

  auto restored = LoadImage(v1, CheckpointDir("serve_v1_load"), matcher)
                      .ValueOrDie();
  EXPECT_EQ(restored->num_dead(), 0u);
  EXPECT_TRUE(SaveImage(*restored, CheckpointDir("serve_v1_resave")) == v1);

  ASSERT_TRUE(restored->Remove({0}, matcher).ok());
  const CheckpointImage v2 =
      SaveImage(*restored, CheckpointDir("serve_v1_upgraded"));
  EXPECT_EQ(static_cast<uint32_t>(static_cast<uint8_t>(v2.manifest[8])), 2u);
  EXPECT_EQ(static_cast<uint32_t>(static_cast<uint8_t>(v2.shard[8])), 2u);
}

// ---------------------------------------------------------------------------
// MatchService
// ---------------------------------------------------------------------------

TEST(MatchServiceTest, EmptyServiceServesEpochZero) {
  MatchService service;
  EXPECT_EQ(service.Stats().epoch, 0u);
  EXPECT_EQ(service.Stats().num_records, 0u);
  EXPECT_EQ(service.GroupOf(0), kNoGroup);
  EXPECT_EQ(service.GroupOf(-1), kNoGroup);
  EXPECT_TRUE(service.Members(0).empty());
  EXPECT_TRUE(service.Members(kNoGroup).empty());
}

TEST(MatchServiceTest, PublishedSnapshotAnswersQueriesConsistently) {
  const std::vector<Record> records = FinancialRecords(40);
  JaccardMatcher matcher;
  ShardedPipeline pipeline(ServeConfig(1));
  IngestAll(&pipeline, records, 0, records.size(), 2, matcher);
  const PipelineResult result = pipeline.Snapshot().ValueOrDie();

  MatchService service;
  EXPECT_EQ(service.Publish(result, records.size()), 1u);
  MatchSnapshotPtr view = service.View();
  EXPECT_EQ(view->epoch(), 1u);
  EXPECT_EQ(view->stats().num_records, records.size());
  EXPECT_EQ(view->stats().num_groups, result.groups.size());
  EXPECT_EQ(view->stats().num_predicted_pairs, result.predicted_pairs.size());

  // Every record maps into exactly the group that contains it.
  const auto reference = result.GroupOfRecord(records.size());
  size_t matched_groups = 0;
  for (size_t r = 0; r < records.size(); ++r) {
    const GroupId gid = view->GroupOf(static_cast<RecordId>(r));
    EXPECT_EQ(gid, reference[r]);
    ASSERT_NE(gid, kNoGroup);
    const auto& members = view->Members(gid);
    EXPECT_TRUE(std::binary_search(members.begin(), members.end(),
                                   static_cast<RecordId>(r)));
  }
  for (size_t g = 0; g < view->num_groups(); ++g) {
    const auto& members = view->Members(static_cast<GroupId>(g));
    EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
    if (members.size() >= 2) ++matched_groups;
    for (RecordId r : members) {
      EXPECT_EQ(view->GroupOf(r), static_cast<GroupId>(g));
    }
  }
  EXPECT_EQ(view->stats().num_matched_groups, matched_groups);
  // Out-of-range queries answer cleanly.
  EXPECT_EQ(view->GroupOf(static_cast<RecordId>(records.size())), kNoGroup);
  EXPECT_TRUE(view->Members(static_cast<GroupId>(view->num_groups())).empty());
}

TEST(MatchServiceTest, HeldViewsAreImmutableAcrossPublishes) {
  const std::vector<Record> records = FinancialRecords(40);
  JaccardMatcher matcher;
  ShardedPipeline pipeline(ServeConfig(1));

  MatchService service;
  IngestAll(&pipeline, records, 0, records.size() / 2, 1, matcher);
  service.Publish(pipeline.Snapshot().ValueOrDie(), pipeline.records().size());
  MatchSnapshotPtr old_view = service.View();
  const ServeStats old_stats = old_view->stats();

  IngestAll(&pipeline, records, records.size() / 2, records.size(), 1,
            matcher);
  service.Publish(pipeline.Snapshot().ValueOrDie(), pipeline.records().size());
  EXPECT_EQ(service.Stats().epoch, 2u);
  EXPECT_EQ(service.Stats().num_records, records.size());
  // The old view still answers with its own epoch's data.
  EXPECT_TRUE(old_view->stats() == old_stats);
  EXPECT_EQ(old_view->stats().num_records, records.size() / 2);
}

TEST(MatchServiceTest, ConcurrentReadersAlwaysSeeOneConsistentEpoch) {
  // The TSan-checked stress test: one ingester thread publishing epochs
  // while reader threads hammer queries. Each reader verifies that all the
  // queries it makes against one View agree with each other (no torn
  // epochs) and that epochs never go backwards.
  const std::vector<Record> records = FinancialRecords(30);
  const size_t num_batches = 12;
  const size_t batch_size = (records.size() + num_batches - 1) / num_batches;

  MatchService service;
  std::atomic<bool> done{false};
  std::atomic<size_t> total_queries{0};

  const size_t num_readers = 4;
  std::vector<std::thread> readers;
  readers.reserve(num_readers);
  for (size_t t = 0; t < num_readers; ++t) {
    readers.emplace_back([&service, &done, &total_queries, t] {
      uint64_t last_epoch = 0;
      size_t queries = 0;
      uint32_t rng_state = static_cast<uint32_t>(t + 1);
      while (!done.load(std::memory_order_acquire)) {
        MatchSnapshotPtr view = service.View();
        const ServeStats stats = view->stats();
        ASSERT_GE(stats.epoch, last_epoch);
        last_epoch = stats.epoch;
        // Probe a handful of records: GroupOf and Members must agree with
        // each other inside this one view regardless of concurrent
        // publishes.
        for (int probe = 0; probe < 8; ++probe) {
          rng_state = rng_state * 1664525u + 1013904223u;
          if (stats.num_records == 0) break;
          const RecordId r =
              static_cast<RecordId>(rng_state % stats.num_records);
          const GroupId gid = view->GroupOf(r);
          ASSERT_NE(gid, kNoGroup);
          const auto& members = view->Members(gid);
          ASSERT_TRUE(std::binary_search(members.begin(), members.end(), r));
          for (RecordId member : members) {
            ASSERT_EQ(view->GroupOf(member), gid);
          }
          ++queries;
        }
      }
      total_queries.fetch_add(queries);
    });
  }

  JaccardMatcher matcher;
  ShardedPipeline pipeline(ServeConfig(2));
  uint64_t published = 0;
  for (size_t offset = 0; offset < records.size(); offset += batch_size) {
    const size_t stop = std::min(offset + batch_size, records.size());
    std::vector<Record> batch(records.begin() + static_cast<long>(offset),
                              records.begin() + static_cast<long>(stop));
    ASSERT_TRUE(pipeline.Ingest(batch, matcher).ok());
    published =
        service.Publish(pipeline.Snapshot().ValueOrDie(), pipeline.records().size());
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(published, static_cast<uint64_t>(num_batches));
  EXPECT_EQ(service.Stats().epoch, published);
  EXPECT_EQ(service.Stats().num_records, records.size());
  EXPECT_GT(total_queries.load(), 0u);
}

}  // namespace
}  // namespace gralmatch
