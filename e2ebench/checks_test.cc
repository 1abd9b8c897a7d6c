// Tests of the benchmark's output checks: each check passes on the real
// outputs of a small workload and fails on a deliberately wrong one (a
// moved record, a group larger than mu, a flipped checkpoint byte, a
// dropped reply, ...). Exits nonzero if any expectation is not met.
//
//   e2ebench_checks_test SCRATCH_DIR

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "blocking/id_overlap.h"
#include "blocking/token_overlap.h"
#include "checks.h"
#include "matching/baselines.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "serve/sharded_checkpoint.h"
#include "workload.h"

namespace {

using namespace e2ebench;
using namespace gralmatch;

int g_failed = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failed;
}

void ExpectPass(const Failures& f, const std::string& what) {
  Expect(f.empty(), what + " passes on correct output" +
                        (f.empty() ? "" : " (got: " + f.front() + ")"));
}

void ExpectFail(const Failures& f, const std::string& what) {
  Expect(!f.empty(), what + " is caught");
}

FileMap ReadDir(const std::string& dir) {
  FileMap files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files[entry.path().filename().string()] = bytes.str();
  }
  return files;
}

/// Index of a group with at least two members.
size_t MultiMemberGroup(const PipelineResult& r) {
  for (size_t g = 0; g < r.groups.size(); ++g) {
    if (r.groups[g].size() >= 2) return g;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string scratch = argc > 1 ? argv[1] : "e2ebench-checks-test";
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);

  // A small real workload, run through the engine.
  Workload w = GenerateWorkload(*FindWorkload("bulk-id-18k", true), 11);
  w.matcher = MakeMatcher(w);
  ShardedPipeline engine(w.config);
  size_t added = 0, removed = 0;
  for (const auto& batch : w.batches) {
    added += engine.Ingest(batch, *w.matcher)->records_added;
  }
  for (const CorrectionRound& round : w.rounds) {
    removed += engine.Remove(round.removals, *w.matcher)->records_removed;
    auto report = engine.Update(round.updates, *w.matcher);
    added += report->records_added;
    removed += report->records_removed;
  }
  const PipelineResult snap = engine.Snapshot().ValueOrDie();

  // The oracle on the survivors.
  Dataset live;
  std::vector<NodeId> original;
  for (size_t i = 0; i < engine.records().size(); ++i) {
    if (!engine.alive()[i]) continue;
    live.records.Add(engine.records().at(static_cast<RecordId>(i)));
    original.push_back(static_cast<NodeId>(i));
  }
  CandidateSet candidates;
  IdOverlapBlocker().AddCandidates(live, &candidates);
  TokenOverlapBlocker(w.config.base.token).AddCandidates(live, &candidates);
  const PipelineResult oracle = RemapToOriginal(
      EntityGroupPipeline(w.config.base.pipeline)
          .Run(live, candidates.ToVector(), *w.matcher),
      original);
  Expect(snap.predicted_pairs.size() > 10, "the fixture predicts pairs");

  // (a) Oracle.
  ExpectPass(CheckOracle(snap, oracle), "oracle check");
  {
    PipelineResult moved = snap;
    const size_t g = MultiMemberGroup(moved);
    const NodeId record = moved.groups[g].back();
    moved.groups[g].pop_back();
    moved.groups[(g + 1) % moved.groups.size()].push_back(record);
    ExpectFail(CheckOracle(moved, oracle), "oracle check: a moved record");
    PipelineResult fewer = snap;
    fewer.predicted_pairs.pop_back();
    ExpectFail(CheckOracle(fewer, oracle), "oracle check: a dropped pair");
  }

  // (b) Properties.
  const size_t mu = w.config.base.pipeline.cleanup.mu;
  ExpectPass(CheckProperties(snap, engine.alive(), added, removed, mu),
             "property check");
  {
    PipelineResult big = snap;
    const size_t g = MultiMemberGroup(big);
    const size_t other = g == 0 ? 1 : 0;
    for (NodeId u : big.groups[other]) big.groups[g].push_back(u);
    big.groups.erase(big.groups.begin() + static_cast<long>(other));
    ExpectFail(CheckProperties(big, engine.alive(), added, removed, 1),
               "property check: a group larger than mu");
    ExpectFail(CheckProperties(big, engine.alive(), added, removed, mu),
               "property check: a group spanning two components");

    PipelineResult lost = snap;
    lost.groups.pop_back();
    ExpectFail(CheckProperties(lost, engine.alive(), added, removed, mu),
               "property check: a live record in no group");

    PipelineResult dead = snap;
    for (size_t i = 0; i < engine.alive().size(); ++i) {
      if (!engine.alive()[i]) {
        dead.groups.push_back({static_cast<NodeId>(i)});
        break;
      }
    }
    ExpectFail(CheckProperties(dead, engine.alive(), added, removed, mu),
               "property check: a dead record in a group");

    PipelineResult merged = snap;
    merged.pre_cleanup_components.back().insert(
        merged.pre_cleanup_components.back().end(),
        merged.pre_cleanup_components.front().begin(),
        merged.pre_cleanup_components.front().end());
    merged.pre_cleanup_components.erase(merged.pre_cleanup_components.begin());
    ExpectFail(CheckProperties(merged, engine.alive(), added, removed, mu),
               "property check: components that are not the pairs' "
               "connected components");
    ExpectFail(CheckProperties(snap, engine.alive(), added + 1, removed, mu),
               "property check: added minus removed off by one");
  }

  // (b) Identifier sharing and rescoring.
  ExpectPass(CheckSharedIdentifiers(snap.predicted_pairs, engine.records()),
             "identifier check");
  ExpectPass(CheckRescore(snap.predicted_pairs, engine.records(), *w.matcher,
                          0.5, 64),
             "rescore check");
  {
    // A pair of two records with no identifier in common.
    RecordPair stranger;
    for (RecordId b = 1; b < static_cast<RecordId>(engine.records().size());
         ++b) {
      if (CheckSharedIdentifiers({RecordPair(0, b)}, engine.records())
              .size() == 1) {
        stranger = RecordPair(0, b);
        break;
      }
    }
    std::vector<RecordPair> wrong = snap.predicted_pairs;
    wrong.push_back(stranger);
    ExpectFail(CheckSharedIdentifiers(wrong, engine.records()),
               "identifier check: a pair sharing no identifier");
    ExpectFail(CheckRescore({stranger}, engine.records(), *w.matcher, 0.5, 64),
               "rescore check: a pair below the threshold");
  }

  // (c) Cleanup precision.
  ExpectPass(CheckCleanupPrecision(snap, w.entity_of), "precision check");
  {
    // Groups that join two entities: precision falls below the
    // components'.
    PipelineResult worse = snap;
    worse.groups = {};
    std::vector<NodeId> all;
    for (size_t i = 0; i < engine.alive().size(); ++i) {
      if (engine.alive()[i]) all.push_back(static_cast<NodeId>(i));
    }
    worse.groups.push_back(all);
    ExpectFail(CheckCleanupPrecision(worse, w.entity_of),
               "precision check: cleanup that lowers precision");
  }

  // (d) Checkpoint.
  const std::string first = scratch + "/first", second = scratch + "/second";
  Expect(SaveShardedCheckpoint(engine, first).ok(), "checkpoint saves");
  auto restored = LoadShardedCheckpoint(first, *w.matcher, 1);
  Expect(restored.ok(), "checkpoint loads");
  Expect(SaveShardedCheckpoint(**restored, second).ok(), "checkpoint re-saves");
  const PipelineResult back = (*restored)->Snapshot().ValueOrDie();
  const FileMap saved = ReadDir(first), resaved = ReadDir(second);
  ExpectPass(CheckCheckpoint(snap, back, saved, resaved), "checkpoint check");
  {
    FileMap flipped = resaved;
    flipped.begin()->second[flipped.begin()->second.size() / 2] ^= 0x01;
    ExpectFail(CheckCheckpoint(snap, back, saved, flipped),
               "checkpoint check: a flipped byte");
    FileMap missing = resaved;
    missing.erase(missing.begin());
    ExpectFail(CheckCheckpoint(snap, back, saved, missing),
               "checkpoint check: a missing file");
    PipelineResult moved = back;
    const size_t g = MultiMemberGroup(moved);
    moved.groups[(g + 1) % moved.groups.size()].push_back(
        moved.groups[g].back());
    moved.groups[g].pop_back();
    ExpectFail(CheckCheckpoint(snap, moved, saved, resaved),
               "checkpoint check: a restored snapshot with a moved record");
  }

  // (e) Serving, over a real loopback server.
  MatchService service;
  service.Publish(snap, engine.records().size());
  auto server = NetServer::Start(&service, {});
  auto client = NetClient::Connect((*server)->port());
  const MatchSnapshotPtr view = service.View();
  std::vector<NetRequest> sent = {NetRequest::Stats()};
  std::vector<RecordId> probes = {kInvalidRecord};
  for (RecordId r = 0; r < 40; ++r) {
    if (!engine.alive()[static_cast<size_t>(r)]) continue;
    sent.push_back(NetRequest::GroupOf(r));
    probes.push_back(kInvalidRecord);
    sent.push_back(NetRequest::Members(view->GroupOf(r)));
    probes.push_back(r);
  }
  const uint64_t before = (*server)->counters().requests_served;
  std::vector<NetReply> replies = (*client)->Call(sent).ValueOrDie();
  const uint64_t served = (*server)->counters().requests_served - before;
  ExpectPass(CheckServing(sent, probes, replies, *view, served),
             "serving check");
  {
    std::vector<NetReply> dropped = replies;
    dropped.pop_back();
    ExpectFail(CheckServing(sent, probes, dropped, *view, served),
               "serving check: a dropped reply");
    std::vector<NetReply> wrong = replies;
    wrong[1].group += 1;
    ExpectFail(CheckServing(sent, probes, wrong, *view, served),
               "serving check: a wrong group");
    std::vector<NetReply> stale = replies;
    stale[0].epoch += 1;
    ExpectFail(CheckServing(sent, probes, stale, *view, served),
               "serving check: a reply from another epoch");
    std::vector<RecordId> moved = probes;
    moved[2] = moved[2] + 1000000;
    ExpectFail(CheckServing(sent, moved, replies, *view, served),
               "serving check: Members(GroupOf(r)) without r");
    ExpectFail(CheckServing(sent, probes, replies, *view, served + 1),
               "serving check: a served count that disagrees");
  }
  client->reset();
  (*server)->Stop();

  // (f) Blocking replay.
  std::vector<RecordPair> batch;
  for (const Candidate& c : candidates.ToVector()) {
    batch.emplace_back(original[static_cast<size_t>(c.pair.a)],
                       original[static_cast<size_t>(c.pair.b)]);
  }
  ExpectPass(CheckBlockingReplay(batch, batch), "blocking replay check");
  {
    std::vector<RecordPair> missing = batch;
    missing.pop_back();
    ExpectFail(CheckBlockingReplay(missing, batch),
               "blocking replay check: a missing candidate");
  }

  std::filesystem::remove_all(scratch);
  std::printf("%s: %d expectation(s) failed\n", g_failed ? "FAIL" : "PASS",
              g_failed);
  return g_failed == 0 ? 0 : 1;
}
