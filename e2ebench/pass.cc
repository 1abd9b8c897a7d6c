#include "pass.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <unordered_set>

#include "blocking/id_overlap.h"
#include "blocking/incremental_index.h"
#include "blocking/token_overlap.h"
#include "common/binary_io.h"
#include "common/rng.h"
#include "core/cleanup.h"
#include "graph/graph.h"
#include "serve/sharded_checkpoint.h"
#include "shard/sharded_pipeline.h"

namespace e2ebench {

using namespace gralmatch;
namespace fs = std::filesystem;

std::string PassCounts::ToString() const {
  std::ostringstream out;
  out << "records_added=" << records_added
      << " records_removed=" << records_removed
      << " candidates=" << candidates << " pairs_scored=" << pairs_scored
      << " cache_hits=" << cache_hits
      << " components_rebuilt=" << components_rebuilt
      << " predicted_pairs=" << predicted_pairs << " groups=" << groups
      << " min_cut_calls=" << min_cut_calls
      << " betweenness_calls=" << betweenness_calls
      << " checkpoint_bytes=" << checkpoint_bytes << " queries=" << queries;
  return out.str();
}

namespace {

constexpr int kSaveRepeats = 3;
constexpr int kPublishRepeats = 8;

void ClearDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
}

FileMap ReadDir(const std::string& dir) {
  FileMap files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files[entry.path().filename().string()] = bytes.str();
  }
  return files;
}

/// The surviving records as a compact table, and compact -> original ids.
struct Survivors {
  Dataset dataset;
  std::vector<NodeId> original;
};

Survivors CompactLive(const ShardedPipeline& engine) {
  Survivors out;
  for (size_t i = 0; i < engine.records().size(); ++i) {
    if (!engine.alive()[i]) continue;
    out.dataset.records.Add(engine.records().at(static_cast<RecordId>(i)));
    out.original.push_back(static_cast<NodeId>(i));
  }
  return out;
}

/// Draw the fixed query mix from a published snapshot: per burst one Stats,
/// then GroupOf and Members (of a drawn record's group) alternating.
void DrawQueries(const Workload& w, const MatchSnapshot& view,
                 PassEnv* env) {
  std::vector<RecordId> live;
  for (size_t i = 0; i < w.final_alive.size(); ++i) {
    if (w.final_alive[i]) live.push_back(static_cast<RecordId>(i));
  }
  Rng rng(w.seed ^ 0x0E77ull);
  for (size_t q = 0; q < w.spec.queries; ++q) {
    const RecordId r = live[static_cast<size_t>(rng.Uniform(live.size()))];
    if (q % w.spec.burst == 0) {
      env->queries.push_back(NetRequest::Stats());
      env->probes.push_back(kInvalidRecord);
    } else if (q % 2 == 0) {
      env->queries.push_back(NetRequest::Members(view.GroupOf(r)));
      env->probes.push_back(r);
    } else {
      env->queries.push_back(NetRequest::GroupOf(r));
      env->probes.push_back(kInvalidRecord);
    }
  }
}

void Append(Failures* out, Failures more) {
  for (std::string& f : more) out->push_back(std::move(f));
}

/// Standalone replays of single layers on this pass's inputs, each traced
/// under its own span name (see README.md for the metric each feeds).
void RunReplays(PassEnv* env, const ShardedPipeline& restored,
                const Survivors& survivors, const CandidateSet& candidates,
                const PipelineResult& oracle_compact, PassResult* result) {
  const Workload& w = *env->workload;
  Tracer& t = *env->tracer;
  const IncrementalPipelineConfig& config = w.config.base;

  // Blocking indexes, fed the pass's mutations in order. A mirror of the
  // engine's score cache (evicted when an endpoint dies) yields the pairs
  // the pass had to score.
  RecordTable table;
  IncrementalTokenOverlapIndex token(config.token);
  IncrementalIdOverlapIndex ids(IdOverlapBlocker::kMaxBucket);
  std::unordered_set<RecordPair, RecordPairHash> cached;
  std::vector<RecordPair> to_score;
  auto absorb = [&](const CandidateDelta& delta) {
    for (const RecordPair& p : delta.added) {
      if (cached.insert(p).second) to_score.push_back(p);
    }
  };
  auto evict = [&](const std::vector<RecordId>& dead) {
    std::unordered_set<RecordId> gone(dead.begin(), dead.end());
    for (auto it = cached.begin(); it != cached.end();) {
      it = gone.count(it->a) || gone.count(it->b) ? cached.erase(it)
                                                  : std::next(it);
    }
  };
  auto add = [&](const char* span) {
    CandidateDelta d1, d2;
    t.Time(span, [&] {
      d1 = token.AddRecords(table);
      d2 = ids.AddRecords(table);
    });
    absorb(d1);
    absorb(d2);
  };
  auto remove = [&](const std::vector<RecordId>& dead) {
    CandidateDelta d1, d2;
    t.Time("blocking.index_remove", [&] {
      d1 = token.RemoveRecords(table, dead);
      d2 = ids.RemoveRecords(table, dead);
    });
    evict(dead);
    absorb(d1);
    absorb(d2);
  };
  auto current = [&] {
    std::vector<RecordPair> pairs = token.CurrentPairs();
    std::vector<RecordPair> more = ids.CurrentPairs();
    pairs.insert(pairs.end(), more.begin(), more.end());
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    return pairs;
  };

  t.Time("replay", [&] {
    for (const auto& batch : w.batches) {
      for (const Record& r : batch) table.Add(r);
      add("blocking.index_add");
    }
    result->candidate_pairs_after_feed = current().size();
    for (const CorrectionRound& round : w.rounds) {
      remove(round.removals);
      std::vector<RecordId> old_ids;
      for (const RecordUpdate& u : round.updates) old_ids.push_back(u.id);
      remove(old_ids);
      for (const RecordUpdate& u : round.updates) table.Add(u.record);
      add("blocking.index_readd");
    }

    // Check (f): the replayed indexes against the batch blockers.
    std::vector<RecordPair> batch_pairs;
    for (const Candidate& c : candidates.ToVector()) {
      batch_pairs.emplace_back(
          survivors.original[static_cast<size_t>(c.pair.a)],
          survivors.original[static_cast<size_t>(c.pair.b)]);
    }
    Append(&result->failures, CheckBlockingReplay(current(), batch_pairs));

    // What a restore does to the blocking layer: one AddRecords of the
    // surviving table into empty indexes.
    t.Time("blocking.index_rebuild", [&] {
      IncrementalTokenOverlapIndex fresh_token(config.token);
      IncrementalIdOverlapIndex fresh_ids(IdOverlapBlocker::kMaxBucket);
      fresh_token.AddRecords(survivors.dataset.records);
      fresh_ids.AddRecords(survivors.dataset.records);
    });

    // Scoring, in the pipeline's chunk size.
    std::vector<double> scores(to_score.size());
    t.Time("matching.score", [&] {
      const size_t chunk = std::max<size_t>(1, config.pipeline.score_batch_size);
      for (size_t i = 0; i < to_score.size(); i += chunk) {
        const size_t len = std::min(chunk, to_score.size() - i);
        w.matcher->ScoreBatch(table, Span<const RecordPair>(&to_score[i], len),
                              Span<double>(&scores[i], len));
      }
    });

    // Cleanup of the final predicted graph; it must reproduce the oracle.
    Graph graph(survivors.dataset.records.size());
    std::vector<uint32_t> provenance;
    for (const RecordPair& p : oracle_compact.predicted_pairs) {
      if (graph.AddEdge(p.a, p.b).ok()) {
        provenance.push_back(candidates.ProvenanceOf(p));
      }
    }
    CleanupStats stats;
    std::vector<std::vector<NodeId>> groups;
    t.Time("core.cleanup", [&] {
      PreCleanup(&graph, provenance, config.pipeline.pre_cleanup_threshold,
                 &stats);
      groups = GraLMatchCleanup(config.pipeline.cleanup).Run(&graph, &stats);
    });
    if (groups != oracle_compact.groups) {
      result->failures.push_back("replayed cleanup differs from the oracle's");
    }

    // Checkpoint bodies in memory, without framing or files.
    BinaryWriter manifest;
    std::vector<BinaryWriter> shards;
    t.Time("serve.serialize", [&] {
      Status s1 = restored.SerializeManifestBody(&manifest);
      Status s2 = restored.SerializeShardBodies(&shards);
      if (!s1.ok() || !s2.ok()) {
        result->failures.push_back("in-memory serialization failed");
      }
    });
    BinaryReader manifest_reader(manifest.buffer());
    std::vector<BinaryReader> shard_readers;
    for (const BinaryWriter& s : shards) shard_readers.emplace_back(s.buffer());
    const uint32_t version =
        restored.num_dead() > 0 ? kShardedCheckpointVersion : 1;
    t.Time("serve.deserialize", [&] {
      auto back = ShardedPipeline::DeserializeFromParts(
          &manifest_reader, &shard_readers, version, 1);
      if (!back.ok()) {
        result->failures.push_back("in-memory deserialization failed: " +
                                   back.status().ToString());
      }
    });
  });
}

}  // namespace

PassResult RunPass(PassEnv* env, bool replay) {
  const Workload& w = *env->workload;
  const PairwiseMatcher& matcher = *w.matcher;
  Tracer& t = *env->tracer;
  PassResult result;
  PassTimes& times = result.times;
  PassCounts& counts = result.counts;
  auto fail = [&](const std::string& what, const Status& status) {
    ++result.failed;
    result.failures.push_back(what + ": " + status.ToString());
  };

  t.Time("pass", [&] {
    auto engine = std::make_unique<ShardedPipeline>(w.config);

    // One mutation, plus the publish where the workload publishes after
    // each; a failed call stops the pass.
    auto mutate = [&](const char* name, auto&& call) {
      ++result.attempted;
      bool ok = true;
      const double seconds = t.Time("mutation", [&] {
        Result<IngestReport> report(Status::Internal("not run"));
        t.Time(name, [&] { report = call(); });
        if (!report.ok()) {
          fail(name, report.status());
          ok = false;
          return;
        }
        counts.records_added += report->records_added;
        counts.records_removed += report->records_removed;
        counts.pairs_scored += report->pairs_scored;
        counts.cache_hits += report->cache_hits;
        counts.components_rebuilt += report->components_rebuilt;
        if (w.spec.publish_each_mutation) {
          Result<PipelineResult> snap(Status::Internal("not run"));
          t.Time("serve.Snapshot", [&] { snap = engine->Snapshot(); });
          if (!snap.ok()) {
            fail("snapshot", snap.status());
            ok = false;
            return;
          }
          t.Time("serve.Publish", [&] {
            env->service->Publish(*snap, engine->records().size());
          });
        }
      });
      return ok ? seconds : -1.0;
    };

    bool ok = true;
    t.Time("ingest", [&] {
      for (const auto& batch : w.batches) {
        const double s = mutate("shard.Ingest",
                                [&] { return engine->Ingest(batch, matcher); });
        if (s < 0) { ok = false; return; }
        times.ingest.push_back(s);
      }
    });
    if (!ok) return;
    t.Time("churn", [&] {
      for (const CorrectionRound& round : w.rounds) {
        double s = mutate("shard.Remove", [&] {
          return engine->Remove(round.removals, matcher);
        });
        if (s < 0) { ok = false; return; }
        times.churn.push_back(s);
        s = mutate("shard.Update",
                   [&] { return engine->Update(round.updates, matcher); });
        if (s < 0) { ok = false; return; }
        times.churn.push_back(s);
      }
    });
    if (!ok) return;
    if (engine->alive() != w.final_alive) {
      result.failures.push_back("engine liveness differs from the schedule's");
    }

    // Checkpoint: save, then load into a new engine.
    Result<PipelineResult> saved = engine->Snapshot();
    if (!saved.ok()) { fail("snapshot", saved.status()); return; }
    // The short steps repeat within the pass, so each run holds enough
    // samples of them for a steady minimum.
    ClearDir(env->checkpoint_dir);
    for (int i = 0; i < kSaveRepeats; ++i) {
      Status save_status;
      ++result.attempted;
      times.save.push_back(t.Time("save", [&] {
        save_status = SaveShardedCheckpoint(*engine, env->checkpoint_dir);
      }));
      if (!save_status.ok()) { fail("save", save_status); return; }
    }
    Result<std::unique_ptr<ShardedPipeline>> loaded(Status::Internal("not run"));
    ++result.attempted;
    times.restore = t.Time("restore", [&] {
      loaded = LoadShardedCheckpoint(env->checkpoint_dir, matcher, 1);
    });
    if (!loaded.ok()) { fail("load", loaded.status()); return; }
    std::unique_ptr<ShardedPipeline> restored = loaded.MoveValueUnsafe();

    // Publish the restored engine.
    Result<PipelineResult> restored_snap(Status::Internal("not run"));
    for (int i = 0; i < kPublishRepeats; ++i) {
      times.publish.push_back(t.Time("publish", [&] {
        t.Time("serve.Snapshot", [&] { restored_snap = restored->Snapshot(); });
        if (!restored_snap.ok()) return;
        t.Time("serve.Publish", [&] {
          env->service->Publish(*restored_snap, restored->records().size());
        });
      }));
      if (!restored_snap.ok()) { fail("snapshot", restored_snap.status()); return; }
    }
    const MatchSnapshotPtr view = env->service->View();

    // Queries: the fixed mix in pipelined bursts on one connection.
    if (env->queries.empty()) DrawQueries(w, *view, env);
    const uint64_t served_before = env->server->counters().requests_served;
    std::vector<NetReply> replies;
    replies.reserve(env->queries.size());
    t.Time("query", [&] {
      for (size_t begin = 0; begin < env->queries.size();
           begin += w.spec.burst) {
        const size_t end = std::min(env->queries.size(), begin + w.spec.burst);
        const std::vector<NetRequest> burst(
            env->queries.begin() + static_cast<long>(begin),
            env->queries.begin() + static_cast<long>(end));
        result.attempted += burst.size();
        Result<std::vector<NetReply>> got(Status::Internal("not run"));
        times.bursts.push_back(
            t.Time("net.Call", [&] { got = env->client->Call(burst); }));
        if (!got.ok()) {
          result.failed += burst.size();
          result.failures.push_back("burst failed: " + got.status().ToString());
          continue;
        }
        for (NetReply& reply : *got) {
          if (!reply.status.ok()) ++result.failed;
          replies.push_back(std::move(reply));
        }
      }
    });
    const uint64_t served =
        env->server->counters().requests_served - served_before;
    counts.queries = env->queries.size();

    // The batch job on the survivors: the paper's Figure 1, and the oracle.
    const Survivors survivors = CompactLive(*restored);
    CandidateSet candidates;
    PipelineResult oracle_compact;
    times.batch = t.Time("batch", [&] {
      t.Time("blocking.IdOverlapBlocker", [&] {
        IdOverlapBlocker().AddCandidates(survivors.dataset, &candidates);
      });
      t.Time("blocking.TokenOverlapBlocker", [&] {
        TokenOverlapBlocker(w.config.base.token)
            .AddCandidates(survivors.dataset, &candidates);
      });
      t.Time("core.EntityGroupPipeline::Run", [&] {
        oracle_compact = EntityGroupPipeline(w.config.base.pipeline)
                             .Run(survivors.dataset, candidates.ToVector(),
                                  matcher);
      });
    });

    if (replay) {
      RunReplays(env, *restored, survivors, candidates, oracle_compact,
                 &result);
      // Single round trips, closed loop: a latency reference only.
      t.Time("roundtrip", [&] {
        for (size_t i = 0; i < 2000; ++i) {
          const RecordId r = static_cast<RecordId>(
              survivors.original[i % survivors.original.size()]);
          Result<NetReply> reply(Status::Internal("not run"));
          t.Time("net.GroupOf", [&] { reply = env->client->GroupOf(r); });
          if (!reply.ok() || reply->group != view->GroupOf(r)) {
            result.failures.push_back("single GroupOf round trip failed");
            return;
          }
        }
      });
    }

    // Output checks (a)-(e); (f) runs inside the replay.
    const PipelineResult oracle =
        RemapToOriginal(oracle_compact, survivors.original);
    Append(&result.failures, CheckOracle(*saved, oracle));
    Append(&result.failures,
           CheckProperties(*saved, engine->alive(), counts.records_added,
                           counts.records_removed,
                           w.config.base.pipeline.cleanup.mu));
    if (w.spec.matcher == MatcherKind::kIdentifier) {
      Append(&result.failures,
             CheckSharedIdentifiers(saved->predicted_pairs, engine->records()));
    } else {
      Append(&result.failures,
             CheckRescore(saved->predicted_pairs, engine->records(), matcher,
                          w.config.base.pipeline.match_threshold, 64));
    }
    Append(&result.failures, CheckCleanupPrecision(*saved, w.entity_of));
    result.precision_before =
        ImpliedPairPrecision(saved->pre_cleanup_components, w.entity_of);
    result.precision_after = ImpliedPairPrecision(saved->groups, w.entity_of);
    ClearDir(env->resave_dir);
    const Status resaved = SaveShardedCheckpoint(*restored, env->resave_dir);
    if (!resaved.ok()) { fail("re-save", resaved); return; }
    const FileMap saved_files = ReadDir(env->checkpoint_dir);
    Append(&result.failures,
           CheckCheckpoint(*saved, *restored_snap, saved_files,
                           ReadDir(env->resave_dir)));
    Append(&result.failures,
           CheckServing(env->queries, env->probes, replies, *view, served));

    counts.candidates = candidates.size();
    counts.predicted_pairs = saved->predicted_pairs.size();
    counts.groups = saved->groups.size();
    counts.min_cut_calls = saved->cleanup_stats.min_cut_calls;
    counts.betweenness_calls = saved->cleanup_stats.betweenness_calls;
    for (const auto& file : saved_files) {
      counts.checkpoint_bytes += file.second.size();
    }
  });
  return result;
}

}  // namespace e2ebench
