#ifndef GRALMATCH_E2EBENCH_PASS_H_
#define GRALMATCH_E2EBENCH_PASS_H_

/// \file pass.h
/// One pass: stream the feed into a fresh ShardedPipeline, apply the
/// correction rounds, save and load a sharded checkpoint, snapshot and
/// publish the restored engine, query it over loopback RPC in pipelined
/// bursts, and run the from-scratch batch pipeline as the oracle. Then
/// every output check runs on what the pass produced.

#include <cstdint>
#include <string>
#include <vector>

#include "checks.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "serve/match_service.h"
#include "trace.h"
#include "workload.h"

namespace e2ebench {

/// What a pass runs against; lives for the whole run.
struct PassEnv {
  const Workload* workload = nullptr;
  gralmatch::MatchService* service = nullptr;
  gralmatch::NetServer* server = nullptr;
  gralmatch::NetClient* client = nullptr;
  Tracer* tracer = nullptr;
  std::string checkpoint_dir;
  std::string resave_dir;
  /// The fixed query mix. The first pass draws it from its own published
  /// snapshot (Members needs group ids); every later pass reuses it.
  std::vector<gralmatch::NetRequest> queries;
  /// For each query, the record a Members group id was drawn from.
  std::vector<gralmatch::RecordId> probes;
};

/// Wall-clock seconds of the timed calls of one pass.
struct PassTimes {
  /// One entry per Ingest call (plus its publish, where the workload
  /// publishes after each mutation).
  std::vector<double> ingest;
  /// One entry per Remove / Update call (same).
  std::vector<double> churn;
  /// One entry per save / per publish (both repeat within a pass).
  std::vector<double> save;
  double restore = 0.0;
  std::vector<double> publish;
  /// One entry per pipelined burst.
  std::vector<double> bursts;
  double batch = 0.0;
};

/// Counts that are a pure function of the inputs: they must repeat exactly
/// across the passes of a run and across runs with one seed.
struct PassCounts {
  uint64_t records_added = 0;
  uint64_t records_removed = 0;
  uint64_t candidates = 0;
  uint64_t pairs_scored = 0;
  uint64_t cache_hits = 0;
  uint64_t components_rebuilt = 0;
  uint64_t predicted_pairs = 0;
  uint64_t groups = 0;
  uint64_t min_cut_calls = 0;
  uint64_t betweenness_calls = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t queries = 0;

  bool operator==(const PassCounts& o) const { return ToString() == o.ToString(); }
  bool operator!=(const PassCounts& o) const { return !(*this == o); }
  std::string ToString() const;
};

struct PassResult {
  PassTimes times;
  PassCounts counts;
  /// Candidate pairs after the feed, from the replayed indexes (replay
  /// passes only).
  uint64_t candidate_pairs_after_feed = 0;
  Failures failures;
  /// Implied-pair precision of the pre-cleanup components and the groups.
  double precision_before = 0.0;
  double precision_after = 0.0;
  /// Mutations, saves, loads and queries attempted / failed.
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Run one pass. With `replay`, the pass also replays the blocking indexes,
/// scoring, cleanup and checkpoint serialization standalone (traced under
/// the "replay" span), checks the replayed blocking against the batch
/// blockers (check f), and times single GroupOf round trips.
PassResult RunPass(PassEnv* env, bool replay);

}  // namespace e2ebench

#endif  // GRALMATCH_E2EBENCH_PASS_H_
