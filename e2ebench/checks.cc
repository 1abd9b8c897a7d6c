#include "checks.h"

#include <algorithm>
#include <numeric>
#include <set>

namespace e2ebench {

using namespace gralmatch;

namespace {

std::string PairText(const RecordPair& p) {
  return "(" + std::to_string(p.a) + ", " + std::to_string(p.b) + ")";
}

/// Sets of nodes in a canonical order: each sorted, the list sorted.
std::vector<std::vector<NodeId>> Canonical(
    std::vector<std::vector<NodeId>> sets) {
  for (auto& s : sets) std::sort(s.begin(), s.end());
  std::sort(sets.begin(), sets.end());
  return sets;
}

/// The benchmark's own union-find (path halving, union by index).
class Components {
 public:
  explicit Components(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Join(size_t a, size_t b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  }

 private:
  std::vector<size_t> parent_;
};

Failures CompareResults(const PipelineResult& got, const PipelineResult& want,
                        const std::string& what) {
  Failures out;
  if (got.predicted_pairs != want.predicted_pairs) {
    out.push_back(what + ": predicted pairs differ (" +
                  std::to_string(got.predicted_pairs.size()) + " vs " +
                  std::to_string(want.predicted_pairs.size()) + ")");
  }
  if (got.pre_cleanup_components != want.pre_cleanup_components) {
    out.push_back(what + ": pre-cleanup components differ");
  }
  if (got.groups != want.groups) {
    out.push_back(what + ": groups differ (" +
                  std::to_string(got.groups.size()) + " vs " +
                  std::to_string(want.groups.size()) + ")");
  }
  const CleanupStats& a = got.cleanup_stats;
  const CleanupStats& b = want.cleanup_stats;
  if (a.pre_cleanup_edges_removed != b.pre_cleanup_edges_removed ||
      a.min_cut_calls != b.min_cut_calls ||
      a.min_cut_edges_removed != b.min_cut_edges_removed ||
      a.betweenness_calls != b.betweenness_calls ||
      a.betweenness_edges_removed != b.betweenness_edges_removed) {
    out.push_back(what + ": cleanup counters differ");
  }
  return out;
}

}  // namespace

PipelineResult RemapToOriginal(PipelineResult compact,
                               const std::vector<NodeId>& original) {
  for (RecordPair& pair : compact.predicted_pairs) {
    pair = RecordPair(original[static_cast<size_t>(pair.a)],
                      original[static_cast<size_t>(pair.b)]);
  }
  for (auto* sets : {&compact.pre_cleanup_components, &compact.groups}) {
    for (std::vector<NodeId>& nodes : *sets) {
      for (NodeId& u : nodes) u = original[static_cast<size_t>(u)];
    }
  }
  return compact;
}

Failures CheckOracle(const PipelineResult& engine,
                     const PipelineResult& oracle) {
  return CompareResults(engine, oracle, "engine vs batch oracle");
}

Failures CheckProperties(const PipelineResult& snapshot,
                         const std::vector<char>& alive, size_t added,
                         size_t removed, size_t mu) {
  Failures out;
  const size_t n = alive.size();
  const size_t live =
      static_cast<size_t>(std::count(alive.begin(), alive.end(), 1));
  if (added < removed || added - removed != live) {
    out.push_back("records added (" + std::to_string(added) +
                  ") minus removed (" + std::to_string(removed) +
                  ") is not the live count " + std::to_string(live));
  }

  // Groups partition exactly the live records.
  std::vector<int64_t> group_of(n, -1);
  for (size_t g = 0; g < snapshot.groups.size(); ++g) {
    const auto& group = snapshot.groups[g];
    if (group.size() > mu) {
      out.push_back("group " + std::to_string(g) + " has " +
                    std::to_string(group.size()) + " members, more than mu=" +
                    std::to_string(mu));
    }
    for (NodeId u : group) {
      if (u < 0 || static_cast<size_t>(u) >= n) {
        out.push_back("group " + std::to_string(g) + " holds unknown record " +
                      std::to_string(u));
        continue;
      }
      if (!alive[static_cast<size_t>(u)]) {
        out.push_back("group " + std::to_string(g) + " holds dead record " +
                      std::to_string(u));
      }
      if (group_of[static_cast<size_t>(u)] != -1) {
        out.push_back("record " + std::to_string(u) + " is in two groups");
      }
      group_of[static_cast<size_t>(u)] = static_cast<int64_t>(g);
    }
  }
  for (size_t u = 0; u < n; ++u) {
    if (alive[u] && group_of[u] == -1) {
      out.push_back("live record " + std::to_string(u) + " is in no group");
    }
  }

  // Every group lies inside one pre-cleanup component.
  std::vector<int64_t> component_of(n, -1);
  for (size_t c = 0; c < snapshot.pre_cleanup_components.size(); ++c) {
    for (NodeId u : snapshot.pre_cleanup_components[c]) {
      if (u >= 0 && static_cast<size_t>(u) < n) {
        component_of[static_cast<size_t>(u)] = static_cast<int64_t>(c);
      }
    }
  }
  for (size_t g = 0; g < snapshot.groups.size(); ++g) {
    std::set<int64_t> components;
    for (NodeId u : snapshot.groups[g]) {
      if (u >= 0 && static_cast<size_t>(u) < n) {
        components.insert(component_of[static_cast<size_t>(u)]);
      }
    }
    if (components.size() > 1 || components.count(-1) != 0) {
      out.push_back("group " + std::to_string(g) +
                    " spans more than one pre-cleanup component");
    }
  }

  // Pre-cleanup components are the connected components of the predicted
  // pairs over the live records.
  Components uf(n);
  for (const RecordPair& p : snapshot.predicted_pairs) {
    if (p.a < 0 || p.b < 0 || static_cast<size_t>(p.a) >= n ||
        static_cast<size_t>(p.b) >= n) {
      out.push_back("predicted pair " + PairText(p) + " is out of range");
      continue;
    }
    if (!alive[static_cast<size_t>(p.a)] || !alive[static_cast<size_t>(p.b)]) {
      out.push_back("predicted pair " + PairText(p) + " touches a dead record");
    }
    uf.Join(static_cast<size_t>(p.a), static_cast<size_t>(p.b));
  }
  std::vector<std::vector<NodeId>> expected(n);
  for (size_t u = 0; u < n; ++u) {
    if (alive[u]) expected[uf.Find(u)].push_back(static_cast<NodeId>(u));
  }
  expected.erase(std::remove_if(expected.begin(), expected.end(),
                                [](const auto& c) { return c.empty(); }),
                 expected.end());
  if (Canonical(expected) != Canonical(snapshot.pre_cleanup_components)) {
    out.push_back("pre-cleanup components are not the connected components "
                  "of the predicted pairs");
  }
  return out;
}

Failures CheckSharedIdentifiers(const std::vector<RecordPair>& pairs,
                                const RecordTable& records) {
  static const char* const kIdentifiers[] = {"isin", "cusip", "sedol", "valor",
                                             "lei"};
  Failures out;
  for (const RecordPair& p : pairs) {
    const Record& a = records.at(p.a);
    const Record& b = records.at(p.b);
    bool shared = false;
    for (const char* attr : kIdentifiers) {
      for (const std::string& value : a.GetMulti(attr)) {
        for (const std::string& other : b.GetMulti(attr)) {
          shared = shared || value == other;
        }
      }
    }
    if (!shared) {
      out.push_back("predicted pair " + PairText(p) +
                    " shares no identifier value");
    }
  }
  return out;
}

Failures CheckRescore(const std::vector<RecordPair>& pairs,
                      const RecordTable& records,
                      const PairwiseMatcher& matcher, double threshold,
                      size_t sample) {
  Failures out;
  if (pairs.empty()) return out;
  const size_t step = std::max<size_t>(1, pairs.size() / sample);
  for (size_t i = 0; i < pairs.size(); i += step) {
    const RecordPair& p = pairs[i];
    const double score =
        matcher.MatchProbability(records.at(p.a), records.at(p.b));
    if (!(score >= threshold)) {
      out.push_back("predicted pair " + PairText(p) + " rescores to " +
                    std::to_string(score) + ", below the threshold");
    }
  }
  return out;
}

double ImpliedPairPrecision(const std::vector<std::vector<NodeId>>& clusters,
                            const std::vector<EntityId>& entity_of) {
  uint64_t implied = 0;
  uint64_t correct = 0;
  for (const auto& cluster : clusters) {
    for (size_t i = 0; i < cluster.size(); ++i) {
      for (size_t j = i + 1; j < cluster.size(); ++j) {
        const EntityId a = entity_of[static_cast<size_t>(cluster[i])];
        const EntityId b = entity_of[static_cast<size_t>(cluster[j])];
        ++implied;
        if (a != kInvalidEntity && a == b) ++correct;
      }
    }
  }
  return implied == 0 ? 1.0 : static_cast<double>(correct) / implied;
}

Failures CheckCleanupPrecision(const PipelineResult& snapshot,
                               const std::vector<EntityId>& entity_of) {
  const double before =
      ImpliedPairPrecision(snapshot.pre_cleanup_components, entity_of);
  const double after = ImpliedPairPrecision(snapshot.groups, entity_of);
  if (after < before) {
    return {"cleanup lowered implied-pair precision from " +
            std::to_string(before) + " to " + std::to_string(after)};
  }
  return {};
}

Failures CheckCheckpoint(const PipelineResult& saved,
                         const PipelineResult& restored,
                         const FileMap& saved_files,
                         const FileMap& resaved_files) {
  Failures out = CompareResults(restored, saved, "restored vs saved snapshot");
  if (saved_files.empty()) out.push_back("the save wrote no files");
  for (const auto& [name, bytes] : saved_files) {
    auto it = resaved_files.find(name);
    if (it == resaved_files.end()) {
      out.push_back("re-save did not write " + name);
    } else if (it->second != bytes) {
      out.push_back("re-save wrote different bytes to " + name);
    }
  }
  for (const auto& entry : resaved_files) {
    if (saved_files.count(entry.first) == 0) {
      out.push_back("re-save wrote an extra file " + entry.first);
    }
  }
  return out;
}

Failures CheckServing(const std::vector<NetRequest>& sent,
                      const std::vector<RecordId>& probes,
                      const std::vector<NetReply>& replies,
                      const MatchSnapshot& view, uint64_t requests_served) {
  Failures out;
  if (replies.size() != sent.size()) {
    out.push_back(std::to_string(sent.size()) + " requests sent but " +
                  std::to_string(replies.size()) + " replies received");
  }
  if (requests_served != sent.size()) {
    out.push_back("server counted " + std::to_string(requests_served) +
                  " requests served, client sent " +
                  std::to_string(sent.size()));
  }
  const size_t n = std::min(sent.size(), replies.size());
  for (size_t i = 0; i < n && out.size() < 20; ++i) {
    const NetRequest& request = sent[i];
    const NetReply& reply = replies[i];
    const std::string where = "reply " + std::to_string(i);
    if (!reply.status.ok()) {
      out.push_back(where + " failed: " + reply.status.ToString());
      continue;
    }
    if (reply.op != request.op) {
      out.push_back(where + " answers another opcode");
      continue;
    }
    if (reply.epoch != view.epoch()) {
      out.push_back(where + " resolved at epoch " +
                    std::to_string(reply.epoch) + ", expected " +
                    std::to_string(view.epoch()));
    }
    switch (request.op) {
      case NetOpcode::kGroupOf:
        if (reply.group != view.GroupOf(static_cast<RecordId>(request.id))) {
          out.push_back(where + ": GroupOf(" + std::to_string(request.id) +
                        ") differs from the in-process snapshot");
        }
        break;
      case NetOpcode::kMembers: {
        if (reply.members != view.Members(request.id)) {
          out.push_back(where + ": Members(" + std::to_string(request.id) +
                        ") differs from the in-process snapshot");
        }
        const RecordId probe = i < probes.size() ? probes[i] : kInvalidRecord;
        if (std::find(reply.members.begin(), reply.members.end(), probe) ==
            reply.members.end()) {
          out.push_back(where + ": Members(GroupOf(" + std::to_string(probe) +
                        ")) does not contain " + std::to_string(probe));
        }
        break;
      }
      case NetOpcode::kStats:
        if (!(reply.stats == view.stats())) {
          out.push_back(where + ": Stats differ from the in-process snapshot");
        }
        break;
      default:
        out.push_back(where + ": unexpected opcode");
    }
  }
  return out;
}

Failures CheckBlockingReplay(std::vector<RecordPair> replayed,
                             std::vector<RecordPair> batch) {
  std::sort(replayed.begin(), replayed.end());
  replayed.erase(std::unique(replayed.begin(), replayed.end()),
                 replayed.end());
  std::sort(batch.begin(), batch.end());
  batch.erase(std::unique(batch.begin(), batch.end()), batch.end());
  if (replayed != batch) {
    return {"replayed incremental indexes hold " +
            std::to_string(replayed.size()) +
            " candidate pairs, the batch blockers " +
            std::to_string(batch.size())};
  }
  return {};
}

}  // namespace e2ebench
