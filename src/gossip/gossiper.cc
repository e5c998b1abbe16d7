#include "src/gossip/gossiper.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace scalecheck {

Gossiper::Gossiper(NodeId self, int64_t generation, Callbacks callbacks)
    : self_(self),
      callbacks_(std::move(callbacks)),
      digest_cache_(ArenaAllocator<GossipDigest>(&arena_)),
      digest_dirty_(ArenaAllocator<uint32_t>(&arena_)) {
  self_index_ = endpoints_.Insert(self_, EndpointState(generation));
  alive_.push_back(0);  // self's liveness slot is unused
}

size_t Gossiper::InsertEndpoint(NodeId ep, const EndpointState& state, bool alive) {
  size_t index = endpoints_.Insert(ep, state);
  alive_.insert(alive_.begin() + index, alive ? 1 : 0);
  if (index <= self_index_) {
    ++self_index_;
  }
  return index;
}

void Gossiper::IncrementHeartbeat() {
  EndpointState& local = endpoints_.StateAt(self_index_);
  local.mutable_heartbeat().version = NextVersion();
  MarkDigestDirty(self_index_);
}

void Gossiper::SetLocalState(ApplicationStateKey key, VersionedValue value) {
  value.version = NextVersion();
  EndpointState& local = endpoints_.StateAt(self_index_);
  local.Set(key, std::move(value));
  MarkDigestDirty(self_index_);
}

const EndpointState& Gossiper::LocalState() const {
  return endpoints_.StateAt(self_index_);
}

void Gossiper::AddKnownEndpoint(NodeId ep, const EndpointState& state) {
  if (ep == self_) {
    return;
  }
  size_t index = endpoints_.IndexOf(ep);
  if (index == EndpointStateStore::kNotFound) {
    InsertEndpoint(ep, state, /*alive=*/true);
  } else {
    endpoints_.StateAt(index) = state;
    alive_[index] = 1;
  }
  MarkDigestStructureDirty();
  live_dirty_ = true;
  unreachable_dirty_ = true;
}

void Gossiper::RemoveEndpoint(NodeId ep) {
  size_t index = endpoints_.IndexOf(ep);
  if (index == EndpointStateStore::kNotFound) {
    return;
  }
  endpoints_.Erase(ep);
  alive_.erase(alive_.begin() + index);
  if (index < self_index_) {
    --self_index_;
  }
  MarkDigestStructureDirty();
  live_dirty_ = true;
  unreachable_dirty_ = true;
}

void Gossiper::ResetForRestart(int64_t generation) {
  endpoints_.Clear();
  alive_.clear();
  version_counter_ = 0;
  self_index_ = endpoints_.Insert(self_, EndpointState(generation));
  alive_.push_back(0);
  MarkDigestStructureDirty();
  live_dirty_ = true;
  unreachable_dirty_ = true;
}

const EndpointState* Gossiper::StateOf(NodeId ep) const {
  return endpoints_.Find(ep);
}

void Gossiper::MarkAlive(NodeId ep) {
  size_t index = endpoints_.IndexOf(ep);
  if (index == EndpointStateStore::kNotFound) {
    return;  // liveness is tracked only for known endpoints
  }
  if (!alive_[index]) {
    alive_[index] = 1;
    live_dirty_ = true;
    unreachable_dirty_ = true;
  }
}

void Gossiper::MarkDead(NodeId ep) {
  // Liveness is tracked only for endpoints we actually know; marking an
  // unknown endpoint dead leaves no trace (no tombstone can resurrect it as
  // a gossip-to-unreachable target).
  size_t index = endpoints_.IndexOf(ep);
  if (index == EndpointStateStore::kNotFound) {
    return;
  }
  if (alive_[index]) {
    alive_[index] = 0;
    live_dirty_ = true;
  }
  // Callers often MarkDead in reaction to a STATUS change (LEFT/REMOVED),
  // which moves the endpoint out of the unreachable set even when the flag
  // was already false — rebuild unconditionally.
  unreachable_dirty_ = true;
}

const std::vector<NodeId>& Gossiper::LiveEndpointsView() const {
  if (live_dirty_) {
    live_cache_.clear();
    for (size_t i = 0; i < endpoints_.size(); ++i) {
      if (alive_[i] && endpoints_.IdAt(i) != self_) {
        live_cache_.push_back(endpoints_.IdAt(i));
      }
    }
    live_dirty_ = false;  // ids_ is sorted, so the cache is too
  }
  return live_cache_;
}

std::vector<NodeId> Gossiper::LiveEndpoints() const { return LiveEndpointsView(); }

const std::vector<NodeId>& Gossiper::UnreachableEndpointsView() const {
  if (unreachable_dirty_) {
    unreachable_cache_.clear();
    for (size_t i = 0; i < endpoints_.size(); ++i) {
      NodeId ep = endpoints_.IdAt(i);
      if (ep == self_ || alive_[i]) {
        continue;
      }
      StatusKind status = endpoints_.StateAt(i).Status();
      if (status == StatusKind::kLeft || status == StatusKind::kRemoved) {
        continue;  // departed on purpose, not a healing target
      }
      unreachable_cache_.push_back(ep);
    }
    unreachable_dirty_ = false;
  }
  return unreachable_cache_;
}

std::vector<NodeId> Gossiper::UnreachableEndpoints() const {
  return UnreachableEndpointsView();
}

NodeId Gossiper::PickUnreachableSynTarget(Rng* rng) const {
  const std::vector<NodeId>& unreachable = UnreachableEndpointsView();
  if (unreachable.empty()) {
    return kInvalidNode;  // no draw: fault-free RNG streams stay untouched
  }
  const std::vector<NodeId>& live = LiveEndpointsView();
  double prob = static_cast<double>(unreachable.size()) /
                (static_cast<double>(live.size()) + 1.0);
  if (!rng->Bernoulli(prob < 1.0 ? prob : 1.0)) {
    return kInvalidNode;
  }
  return unreachable[rng->PickIndex(unreachable.size())];
}

std::vector<NodeId> Gossiper::AllEndpoints() const {
  std::vector<NodeId> out;
  out.reserve(endpoints_.size());
  for (NodeId ep : endpoints_.ids()) {
    if (ep != self_) {
      out.push_back(ep);
    }
  }
  return out;
}

void Gossiper::MarkDigestDirty(size_t index) {
  if (!digest_structure_dirty_) {
    digest_dirty_.push_back(static_cast<uint32_t>(index));
  }
}

void Gossiper::MarkDigestStructureDirty() {
  digest_structure_dirty_ = true;
  digest_dirty_.clear();
}

void Gossiper::RefreshDigestCache() const {
  if (digest_structure_dirty_) {
    digest_cache_.clear();
    digest_cache_.reserve(endpoints_.size());
    for (size_t i = 0; i < endpoints_.size(); ++i) {
      const EndpointState& state = endpoints_.StateAt(i);
      digest_cache_.push_back(GossipDigest{endpoints_.IdAt(i),
                                           state.heartbeat().generation,
                                           state.MaxVersion()});
    }
    digest_entries_refreshed_ += endpoints_.size();
    ++digest_full_rebuilds_;
    digest_structure_dirty_ = false;
    return;
  }
  if (digest_dirty_.empty()) {
    return;
  }
  std::sort(digest_dirty_.begin(), digest_dirty_.end());
  digest_dirty_.erase(std::unique(digest_dirty_.begin(), digest_dirty_.end()),
                      digest_dirty_.end());
  for (uint32_t index : digest_dirty_) {
    // Indices queued by MarkDigestDirty are valid by the structural-mutation
    // invariant, and the cache is index-aligned — no search needed.
    const EndpointState& state = endpoints_.StateAt(index);
    GossipDigest& entry = digest_cache_[index];
    entry.generation = state.heartbeat().generation;
    entry.max_version = state.MaxVersion();
    ++digest_entries_refreshed_;
  }
  digest_dirty_.clear();
}

std::vector<GossipDigest> Gossiper::MakeSynDigests() const {
  RefreshDigestCache();
  ++digest_builds_;
  return std::vector<GossipDigest>(digest_cache_.begin(), digest_cache_.end());
}

void Gossiper::CopySynDigests(std::vector<GossipDigest>* out) const {
  RefreshDigestCache();
  ++digest_builds_;
  out->assign(digest_cache_.begin(), digest_cache_.end());
}

void Gossiper::HandleSyn(const std::vector<GossipDigest>& digests,
                         std::vector<GossipDigest>* out_requests,
                         EndpointStateMap* out_send) {
  ++syn_handled_;
  CHECK_NOTNULL(out_requests);
  CHECK_NOTNULL(out_send);
  DCHECK(std::adjacent_find(digests.begin(), digests.end(),
                            [](const GossipDigest& a, const GossipDigest& b) {
                              return a.endpoint >= b.endpoint;
                            }) == digests.end());
  // Merge-walk the sorted incoming digests against our sorted endpoint table
  // and its index-aligned digest cache — one linear pass over contiguous
  // arrays, no per-digest lookups and no MaxVersion() recomputation. Emitted
  // endpoints ascend, so out_send inserts are O(1) appends.
  RefreshDigestCache();
  size_t i = 0;
  const size_t n = endpoints_.size();
  for (const GossipDigest& digest : digests) {
    while (i < n && endpoints_.IdAt(i) < digest.endpoint) {
      // Endpoint the sender did not mention at all.
      out_send->emplace(endpoints_.IdAt(i), endpoints_.StateAt(i));
      ++i;
    }
    if (i == n || endpoints_.IdAt(i) > digest.endpoint) {
      // Unknown to us: request everything.
      out_requests->push_back(GossipDigest{digest.endpoint, 0, 0});
      continue;
    }
    const EndpointState& local = endpoints_.StateAt(i);
    const GossipDigest& mine = digest_cache_[i];
    if (digest.generation > mine.generation) {
      out_requests->push_back(GossipDigest{digest.endpoint, 0, 0});
    } else if (digest.generation < mine.generation) {
      out_send->emplace(digest.endpoint, local);
    } else if (digest.max_version > mine.max_version) {
      out_requests->push_back(
          GossipDigest{digest.endpoint, mine.generation, mine.max_version});
    } else if (digest.max_version < mine.max_version) {
      out_send->emplace(digest.endpoint, local.DeltaAfter(digest.max_version));
    }
    // Equal generation and version: nothing to exchange.
    ++i;
  }
  for (; i < n; ++i) {
    out_send->emplace(endpoints_.IdAt(i), endpoints_.StateAt(i));
  }
}

void Gossiper::StatesForRequests(const std::vector<GossipDigest>& requests,
                                 EndpointStateMap* out) const {
  for (const GossipDigest& req : requests) {
    const EndpointState* local = endpoints_.Find(req.endpoint);
    if (local == nullptr) {
      continue;
    }
    if (req.generation == local->heartbeat().generation && req.max_version > 0) {
      out->emplace(req.endpoint, local->DeltaAfter(req.max_version));
    } else {
      out->emplace(req.endpoint, *local);
    }
  }
}

EndpointStateMap Gossiper::StatesForRequests(
    const std::vector<GossipDigest>& requests) const {
  EndpointStateMap out;
  StatesForRequests(requests, &out);
  return out;
}

void Gossiper::ApplyStates(const EndpointStateMap& states) {
  for (const auto& [ep, remote] : states) {
    ApplyOne(ep, remote);
  }
}

void Gossiper::ApplyOne(NodeId ep, const EndpointState& remote) {
  if (ep == self_) {
    return;  // we are the authority on our own state
  }
  size_t index = endpoints_.IndexOf(ep);
  if (index == EndpointStateStore::kNotFound) {
    // Newly discovered endpoint.
    InsertEndpoint(ep, remote, /*alive=*/true);
    live_dirty_ = true;
    unreachable_dirty_ = true;
    MarkDigestStructureDirty();
    ++states_applied_;
    ++updates_applied_;
    if (callbacks_.on_heartbeat) {
      callbacks_.on_heartbeat(ep);
    }
    if (remote.Status() != StatusKind::kUnknown && callbacks_.on_status_change) {
      callbacks_.on_status_change(ep, StatusKind::kUnknown, remote.Status());
    }
    return;
  }

  EndpointState& local = endpoints_.StateAt(index);
  if (remote.heartbeat().generation < local.heartbeat().generation) {
    return;  // stale information
  }
  if (remote.heartbeat().generation > local.heartbeat().generation) {
    // Peer restarted: replace wholesale.
    StatusKind old_status = local.Status();
    local = remote;
    MarkDigestDirty(index);
    unreachable_dirty_ = true;  // wholesale replace can change STATUS
    ++states_applied_;
    ++updates_applied_;
    if (callbacks_.on_restart) {
      callbacks_.on_restart(ep);
    }
    if (callbacks_.on_heartbeat) {
      callbacks_.on_heartbeat(ep);
    }
    if (local.Status() != old_status && callbacks_.on_status_change) {
      callbacks_.on_status_change(ep, old_status, local.Status());
    }
    return;
  }

  // Same generation: merge by version.
  bool heartbeat_advanced = false;
  bool content_changed = false;
  if (remote.heartbeat().version > local.heartbeat().version) {
    local.mutable_heartbeat().version = remote.heartbeat().version;
    heartbeat_advanced = true;
    content_changed = true;
    ++updates_applied_;
  }
  for (const auto& [key, value] : remote.app_states()) {
    const VersionedValue* existing = local.Get(key);
    if (existing != nullptr && existing->version >= value.version) {
      continue;
    }
    StatusKind old_status = local.Status();
    local.Set(key, value);
    content_changed = true;
    ++states_applied_;
    ++updates_applied_;
    if (key == ApplicationStateKey::kStatus) {
      unreachable_dirty_ = true;  // LEFT/REMOVED exits the unreachable set
      if (callbacks_.on_status_change && value.status != old_status) {
        callbacks_.on_status_change(ep, old_status, value.status);
      }
    }
  }
  if (content_changed) {
    // Accepted content moved this endpoint's max version.
    MarkDigestDirty(index);
  }
  if (heartbeat_advanced && callbacks_.on_heartbeat) {
    callbacks_.on_heartbeat(ep);
  }
}

WorkUnits Gossiper::EstimateSynWork(const SynPayload& syn, const WorkCosts& costs) {
  return costs.base + costs.per_digest * static_cast<WorkUnits>(syn.digests.size());
}

namespace {
WorkUnits StatesWork(const EndpointStateMap& states, const Gossiper::WorkCosts& costs) {
  WorkUnits work = 0;
  for (const auto& [ep, state] : states) {
    work += costs.per_state;
    for (const auto& [key, value] : state.app_states()) {
      work += costs.per_token * static_cast<WorkUnits>(value.tokens.size());
    }
  }
  return work;
}
}  // namespace

WorkUnits Gossiper::EstimateAckWork(const AckPayload& ack, const WorkCosts& costs) {
  return costs.base + costs.per_digest * static_cast<WorkUnits>(ack.requests.size()) +
         StatesWork(ack.states, costs);
}

WorkUnits Gossiper::EstimateAck2Work(const Ack2Payload& ack2, const WorkCosts& costs) {
  return costs.base + StatesWork(ack2.states, costs);
}

WorkUnits Gossiper::EstimateRoundWork(const WorkCosts& costs) const {
  return costs.base + costs.per_digest * static_cast<WorkUnits>(endpoints_.size());
}

}  // namespace scalecheck
