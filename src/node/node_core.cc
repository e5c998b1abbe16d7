#include "src/node/node_core.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/ring/settled_cluster.h"

namespace scalecheck {

NodeCore::NodeCore(NodeId self, uint64_t seed, Clock* clock, FlapCounter* flaps,
                   TraceRecorder* trace, const PhiAccrualFailureDetector::Config& fd,
                   int replication_factor, int vnodes_per_node, uint64_t token_seed,
                   bool plant_left_join_bug, std::function<void()> pending_changed)
    : self_(self),
      seed_(seed),
      clock_(clock),
      flaps_(flaps),
      trace_(trace),
      replication_factor_(replication_factor),
      vnodes_per_node_(vnodes_per_node),
      token_seed_(token_seed),
      plant_left_join_bug_(plant_left_join_bug),
      pending_changed_(std::move(pending_changed)),
      rng_(seed),
      gossiper_(self, /*generation=*/1,
                Gossiper::Callbacks{
                    [this](NodeId ep, StatusKind o, StatusKind n) { OnStatusChange(ep, o, n); },
                    [this](NodeId ep) { OnHeartbeat(ep); },
                    [this](NodeId ep) { OnRestart(ep); },
                }),
      fd_(fd) {
  CHECK_NOTNULL(clock);
  CHECK_NOTNULL(flaps);
  Unmonitor(self_);
}

void NodeCore::EnableKv(Transport* transport, Stage* stage, const KvConfig& config,
                        bool plant_ack_before_sync, bool plant_repair_storm,
                        KvHistory* history, std::function<void(int64_t)> charge) {
  CHECK(kv_ == nullptr);
  KvService::Deps deps;
  deps.clock = clock_;
  deps.transport = transport;
  deps.stage = stage;
  deps.ring = &ring_;
  deps.gossiper = &gossiper_;
  deps.self = self_;
  deps.replication_factor = replication_factor_;
  deps.config = config;
  deps.plant_ack_before_sync = plant_ack_before_sync;
  deps.plant_repair_storm = plant_repair_storm;
  deps.seed = seed_;
  deps.charge = std::move(charge);
  deps.history = history;
  kv_ = std::make_unique<KvService>(std::move(deps));
}

// ---- Priming -----------------------------------------------------------------

void NodeCore::PrimeSettled(const SettledCluster& settled) {
  CHECK_EQ(ring_.num_nodes(), 0u) << "node" << self_ << "primed twice";
  my_tokens_ = settled.TokensOf(self_);
  DCHECK(std::is_sorted(my_tokens_.begin(), my_tokens_.end()));

  VersionedValue status;
  status.status = StatusKind::kNormal;
  status.tokens = my_tokens_;
  gossiper_.SetLocalState(ApplicationStateKey::kStatus, status);

  ring_ = settled.ring().Clone();
  VirtualTime now = clock_->Now();
  for (const auto& [peer, state] : settled.states()) {
    if (peer == self_) {
      continue;
    }
    gossiper_.AddKnownEndpoint(peer, state);
    // Prime the failure detector so phi is meaningful from t=0.
    fd_.Report(peer, now);
  }
}

void NodeCore::PrimeSeeds(const std::map<NodeId, std::vector<Token>>& seed_members) {
  for (const auto& [peer, tokens] : seed_members) {
    if (peer == self_) {
      continue;
    }
    gossiper_.AddKnownEndpoint(peer, SettledMemberState(tokens));
    // A fresh joiner has an established view of the seeds only.
    if (!ring_.HasNode(peer)) {
      ring_.AddNode(peer, tokens);
    }
  }
}

void NodeCore::PrimeContacts(const std::vector<NodeId>& contacts) {
  for (NodeId peer : contacts) {
    if (peer != self_) {
      // Generation 0: any real state the contact later advertises wins.
      gossiper_.AddKnownEndpoint(peer, EndpointState(/*generation=*/0));
    }
  }
}

void NodeCore::SetSeedContacts(const std::vector<NodeId>& contacts) {
  seed_contacts_.clear();
  for (NodeId peer : contacts) {
    if (peer != self_) {
      seed_contacts_.push_back(peer);
    }
  }
}

// ---- Own transitions -----------------------------------------------------------

void NodeCore::Announce(StatusKind status) {
  if (my_tokens_.empty()) {
    my_tokens_ = GenerateTokens(self_, vnodes_per_node_, token_seed_);
  }
  VersionedValue value;
  value.status = status;
  value.tokens = my_tokens_;
  gossiper_.SetLocalState(ApplicationStateKey::kStatus, value);
  switch (status) {
    case StatusKind::kBootstrapping:
      AddPendingChange(PendingChange{self_, ChangeKind::kJoining, my_tokens_});
      break;
    case StatusKind::kNormal:
      if (!ring_.HasNode(self_)) {
        ring_.AddNode(self_, my_tokens_);
      }
      RemovePendingChange(self_);
      break;
    case StatusKind::kLeaving:
      AddPendingChange(PendingChange{self_, ChangeKind::kLeaving, {}});
      break;
    case StatusKind::kLeft:
    case StatusKind::kRemoved:
      if (ring_.HasNode(self_)) {
        ring_.RemoveNode(self_);
      }
      RemovePendingChange(self_);
      break;
    case StatusKind::kUnknown:
      break;
  }
  ring_dirty_ = true;
}

void NodeCore::ResetForRestart(int64_t generation, const std::vector<NodeId>& contacts) {
  gossiper_.ResetForRestart(generation);
  fd_ = PhiAccrualFailureDetector(fd_.config());
  ring_ = TokenRing();
  pending_changes_.clear();
  ring_dirty_ = false;
  std::fill(unmonitored_.begin(), unmonitored_.end(), 0);
  Unmonitor(self_);

  // Peers replace our stale state wholesale on seeing the bumped generation;
  // the cluster view is re-learned from the contacts.
  PrimeContacts(contacts);
  VersionedValue normal;
  normal.status = StatusKind::kNormal;
  normal.tokens = my_tokens_;
  gossiper_.SetLocalState(ApplicationStateKey::kStatus, normal);
  ring_.AddNode(self_, my_tokens_);
}

// ---- One gossip round ------------------------------------------------------------

std::array<NodeId, 3> NodeCore::PickSynTargets() {
  std::array<NodeId, 3> targets = {kInvalidNode, kInvalidNode, kInvalidNode};
  const std::vector<NodeId>& live = gossiper_.LiveEndpointsView();
  if (!live.empty()) {
    targets[0] = live[rng_.PickIndex(live.size())];
  }
  // Gossip-to-unreachable escape hatch: a healed partition only re-converges
  // if somebody eventually SYNs across the conviction boundary. Probability
  // |unreachable|/(|live|+1), Cassandra-style; draws happen only when the
  // unreachable set is non-empty.
  targets[1] = gossiper_.PickUnreachableSynTarget(&rng_);
  // Fully islanded (empty live view): fall back to a seed contact
  // unconditionally, so even a node that convicted the whole cluster
  // re-establishes contact within one round of the partition healing.
  if (live.empty() && !seed_contacts_.empty()) {
    targets[2] = seed_contacts_[rng_.PickIndex(seed_contacts_.size())];
  }
  return targets;
}

void NodeCore::SweepFailures() {
  VirtualTime now = clock_->Now();
  // Iterating the cached live view is equivalent to scanning all endpoints
  // and skipping the dead: alive ⊆ known. MarkDead inside the loop only
  // defers a rebuild, it does not move the vector.
  for (NodeId ep : gossiper_.LiveEndpointsView()) {
    if (IsUnmonitored(ep)) {
      continue;
    }
    if (fd_.Phi(ep, now) > fd_.config().threshold) {
      gossiper_.MarkDead(ep);
      flaps_->RecordDown(self_, ep, now);
      if (trace_ != nullptr) {
        trace_->Record(now, TraceKind::kConviction, self_, ep);
      }
    }
  }
}

// ---- Gossiper callbacks --------------------------------------------------------

void NodeCore::OnStatusChange(NodeId ep, StatusKind old_status, StatusKind new_status) {
  if (trace_ != nullptr) {
    trace_->Record(clock_->Now(), TraceKind::kStatusChange, self_, ep,
                   static_cast<int64_t>(new_status), StatusKindName(new_status));
  }
  switch (new_status) {
    case StatusKind::kBootstrapping: {
      const EndpointState* state = gossiper_.StateOf(ep);
      CHECK_NOTNULL(state);
      AddPendingChange(PendingChange{ep, ChangeKind::kJoining, state->Tokens()});
      break;
    }
    case StatusKind::kNormal: {
      const EndpointState* state = gossiper_.StateOf(ep);
      CHECK_NOTNULL(state);
      if (!ring_.HasNode(ep)) {
        ring_.AddNode(ep, state->Tokens());
      }
      RemovePendingChange(ep);
      break;
    }
    case StatusKind::kLeaving:
      AddPendingChange(PendingChange{ep, ChangeKind::kLeaving, {}});
      break;
    case StatusKind::kLeft:
    case StatusKind::kRemoved:
      if (plant_left_join_bug_ && old_status == StatusKind::kUnknown &&
          !ring_.HasNode(ep)) {
        // Planted recovery bug (CheckOptions::plant_left_join_bug): a view
        // meeting a tombstoned endpoint for the first time — e.g. a process
        // that restarted after a peer finished decommissioning — mishandles
        // the LEFT state as a join and claims the departed node's tokens
        // back into its ring. The zombie-endpoint invariant exists to catch
        // exactly this class of mistake.
        const EndpointState* state = gossiper_.StateOf(ep);
        if (state != nullptr && !state->Tokens().empty()) {
          ring_.AddNode(ep, state->Tokens());
          RemovePendingChange(ep);
          break;
        }
      }
      if (ring_.HasNode(ep)) {
        ring_.RemoveNode(ep);
      }
      RemovePendingChange(ep);
      // A properly departed node is no longer monitored; its silence is not
      // a failure and must not produce flaps.
      Unmonitor(ep);
      fd_.Forget(ep);
      gossiper_.MarkDead(ep);
      break;
    case StatusKind::kUnknown:
      return;
  }
  ring_dirty_ = true;
}

void NodeCore::OnHeartbeat(NodeId ep) {
  if (IsUnmonitored(ep)) {
    return;
  }
  VirtualTime now = clock_->Now();
  fd_.Report(ep, now);
  if (!gossiper_.IsAlive(ep)) {
    gossiper_.MarkAlive(ep);
    flaps_->RecordUp(self_, ep, now);
    if (trace_ != nullptr) {
      trace_->Record(now, TraceKind::kRescue, self_, ep);
    }
    if (kv_ != nullptr) {
      // The failure detector just un-convicted this replica: deliver (or
      // expire) whatever writes we hinted for it while it was down.
      kv_->OnReplicaAlive(ep);
    }
  }
  // Any apply (heartbeats included) for an endpoint with an in-flight
  // membership change dirties the ring — the historical behaviour that turns
  // one decommission into a recalculation storm (§2).
  if (HasPendingChange(ep)) {
    ring_dirty_ = true;
  }
}

void NodeCore::OnRestart(NodeId ep) {
  // Treat a restarted peer as freshly alive.
  if (!gossiper_.IsAlive(ep)) {
    gossiper_.MarkAlive(ep);
    flaps_->RecordUp(self_, ep, clock_->Now());
    if (kv_ != nullptr) {
      kv_->OnReplicaAlive(ep);
    }
  }
}

// ---- Pending changes ---------------------------------------------------------------

void NodeCore::AddPendingChange(PendingChange change) {
  for (const PendingChange& existing : pending_changes_) {
    if (existing.node == change.node && existing.kind == change.kind) {
      return;
    }
  }
  pending_changes_.push_back(std::move(change));
  if (pending_changed_) {
    pending_changed_();
  }
}

void NodeCore::RemovePendingChange(NodeId ep) {
  if (std::erase_if(pending_changes_, [ep](const PendingChange& c) { return c.node == ep; }) >
          0 &&
      pending_changed_) {
    pending_changed_();
  }
}

bool NodeCore::HasPendingChange(NodeId ep) const {
  return std::any_of(pending_changes_.begin(), pending_changes_.end(),
                     [ep](const PendingChange& c) { return c.node == ep; });
}

void NodeCore::Unmonitor(NodeId ep) {
  DCHECK_GE(ep, 0);
  size_t word = static_cast<size_t>(ep) >> 6;
  if (word >= unmonitored_.size()) {
    unmonitored_.resize(word + 1, 0);
  }
  unmonitored_[word] |= uint64_t{1} << (ep & 63);
}

}  // namespace scalecheck
