#include "src/net/real_node.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/kv/anti_entropy.h"
#include "src/ring/settled_cluster.h"

namespace scalecheck {

RealNode::RealNode(NodeId id, const Options& options, Transport* transport,
                   Clock* clock, FlapCounter* flaps, std::mutex* flaps_mu)
    : id_(id),
      options_(options),
      transport_(transport),
      flaps_(flaps),
      flaps_mu_(flaps_mu),
      clock_(clock, &mu_),
      rng_(HashCombine(options.seed, static_cast<uint64_t>(id))),
      gossiper_(id, /*generation=*/1,
                Gossiper::Callbacks{
                    [this](NodeId ep, StatusKind o, StatusKind n) {
                      OnStatusChange(ep, o, n);
                    },
                    [this](NodeId ep) { OnHeartbeat(ep); },
                    [this](NodeId ep) { OnRestart(ep); },
                }),
      fd_(options.fd),
      calculator_(MakeCalculator(CalcVersion::kV3C3881Fix)) {
  CHECK_NOTNULL(transport);
  CHECK_NOTNULL(clock);
  unmonitored_.insert(id_);
  for (NodeId peer : options_.seed_contacts) {
    if (peer != id_) {
      seed_contacts_.push_back(peer);
    }
  }
  if (options_.enable_kv) {
    KvService::Deps deps;
    deps.clock = &clock_;
    deps.transport = transport_;
    deps.stage = &stage_;
    deps.ring = &ring_;
    deps.gossiper = &gossiper_;
    deps.self = id_;
    deps.replication_factor = options_.replication_factor;
    deps.config = options_.kv;
    deps.plant_repair_storm = options_.plant_repair_storm;
    deps.seed = options_.seed;
    kv_ = std::make_unique<KvService>(std::move(deps));
  }
}

RealNode::~RealNode() { Stop(); }

void RealNode::PrimeSettled(const SettledCluster& settled) {
  std::lock_guard<std::mutex> lock(mu_);
  CHECK(!started_);
  CHECK_EQ(ring_.num_nodes(), 0u) << "node" << id_ << "primed twice";
  my_tokens_ = settled.TokensOf(id_);
  DCHECK(std::is_sorted(my_tokens_.begin(), my_tokens_.end()));

  VersionedValue status;
  status.status = StatusKind::kNormal;
  status.tokens = my_tokens_;
  gossiper_.SetLocalState(ApplicationStateKey::kStatus, status);

  ring_ = settled.ring().Clone();
  VirtualTime now = clock_.Now();
  for (const auto& [peer, state] : settled.states()) {
    if (peer == id_) {
      continue;
    }
    gossiper_.AddKnownEndpoint(peer, state);
    fd_.Report(peer, now);
  }
}

void RealNode::PrimeSeeds(const std::map<NodeId, std::vector<Token>>& seed_members) {
  std::lock_guard<std::mutex> lock(mu_);
  CHECK(!started_);
  if (my_tokens_.empty()) {
    my_tokens_ = GenerateTokens(id_, options_.vnodes_per_node, options_.seed);
  }
  VersionedValue status;
  status.status = StatusKind::kNormal;
  status.tokens = my_tokens_;
  gossiper_.SetLocalState(ApplicationStateKey::kStatus, status);
  ring_.AddNode(id_, my_tokens_);
  for (const auto& [peer, tokens] : seed_members) {
    if (peer == id_) {
      continue;
    }
    gossiper_.AddKnownEndpoint(peer, SettledMemberState(tokens));
    if (!ring_.HasNode(peer)) {
      ring_.AddNode(peer, tokens);
    }
  }
}

void RealNode::Start() {
  transport_->RegisterNode(id_, [this](const Message& msg) { OnMessage(msg); });
  std::lock_guard<std::mutex> lock(mu_);
  CHECK(!started_);
  started_ = true;
  // Desynchronized start phase, as in the sim Node.
  VirtualDuration phase = VirtualDuration::Nanos(static_cast<int64_t>(
      rng_.UniformDouble() *
      static_cast<double>(options_.gossip_interval.nanos())));
  // The timer goes through clock_ (the serialized view), so GossipRound fires
  // holding mu_ — the same monitor every socket delivery enters.
  gossip_timer_ = std::make_unique<PeriodicClockTimer>(
      &clock_, options_.gossip_interval, [this] { GossipRound(); });
  gossip_timer_->Start(phase);
  if (kv_ != nullptr) {
    kv_->Start();  // arms the anti-entropy scheduler when repair is on
  }
}

void RealNode::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) {
      return;
    }
    stopped_ = true;
    if (gossip_timer_ != nullptr) {
      gossip_timer_->Stop();
    }
    if (kv_ != nullptr) {
      kv_->Shutdown();  // cancels repair timers before the clock goes away
    }
  }
  // Unregister outside mu_: reader threads may be blocked on mu_ delivering
  // to us, and UnregisterNode joins them.
  transport_->UnregisterNode(id_);
}

void RealNode::KvWrite(uint64_t key, std::string value, KvService::DoneFn done) {
  std::lock_guard<std::mutex> lock(mu_);
  if (kv_ == nullptr) {
    done(KvOutcome::kUnavailable, "");
    return;
  }
  kv_->Write(key, std::move(value), std::move(done));
}

void RealNode::KvRead(uint64_t key, KvService::DoneFn done) {
  std::lock_guard<std::mutex> lock(mu_);
  if (kv_ == nullptr) {
    done(KvOutcome::kUnavailable, "");
    return;
  }
  kv_->Read(key, std::move(done));
}

bool RealNode::SeesConvergedCluster(int n) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (gossiper_.endpoints().size() != static_cast<size_t>(n) ||
      ring_.num_nodes() != static_cast<size_t>(n)) {
    return false;
  }
  for (const auto& [ep, state] : gossiper_.endpoints()) {
    if (state.Status() != StatusKind::kNormal) {
      return false;
    }
    if (ep != id_ && !gossiper_.IsAlive(ep)) {
      return false;
    }
  }
  return true;
}

void RealNode::Inspect(
    const std::function<void(const TokenRing&, const Gossiper&,
                             const PhiAccrualFailureDetector&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  fn(ring_, gossiper_, fd_);
}

size_t RealNode::known_endpoints() const {
  std::lock_guard<std::mutex> lock(mu_);
  return gossiper_.endpoints().size();
}

size_t RealNode::live_endpoints() const {
  std::lock_guard<std::mutex> lock(mu_);
  return gossiper_.LiveEndpointsView().size();
}

size_t RealNode::unreachable_endpoints() const {
  std::lock_guard<std::mutex> lock(mu_);
  return gossiper_.UnreachableEndpointsView().size();
}

const KvStats RealNode::KvStatsSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return kv_ == nullptr ? KvStats{} : kv_->stats();
}

int64_t RealNode::KvTimestampOf(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return kv_ == nullptr ? 0 : kv_->storage().TimestampOf(key);
}

std::vector<NodeId> RealNode::KvNaturalEndpoints(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.num_entries() == 0) {
    return {};
  }
  return ring_.NaturalEndpointsForKey(KvTokenForKey(key),
                                      options_.replication_factor);
}

void RealNode::OnMessage(const Message& msg) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopped_) {
    return;
  }
  switch (msg.type) {
    case kGossipSyn:
      HandleSyn(msg);
      break;
    case kGossipAck:
      HandleAck(msg);
      break;
    case kGossipAck2:
      HandleAck2(msg);
      break;
    case kKvWriteReq:
    case kKvWriteResp:
    case kKvReadReq:
    case kKvReadResp:
    case kKvRepairHashReq:
    case kKvRepairHashResp:
    case kKvRepairStreamWrite:
      if (kv_ != nullptr) {
        kv_->HandleMessage(msg);
      }
      break;
    default:
      SC_LOG(Warning) << "real node " << id_ << ": unknown message type "
                      << msg.type;
  }
}

void RealNode::GossipRound() {
  // Already under mu_ (timer callbacks come through clock_).
  if (stopped_) {
    return;
  }
  gossiper_.IncrementHeartbeat();
  const std::vector<NodeId>& live = gossiper_.LiveEndpointsView();
  if (!live.empty()) {
    SendSynTo(live[rng_.PickIndex(live.size())]);
  }
  // Gossip-to-unreachable escape hatch, same shape as the sim Node: a healed
  // partition only re-converges if somebody SYNs across the conviction
  // boundary (probability |unreachable|/(|live|+1)), and a fully islanded
  // node (empty live view) falls back to a seed contact unconditionally.
  NodeId unreachable = gossiper_.PickUnreachableSynTarget(&rng_);
  if (unreachable != kInvalidNode) {
    SendSynTo(unreachable);
  }
  if (live.empty() && !seed_contacts_.empty()) {
    SendSynTo(seed_contacts_[rng_.PickIndex(seed_contacts_.size())]);
  }
  // Failure sweep, as the sim Node's gossip task does each round.
  VirtualTime now = clock_.Now();
  for (NodeId ep : gossiper_.LiveEndpointsView()) {
    if (unmonitored_.count(ep) > 0) {
      continue;
    }
    if (fd_.Phi(ep, now) > fd_.config().threshold) {
      gossiper_.MarkDead(ep);
      std::lock_guard<std::mutex> flock(*flaps_mu_);
      flaps_->RecordDown(id_, ep, now);
    }
  }
}

void RealNode::SendSynTo(NodeId peer) {
  auto syn = std::make_shared<SynPayload>();
  gossiper_.CopySynDigests(&syn->digests);
  transport_->Send(id_, peer, kGossipSyn, std::move(syn));
}

void RealNode::HandleSyn(const Message& msg) {
  auto syn = std::static_pointer_cast<const SynPayload>(msg.payload);
  auto ack = std::make_shared<AckPayload>();
  gossiper_.HandleSyn(syn->digests, &ack->requests, &ack->states);
  transport_->Send(id_, msg.from, kGossipAck, std::move(ack));
}

void RealNode::HandleAck(const Message& msg) {
  auto ack = std::static_pointer_cast<const AckPayload>(msg.payload);
  gossiper_.ApplyStates(ack->states);
  if (!ack->requests.empty()) {
    auto ack2 = std::make_shared<Ack2Payload>();
    gossiper_.StatesForRequests(ack->requests, &ack2->states);
    if (!ack2->states.empty()) {
      transport_->Send(id_, msg.from, kGossipAck2, std::move(ack2));
    }
  }
  MaybeRecalc();
}

void RealNode::HandleAck2(const Message& msg) {
  auto ack2 = std::static_pointer_cast<const Ack2Payload>(msg.payload);
  gossiper_.ApplyStates(ack2->states);
  MaybeRecalc();
}

void RealNode::OnStatusChange(NodeId ep, StatusKind old_status,
                              StatusKind new_status) {
  (void)old_status;
  switch (new_status) {
    case StatusKind::kBootstrapping: {
      const EndpointState* state = gossiper_.StateOf(ep);
      CHECK_NOTNULL(state);
      pending_changes_.push_back(
          PendingChange{ep, ChangeKind::kJoining, state->Tokens()});
      ring_dirty_ = true;
      break;
    }
    case StatusKind::kNormal: {
      const EndpointState* state = gossiper_.StateOf(ep);
      CHECK_NOTNULL(state);
      if (!ring_.HasNode(ep)) {
        ring_.AddNode(ep, state->Tokens());
      }
      std::erase_if(pending_changes_,
                    [ep](const PendingChange& c) { return c.node == ep; });
      ring_dirty_ = true;
      break;
    }
    case StatusKind::kLeaving:
      pending_changes_.push_back(PendingChange{ep, ChangeKind::kLeaving, {}});
      ring_dirty_ = true;
      break;
    case StatusKind::kLeft:
    case StatusKind::kRemoved:
      if (ring_.HasNode(ep)) {
        ring_.RemoveNode(ep);
      }
      std::erase_if(pending_changes_,
                    [ep](const PendingChange& c) { return c.node == ep; });
      unmonitored_.insert(ep);
      fd_.Forget(ep);
      gossiper_.MarkDead(ep);
      ring_dirty_ = true;
      break;
    case StatusKind::kUnknown:
      break;
  }
}

void RealNode::OnHeartbeat(NodeId ep) {
  if (unmonitored_.count(ep) > 0) {
    return;
  }
  fd_.Report(ep, clock_.Now());
  if (!gossiper_.IsAlive(ep)) {
    gossiper_.MarkAlive(ep);
    {
      std::lock_guard<std::mutex> flock(*flaps_mu_);
      flaps_->RecordUp(id_, ep, clock_.Now());
    }
    if (kv_ != nullptr) {
      kv_->OnReplicaAlive(ep);
    }
  }
}

void RealNode::OnRestart(NodeId ep) {
  if (!gossiper_.IsAlive(ep)) {
    gossiper_.MarkAlive(ep);
    {
      std::lock_guard<std::mutex> flock(*flaps_mu_);
      flaps_->RecordUp(id_, ep, clock_.Now());
    }
    if (kv_ != nullptr) {
      kv_->OnReplicaAlive(ep);
    }
  }
}

void RealNode::MaybeRecalc() {
  if (!ring_dirty_) {
    return;
  }
  ring_dirty_ = false;
  if (pending_changes_.empty()) {
    pending_ranges_ = PendingRanges();
    return;
  }
  // Real mode computes synchronously: the calculation is real CPU on this
  // thread, which is the point — no modelled cost, just cost.
  CalcInput input;
  input.ring = &ring_;
  input.changes = pending_changes_;
  input.rf = options_.replication_factor;
  PendingRangeCalculator::RunOutcome outcome = calculator_->Run(
      input,
      /*execute_threshold_ops=*/std::numeric_limits<int64_t>::max());
  pending_ranges_ = std::move(outcome.pending);
}

}  // namespace scalecheck
