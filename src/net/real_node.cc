#include "src/net/real_node.h"

#include <limits>
#include <utility>

#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/kv/anti_entropy.h"

namespace scalecheck {

RealNode::RealNode(NodeId id, const Options& options, Transport* transport, Clock* clock)
    : id_(id),
      options_(options),
      transport_(transport),
      clock_(clock, &mu_),
      core_(id, HashCombine(options.seed, static_cast<uint64_t>(id)), &clock_, &flaps_,
            /*trace=*/nullptr, options.fd, options.replication_factor,
            options.vnodes_per_node, options.seed, /*plant_left_join_bug=*/false,
            /*pending_changed=*/nullptr),
      calculator_(MakeCalculator(CalcVersion::kV3C3881Fix)) {
  CHECK_NOTNULL(transport);
  CHECK_NOTNULL(clock);
  core_.SetSeedContacts(options_.seed_contacts);
  if (options_.enable_kv) {
    core_.EnableKv(transport_, &stage_, options_.kv, /*plant_ack_before_sync=*/false,
                   options_.plant_repair_storm, /*history=*/nullptr, /*charge=*/nullptr);
  }
}

RealNode::~RealNode() { Stop(); }

void RealNode::PrimeSettled(const SettledCluster& settled) {
  std::lock_guard<std::mutex> lock(mu_);
  CHECK(!started_);
  core_.PrimeSettled(settled);
}

void RealNode::PrimeSeeds(const std::map<NodeId, std::vector<Token>>& seed_members) {
  std::lock_guard<std::mutex> lock(mu_);
  CHECK(!started_);
  // Every node boots already NORMAL (no joiner workload on this carrier),
  // knowing only the seeds.
  core_.Announce(StatusKind::kNormal);
  core_.PrimeSeeds(seed_members);
}

void RealNode::Start() {
  transport_->RegisterNode(id_, [this](const Message& msg) { OnMessage(msg); });
  std::lock_guard<std::mutex> lock(mu_);
  CHECK(!started_);
  started_ = true;
  // Desynchronized start phase, as in the sim Node.
  VirtualDuration phase = VirtualDuration::Nanos(static_cast<int64_t>(
      core_.rng().UniformDouble() *
      static_cast<double>(options_.gossip_interval.nanos())));
  // The timer goes through clock_ (the serialized view), so GossipRound fires
  // holding mu_ — the same monitor every socket delivery enters.
  gossip_timer_ = std::make_unique<PeriodicClockTimer>(
      &clock_, options_.gossip_interval, [this] { GossipRound(); });
  gossip_timer_->Start(phase);
  if (core_.kv() != nullptr) {
    core_.kv()->Start();  // arms the anti-entropy scheduler when repair is on
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
    if (core_.kv() != nullptr) {
      core_.kv()->Shutdown();  // cancels repair timers before the clock goes away
    }
  }
  // Unregister outside mu_: reader threads may be blocked on mu_ delivering
  // to us, and UnregisterNode joins them.
  transport_->UnregisterNode(id_);
}

void RealNode::KvWrite(uint64_t key, std::string value, KvService::DoneFn done) {
  std::lock_guard<std::mutex> lock(mu_);
  if (core_.kv() == nullptr) {
    done(KvOutcome::kUnavailable, "");
    return;
  }
  core_.kv()->Write(key, std::move(value), std::move(done));
}

void RealNode::KvRead(uint64_t key, KvService::DoneFn done) {
  std::lock_guard<std::mutex> lock(mu_);
  if (core_.kv() == nullptr) {
    done(KvOutcome::kUnavailable, "");
    return;
  }
  core_.kv()->Read(key, std::move(done));
}

bool RealNode::SeesConvergedCluster(int n) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Gossiper& gossiper = core_.gossiper();
  if (gossiper.endpoints().size() != static_cast<size_t>(n) ||
      core_.ring().num_nodes() != static_cast<size_t>(n)) {
    return false;
  }
  for (const auto& [ep, state] : gossiper.endpoints()) {
    if (state.Status() != StatusKind::kNormal) {
      return false;
    }
    if (ep != id_ && !gossiper.IsAlive(ep)) {
      return false;
    }
  }
  return true;
}

void RealNode::Inspect(
    const std::function<void(const TokenRing&, const Gossiper&,
                             const PhiAccrualFailureDetector&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  fn(core_.ring(), core_.gossiper(), core_.failure_detector());
}

void RealNode::WithCore(const std::function<void(NodeCore&)>& fn) {
  std::lock_guard<std::mutex> lock(mu_);
  fn(core_);
}

size_t RealNode::known_endpoints() const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.gossiper().endpoints().size();
}

size_t RealNode::live_endpoints() const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.gossiper().LiveEndpointsView().size();
}

size_t RealNode::unreachable_endpoints() const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.gossiper().UnreachableEndpointsView().size();
}

int64_t RealNode::total_flaps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flaps_.total_flaps();
}

int64_t RealNode::flapped_pairs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flaps_.flapped_pairs();
}

const KvStats RealNode::KvStatsSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.kv() == nullptr ? KvStats{} : core_.kv()->stats();
}

int64_t RealNode::KvTimestampOf(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.kv() == nullptr ? 0 : core_.kv()->storage().TimestampOf(key);
}

std::vector<NodeId> RealNode::KvNaturalEndpoints(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (core_.ring().num_entries() == 0) {
    return {};
  }
  return core_.ring().NaturalEndpointsForKey(KvTokenForKey(key),
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
      if (core_.kv() != nullptr) {
        core_.kv()->HandleMessage(msg);
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
  core_.gossiper().IncrementHeartbeat();
  for (NodeId peer : core_.PickSynTargets()) {
    if (peer != kInvalidNode) {
      SendSynTo(peer);
    }
  }
  // Failure sweep, as the sim Node's gossip task does each round.
  core_.SweepFailures();
}

void RealNode::SendSynTo(NodeId peer) {
  auto syn = std::make_shared<SynPayload>();
  core_.gossiper().CopySynDigests(&syn->digests);
  transport_->Send(id_, peer, kGossipSyn, std::move(syn));
}

void RealNode::HandleSyn(const Message& msg) {
  auto syn = std::static_pointer_cast<const SynPayload>(msg.payload);
  auto ack = std::make_shared<AckPayload>();
  core_.gossiper().HandleSyn(syn->digests, &ack->requests, &ack->states);
  transport_->Send(id_, msg.from, kGossipAck, std::move(ack));
}

void RealNode::HandleAck(const Message& msg) {
  auto ack = std::static_pointer_cast<const AckPayload>(msg.payload);
  core_.gossiper().ApplyStates(ack->states);
  if (!ack->requests.empty()) {
    auto ack2 = std::make_shared<Ack2Payload>();
    core_.gossiper().StatesForRequests(ack->requests, &ack2->states);
    if (!ack2->states.empty()) {
      transport_->Send(id_, msg.from, kGossipAck2, std::move(ack2));
    }
  }
  MaybeRecalc();
}

void RealNode::HandleAck2(const Message& msg) {
  auto ack2 = std::static_pointer_cast<const Ack2Payload>(msg.payload);
  core_.gossiper().ApplyStates(ack2->states);
  MaybeRecalc();
}

void RealNode::MaybeRecalc() {
  if (!core_.ring_dirty()) {
    return;
  }
  core_.ClearRingDirty();
  if (core_.pending_changes().empty()) {
    pending_ranges_ = PendingRanges();
    return;
  }
  // Real mode computes synchronously: the calculation is real CPU on this
  // thread, which is the point — no modelled cost, just cost.
  CalcInput input;
  input.ring = &core_.ring();
  input.changes = core_.pending_changes();
  input.rf = options_.replication_factor;
  PendingRangeCalculator::RunOutcome outcome = calculator_->Run(
      input,
      /*execute_threshold_ops=*/std::numeric_limits<int64_t>::max());
  pending_ranges_ = std::move(outcome.pending);
}

}  // namespace scalecheck
