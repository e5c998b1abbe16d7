// NodeCore: the protocol reactions both carriers share. The first case drives
// one core through a peer's whole membership lifecycle plus a conviction and
// a rescue; the second builds a sim Node and a real-socket RealNode from one
// settled template and checks that the same applied states leave both cores
// with the same ring, pending changes and ring-dirty flag.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/cluster/node.h"
#include "src/net/real_clock.h"
#include "src/net/real_node.h"
#include "src/net/tcp_transport.h"
#include "src/node/node_core.h"
#include "src/ring/settled_cluster.h"
#include "src/sim/machine.h"
#include "src/sim/simulator.h"
#include "src/transport/sim_substrate.h"

namespace scalecheck {
namespace {

using Members = std::map<NodeId, std::vector<Token>>;

Members MakeMembers(int n, int vnodes, uint64_t seed) {
  Members members;
  for (NodeId id = 0; id < n; ++id) {
    members[id] = GenerateTokens(id, vnodes, seed);
  }
  return members;
}

// Time only moves when the test says so; no timer ever fires.
class ManualClock final : public Clock {
 public:
  VirtualTime Now() const override { return now_; }
  TimerId ScheduleAfter(VirtualDuration, EventFn) override { return kInvalidTimer; }
  bool CancelTimer(TimerId) override { return false; }
  void AdvanceTo(VirtualDuration since_zero) { now_ = VirtualTime::Zero() + since_zero; }

 private:
  VirtualTime now_ = VirtualTime::Zero();
};

// One peer's state as gossip would deliver it: heartbeat `beat` under
// `generation`, plus STATUS `status` at version `status_version` when given.
EndpointStateMap PeerState(NodeId peer, int64_t generation, int64_t beat,
                           StatusKind status = StatusKind::kUnknown,
                           int64_t status_version = 0,
                           const std::vector<Token>& tokens = {}) {
  EndpointState state(generation);
  state.mutable_heartbeat().version = beat;
  if (status != StatusKind::kUnknown) {
    VersionedValue value;
    value.version = status_version;
    value.status = status;
    value.tokens = tokens;
    state.Set(ApplicationStateKey::kStatus, value);
  }
  EndpointStateMap states;
  states.emplace(peer, state);
  return states;
}

std::vector<TraceKind> KindsOf(const TraceRecorder& trace) {
  std::vector<TraceKind> kinds;
  for (const TraceEntry& entry : trace.Tail()) {
    kinds.push_back(entry.kind);
  }
  return kinds;
}

TEST(NodeCoreTest, ReactsToAPeersLifecycleAConvictionAndARescue) {
  constexpr int kVnodes = 4;
  const Members members = MakeMembers(4, kVnodes, /*seed=*/7);
  const SettledCluster settled(members);
  const std::vector<Token> joiner_tokens = GenerateTokens(4, kVnodes, /*seed=*/7);

  ManualClock clock;
  FlapCounter flaps;
  TraceRecorder trace;
  int pending_changed = 0;
  NodeCore core(/*self=*/0, /*seed=*/11, &clock, &flaps, &trace,
                PhiAccrualFailureDetector::Config{}, /*replication_factor=*/3, kVnodes,
                /*token_seed=*/7, /*plant_left_join_bug=*/false,
                [&pending_changed] { ++pending_changed; });
  core.PrimeSettled(settled);
  EXPECT_TRUE(core.IsUnmonitored(0));
  EXPECT_FALSE(core.ring_dirty());
  EXPECT_EQ(core.ring().num_nodes(), 4u);

  // Peers 2 and 3 heartbeat every second; peer 1 goes silent after t=0.
  int64_t beat = 1;
  auto tick = [&](int second) {
    clock.AdvanceTo(VirtualDuration::Seconds(second));
    ++beat;
    for (NodeId peer : {2, 3}) {
      core.gossiper().ApplyStates(PeerState(peer, /*generation=*/1, beat));
    }
  };
  auto apply = [&](const EndpointStateMap& states) { core.gossiper().ApplyStates(states); };

  // BOOT: a pending join.
  tick(1);
  apply(PeerState(4, 1, 1, StatusKind::kBootstrapping, 2, joiner_tokens));
  const std::vector<PendingChange> joining = {{4, ChangeKind::kJoining, joiner_tokens}};
  EXPECT_EQ(core.pending_changes(), joining);
  EXPECT_TRUE(core.ring_dirty());
  EXPECT_EQ(pending_changed, 1);
  EXPECT_TRUE(core.gossiper().IsAlive(4));
  EXPECT_FALSE(core.IsUnmonitored(4));

  // A bare heartbeat of the pending endpoint dirties the ring again.
  core.ClearRingDirty();
  tick(2);
  apply(PeerState(4, 1, 3));
  EXPECT_TRUE(core.ring_dirty());
  EXPECT_EQ(core.pending_changes(), joining);

  // The joiner restarts and re-announces BOOT: the change is not added twice.
  tick(3);
  apply(PeerState(4, 2, 1));
  apply(PeerState(4, 2, 2, StatusKind::kBootstrapping, 3, joiner_tokens));
  EXPECT_EQ(core.pending_changes(), joining);
  EXPECT_EQ(pending_changed, 1);

  // NORMAL: the joiner owns its tokens and nothing is pending.
  tick(4);
  apply(PeerState(4, 2, 4, StatusKind::kNormal, 5, joiner_tokens));
  EXPECT_TRUE(core.ring().HasNode(4));
  EXPECT_EQ(core.ring().num_nodes(), 5u);
  EXPECT_TRUE(core.pending_changes().empty());
  EXPECT_EQ(pending_changed, 2);

  // LEAVING: a pending leave.
  tick(5);
  apply(PeerState(4, 2, 6, StatusKind::kLeaving, 7, joiner_tokens));
  const std::vector<PendingChange> leaving = {{4, ChangeKind::kLeaving, {}}};
  EXPECT_EQ(core.pending_changes(), leaving);
  EXPECT_EQ(pending_changed, 3);

  // LEFT: out of the ring, dead, and no longer monitored.
  tick(6);
  apply(PeerState(4, 2, 8, StatusKind::kLeft, 9, joiner_tokens));
  EXPECT_FALSE(core.ring().HasNode(4));
  EXPECT_EQ(core.ring().num_nodes(), 4u);
  EXPECT_TRUE(core.pending_changes().empty());
  EXPECT_EQ(pending_changed, 4);
  EXPECT_TRUE(core.IsUnmonitored(4));
  EXPECT_FALSE(core.gossiper().IsAlive(4));
  EXPECT_FALSE(core.failure_detector().IsMonitoring(4));

  // Forty silent seconds convict peer 1 and only peer 1.
  for (int second = 7; second <= 40; ++second) {
    tick(second);
  }
  core.SweepFailures();
  EXPECT_FALSE(core.gossiper().IsAlive(1));
  EXPECT_TRUE(core.gossiper().IsAlive(2));
  EXPECT_TRUE(core.gossiper().IsAlive(3));
  EXPECT_EQ(flaps.total_flaps(), 1);
  EXPECT_EQ(flaps.flapped_pairs(), 1);

  // Its next heartbeat rescues it.
  clock.AdvanceTo(VirtualDuration::Seconds(41));
  apply(PeerState(1, 1, 2));
  EXPECT_TRUE(core.gossiper().IsAlive(1));
  EXPECT_EQ(flaps.total_flaps(), 1);
  EXPECT_EQ(flaps.downtime_seconds().count(), 1);

  const std::vector<TraceKind> expected_trace = {
      TraceKind::kStatusChange,  // BOOT
      TraceKind::kStatusChange,  // restart: no STATUS yet
      TraceKind::kStatusChange,  // BOOT again
      TraceKind::kStatusChange,  // NORMAL
      TraceKind::kStatusChange,  // LEAVING
      TraceKind::kStatusChange,  // LEFT
      TraceKind::kConviction,    // peer 1
      TraceKind::kRescue,        // peer 1
  };
  EXPECT_EQ(KindsOf(trace), expected_trace);
}

// Ring digest, pending changes and dirty flag of both carriers' cores agree.
void ExpectSameView(const NodeCore& sim, const NodeCore& real) {
  EXPECT_EQ(sim.ring().ComputeDigest(), real.ring().ComputeDigest());
  EXPECT_EQ(sim.pending_changes(), real.pending_changes());
  EXPECT_EQ(sim.ring_dirty(), real.ring_dirty());
  EXPECT_EQ(sim.my_tokens(), real.my_tokens());
  EXPECT_EQ(sim.gossiper().endpoints().size(), real.gossiper().endpoints().size());
}

TEST(NodeCoreTest, SimAndRealCarriersBuildIdenticalCores) {
  constexpr int kVnodes = 8;
  constexpr uint64_t kSeed = 42;
  const SettledCluster settled(MakeMembers(4, kVnodes, kSeed));
  const std::vector<Token> joiner_tokens = GenerateTokens(4, kVnodes, kSeed);

  ClusterConfig config;
  config.vnodes_per_node = kVnodes;
  config.seed = kSeed;
  Simulator sim(kSeed);
  Machine machine(&sim, /*id=*/0, config.machine_spec);
  SimClock sim_clock(&sim);
  FlapCounter sim_flaps;
  Node::Env env;
  env.sim = &sim;
  env.clock = &sim_clock;
  env.flaps = &sim_flaps;
  env.config = &config;
  Node sim_node(&env, /*id=*/0, &machine, /*seed=*/kSeed);
  sim_node.PrimeSettled(settled);

  RealClock real_clock;
  TcpTransport transport;
  RealNode::Options options;
  options.seed = kSeed;
  options.vnodes_per_node = kVnodes;
  RealNode real_node(/*id=*/0, options, &transport, &real_clock);
  real_node.PrimeSettled(settled);

  // Applies `states` to both cores, optionally after a calculation has taken
  // the dirty flag, then compares them.
  auto both = [&](const EndpointStateMap& states, bool clear_dirty_first) {
    if (clear_dirty_first) {
      sim_node.core().ClearRingDirty();
    }
    sim_node.core().gossiper().ApplyStates(states);
    real_node.WithCore([&](NodeCore& real) {
      if (clear_dirty_first) {
        real.ClearRingDirty();
      }
      real.gossiper().ApplyStates(states);
      ExpectSameView(sim_node.core(), real);
    });
  };

  both(EndpointStateMap(), /*clear_dirty_first=*/false);  // primed alike
  both(PeerState(4, 1, 1, StatusKind::kBootstrapping, 2, joiner_tokens),
       /*clear_dirty_first=*/false);
  EXPECT_TRUE(sim_node.core().ring_dirty());
  ASSERT_EQ(sim_node.pending_changes().size(), 1u);

  // The heartbeat of a pending endpoint dirties the ring on both carriers.
  both(PeerState(4, 1, 3), /*clear_dirty_first=*/true);
  real_node.WithCore([](NodeCore& real) { EXPECT_TRUE(real.ring_dirty()); });
}

}  // namespace
}  // namespace scalecheck
