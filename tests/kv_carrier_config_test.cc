// Both carriers build KvService from one KvConfig: a config with every field
// off its default reaches the service unchanged through the simulator's
// ClusterConfig and through RealNode::Options, and the real carrier keeps its
// shorter repair timings by default. Also pins that a node's own tokens are
// sorted on both carriers, which the ring-ownership invariant relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/kv/kv_config.h"
#include "src/net/real_clock.h"
#include "src/net/real_node.h"
#include "src/net/tcp_transport.h"
#include "src/ring/settled_cluster.h"
#include "src/ring/token_ring.h"

namespace scalecheck {
namespace {

// Every field differs from both the KvConfig default and the real carrier's
// default, so a carrier that drops or re-defaults any knob fails the
// comparison.
KvConfig AllNonDefault() {
  KvConfig kv;
  kv.consistency = KvConsistency::kAll;
  kv.timeout = VirtualDuration::Millis(1500);
  kv.max_attempts = 3;
  kv.wal = true;
  kv.wal_sync_interval = VirtualDuration::Millis(40);
  kv.hint_limit = 17;
  kv.hint_ttl = VirtualDuration::Seconds(33);
  kv.repair.enabled = true;
  kv.repair.interval = VirtualDuration::Seconds(3);
  kv.repair.rate_bytes = 12345;
  kv.repair.max_sessions = 4;
  kv.repair.session_timeout = VirtualDuration::Seconds(7);
  return kv;
}

Cluster::Options SimOptions(int n, WorkloadKind kind) {
  Cluster::Options options;
  options.config.initial_nodes = n;
  options.config.calc_version = CalcVersion::kV3C3881Fix;
  options.config.seed = 7;
  options.workload.kind = kind;
  options.workload.joining_nodes = kind == WorkloadKind::kScaleOut ? 2 : 0;
  options.workload.horizon = VirtualDuration::Seconds(240);
  return options;
}

// The real carrier's shared plumbing; nodes are constructed, never started.
struct RealCarrier {
  RealClock clock;
  TcpTransport transport;
};

TEST(KvCarrierConfigTest, SimNodesRunTheClusterConfig) {
  Cluster::Options options = SimOptions(4, WorkloadKind::kSteadyState);
  options.config.enable_kv = true;
  options.config.kv = AllNonDefault();
  Cluster cluster(options);
  for (size_t i = 0; i < cluster.total_nodes(); ++i) {
    const KvService* kv = cluster.node(static_cast<NodeId>(i))->kv();
    ASSERT_NE(kv, nullptr) << "node " << i;
    EXPECT_EQ(kv->config(), AllNonDefault()) << "node " << i;
  }
}

TEST(KvCarrierConfigTest, RealNodesRunTheOptionsConfig) {
  RealCarrier carrier;
  RealNode::Options options;
  options.enable_kv = true;
  options.kv = AllNonDefault();
  RealNode node(0, options, &carrier.transport, &carrier.clock);
  ASSERT_NE(node.kv_config(), nullptr);
  EXPECT_EQ(*node.kv_config(), AllNonDefault());
}

TEST(KvCarrierConfigTest, RealDefaultsShortenOnlyTheRepairTimings) {
  KvConfig expected;
  expected.repair.interval = VirtualDuration::Seconds(2);
  expected.repair.session_timeout = VirtualDuration::Seconds(5);
  EXPECT_EQ(RealNode::Options().kv, expected);

  RealCarrier carrier;
  RealNode::Options options;
  options.enable_kv = true;
  RealNode node(0, options, &carrier.transport, &carrier.clock);
  ASSERT_NE(node.kv_config(), nullptr);
  EXPECT_EQ(*node.kv_config(), expected);
}

TEST(KvCarrierConfigTest, NodeTokensAreSortedOnBothCarriers) {
  // Sim: settled members and joiners that generate their tokens at boot.
  Cluster cluster(SimOptions(6, WorkloadKind::kScaleOut));
  RunResult result = cluster.Run();
  ASSERT_TRUE(result.settled) << result.Summary();
  ASSERT_EQ(cluster.total_nodes(), 8u);
  for (size_t i = 0; i < cluster.total_nodes(); ++i) {
    const std::vector<Token>& tokens =
        cluster.node(static_cast<NodeId>(i))->my_tokens();
    EXPECT_FALSE(tokens.empty()) << "node " << i;
    EXPECT_TRUE(std::is_sorted(tokens.begin(), tokens.end())) << "node " << i;
  }

  // Real: a node primed from the settled template and one primed from seeds.
  std::map<NodeId, std::vector<Token>> members;
  for (NodeId id = 0; id < 3; ++id) {
    members[id] = GenerateTokens(id, /*count=*/8, /*seed=*/7);
  }
  SettledCluster settled(members);
  RealCarrier carrier;
  RealNode::Options options;
  options.seed = 7;
  RealNode primed(0, options, &carrier.transport, &carrier.clock);
  primed.PrimeSettled(settled);
  RealNode joiner(3, options, &carrier.transport, &carrier.clock);
  joiner.PrimeSeeds(members);
  for (const RealNode* node : {&primed, &joiner}) {
    const std::vector<Token>& tokens = node->my_tokens();
    EXPECT_EQ(tokens.size(), 8u) << "node " << node->id();
    EXPECT_TRUE(std::is_sorted(tokens.begin(), tokens.end()))
        << "node " << node->id();
  }
}

}  // namespace
}  // namespace scalecheck
