// Settled-template priming on both carriers: a node primed from the one
// SettledCluster a deployment builds must hold exactly the ring, endpoint
// table and failure-detector set it would hold had it inserted every member
// itself, and nodes primed from the same template share its app-state
// blocks — across threads on the real-socket carrier.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/net/real_clock.h"
#include "src/net/real_node.h"
#include "src/net/tcp_transport.h"
#include "src/ring/settled_cluster.h"
#include "src/ring/token_ring.h"

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

DigestValue DigestOf(const EndpointState& state) {
  Digest d;
  state.AddToDigest(&d);
  return d.Finish();
}

std::vector<Token> TokensOf(const TokenRing& ring, NodeId node) {
  TokenSpan span = ring.TokensOf(node);
  return std::vector<Token>(span.begin(), span.end());
}

// What `self` was primed with before the template existed: its own ring
// built member by member and one freshly constructed state per peer.
void ExpectPrimedMemberByMember(NodeId self, const Members& members,
                                const TokenRing& ring, const Gossiper& gossiper,
                                const PhiAccrualFailureDetector& fd) {
  TokenRing reference_ring;
  std::map<NodeId, EndpointState> reference_peers;
  for (const auto& [peer, tokens] : members) {
    reference_ring.AddNode(peer, tokens);
    if (peer == self) {
      continue;
    }
    EndpointState state(/*generation=*/1);
    VersionedValue status;
    status.version = 1;
    status.status = StatusKind::kNormal;
    status.tokens = tokens;
    state.Set(ApplicationStateKey::kStatus, status);
    reference_peers.emplace(peer, state);
  }

  EXPECT_EQ(ring.entries(), reference_ring.entries()) << "node " << self;
  EXPECT_EQ(ring.Nodes(), reference_ring.Nodes()) << "node " << self;
  for (const auto& [peer, tokens] : members) {
    EXPECT_EQ(TokensOf(ring, peer), TokensOf(reference_ring, peer));
  }
  EXPECT_EQ(ring.ComputeDigest(), reference_ring.ComputeDigest());

  ASSERT_EQ(gossiper.endpoints().size(), members.size()) << "node " << self;
  for (const auto& [ep, state] : gossiper.endpoints()) {
    if (ep == self) {
      EXPECT_EQ(state.Status(), StatusKind::kNormal);
      EXPECT_EQ(state.Tokens(), members.at(self));
      EXPECT_FALSE(fd.IsMonitoring(ep)) << "node " << self << " monitors itself";
      continue;
    }
    ASSERT_EQ(reference_peers.count(ep), 1u) << "unexpected endpoint " << ep;
    EXPECT_EQ(DigestOf(state), DigestOf(reference_peers.at(ep)))
        << "node " << self << " peer " << ep;
    EXPECT_TRUE(gossiper.IsAlive(ep));
    EXPECT_TRUE(fd.IsMonitoring(ep)) << "node " << self << " peer " << ep;
  }
}

TEST(SettledTemplateTest, SimNodesMatchMemberByMemberPriming) {
  ClusterConfig config;
  config.initial_nodes = 12;
  config.vnodes_per_node = 4;
  config.seed = 99;
  WorkloadSpec workload;
  workload.kind = WorkloadKind::kScaleOut;
  workload.joining_nodes = 2;
  Cluster::Options options;
  options.config = config;
  options.workload = workload;
  Cluster cluster(options);

  Members members = MakeMembers(config.initial_nodes, config.vnodes_per_node,
                                config.seed);
  for (NodeId id = 0; id < config.initial_nodes; ++id) {
    const Node* node = cluster.node(id);
    EXPECT_EQ(node->my_tokens(), members.at(id));
    ExpectPrimedMemberByMember(id, members, node->ring(), node->gossiper(),
                               node->failure_detector());
  }
  // Every initial member points at the template's block for a given peer.
  const VersionedValue* shared =
      cluster.node(0)->gossiper().StateOf(5)->Get(ApplicationStateKey::kStatus);
  for (NodeId id = 1; id < config.initial_nodes; ++id) {
    if (id == 5) {
      continue;
    }
    EXPECT_EQ(cluster.node(id)->gossiper().StateOf(5)->Get(
                  ApplicationStateKey::kStatus),
              shared)
        << "node " << id;
  }
  // Joiners are primed with the seeds only, not from the template.
  const Node* joiner = cluster.node(config.initial_nodes);
  EXPECT_LT(joiner->gossiper().endpoints().size(), members.size());

  // The shared blocks survive gossip: the run settles as before.
  RunResult result = cluster.Run();
  EXPECT_TRUE(result.settled) << result.Summary();
}

TEST(SettledTemplateTest, RealNodesMatchMemberByMemberPrimingAndConverge) {
  constexpr int kNodes = 5;
  Members members = MakeMembers(kNodes, /*vnodes=*/8, /*seed=*/42);
  SettledCluster settled(members);

  RealClock clock;
  TcpTransport transport;
  RealNode::Options options;
  options.seed = 42;
  options.gossip_interval = VirtualDuration::Millis(20);
  std::vector<std::unique_ptr<RealNode>> nodes;
  for (NodeId id = 0; id < kNodes; ++id) {
    nodes.push_back(std::make_unique<RealNode>(id, options, &transport, &clock));
    nodes.back()->PrimeSettled(settled);
  }

  std::vector<const VersionedValue*> peer_status;
  for (const auto& node : nodes) {
    EXPECT_EQ(node->my_tokens(), members.at(node->id()));
    node->Inspect([&](const TokenRing& ring, const Gossiper& gossiper,
                      const PhiAccrualFailureDetector& fd) {
      ExpectPrimedMemberByMember(node->id(), members, ring, gossiper, fd);
      if (node->id() != 3) {
        peer_status.push_back(
            gossiper.StateOf(3)->Get(ApplicationStateKey::kStatus));
      }
    });
  }
  ASSERT_EQ(peer_status.size(), static_cast<size_t>(kNodes - 1));
  for (const VersionedValue* status : peer_status) {
    EXPECT_EQ(status, peer_status.front());
  }

  // Each node now runs on the transport's reader threads and the timer
  // thread while holding blocks the other nodes hold too.
  for (auto& node : nodes) {
    node->Start();
  }
  auto converged = [&] {
    for (const auto& node : nodes) {
      if (!node->SeesConvergedCluster(kNodes)) {
        return false;
      }
    }
    return true;
  };
  // Let a few dozen rounds of gossip run over the shared blocks.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  bool settled_view = converged();
  for (int spins = 0; !settled_view && spins < 2000; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    settled_view = converged();
  }
  EXPECT_TRUE(settled_view);

  for (auto& node : nodes) {
    node->Stop();
  }
  clock.Shutdown();
  transport.Shutdown();
}

}  // namespace
}  // namespace scalecheck
