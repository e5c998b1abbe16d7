// Property sweep: gossip convergence from scratch must hold across cluster
// sizes and message-loss rates — the anti-entropy protocol's job.

#include <gtest/gtest.h>

#include "src/cluster/cluster.h"

namespace scalecheck {
namespace {

// No padding bytes: ctest names each case after gtest's byte dump of the
// parameter, so padding would leak stack garbage into the test names.
struct ConvergenceCase {
  int64_t nodes;
  double loss;
  uint64_t seed;
};

class ConvergenceTest : public ::testing::TestWithParam<ConvergenceCase> {};

TEST_P(ConvergenceTest, FreshBootstrapConverges) {
  const ConvergenceCase& c = GetParam();
  ClusterConfig config;
  config.initial_nodes = static_cast<int>(c.nodes);
  config.calc_version = CalcVersion::kV3C3881Fix;
  config.run_mode = RunMode::kRealScale;
  config.seed = c.seed;

  WorkloadSpec wl;
  wl.kind = WorkloadKind::kBootstrapFresh;
  wl.horizon = VirtualDuration::Seconds(300);

  Cluster::Options options;
  options.config = config;
  options.workload = wl;
  options.network.loss_probability = c.loss;
  Cluster cluster(std::move(options));
  RunResult r = cluster.Run();

  ASSERT_TRUE(r.settled) << r.Summary();
  for (size_t i = 0; i < cluster.total_nodes(); ++i) {
    Node* node = cluster.node(static_cast<NodeId>(i));
    EXPECT_EQ(node->gossiper().endpoints().size(), cluster.total_nodes())
        << "node " << i << " endpoint map incomplete";
    EXPECT_EQ(node->ring().num_nodes(), cluster.total_nodes())
        << "node " << i << " ring incomplete";
    // All rings must agree exactly.
    EXPECT_EQ(node->ring().ComputeDigest(), cluster.node(0)->ring().ComputeDigest())
        << "node " << i << " ring diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConvergenceTest,
    ::testing::Values(ConvergenceCase{6, 0.0, 1}, ConvergenceCase{12, 0.0, 2},
                      ConvergenceCase{20, 0.0, 3}, ConvergenceCase{12, 0.05, 4},
                      ConvergenceCase{12, 0.15, 5}, ConvergenceCase{8, 0.25, 6}));

}  // namespace
}  // namespace scalecheck
