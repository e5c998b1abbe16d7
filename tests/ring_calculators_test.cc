// The calculator equivalence and cost-model property suite.
//
// Invariants:
//  1. Every generation produces output identical to the reference oracle for
//     every (ring size, vnodes, change pattern) — the bugs are about time,
//     never results.
//  2. ModelOps predicts Execute's counted ops (the cost models that drive
//     virtual-time charging are pinned to the real loop nests).
//  3. Run() switches between real execution and modelled cost at the
//     threshold without changing output.

#include <gtest/gtest.h>

#include <memory>

#include "src/ring/calc_internal.h"
#include "src/ring/calculators.h"

namespace scalecheck {
namespace {

// No padding bytes (joining is 64-bit to fill the gap before the double):
// ctest names each case after gtest's byte dump of the parameter, so padding
// would leak stack garbage into the test names.
struct CalcCase {
  CalcVersion version;
  int nodes;
  int vnodes;
  int leaving;
  int64_t joining;
  double model_tolerance;  // relative tolerance for ModelOps vs Execute ops
};

std::string CaseName(const ::testing::TestParamInfo<CalcCase>& info) {
  const CalcCase& c = info.param;
  std::string name = CalcVersionName(c.version);
  for (char& ch : name) {
    if (ch == '-' || ch == '/') {
      ch = '_';
    }
  }
  return name + "_n" + std::to_string(c.nodes) + "_p" + std::to_string(c.vnodes) +
         "_l" + std::to_string(c.leaving) + "_j" + std::to_string(c.joining);
}

CalcInput BuildInput(const CalcCase& c, TokenRing* ring) {
  for (NodeId id = 0; id < c.nodes; ++id) {
    ring->AddNode(id, GenerateTokens(id, c.vnodes, 4242));
  }
  CalcInput input;
  input.ring = ring;
  input.rf = 3;
  for (int l = 0; l < c.leaving; ++l) {
    input.changes.push_back(PendingChange{l, ChangeKind::kLeaving, {}});
  }
  for (int j = 0; j < c.joining; ++j) {
    NodeId id = c.nodes + j;
    input.changes.push_back(
        PendingChange{id, ChangeKind::kJoining, GenerateTokens(id, c.vnodes, 4242)});
  }
  return input;
}

class CalculatorEquivalence : public ::testing::TestWithParam<CalcCase> {};

TEST_P(CalculatorEquivalence, OutputMatchesReference) {
  const CalcCase& c = GetParam();
  TokenRing ring;
  CalcInput input = BuildInput(c, &ring);
  CalcResult expected = ComputeReferencePendingRanges(input);
  auto calc = MakeCalculator(c.version);
  CalcResult actual = calc->Execute(input);
  EXPECT_EQ(actual.pending, expected.pending)
      << calc->name() << ": " << actual.pending.size() << " vs "
      << expected.pending.size() << " pending entries";
}

TEST_P(CalculatorEquivalence, ModelOpsTracksExecuteOps) {
  const CalcCase& c = GetParam();
  TokenRing ring;
  CalcInput input = BuildInput(c, &ring);
  auto calc = MakeCalculator(c.version);
  CalcResult executed = calc->Execute(input);
  int64_t modelled = calc->ModelOps(input);
  ASSERT_GT(executed.ops, 0);
  ASSERT_GT(modelled, 0);
  double ratio = static_cast<double>(modelled) / static_cast<double>(executed.ops);
  EXPECT_GE(ratio, 1.0 - c.model_tolerance)
      << calc->name() << " modelled=" << modelled << " executed=" << executed.ops;
  EXPECT_LE(ratio, 1.0 + c.model_tolerance)
      << calc->name() << " modelled=" << modelled << " executed=" << executed.ops;
}

TEST_P(CalculatorEquivalence, RunModelledPathProducesSameOutput) {
  const CalcCase& c = GetParam();
  TokenRing ring;
  CalcInput input = BuildInput(c, &ring);
  auto calc = MakeCalculator(c.version);
  PendingRangeCalculator::RunOutcome real = calc->Run(input, /*threshold=*/INT64_MAX);
  PendingRangeCalculator::RunOutcome modelled = calc->Run(input, /*threshold=*/0);
  EXPECT_TRUE(real.executed);
  EXPECT_FALSE(modelled.executed);
  EXPECT_EQ(real.pending, modelled.pending);
  EXPECT_GT(modelled.work, 0);
}

std::vector<CalcCase> AllCases() {
  std::vector<CalcCase> cases;
  for (CalcVersion version :
       {CalcVersion::kReference, CalcVersion::kV1PreC3831, CalcVersion::kV2C3831Fix,
        CalcVersion::kV3C3881Fix, CalcVersion::kBootstrapC6127}) {
    // Tolerances: V1/V2 counting is near-exact; V3's walk lengths and the
    // bootstrap path's insert scans are approximated.
    double tol = 0.25;
    if (version == CalcVersion::kV3C3881Fix) {
      tol = 0.5;
    }
    if (version == CalcVersion::kBootstrapC6127 || version == CalcVersion::kReference) {
      tol = 0.6;
    }
    for (auto [n, p] : {std::pair{4, 1}, {9, 1}, {16, 1}, {6, 4}, {12, 8}}) {
      cases.push_back({version, n, p, 1, 0, tol});   // one leaving
      cases.push_back({version, n, p, 0, 1, tol});   // one joining
      cases.push_back({version, n, p, 2, 2, tol});   // mixed churn
      cases.push_back({version, n, p, 0, 3, tol});   // multi-join
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Generations, CalculatorEquivalence,
                         ::testing::ValuesIn(AllCases()), CaseName);

TEST(CalculatorEdgeCases, EmptyRingFreshBootstrap) {
  TokenRing empty;
  CalcInput input;
  input.ring = &empty;
  input.rf = 3;
  for (NodeId id = 0; id < 6; ++id) {
    input.changes.push_back(
        PendingChange{id, ChangeKind::kJoining, GenerateTokens(id, 4, 7)});
  }
  CalcResult expected = ComputeReferencePendingRanges(input);
  EXPECT_FALSE(expected.pending.empty());
  for (CalcVersion version :
       {CalcVersion::kV1PreC3831, CalcVersion::kV2C3831Fix, CalcVersion::kV3C3881Fix,
        CalcVersion::kBootstrapC6127}) {
    auto calc = MakeCalculator(version);
    EXPECT_EQ(calc->Execute(input).pending, expected.pending) << calc->name();
  }
}

TEST(CalculatorEdgeCases, NoChangesMeansNoPendingRanges) {
  TokenRing ring;
  ring.AddNode(1, {100});
  ring.AddNode(2, {200});
  ring.AddNode(3, {300});
  CalcInput input;
  input.ring = &ring;
  input.rf = 2;
  for (CalcVersion version :
       {CalcVersion::kReference, CalcVersion::kV3C3881Fix,
        CalcVersion::kBootstrapC6127}) {
    auto calc = MakeCalculator(version);
    EXPECT_TRUE(calc->Execute(input).pending.empty()) << calc->name();
  }
}

TEST(CalculatorEdgeCases, LeavingUnknownNodeIsIgnored) {
  TokenRing ring;
  ring.AddNode(1, {100});
  ring.AddNode(2, {200});
  ring.AddNode(3, {300});
  CalcInput input;
  input.ring = &ring;
  input.rf = 2;
  input.changes.push_back(PendingChange{99, ChangeKind::kLeaving, {}});
  CalcResult expected = ComputeReferencePendingRanges(input);
  for (CalcVersion version : {CalcVersion::kV1PreC3831, CalcVersion::kV3C3881Fix}) {
    auto calc = MakeCalculator(version);
    EXPECT_EQ(calc->Execute(input).pending, expected.pending) << calc->name();
  }
}

TEST(CalculatorEdgeCases, WholeClusterLeavingButRfSurvivors) {
  TokenRing ring;
  for (NodeId id = 0; id < 8; ++id) {
    ring.AddNode(id, GenerateTokens(id, 2, 55));
  }
  CalcInput input;
  input.ring = &ring;
  input.rf = 3;
  for (NodeId id = 3; id < 8; ++id) {
    input.changes.push_back(PendingChange{id, ChangeKind::kLeaving, {}});
  }
  CalcResult expected = ComputeReferencePendingRanges(input);
  EXPECT_FALSE(expected.pending.empty());
  for (CalcVersion version :
       {CalcVersion::kV1PreC3831, CalcVersion::kV2C3831Fix, CalcVersion::kV3C3881Fix,
        CalcVersion::kBootstrapC6127}) {
    auto calc = MakeCalculator(version);
    EXPECT_EQ(calc->Execute(input).pending, expected.pending) << calc->name();
  }
}

TEST(CalculatorCostShape, V1GrowsMuchFasterThanV3) {
  auto v1 = MakeCalculator(CalcVersion::kV1PreC3831);
  auto v3 = MakeCalculator(CalcVersion::kV3C3881Fix);
  auto ops_at = [&](PendingRangeCalculator* calc, int n) {
    TokenRing ring;
    CalcCase c{calc->version(), n, 1, 1, 0, 0};
    CalcInput input = BuildInput(c, &ring);
    return calc->ModelOps(input);
  };
  double v1_growth = static_cast<double>(ops_at(v1.get(), 64)) /
                     static_cast<double>(ops_at(v1.get(), 16));
  double v3_growth = static_cast<double>(ops_at(v3.get(), 64)) /
                     static_cast<double>(ops_at(v3.get(), 16));
  // 4x nodes: V1 (cubic-ish) should grow ~64x, V3 (E log E) ~5x.
  EXPECT_GT(v1_growth, 40.0);
  EXPECT_LT(v3_growth, 10.0);
}

TEST(CalcInputDigest, SensitiveToRingAndChanges) {
  TokenRing ring;
  ring.AddNode(1, {100});
  ring.AddNode(2, {200});
  CalcInput a;
  a.ring = &ring;
  a.rf = 3;
  a.changes.push_back(PendingChange{1, ChangeKind::kLeaving, {}});
  DigestValue da = a.ComputeDigest();

  CalcInput b = a;
  b.rf = 2;
  EXPECT_NE(b.ComputeDigest(), da);

  CalcInput c = a;
  c.changes[0].kind = ChangeKind::kJoining;
  c.changes[0].tokens = {50};
  EXPECT_NE(c.ComputeDigest(), da);

  TokenRing ring2;
  ring2.AddNode(1, {100});
  ring2.AddNode(2, {201});
  CalcInput d = a;
  d.ring = &ring2;
  EXPECT_NE(d.ComputeDigest(), da);

  // Identical content digests identically.
  CalcInput e = a;
  EXPECT_EQ(e.ComputeDigest(), da);
}

}  // namespace
}  // namespace scalecheck
