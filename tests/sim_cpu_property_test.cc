// Property tests for the fluid processor-sharing CPU model under randomized
// workloads: work conservation, completion-order sanity, and throughput
// bounds. These are the invariants the whole Figure 3 comparison stands on.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/cpu_model.h"

namespace scalecheck {
namespace {

// No padding bytes: ctest names each case after gtest's byte dump of the
// parameter, so padding would leak stack garbage into the test names.
struct CpuCase {
  double cores;
  double penalty;
  int64_t tasks;
  uint64_t seed;
};

class CpuPropertyTest : public ::testing::TestWithParam<CpuCase> {};

TEST_P(CpuPropertyTest, WorkIsConservedAndThroughputBounded) {
  const CpuCase& c = GetParam();
  Simulator sim(1);
  CpuModel::Config cfg;
  cfg.cores = c.cores;
  cfg.speed = 1e9;
  cfg.ctx_switch_penalty = c.penalty;
  CpuModel cpu(&sim, cfg);

  Rng rng(c.seed);
  WorkUnits total_work = 0;
  int done = 0;
  // Random arrivals over 10 virtual seconds.
  for (int i = 0; i < c.tasks; ++i) {
    WorkUnits work = rng.UniformInt(1000, 500'000'000);
    total_work += work;
    VirtualDuration at = VirtualDuration::Nanos(rng.UniformInt(0, 10'000'000'000));
    sim.ScheduleAt(VirtualTime::Zero() + at, [&cpu, &done, work] {
      cpu.StartTask(work, [&done] { ++done; });
    });
  }
  sim.RunUntilIdle();
  EXPECT_EQ(done, c.tasks);
  EXPECT_EQ(cpu.active_count(), 0);

  // Conservation: busy_core_seconds counts core *occupancy*. Without a
  // context-switch penalty occupancy equals the submitted work exactly; with
  // one, cores burn extra occupancy switching, so occupancy >= useful work.
  double submitted_seconds = static_cast<double>(total_work) / cfg.speed;
  EXPECT_GE(cpu.busy_core_seconds(), submitted_seconds * 0.9999);
  if (c.penalty == 0.0) {
    EXPECT_NEAR(cpu.busy_core_seconds(), submitted_seconds, submitted_seconds * 1e-6);
  }

  // Throughput bound: the run cannot finish faster than perfect parallelism
  // allows (total work / cores), nor faster than the longest single task.
  double elapsed = sim.Now().seconds();
  EXPECT_GE(elapsed * cfg.cores * cfg.speed, static_cast<double>(total_work) * 0.999);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, CpuPropertyTest,
    ::testing::Values(CpuCase{1, 0.0, 20, 11}, CpuCase{1, 0.1, 20, 12},
                      CpuCase{4, 0.0, 50, 13}, CpuCase{4, 0.05, 50, 14},
                      CpuCase{16, 0.03, 120, 15}, CpuCase{2, 0.0, 3, 16},
                      CpuCase{16, 0.0, 200, 17}));

TEST(CpuOrderProperty, EqualStartEqualWorkFinishTogether) {
  Simulator sim(1);
  CpuModel cpu(&sim, CpuModel::Config{2.0, 1e9, 0.0});
  std::vector<double> finish;
  for (int i = 0; i < 6; ++i) {
    cpu.StartTask(600'000'000, [&finish, &sim] { finish.push_back(sim.Now().seconds()); });
  }
  sim.RunUntilIdle();
  ASSERT_EQ(finish.size(), 6u);
  for (double f : finish) {
    EXPECT_NEAR(f, finish[0], 1e-6);  // PS: identical tasks tie
  }
  // 6 tasks x 0.6s on 2 cores = 1.8 core-seconds each... total 3.6 / 2 = 1.8s.
  EXPECT_NEAR(finish[0], 1.8, 1e-5);
}

TEST(CpuOrderProperty, ShorterTasksNeverFinishAfterLongerOnesStartedTogether) {
  Simulator sim(1);
  CpuModel cpu(&sim, CpuModel::Config{1.0, 1e9, 0.0});
  std::vector<std::pair<WorkUnits, double>> finish;
  std::vector<WorkUnits> works = {100'000'000, 400'000'000, 200'000'000, 50'000'000};
  for (WorkUnits w : works) {
    cpu.StartTask(w, [&finish, &sim, w] { finish.emplace_back(w, sim.Now().seconds()); });
  }
  sim.RunUntilIdle();
  ASSERT_EQ(finish.size(), works.size());
  for (size_t i = 1; i < finish.size(); ++i) {
    EXPECT_LE(finish[i - 1].first, finish[i].first) << "completion not by work order";
  }
}

}  // namespace
}  // namespace scalecheck
