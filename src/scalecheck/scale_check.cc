#include "src/scalecheck/scale_check.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace scalecheck {

ClusterConfig BugSpec::MakeConfig(int n, RunMode mode, uint64_t seed) const {
  ClusterConfig cfg;
  cfg.initial_nodes = n;
  cfg.vnodes_per_node = vnodes_per_node;
  cfg.calc_version = calc_version;
  cfg.calc_placement = placement;
  cfg.run_mode = mode;
  cfg.exec_model = exec_model;
  cfg.space_oblivious_rebalance = space_oblivious_rebalance;
  cfg.guard = guard;
  cfg.replay_policy = replay_policy;
  cfg.check = check;
  cfg.seed = seed;
  if (kv_ops_per_second > 0.0) {
    cfg.enable_kv = true;
    // Under fault injection a single attempt is the wrong client model:
    // real drivers retry. Bounded retries + deadline keep the accounting
    // conservative (every request ends OK or gave-up).
    cfg.kv.max_attempts = 4;
  }
  cfg.kv.consistency = kv_consistency;
  cfg.kv.wal = kv_wal;
  cfg.kv.repair.enabled = kv_repair;
  cfg.kv.repair.interval = kv_repair_interval;
  cfg.kv.repair.rate_bytes = kv_repair_rate_bytes;
  cfg.kv.repair.max_sessions = kv_repair_max_sessions;
  return cfg;
}

FaultPlan BugSpec::MakeFaultPlan(int n, uint64_t seed) const {
  if (!custom_faults.events.empty()) {
    return custom_faults;
  }
  return FaultPlan::ByName(fault_plan, n, seed);
}

WorkloadSpec BugSpec::MakeWorkload(int n) const {
  WorkloadSpec wl;
  wl.kind = workload;
  wl.horizon = horizon;
  switch (workload) {
    case WorkloadKind::kDecommission:
      wl.target = n / 2;
      // Decommission streams the leaver's data before it announces LEFT; at
      // hundreds of nodes that takes minutes, so the LEAVING window (during
      // which every state apply re-triggers the pending-range calculation)
      // is long.
      wl.transition = VirtualDuration::Seconds(90);
      break;
    case WorkloadKind::kScaleOut:
      wl.joining_nodes = std::max(1, static_cast<int>(n * join_fraction));
      break;
    case WorkloadKind::kRebalance:
      wl.target = n / 2;
      wl.joining_nodes = 1;
      break;
    case WorkloadKind::kFailover:
      wl.target = n / 2;
      break;
    case WorkloadKind::kBootstrapFresh:
    case WorkloadKind::kSteadyState:
      break;
  }
  if (!transition_override.IsZero()) {
    wl.transition = transition_override;
  }
  return wl;
}

int RunExitCode(const RunResult& result) {
  if (result.invariants.checked && !result.invariants.ok()) {
    return 4;
  }
  if (result.fidelity.verdict == FidelityVerdict::kInvalid) {
    return 3;
  }
  return 0;
}

double RelativeFlapError(int64_t observed, int64_t reference) {
  double ref = static_cast<double>(std::max<int64_t>(reference, 1));
  return std::abs(static_cast<double>(observed) - static_cast<double>(reference)) / ref;
}

RunResult RunSingle(const BugSpec& spec, int n, RunMode mode, uint64_t seed,
                    const RunOptions& run_options) {
  Cluster::Options options;
  options.config = spec.MakeConfig(n, mode, seed);
  options.workload = spec.MakeWorkload(n);
  options.memo_store = run_options.memo_store;
  options.record_order_log = run_options.record_order_log;
  options.replay_order_log = run_options.replay_order_log;
  options.shared_output_cache = run_options.output_cache;
  options.enable_trace = run_options.enable_trace;
  options.profiler = run_options.profiler;
  options.faults = run_options.faults != nullptr ? *run_options.faults
                                                 : spec.MakeFaultPlan(n, seed);
  options.kv_ops_per_second = spec.kv_ops_per_second;
  options.kv_key_dist = spec.kv_key_dist;
  options.kv_zipf_s = spec.kv_zipf_s;
  options.wall_budget_seconds = run_options.wall_budget_seconds;
  Cluster cluster(std::move(options));
  return cluster.Run();
}

RunResult RunSingle(const BugSpec& spec, int n, RunMode mode, uint64_t seed) {
  return RunSingle(spec, n, mode, seed, RunOptions{});
}

ScaleCheckRunner::ScaleCheckRunner(BugSpec spec, uint64_t seed)
    : spec_(std::move(spec)), seed_(seed) {}

RunResult ScaleCheckRunner::RunReal(int n) {
  RunOptions options;
  options.output_cache = &cache_;
  return RunSingle(spec_, n, RunMode::kRealScale, seed_, options);
}

RunResult ScaleCheckRunner::RunColo(int n) {
  RunOptions options;
  options.output_cache = &cache_;
  return RunSingle(spec_, n, RunMode::kColocated, seed_, options);
}

ScaleCheckResult ScaleCheckRunner::RunFull(int n) {
  ScaleCheckResult result;
  result.real = RunReal(n);
  result.colo = RunColo(n);

  MemoStore store;
  OrderLog order_log;
  RunOptions memoize_options;
  memoize_options.memo_store = &store;
  memoize_options.record_order_log = enforce_order_ ? &order_log : nullptr;
  memoize_options.output_cache = &cache_;
  result.memoize = RunSingle(spec_, n, RunMode::kMemoize, seed_, memoize_options);

  RunOptions replay_options;
  replay_options.memo_store = &store;
  replay_options.replay_order_log = enforce_order_ ? &order_log : nullptr;
  replay_options.output_cache = &cache_;
  result.replay = RunSingle(spec_, n, RunMode::kPilReplay, seed_, replay_options);

  result.memo = store.stats();
  result.replay_flap_error = RelativeFlapError(result.replay.flaps, result.real.flaps);
  result.colo_flap_error = RelativeFlapError(result.colo.flaps, result.real.flaps);
  return result;
}

std::string ScaleCheckResult::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("real");
  real.WriteJson(&w);
  w.Key("colo");
  colo.WriteJson(&w);
  w.Key("memoize");
  memoize.WriteJson(&w);
  w.Key("replay");
  replay.WriteJson(&w);
  w.Key("memo").BeginObject();
  w.Field("records", memo.records);
  w.Field("duplicate_puts", memo.duplicate_puts);
  w.Field("determinism_violations", memo.determinism_violations);
  w.Field("lookups", memo.lookups);
  w.Field("hits", memo.hits);
  w.Field("misses", memo.misses);
  w.EndObject();
  w.Field("replay_flap_error", replay_flap_error);
  w.Field("colo_flap_error", colo_flap_error);
  w.EndObject();
  return w.str();
}

}  // namespace scalecheck
