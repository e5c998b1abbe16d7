// Benchmark binary: runs ONE iteration of one named workload in this process,
// single-threaded (jobs=1), timing calls into libscalecheck's public API from
// outside, and prints one JSON line for perfbench/run.py to aggregate.
//
//   scalecheck_bench --workload=NAME --seed=N [--trace-out=FILE]
//
// Untraced (the default) it reports the end-to-end figures: the workload's
// host wall time, set-up samples (the workload's deployments constructed and
// destroyed without running, repeated for kSetupSeconds after the timed
// iteration), and peak RSS — plus the output checks and the determinism
// record (an FNV-1a hash of every simulation's RunResult JSON minus its
// profile, and deterministic counters).
//
// With --trace-out it runs the traced variant of the same iteration: a span
// around every call into a layer, SimProfilers on the deployments it launches
// itself, and timed calls into layer entry points at sizes taken from the
// workload. Spans are kept in memory and written to FILE as Chrome
// trace-event JSON at the end; the per-layer metrics go to stdout.
//
// Workloads (see BENCHMARK.json for why each was chosen):
//   colo-probe    §8 colocation-limit probe, N=512, RunSingle
//   fig3-c5456    Figure-3 four-mode comparison for C5456, N=96, ExperimentSuite
//   kv-chaos      C3831-fixed steady state + QUORUM KV, WAL, repair,
//                 crash-restart, N=64, RunSingle
//   chaos-search  FaultSearch over C3831 with the planted left-join bug, N=32,
//                 budget 64, then ReplayRepro of the minimized artifact

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/faults/fault_search.h"
#include "src/gossip/digest_codec.h"
#include "src/gossip/failure_detector.h"
#include "src/kv/merkle.h"
#include "src/kv/wal.h"
#include "src/pil/memo_store.h"
#include "src/ring/calculators.h"
#include "src/ring/token_ring.h"
#include "src/scalecheck/bug_catalog.h"
#include "src/scalecheck/experiment_suite.h"
#include "src/scalecheck/scale_check.h"
#include "src/sim/event_queue.h"
#include "src/sim/fidelity_guard.h"
#include "src/sim/profiler.h"

namespace scalecheck {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- Workload shapes ---------------------------------------------------------
// Sizes keep one iteration to a few host seconds. N=1024 probes and N=128
// Figure-3 cells cost 3-4x more without exercising another layer; below N=96
// the Colo deployment of C5456 no longer flaps, so the Figure-3 shape (and its
// check) would be lost.

constexpr int kProbeNodes = 512;
constexpr int kFig3Nodes = 96;
constexpr int kKvNodes = 64;
constexpr int kKvHorizonSeconds = 150;  // crash ~60s, restart +25s, then repair
constexpr double kKvOpsPerSecond = 1000.0;
constexpr int kSearchNodes = 32;
constexpr int kSearchBudget = 64;
constexpr size_t kMaxReproEvents = 3;

// Set-up is sampled for this long after the timed iteration. Host speed
// drifts in spells of a second or more, so the median of many samples spread
// over seconds is steadier from run to run than a few samples; one
// chaos-search sample costs about 40 ms, a kv-chaos one about 2.5 ms, a
// colo-probe one about 0.15 s.
constexpr double kSetupSeconds = 2.0;

// The perf_simcore probe: SEDA single process, V3 calculator, 1 vnode,
// scale-out by N/32, 120 s horizon, colocated.
BugSpec ProbeSpec() {
  BugSpec spec;
  spec.id = "perf-probe-seda";
  spec.description = "simulation-core perf probe (§8 colocation limit)";
  spec.calc_version = CalcVersion::kV3C3881Fix;
  spec.placement = CalcPlacement::kInlineGossipStage;
  spec.vnodes_per_node = 1;
  spec.workload = WorkloadKind::kScaleOut;
  spec.join_fraction = 1.0 / 32;
  spec.horizon = VirtualDuration::Seconds(120);
  spec.transition_override = VirtualDuration::Seconds(20);
  spec.exec_model = ExecModel::kSedaSingleProcess;
  return spec;
}

BugSpec KvChaosSpec() {
  BugSpec spec = BugCatalog::Get("C3831-fixed");
  spec.workload = WorkloadKind::kSteadyState;
  spec.horizon = VirtualDuration::Seconds(kKvHorizonSeconds);
  spec.fault_plan = "crash-restart";
  spec.kv_ops_per_second = kKvOpsPerSecond;
  spec.kv_consistency = KvConsistency::kQuorum;
  spec.kv_wal = true;
  spec.kv_repair = true;
  return spec;
}

BugSpec SearchSpec() {
  BugSpec spec = BugCatalog::Get("C3831");
  spec.check.plant_left_join_bug = true;
  return spec;
}

const RunMode kFig3Modes[] = {RunMode::kRealScale, RunMode::kColocated,
                              RunMode::kMemoize, RunMode::kPilReplay};

// fig3-c5456 always simulates the suite's default seed, the one the Figure-3
// benches and the CLI use. Its cost is chaotic in the simulation seed: over
// seeds 11-15 one iteration took 13.7-18.8 s and 172-202 MiB, because the
// number of SC+PIL replay misses the shared CalcOutputCache cannot serve (and
// that therefore run the V3 calculator for real) varies threefold. A run's
// --seed only feeds the layer probes' random inputs there.
constexpr uint64_t kFig3Seed = kDefaultSuiteSeed;

// ---- Spans -------------------------------------------------------------------

// In-memory span recorder; disabled (no clock reads) in untraced runs.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  // Opens a span nested under the innermost open one. `run` groups the spans
  // of one call into the library (one simulation or one layer probe).
  int Open(const std::string& name, int run) {
    if (!enabled_) {
      return -1;
    }
    int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, NowNs(), 0, parent, run});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void Close(int index) {
    if (index < 0) {
      return;
    }
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    open_.pop_back();
  }

  size_t size() const { return spans_.size(); }

  // Chrome trace-event format ("X" complete events, microseconds).
  std::string ChromeJson() const {
    JsonWriter w;
    w.BeginObject();
    w.Key("traceEvents").BeginArray();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.BeginObject();
      w.Field("name", s.name);
      w.Field("ph", "X");
      w.Field("pid", 1);
      w.Field("tid", 1);
      w.Field("ts", static_cast<double>(s.start_ns) / 1e3);
      w.Field("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      w.Key("args").BeginObject();
      w.Field("id", static_cast<int64_t>(i));
      w.Field("parent", s.parent);
      w.Field("run", s.run);
      w.EndObject();
      w.EndObject();
    }
    w.EndArray();
    w.Field("displayTimeUnit", "ms");
    w.EndObject();
    return w.str();
  }

 private:
  struct Span {
    std::string name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
    int run;
  };

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---- Results of one iteration -----------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

// Profiler phases and counters summed over the deployments this binary
// launched itself (traced runs only).
struct ClusterTotals {
  int runs = 0;
  double build_s = 0.0;
  double run_s = 0.0;
  double collect_s = 0.0;
  double teardown_s = 0.0;
  SimProfiler::Counters counters;

  void Add(const SimProfiler& profiler, double call_s) {
    double build = profiler.wall_nanos(SimProfiler::kPhaseBuild) * 1e-9;
    double run = profiler.wall_nanos(SimProfiler::kPhaseRun) * 1e-9;
    double collect = profiler.wall_nanos(SimProfiler::kPhaseCollect) * 1e-9;
    ++runs;
    build_s += build;
    run_s += run;
    collect_s += collect;
    teardown_s += std::max(0.0, call_s - build - run - collect);
    const SimProfiler::Counters& c = profiler.counters();
    counters.events_executed += c.events_executed;
    counters.events_cancelled += c.events_cancelled;
    counters.event_slot_high_water =
        std::max(counters.event_slot_high_water, c.event_slot_high_water);
    counters.messages_sent += c.messages_sent;
    counters.gossip_syn_handled += c.gossip_syn_handled;
    counters.gossip_states_applied += c.gossip_states_applied;
    counters.digest_entries_refreshed += c.digest_entries_refreshed;
    counters.gossip_digest_bytes_sent += c.gossip_digest_bytes_sent;
    counters.gossip_arena_bytes = std::max(counters.gossip_arena_bytes, c.gossip_arena_bytes);
    counters.endpoint_store_bytes =
        std::max(counters.endpoint_store_bytes, c.endpoint_store_bytes);
  }
};

struct Iteration {
  uint64_t seed = 0;
  bool traced = false;
  SpanRecorder spans{false};
  int next_run = 0;

  double wall_s = 0.0;
  int sims = 0;
  int failed_sims = 0;
  std::vector<Check> checks;
  std::map<std::string, std::string> hashes;  // simulation label -> hash
  std::map<std::string, int64_t> counts;      // deterministic counters
  std::map<std::string, Metric> layers;
  std::map<std::string, std::string> unavailable;  // metric -> reason

  ClusterTotals cluster;
  // Summed over every simulation of the iteration (traced or not).
  uint64_t probes = 0;
  int64_t calc_invocations = 0;
  int64_t calc_executed_real = 0;
  int64_t fault_events_applied = 0;
  uint64_t messages_blocked = 0;

  void AddCheck(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back(Check{name, ok, detail});
  }
  void Layer(const std::string& name, double value, const char* unit) {
    layers[name] = Metric{value, unit};
  }
  void Unavailable(const std::string& name, const char* unit, const std::string& why) {
    layers[name] = Metric{0.0, unit};
    unavailable[name] = why;
  }
};

// RAII span around one call into the library; each gets its own run id.
class Span {
 public:
  Span(Iteration* it, const std::string& name)
      : it_(it), index_(it->spans.Open(name, it->next_run++)) {}
  ~Span() { it_->spans.Close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Iteration* it_;
  int index_;
};

std::string Hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Determinism record entry: the RunResult JSON without the opt-in profile.
std::string ResultHash(RunResult result) {
  result.has_profile = false;
  return Hex64(Fnv1a64(result.ToJson()));
}

void RecordSim(Iteration* it, const std::string& label, const RunResult& result) {
  ++it->sims;
  if (result.watchdog_fired) {
    ++it->failed_sims;
  }
  it->hashes[label] = ResultHash(result);
  it->probes += result.invariants.probes;
  it->calc_invocations += result.calc_invocations;
  it->calc_executed_real += result.calc_executed_real;
  it->fault_events_applied += result.fault_events_applied;
  it->messages_blocked += result.messages_blocked;
}

// RunSingle, profiled and spanned when traced.
RunResult Launch(Iteration* it, const std::string& span, const BugSpec& spec, int n,
                 RunMode mode, uint64_t seed, RunOptions options = {}) {
  Span s(it, span);
  SimProfiler profiler;
  if (it->traced) {
    options.profiler = &profiler;
  }
  Clock::time_point start = Clock::now();
  RunResult result = RunSingle(spec, n, mode, seed, options);
  if (it->traced) {
    it->cluster.Add(profiler, SecondsSince(start));
  }
  return result;
}

// A copy of how RunSingle (src/scalecheck/scale_check.cc) assembles
// Cluster::Options from its RunOptions, field for field, so set-up builds the
// deployment RunSingle would; keep the two in step.
Cluster::Options DeploymentOptions(const BugSpec& spec, int n, RunMode mode, uint64_t seed,
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
  return options;
}

// Host seconds the Cluster build phase takes for one deployment launched with
// `run_options` (the workload's own); the cluster is destroyed without running
// its event loop.
double BuildSeconds(const BugSpec& spec, int n, RunMode mode, uint64_t seed,
                    RunOptions run_options = {}) {
  SimProfiler profiler;
  run_options.profiler = &profiler;
  { Cluster cluster(DeploymentOptions(spec, n, mode, seed, run_options)); }
  return static_cast<double>(profiler.wall_nanos(SimProfiler::kPhaseBuild)) * 1e-9;
}

// ---- Layer probes (traced runs) ----------------------------------------------

// Runs `batch` (which performs `ops` operations) repeatedly for at least
// `min_s` seconds and five batches; returns the median ns per operation.
struct Timing {
  double ns_per_op = 0.0;
  int samples = 0;
};

Timing TimeBatches(const std::function<void()>& batch, double ops, double min_s = 0.05) {
  std::vector<double> per_op;
  Clock::time_point start = Clock::now();
  while (per_op.size() < 5 || SecondsSince(start) < min_s) {
    Clock::time_point t0 = Clock::now();
    batch();
    per_op.push_back(SecondsSince(t0) * 1e9 / ops);
  }
  std::sort(per_op.begin(), per_op.end());
  return Timing{per_op[per_op.size() / 2], static_cast<int>(per_op.size())};
}

void Note(const char* metric, const Timing& t, const std::string& size) {
  std::fprintf(stderr, "  %-28s median %.1f ns/op over %d batches (%s)\n", metric,
               t.ns_per_op, t.samples, size.c_str());
}

// EventQueue Schedule/Cancel/Pop with `live` events pending (the run's slot
// high-water mark), cancel-heavy like the simulator's retry timers.
void ProbeQueue(Iteration* it, size_t live) {
  Span s(it, "sim.EventQueue");
  live = std::max<size_t>(live, 16);
  EventQueue q;
  Rng rng(it->seed);
  std::vector<EventId> ids(live);
  int64_t now_ns = 0;
  for (size_t i = 0; i < live; ++i) {
    ids[i] = q.Schedule(VirtualTime::Zero() +
                            VirtualDuration::Nanos(rng.UniformInt(0, 1'000'000'000)),
                        [] {});
  }
  constexpr int kSteps = 20000;
  size_t cursor = 0;
  Timing t = TimeBatches(
      [&] {
        for (int i = 0; i < kSteps; ++i) {
          ids[cursor] = q.Schedule(
              VirtualTime::Zero() +
                  VirtualDuration::Nanos(now_ns + rng.UniformInt(0, 1'000'000'000)),
              [] {});
          cursor = (cursor + 1) % live;
          if (rng.UniformDouble() < 0.4) {
            q.Cancel(ids[rng.PickIndex(live)]);
          } else if (!q.empty()) {
            VirtualTime at;
            q.Pop(&at);
            now_ns = at.nanos();
          }
        }
      },
      2.0 * kSteps);
  Note("sim.queue_ns_per_op", t, "live=" + std::to_string(live));
  it->Layer("sim.queue_ns_per_op", t.ns_per_op, "ns");
}

// digest_codec on an N-entry SYN digest, and the failure detector's Report for
// N endpoints one gossip round apart.
void ProbeGossip(Iteration* it, int n) {
  {
    Span s(it, "gossip.digest_codec");
    std::vector<GossipDigest> digests(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      digests[static_cast<size_t>(i)] =
          GossipDigest{static_cast<NodeId>(i), 1'700'000'000 + i % 3, 100 + i % 7};
    }
    std::string encoded;
    std::vector<GossipDigest> decoded;
    size_t measured = 0;
    Timing t = TimeBatches(
        [&] {
          encoded.clear();
          digest_codec::Encode(digests, &encoded);
          size_t pos = 0;
          CHECK(digest_codec::Decode(encoded, &pos, &decoded));
          measured += digest_codec::MeasureBytes(digests);
        },
        n);
    CHECK(decoded.size() == digests.size()) << "digest codec lost entries";
    Note("gossip.codec_ns_per_entry", t, "N=" + std::to_string(n));
    it->Layer("gossip.codec_ns_per_entry", t.ns_per_op, "ns");
  }
  {
    Span s(it, "gossip.PhiAccrualFailureDetector");
    PhiAccrualFailureDetector fd(PhiAccrualFailureDetector::Config{});
    VirtualTime now = VirtualTime::Zero();
    Timing t = TimeBatches(
        [&] {
          now = now + VirtualDuration::Seconds(1);
          for (int i = 0; i < n; ++i) {
            fd.Report(static_cast<NodeId>(i), now);
          }
        },
        n);
    Note("gossip.fd_report_ns", t, "N=" + std::to_string(n));
    it->Layer("gossip.fd_report_ns", t.ns_per_op, "ns");
  }
}

// The workload's calculator on the workload's ring and pending changes.
void ProbeCalculator(Iteration* it, const BugSpec& spec, int n, uint64_t seed) {
  Span s(it, "ring.PendingRangeCalculator");
  ClusterConfig cfg = spec.MakeConfig(n, RunMode::kColocated, seed);
  WorkloadSpec wl = spec.MakeWorkload(n);
  TokenRing ring;
  for (NodeId id = 0; id < n; ++id) {
    ring.AddNode(id, GenerateTokens(id, cfg.vnodes_per_node, cfg.seed));
  }
  CalcInput input;
  input.ring = &ring;
  input.rf = cfg.replication_factor;
  for (int j = 0; j < wl.joining_nodes; ++j) {
    NodeId id = n + j;
    input.changes.push_back(PendingChange{id, ChangeKind::kJoining,
                                          GenerateTokens(id, cfg.vnodes_per_node, cfg.seed)});
  }
  if (wl.kind == WorkloadKind::kDecommission) {
    input.changes.push_back(PendingChange{wl.target, ChangeKind::kLeaving, {}});
  }
  std::unique_ptr<PendingRangeCalculator> calc = MakeCalculator(spec.calc_version);
  int64_t ops = 0;
  Timing t = TimeBatches([&] { ops = calc->Execute(input).ops; }, 1.0);
  Note("ring.calc_ms_per_exec", t,
       std::string(calc->name()) + " N=" + std::to_string(n) + " P=" +
           std::to_string(cfg.vnodes_per_node) + " changes=" +
           std::to_string(input.changes.size()) + " ops=" + std::to_string(ops));
  it->Layer("ring.calc_ms_per_exec", t.ns_per_op / 1e6, "ms");
}

void ProbeMemoStore(Iteration* it, const MemoStore& store) {
  Span s(it, "pil.MemoStore");
  std::vector<uint8_t> bytes;
  Timing ser = TimeBatches([&] { bytes = store.Serialize(); }, 1.0);
  Timing parse = TimeBatches(
      [&] {
        MemoStore copy;
        CHECK(MemoStore::Parse(bytes, &copy).ok()) << "memo store did not round-trip";
      },
      1.0);
  std::string size = std::to_string(store.size()) + " entries, " +
                     std::to_string(bytes.size()) + " B";
  Note("pil.memo_serialize_s", ser, size);
  Note("pil.memo_parse_s", parse, size);
  it->Layer("pil.memo_entries", static_cast<double>(store.size()), "count");
  it->Layer("pil.memo_bytes", static_cast<double>(bytes.size()), "B");
  it->Layer("pil.memo_serialize_s", ser.ns_per_op * 1e-9, "s");
  it->Layer("pil.memo_parse_s", parse.ns_per_op * 1e-9, "s");
}

// WAL append/sync/recover and Merkle apply/root at one replica's share of the
// run's durable records (group commit every 16 appends).
void ProbeKvStorage(Iteration* it, const RunResult& result) {
  Span s(it, "kv.storage");
  const std::string value(128, 'v');
  KvWal sizer;
  sizer.Append(0, 0, value);
  int64_t record_bytes = std::max<int64_t>(1, sizer.total_bytes());
  int64_t records = std::max<int64_t>(
      1, result.kv_wal_bytes / std::max(1, result.num_nodes) / record_bytes);
  Rng rng(it->seed);
  std::vector<uint64_t> keys(static_cast<size_t>(records));
  for (uint64_t& k : keys) {
    k = rng.Next() % 100000;
  }
  KvWal wal;
  Timing append = TimeBatches(
      [&] {
        wal = KvWal();
        for (int64_t i = 0; i < records; ++i) {
          wal.Append(keys[static_cast<size_t>(i)], i, value);
          if (i % 16 == 15) {
            wal.Sync();
          }
        }
        wal.Sync();
      },
      static_cast<double>(records));
  std::vector<uint8_t> image = wal.DurableImage();
  size_t recovered = 0;
  Timing recover = TimeBatches(
      [&] { recovered = KvWal::Recover(image).records.size(); },
      static_cast<double>(records));
  CHECK(static_cast<int64_t>(recovered) == records) << "WAL recovery lost records";
  MerkleTree tree;
  Timing apply = TimeBatches(
      [&] {
        tree.Clear();
        for (int64_t i = 0; i < records; ++i) {
          tree.Apply(keys[static_cast<size_t>(i)], i);
        }
      },
      static_cast<double>(records));
  uint64_t root_bits = 0;
  Timing root_t = TimeBatches([&] { root_bits += tree.Root().lo; }, 1.0, 0.02);
  std::string size = std::to_string(records) + " records/node, " +
                     std::to_string(tree.num_keys()) + " keys, root bits " +
                     Hex64(root_bits);
  Note("kv.wal_append_ns", append, size);
  Note("kv.wal_recover_ns_per_record", recover, size);
  Note("kv.merkle_apply_ns", apply, size);
  Note("kv.merkle_root_ns", root_t, size);
  it->Layer("kv.wal_append_ns", append.ns_per_op, "ns");
  it->Layer("kv.wal_recover_ns_per_record", recover.ns_per_op, "ns");
  it->Layer("kv.merkle_apply_ns", apply.ns_per_op, "ns");
  it->Layer("kv.merkle_root_ns", root_t.ns_per_op, "ns");
}

void NoKvStorage(Iteration* it) {
  const char* why = "workload runs no KV data path";
  it->Unavailable("kv.wal_append_ns", "ns", why);
  it->Unavailable("kv.wal_recover_ns_per_record", "ns", why);
  it->Unavailable("kv.merkle_apply_ns", "ns", why);
  it->Unavailable("kv.merkle_root_ns", "ns", why);
}

void NoMemoStore(Iteration* it) {
  const char* why = "workload runs no memoize/replay cell";
  it->Unavailable("pil.memo_entries", "count", why);
  it->Unavailable("pil.memo_bytes", "B", why);
  it->Unavailable("pil.memo_serialize_s", "s", why);
  it->Unavailable("pil.memo_parse_s", "s", why);
}

// Reruns `spec` with the invariant checker off; the checker's cost is the
// run-phase difference, reported only when the simulated outcome matched.
void ProbeCheckCost(Iteration* it, const BugSpec& spec, int n, RunMode mode,
                    const RunResult& checked, double checked_run_s) {
  BugSpec unchecked_spec = spec;
  unchecked_spec.check.enabled = false;
  SimProfiler profiler;
  RunOptions options;
  options.profiler = &profiler;
  RunResult unchecked;
  {
    Span s(it, "check.unchecked_rerun");
    unchecked = RunSingle(unchecked_spec, n, mode, it->seed, options);
  }
  double unchecked_run_s = profiler.wall_nanos(SimProfiler::kPhaseRun) * 1e-9;
  bool same = unchecked.flaps == checked.flaps && unchecked.kv_issued == checked.kv_issued &&
              unchecked.kv_ok == checked.kv_ok &&
              unchecked.kv_unavailable == checked.kv_unavailable &&
              unchecked.kv_timeout == checked.kv_timeout;
  if (same) {
    it->Layer("check.probe_s", checked_run_s - unchecked_run_s, "s");
  } else {
    it->Unavailable("check.probe_s", "s",
                    "unchecked rerun diverged in flaps or KV counters");
  }
}

// Per-layer metrics read off the profiled deployments and the sims' results.
void ClusterLayers(Iteration* it) {
  const ClusterTotals& c = it->cluster;
  const SimProfiler::Counters& k = c.counters;
  it->Layer("cluster.runs", c.runs, "count");
  it->Layer("cluster.build_s", c.build_s, "s");
  it->Layer("cluster.run_s", c.run_s, "s");
  it->Layer("cluster.collect_s", c.collect_s, "s");
  it->Layer("cluster.teardown_s", c.teardown_s, "s");
  it->Layer("sim.events", static_cast<double>(k.events_executed), "count");
  it->Layer("sim.events_cancelled", static_cast<double>(k.events_cancelled), "count");
  it->Layer("sim.event_slot_high_water", static_cast<double>(k.event_slot_high_water),
            "count");
  it->Layer("sim.messages_sent", static_cast<double>(k.messages_sent), "count");
  it->Layer("sim.host_ns_per_event",
            k.events_executed > 0 ? c.run_s * 1e9 / static_cast<double>(k.events_executed)
                                  : 0.0,
            "ns");
  it->Layer("gossip.syn_handled", static_cast<double>(k.gossip_syn_handled), "count");
  it->Layer("gossip.states_applied", static_cast<double>(k.gossip_states_applied), "count");
  it->Layer("gossip.digest_entries_refreshed",
            static_cast<double>(k.digest_entries_refreshed), "count");
  it->Layer("gossip.digest_bytes_sent", static_cast<double>(k.gossip_digest_bytes_sent), "B");
  it->Layer("gossip.arena_bytes", static_cast<double>(k.gossip_arena_bytes), "B");
  it->Layer("gossip.endpoint_store_bytes", static_cast<double>(k.endpoint_store_bytes), "B");
  it->Layer("gossip.ns_per_state_applied",
            k.gossip_states_applied > 0
                ? c.run_s * 1e9 / static_cast<double>(k.gossip_states_applied)
                : 0.0,
            "ns");
  it->Layer("ring.calc_invocations", static_cast<double>(it->calc_invocations), "count");
  it->Layer("ring.calc_executed_real", static_cast<double>(it->calc_executed_real), "count");
  it->Layer("check.probes", static_cast<double>(it->probes), "count");
  it->Layer("faults.events_applied", static_cast<double>(it->fault_events_applied), "count");
  it->Layer("faults.messages_blocked", static_cast<double>(it->messages_blocked), "count");
  ProbeQueue(it, k.event_slot_high_water);
}

void KvLayers(Iteration* it, const RunResult& r, bool traced) {
  it->Layer("kv.issued", static_cast<double>(r.kv_issued), "count");
  it->Layer("kv.retries", static_cast<double>(r.kv_retries), "count");
  it->Layer("kv.read_repairs", static_cast<double>(r.kv_read_repairs), "count");
  it->Layer("kv.wal_bytes", static_cast<double>(r.kv_wal_bytes), "B");
  it->Layer("kv.hints_queued", static_cast<double>(r.kv_hints_queued), "count");
  it->Layer("kv.repair_sessions", static_cast<double>(r.kv_repair_sessions), "count");
  it->Layer("kv.repair_bytes_streamed", static_cast<double>(r.kv_repair_bytes_streamed), "B");
  it->Layer("kv.failed_pct",
            r.kv_issued > 0 ? 100.0 * static_cast<double>(r.kv_unavailable + r.kv_timeout) /
                                  static_cast<double>(r.kv_issued)
                            : 0.0,
            "%");
  if (traced) {
    it->Layer("kv.host_us_per_op",
              r.kv_issued > 0 ? it->cluster.run_s * 1e6 / static_cast<double>(r.kv_issued)
                              : 0.0,
              "us");
  }
}

void NoKvLayers(Iteration* it) {
  const char* why = "workload issues no KV requests";
  for (const char* name : {"kv.issued", "kv.retries", "kv.read_repairs", "kv.hints_queued",
                           "kv.repair_sessions"}) {
    it->Unavailable(name, "count", why);
  }
  it->Unavailable("kv.wal_bytes", "B", why);
  it->Unavailable("kv.repair_bytes_streamed", "B", why);
  it->Unavailable("kv.failed_pct", "%", why);
  it->Unavailable("kv.host_us_per_op", "us", why);
}

void NoSuiteLayers(Iteration* it) {
  const char* why = "workload runs no ExperimentSuite";
  for (const char* name : {"suite.cell_s.real", "suite.cell_s.colo", "suite.cell_s.memoize",
                           "suite.cell_s.replay", "suite.overhead_s"}) {
    it->Unavailable(name, "s", why);
  }
  it->Unavailable("pil.flap_error_pct", "%", "workload has no SC+PIL replay cell");
  it->Unavailable("pil.hits", "count", "workload has no SC+PIL replay cell");
  it->Unavailable("pil.misses", "count", "workload has no SC+PIL replay cell");
}

void NoSearchLayers(Iteration* it) {
  const char* why = "workload runs no FaultSearch";
  for (const char* name : {"search.candidates", "search.violating", "search.minimize_runs",
                           "search.repro_events"}) {
    it->Unavailable(name, "count", why);
  }
  for (const char* name : {"search.generate_s", "search.minimize_s", "search.repro_replay_s"}) {
    it->Unavailable(name, "s", why);
  }
}

// ---- Workloads ---------------------------------------------------------------

void ColoProbe(Iteration* it) {
  BugSpec spec = ProbeSpec();
  Clock::time_point start = Clock::now();
  RunResult r = Launch(it, "cluster.RunSingle[Colo]", spec, kProbeNodes, RunMode::kColocated,
                       it->seed);
  it->wall_s = SecondsSince(start);
  RecordSim(it, "probe", r);
  std::string verdict = FidelityVerdictName(r.fidelity.verdict);
  if (r.fidelity.verdict != FidelityVerdict::kOk) {
    verdict += ":" + r.fidelity.violated_budget;
  }
  // At N=512 the colocated box is past its lateness budget but not its
  // memory or CPU ones: the §8 limit shows as degraded (BENCH_simcore.json).
  it->AddCheck("verdict", verdict == "degraded:lateness_p99", "fidelity " + verdict);
  it->AddCheck("ran", r.events_executed > 0 && r.settled,
               std::to_string(r.events_executed) + " events, settled=" +
                   (r.settled ? "yes" : "no"));
  it->counts["events"] = static_cast<int64_t>(r.events_executed);
  it->counts["flaps"] = r.flaps;
  it->counts["calc_invocations"] = r.calc_invocations;
  if (!it->traced) {
    return;
  }
  ClusterLayers(it);
  ProbeCheckCost(it, spec, kProbeNodes, RunMode::kColocated, r, it->cluster.run_s);
  ProbeGossip(it, kProbeNodes);
  ProbeCalculator(it, spec, kProbeNodes, it->seed);
  NoMemoStore(it);
  NoKvLayers(it);
  NoKvStorage(it);
  NoSuiteLayers(it);
  NoSearchLayers(it);
}

double ColoProbeSetup(uint64_t seed) {
  return BuildSeconds(ProbeSpec(), kProbeNodes, RunMode::kColocated, seed);
}

void Fig3Checks(Iteration* it, const RunResult& real, const RunResult& colo,
                const RunResult& replay) {
  it->AddCheck("real-clean", real.invariants.ok(),
               std::to_string(real.invariants.violations.size()) +
                   " invariant violation(s) in Real");
  it->AddCheck("colo-flaps-exceed-real", colo.flaps > real.flaps,
               "Colo " + std::to_string(colo.flaps) + " vs Real " +
                   std::to_string(real.flaps) + " flaps");
  it->AddCheck("replay-hits", replay.pil.replay_hits > 0,
               std::to_string(replay.pil.replay_hits) + " replay hits");
  it->counts["real_flaps"] = real.flaps;
  it->counts["colo_flaps"] = colo.flaps;
  it->counts["replay_flaps"] = replay.flaps;
  it->counts["replay_hits"] = static_cast<int64_t>(replay.pil.replay_hits);
  it->counts["replay_misses"] = static_cast<int64_t>(replay.pil.replay_misses);
  it->Layer("pil.hits", static_cast<double>(replay.pil.replay_hits), "count");
  it->Layer("pil.misses", static_cast<double>(replay.pil.replay_misses), "count");
  it->Layer("pil.flap_error_pct", 100.0 * RelativeFlapError(replay.flaps, real.flaps), "%");
}

// Untraced: the ExperimentSuite a user runs for the figure. Traced: the same
// four cells through RunSingle with one shared output cache and memo store —
// what the suite does at jobs=1 — so each deployment can carry a profiler.
void Fig3(Iteration* it) {
  const BugSpec& spec = BugCatalog::Get("C5456");
  const char* labels[] = {"Real", "Colo", "Memoize", "SC+PIL"};
  RunResult cells[4];
  Clock::time_point start = Clock::now();
  if (!it->traced) {
    ExperimentSpec grid;
    grid.bugs = {spec};
    grid.modes.assign(std::begin(kFig3Modes), std::end(kFig3Modes));
    grid.scales = {kFig3Nodes};
    grid.seeds = {kFig3Seed};
    grid.jobs = 1;
    SuiteReport report = ExperimentSuite(grid).Run();
    it->wall_s = SecondsSince(start);
    const char* cell_names[] = {"suite.cell_s.real", "suite.cell_s.colo",
                                "suite.cell_s.memoize", "suite.cell_s.replay"};
    double cell_total = 0.0;
    for (int i = 0; i < 4; ++i) {
      const RunRecord* rec = report.Find(spec.id, kFig3Modes[i], kFig3Nodes, kFig3Seed);
      CHECK(rec != nullptr) << "suite lost a cell";
      if (rec->quarantined) {
        ++it->failed_sims;
      }
      cells[i] = rec->result;
      cell_total += rec->wall_seconds;
      it->Layer(cell_names[i], rec->wall_seconds, "s");
    }
    it->Layer("suite.overhead_s", it->wall_s - cell_total, "s");
  } else {
    CalcOutputCache cache;
    MemoStore store;
    for (int i = 0; i < 4; ++i) {
      RunOptions options;
      options.output_cache = &cache;
      if (kFig3Modes[i] == RunMode::kMemoize || kFig3Modes[i] == RunMode::kPilReplay) {
        options.memo_store = &store;
      }
      cells[i] = Launch(it, std::string("cluster.RunSingle[") + labels[i] + "]", spec,
                        kFig3Nodes, kFig3Modes[i], kFig3Seed, options);
    }
    it->wall_s = SecondsSince(start);
    ProbeMemoStore(it, store);
  }
  for (int i = 0; i < 4; ++i) {
    RecordSim(it, labels[i], cells[i]);
    it->counts[std::string("events.") + labels[i]] =
        static_cast<int64_t>(cells[i].events_executed);
  }
  Fig3Checks(it, cells[0], cells[1], cells[3]);
  it->counts["calc_invocations"] = it->calc_invocations;
  if (!it->traced) {
    return;
  }
  ClusterLayers(it);
  it->Unavailable("check.probe_s", "s",
                  "an unchecked rerun of all four cells would double the traced run");
  ProbeGossip(it, kFig3Nodes);
  ProbeCalculator(it, spec, kFig3Nodes, kFig3Seed);
  NoKvLayers(it);
  NoKvStorage(it);
  NoSearchLayers(it);
  for (const char* name : {"suite.cell_s.real", "suite.cell_s.colo", "suite.cell_s.memoize",
                           "suite.cell_s.replay", "suite.overhead_s"}) {
    it->Unavailable(name, "s", "taken from the untraced ExperimentSuite runs");
  }
}

// The four cells with the RunOptions ExperimentSuite gives them at jobs=1: one
// CalcOutputCache shared by all cells, and one MemoStore that Memoize fills
// and SC+PIL replays (the build phase does not read the store's contents).
double Fig3Setup(uint64_t /*seed*/) {
  const BugSpec& spec = BugCatalog::Get("C5456");
  CalcOutputCache cache;
  MemoStore store;
  double total = 0.0;
  for (RunMode mode : kFig3Modes) {
    RunOptions options;
    options.output_cache = &cache;
    if (mode == RunMode::kMemoize || mode == RunMode::kPilReplay) {
      options.memo_store = &store;
    }
    total += BuildSeconds(spec, kFig3Nodes, mode, kFig3Seed, options);
  }
  return total;
}

void KvChaos(Iteration* it) {
  BugSpec spec = KvChaosSpec();
  Clock::time_point start = Clock::now();
  RunResult r = Launch(it, "cluster.RunSingle[Colo]", spec, kKvNodes, RunMode::kColocated,
                       it->seed);
  it->wall_s = SecondsSince(start);
  RecordSim(it, "kv", r);
  int64_t accounted = r.kv_ok + r.kv_unavailable + r.kv_timeout + r.kv_inflight_at_stop;
  it->AddCheck("kv-conservation", r.kv_issued > 0 && r.kv_issued == accounted,
               "issued " + std::to_string(r.kv_issued) + " vs ok+unavailable+timeout+" +
                   "inflight " + std::to_string(accounted));
  it->AddCheck("invariants-clean", r.invariants.kv_checked && r.invariants.ok(),
               std::string("kv_checked=") + (r.invariants.kv_checked ? "yes" : "no") + ", " +
                   std::to_string(r.invariants.violations.size()) + " violation(s)");
  it->AddCheck("fault-applied", r.fault_events_applied > 0 && r.restarted_nodes > 0,
               std::to_string(r.fault_events_applied) + " fault events, " +
                   std::to_string(r.restarted_nodes) + " restart(s)");
  it->counts["events"] = static_cast<int64_t>(r.events_executed);
  it->counts["kv_issued"] = r.kv_issued;
  it->counts["kv_ok"] = r.kv_ok;
  it->counts["kv_repair_sessions"] = r.kv_repair_sessions;
  it->counts["calc_invocations"] = r.calc_invocations;
  KvLayers(it, r, it->traced);
  if (!it->traced) {
    return;
  }
  ClusterLayers(it);
  ProbeCheckCost(it, spec, kKvNodes, RunMode::kColocated, r, it->cluster.run_s);
  ProbeGossip(it, kKvNodes);
  ProbeCalculator(it, spec, kKvNodes, it->seed);
  ProbeKvStorage(it, r);
  NoMemoStore(it);
  NoSuiteLayers(it);
  NoSearchLayers(it);
}

double KvChaosSetup(uint64_t seed) {
  return BuildSeconds(KvChaosSpec(), kKvNodes, RunMode::kColocated, seed);
}

FaultSearchConfig SearchConfig(uint64_t seed, bool minimize) {
  FaultSearchConfig config;
  config.spec = SearchSpec();
  config.nodes = kSearchNodes;
  config.mode = RunMode::kColocated;
  config.seed = seed;
  config.search_seed = seed;
  config.budget = kSearchBudget;
  config.generation_size = 8;
  config.jobs = 1;
  config.stop_on_first_violation = false;
  config.minimize = minimize;
  return config;
}

// Untraced: FaultSearch::Run (minimize on) then ReplayRepro of its artifact.
// Traced: the same steps split at their public seams, each timed on its own —
// search with minimize off, MinimizeFaultPlan, the artifact's final run, and
// ReplayRepro.
void ChaosSearch(Iteration* it) {
  Clock::time_point start = Clock::now();
  FaultSearchReport report;
  MinimizeResult minimized;
  std::string artifact;
  double generate_s = 0.0;
  double minimize_s = 0.0;
  if (!it->traced) {
    Span s(it, "faults.FaultSearch");
    report = FaultSearch(SearchConfig(it->seed, true)).Run();
    it->hashes["search-report"] = Hex64(Fnv1a64(report.ToJson()));
    minimized.plan = report.minimized_plan;
    minimized.runs = report.minimize_runs;
    artifact = report.repro_json;
  } else {
    {
      Span s(it, "faults.FaultSearch[no-minimize]");
      Clock::time_point t0 = Clock::now();
      report = FaultSearch(SearchConfig(it->seed, false)).Run();
      generate_s = SecondsSince(t0);
    }
    if (report.found_violation) {
      {
        Span s(it, "faults.MinimizeFaultPlan");
        Clock::time_point t0 = Clock::now();
        minimized = MinimizeFaultPlan(SearchSpec(), kSearchNodes, RunMode::kColocated,
                                      it->seed, report.violating_plan, report.violated);
        minimize_s = SecondsSince(t0);
      }
      minimized.plan.name = "minimized";
      BugSpec repro_spec = SearchSpec();
      repro_spec.custom_faults = minimized.plan;
      RunResult final_run = Launch(it, "cluster.RunSingle[minimized]", repro_spec,
                                   kSearchNodes, RunMode::kColocated, it->seed);
      RecordSim(it, "minimized", final_run);
      artifact = MakeReproArtifact(SearchSpec(), kSearchNodes, RunMode::kColocated, it->seed,
                                   minimized.plan, final_run);
    }
  }
  // Every candidate plus the no-fault baseline, each shrink run, and the
  // final run of the minimized plan are simulations.
  it->sims += static_cast<int>(report.candidates.size()) + 1 + minimized.runs +
              (report.found_violation ? 1 : 0);
  int violating = 0;
  for (const FaultCandidate& c : report.candidates) {
    violating += c.violating() ? 1 : 0;
  }
  bool replayed = false;
  double replay_s = 0.0;
  if (!artifact.empty()) {
    Span s(it, "faults.ReplayRepro");
    Clock::time_point t0 = Clock::now();
    Result<ReproReplay> replay = ReplayRepro(artifact);
    replay_s = SecondsSince(t0);
    if (replay.ok()) {
      RecordSim(it, "repro", replay.value().result);
      replayed = replay.value().invariants_match;
    } else {
      ++it->sims;
      ++it->failed_sims;
    }
  }
  it->wall_s = SecondsSince(start);
  size_t repro_events = minimized.plan.events.size();
  it->AddCheck("violation-found", report.found_violation,
               std::to_string(violating) + " of " + std::to_string(report.candidates.size()) +
                   " candidates violate");
  it->AddCheck("shrunk", report.found_violation && repro_events >= 1 &&
                             repro_events <= kMaxReproEvents,
               "minimized to " + std::to_string(repro_events) + " event(s) in " +
                   std::to_string(minimized.runs) + " runs");
  it->AddCheck("repro-replays", replayed, "ReplayRepro invariants_match");
  it->hashes["repro-artifact"] = Hex64(Fnv1a64(artifact));
  it->counts["candidates"] = static_cast<int64_t>(report.candidates.size());
  it->counts["violating"] = violating;
  it->counts["minimize_runs"] = minimized.runs;
  it->counts["repro_events"] = static_cast<int64_t>(repro_events);
  it->counts["baseline_flaps"] = report.baseline_flaps;
  it->Layer("search.candidates", static_cast<double>(report.candidates.size()), "count");
  it->Layer("search.violating", violating, "count");
  it->Layer("search.minimize_runs", minimized.runs, "count");
  it->Layer("search.repro_events", static_cast<double>(repro_events), "count");
  if (!it->traced) {
    return;
  }
  it->Layer("search.generate_s", generate_s, "s");
  it->Layer("search.minimize_s", minimize_s, "s");
  it->Layer("search.repro_replay_s", replay_s, "s");
  ClusterLayers(it);
  it->Unavailable("check.probe_s", "s", "the search is driven by the invariant checker");
  ProbeGossip(it, kSearchNodes);
  ProbeCalculator(it, SearchSpec(), kSearchNodes, it->seed);
  NoMemoStore(it);
  NoKvLayers(it);
  NoKvStorage(it);
  NoSuiteLayers(it);
}

// One set-up of the search: the no-fault baseline plus every candidate of
// the generation phase.
double ChaosSearchSetup(uint64_t seed) {
  BugSpec spec = SearchSpec();
  double total = 0.0;
  for (int i = 0; i <= kSearchBudget; ++i) {
    total += BuildSeconds(spec, kSearchNodes, RunMode::kColocated, seed);
  }
  return total;
}

struct Workload {
  const char* name;
  void (*run)(Iteration*);
  double (*setup)(uint64_t);
};

const Workload kWorkloads[] = {
    {"colo-probe", ColoProbe, ColoProbeSetup},
    {"fig3-c5456", Fig3, Fig3Setup},
    {"kv-chaos", KvChaos, KvChaosSetup},
    {"chaos-search", ChaosSearch, ChaosSearchSetup},
};

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string ToJson(const Iteration& it, const std::string& workload, double peak_rss_mib,
                   const std::vector<double>& setup_s) {
  JsonWriter w;
  w.BeginObject();
  w.Field("workload", workload);
  w.Field("seed", it.seed);
  w.Field("traced", it.traced);
  w.Field("wall_s", it.wall_s);
  w.Field("peak_rss_mib", peak_rss_mib);
  w.Key("setup_s").BeginArray();
  for (double s : setup_s) {
    w.Double(s);
  }
  w.EndArray();
  w.Field("sims", it.sims);
  w.Field("failed_sims", it.failed_sims);
  w.Key("checks").BeginArray();
  for (const Check& c : it.checks) {
    w.BeginObject().Field("name", c.name).Field("ok", c.ok).Field("detail", c.detail).EndObject();
  }
  w.EndArray();
  w.Key("hashes").BeginObject();
  for (const auto& [label, hash] : it.hashes) {
    w.Field(label, hash);
  }
  w.EndObject();
  w.Key("counts").BeginObject();
  for (const auto& [name, value] : it.counts) {
    w.Field(name, value);
  }
  w.EndObject();
  w.Key("layers").BeginObject();
  for (const auto& [name, m] : it.layers) {
    w.Key(name).BeginObject().Field("value", m.value).Field("unit", m.unit).EndObject();
  }
  w.EndObject();
  w.Key("unavailable").BeginObject();
  for (const auto& [name, why] : it.unavailable) {
    w.Field(name, why);
  }
  w.EndObject();
  w.Field("spans", static_cast<uint64_t>(it.spans.size()));
  w.EndObject();
  return w.str();
}

int Usage() {
  std::fprintf(stderr,
               "usage: scalecheck_bench --workload=NAME --seed=N [--trace-out=FILE]\n"
               "workloads:");
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string name;
  std::string trace_out;
  uint64_t seed = 0;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) -> const char* {
      size_t len = std::strlen(prefix);
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* w = value_of("--workload=")) {
      name = w;
    } else if (const char* s = value_of("--seed=")) {
      char* end = nullptr;
      seed = std::strtoull(s, &end, 0);
      have_seed = end != s && *end == '\0';
    } else if (const char* f = value_of("--trace-out=")) {
      trace_out = f;
    } else {
      return Usage();
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr || !have_seed) {
    return Usage();
  }

  SetLogLevel(LogLevel::kError);
  Iteration it;
  it.seed = seed;
  it.traced = !trace_out.empty();
  it.spans = SpanRecorder(it.traced);
  {
    Span root(&it, std::string("workload ") + workload->name);
    workload->run(&it);
  }
  double peak_rss_mib = PeakRssMib();
  std::vector<double> setup_s;
  Clock::time_point setup_start = Clock::now();
  do {
    setup_s.push_back(workload->setup(seed));
  } while (SecondsSince(setup_start) < kSetupSeconds);
  if (it.traced) {
    std::FILE* f = std::fopen(trace_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::string json = it.spans.ChromeJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  }
  std::printf("%s\n", ToJson(it, workload->name, peak_rss_mib, setup_s).c_str());
  return 0;
}

}  // namespace
}  // namespace scalecheck

int main(int argc, char** argv) { return scalecheck::Main(argc, argv); }
