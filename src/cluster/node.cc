#include "src/cluster/node.h"

#include <utility>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/gossip/messages.h"
#include "src/kv/anti_entropy.h"

namespace scalecheck {

const CalcOutputCache::Entry* CalcOutputCache::Find(CalcVersion version,
                                                    const DigestValue& digest) const {
  Key key{static_cast<int>(version), digest};
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    return nullptr;
  }
  ++shard.hits;
  return &it->second;
}

void CalcOutputCache::Put(CalcVersion version, const DigestValue& digest, Entry entry) {
  Key key{static_cast<int>(version), digest};
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  // First put wins; concurrent writers compute identical values anyway.
  shard.map.emplace(std::move(key), std::move(entry));
}

uint64_t CalcOutputCache::hits() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.hits;
  }
  return total;
}

size_t CalcOutputCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

Node::Node(Env* env, NodeId id, Machine* machine, uint64_t seed)
    : env_(env),
      id_(id),
      machine_(machine),
      ring_lock_(env->sim, StrFormat("ring-lock/%d", id)),
      gossip_task_(env->sim, machine, StrFormat("n%d/gossip-task", id)),
      gossip_stage_(env->sim, machine, StrFormat("n%d/gossip-stage", id)),
      core_(id, seed, env->clock, env->flaps, env->trace, env->config->fd,
            env->config->replication_factor, env->config->vnodes_per_node,
            env->config->seed, env->config->check.plant_left_join_bug,
            [this] { UpdatePartitionServiceMemory(); }) {
  CHECK_NOTNULL(env);
  CHECK_NOTNULL(machine);
  if (env_->config->calc_placement != CalcPlacement::kInlineGossipStage) {
    calc_thread_ = std::make_unique<SimThread>(env->sim, machine,
                                               StrFormat("n%d/calc", id));
  }
  if (env_->config->enable_kv) {
    kv_stage_ = std::make_unique<SimThread>(env->sim, machine,
                                            StrFormat("n%d/kv-stage", id));
    kv_stage_adapter_ = std::make_unique<SimStage>(kv_stage_.get());
    // Data-path footprint (WAL + memtable/runs + hint queue) lands in the
    // machine memory model like the gossip arena below: deltas follow the
    // deterministic event order, so FidelityGuard memory verdicts and
    // colocation OOMs see the storage bytes deterministically.
    core_.EnableKv(env->transport, kv_stage_adapter_.get(), env->config->kv,
                   env->config->check.plant_kv_ack_before_sync,
                   env->config->check.plant_repair_storm, env->kv_history,
                   [this](int64_t delta) {
                     if (!started_ || crashed_) {
                       return;
                     }
                     if (delta > 0) {
                       machine_->memory().Allocate(id_, "kv-storage", delta);
                     } else {
                       machine_->memory().Release(id_, "kv-storage", -delta);
                     }
                   });
  }
  // Charge gossip-scratch arena growth to the memory model as it happens.
  // Growth points are deterministic (they follow the deterministic event
  // order), so the charges — and FidelityGuard's memory verdict — are too.
  // Pre-start growth is folded into the bulk charge in Start()/Restart();
  // post-crash growth is impossible (the node's threads are dead).
  core_.gossiper().scratch_arena().SetGrowHook([this](size_t block_bytes) {
    if (started_ && !crashed_) {
      machine_->memory().Allocate(id_, "gossip-arena",
                                  static_cast<int64_t>(block_bytes));
    }
  });
}

Node::~Node() = default;

void Node::PrimeSettled(const SettledCluster& settled) {
  CHECK(!started_);
  core_.PrimeSettled(settled);
}

void Node::PrimeSeeds(const std::map<NodeId, std::vector<Token>>& seed_members) {
  CHECK(!started_);
  core_.PrimeSeeds(seed_members);
}

void Node::PrimeContacts(const std::vector<NodeId>& contacts) {
  CHECK(!started_);
  core_.PrimeContacts(contacts);
}

void Node::SetSeedContacts(const std::vector<NodeId>& contacts) {
  core_.SetSeedContacts(contacts);
}

void Node::EnableOrderEnforcement(std::vector<MessageKey> sequence) {
  enforcer_ = std::make_unique<OrderEnforcer>(
      std::move(sequence), /*max_buffer=*/48,
      [this](const Message& msg) { ProcessMessage(msg); });
}

void Node::Start(bool as_joiner, VirtualDuration transition) {
  CHECK(!started_);
  started_ = true;

  machine_->memory().Allocate(id_, "runtime", env_->config->RuntimeOverheadBytes());
  machine_->memory().Allocate(
      id_, "endpoints",
      static_cast<int64_t>(core_.gossiper().endpoints().size()) *
          env_->config->endpoint_state_bytes);
  machine_->memory().Allocate(id_, "gossip-arena",
                              static_cast<int64_t>(arena_bytes_reserved()));

  env_->transport->RegisterNode(id_, [this](const Message& msg) { OnMessage(msg); });
  if (core_.kv() != nullptr) {
    core_.kv()->Start();  // arms the anti-entropy scheduler when repair is on
  }

  if (as_joiner) {
    CHECK(core_.my_tokens().empty());
    core_.Announce(StatusKind::kBootstrapping);

    // BOOT -> NORMAL after the transition period. The continuation belongs to
    // the incarnation that scheduled it: if the node crashes and restarts in
    // the window, the restarted process must not be promoted by a timer armed
    // by its dead predecessor.
    const int64_t gen = generation_;
    env_->clock->ScheduleAfter(transition, [this, gen] {
      if (crashed_ || generation_ != gen) {
        return;
      }
      core_.Announce(StatusKind::kNormal);
      MaybeScheduleRecalc();
    });
  }

  // Desynchronize rounds across nodes, as real deployments are.
  VirtualDuration phase = VirtualDuration::Nanos(static_cast<int64_t>(
      core_.rng().UniformDouble() *
      static_cast<double>(env_->config->gossip_interval.nanos())));
  gossip_timer_ = std::make_unique<PeriodicClockTimer>(
      env_->clock, env_->config->gossip_interval, [this] { GossipRound(); });
  gossip_timer_->Start(phase);
}

void Node::BeginDecommission(VirtualDuration transition) {
  CHECK(started_);
  core_.Announce(StatusKind::kLeaving);
  MaybeScheduleRecalc();

  // Both deferred steps are guarded on the scheduling incarnation: a crash +
  // restart inside the transition window must not let the stale continuation
  // announce LEFT (or silence gossip) on behalf of the fresh process.
  const int64_t gen = generation_;
  env_->clock->ScheduleAfter(transition, [this, gen] {
    if (crashed_ || generation_ != gen) {
      return;
    }
    core_.Announce(StatusKind::kLeft);
    MaybeScheduleRecalc();
  });
  // Keep gossiping LEFT for a grace period so it disseminates, then stop.
  env_->clock->ScheduleAfter(transition + VirtualDuration::Seconds(20), [this, gen] {
    if (crashed_ || generation_ != gen) {
      return;
    }
    gossip_timer_->Stop();
    env_->transport->UnregisterNode(id_);
  });
}

void Node::Crash() {
  if (crashed_) {
    return;
  }
  crashed_ = true;
  if (env_->trace != nullptr) {
    env_->trace->Record(env_->clock->Now(), TraceKind::kNodeCrash, id_);
  }
  if (gossip_timer_ != nullptr) {
    gossip_timer_->Stop();
  }
  env_->transport->UnregisterNode(id_);
  gossip_task_.Kill();
  gossip_stage_.Kill();
  if (calc_thread_ != nullptr) {
    calc_thread_->Kill();
  }
  if (kv_stage_ != nullptr) {
    kv_stage_->Kill();
  }
  // A dead process holds no locks: force-release the ring lock (abandoning
  // any waiters, whose threads just died with it) so survivors — and a later
  // restart — are not wedged behind a lock nobody can ever release.
  ring_lock_.ResetForCrash();
  if (core_.kv() != nullptr) {
    // Process death for the data path: pending group-commit acks and the
    // volatile hint queue vanish; with the WAL on, so do the unsynced tail
    // and the in-memory storage engine.
    core_.kv()->OnCrash();
  }
  machine_->memory().ReleaseAll(id_);
}

void Node::Restart(const std::vector<NodeId>& contacts) {
  CHECK(crashed_) << "Restart of a live node " << id_;
  CHECK(started_);
  crashed_ = false;
  ++generation_;
  if (env_->trace != nullptr) {
    env_->trace->Record(env_->clock->Now(), TraceKind::kNodeRestart, id_, kInvalidNode,
                        generation_);
  }

  // Fresh process: threads come back, all in-memory protocol state is gone.
  gossip_task_.Revive();
  gossip_stage_.Revive();
  if (calc_thread_ != nullptr) {
    calc_thread_->Revive();
  }
  if (kv_stage_ != nullptr) {
    kv_stage_->Revive();
  }

  // We restart with our durable token assignment and announce NORMAL under
  // the bumped generation; peers replace our stale state wholesale.
  core_.ResetForRestart(generation_, contacts);
  pending_ranges_ = PendingRanges();
  recalc_inflight_ = false;
  partition_services_allocated_ = false;
  partition_services_bytes_ = 0;

  machine_->memory().Allocate(id_, "runtime", env_->config->RuntimeOverheadBytes());
  machine_->memory().Allocate(
      id_, "endpoints",
      static_cast<int64_t>(core_.gossiper().endpoints().size()) *
          env_->config->endpoint_state_bytes);
  // The arena survives the crash (it is process memory of the simulator, and
  // its blocks are reused by the fresh incarnation); re-charge the footprint
  // the restarted process would re-acquire.
  machine_->memory().Allocate(id_, "gossip-arena",
                              static_cast<int64_t>(arena_bytes_reserved()));
  env_->transport->RegisterNode(id_, [this](const Message& msg) { OnMessage(msg); });
  if (core_.kv() != nullptr) {
    // With the WAL on, this replays the durable prefix into a fresh storage
    // engine — the acked writes the kv-durability invariant audits.
    core_.kv()->OnRestart();
  }

  VirtualDuration phase = VirtualDuration::Nanos(static_cast<int64_t>(
      core_.rng().UniformDouble() *
      static_cast<double>(env_->config->gossip_interval.nanos())));
  gossip_timer_ = std::make_unique<PeriodicClockTimer>(
      env_->clock, env_->config->gossip_interval, [this] { GossipRound(); });
  gossip_timer_->Start(phase);
}

uint64_t Node::order_divergences() const {
  return enforcer_ == nullptr ? 0 : enforcer_->divergences();
}

uint64_t Node::order_enforced() const {
  return enforcer_ == nullptr ? 0 : enforcer_->enforced_in_order();
}

bool Node::IsSettledView() const {
  return core_.pending_changes().empty() && !recalc_inflight_ && !core_.ring_dirty();
}

// ---- Gossip plumbing -------------------------------------------------------

void Node::OnMessage(const Message& msg) {
  if (crashed_) {
    return;
  }
  if (enforcer_ != nullptr) {
    enforcer_->Submit(msg);
  } else {
    ProcessMessage(msg);
  }
}

void Node::ProcessMessage(const Message& msg) {
  if (env_->record_order && env_->order_log != nullptr) {
    // Stage jobs run FIFO, so enqueue order here IS processing order.
    env_->order_log->Append(id_, MessageKey::Of(msg));
  }
  switch (msg.type) {
    case kGossipSyn:
      HandleSynMessage(msg);
      break;
    case kGossipAck:
      HandleAckMessage(msg);
      break;
    case kGossipAck2:
      HandleAck2Message(msg);
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
      SC_LOG(Warning) << "node " << id_ << ": unknown message type " << msg.type;
  }
}

void Node::GossipRound() {
  if (crashed_) {
    return;
  }
  VirtualTime intended = env_->clock->Now();

  Job round("gossip.round");
  round.IntendedAt(intended);
  round
      .Run([this] {
        core_.gossiper().IncrementHeartbeat();
      })
      .Compute([this] {
        return core_.gossiper().EstimateRoundWork(env_->config->gossip_costs);
      })
      .Run([this] {
        for (NodeId peer : core_.PickSynTargets()) {
          if (peer != kInvalidNode) {
            SendSyn(peer);
          }
        }
      });
  gossip_task_.Enqueue(std::move(round));

  FailureSweep();
}

void Node::FailureSweep() {
  Job sweep("gossip.fd-sweep");
  sweep
      .Compute([this] {
        return env_->config->fd_check_cost_per_endpoint *
               static_cast<WorkUnits>(core_.gossiper().endpoints().size());
      })
      .Run([this] {
        core_.SweepFailures();
        if (env_->profile_hook) {
          size_t endpoints = core_.gossiper().endpoints().size();
          env_->profile_hook(env_->fd_sweep_function,
                             env_->config->fd_check_cost_per_endpoint *
                                 static_cast<int64_t>(endpoints),
                             endpoints);
        }
      });
  gossip_task_.Enqueue(std::move(sweep));
}

void Node::SendSyn(NodeId peer) {
  auto syn = std::make_shared<SynPayload>();
  core_.gossiper().CopySynDigests(&syn->digests);
  digest_bytes_sent_ += syn->CacheSize();
  env_->transport->Send(id_, peer, kGossipSyn, std::move(syn));
}

void Node::HandleSynMessage(const Message& msg) {
  auto syn = std::static_pointer_cast<const SynPayload>(msg.payload);
  NodeId peer = msg.from;
  Job job("gossip.handle-syn");
  if (!env_->config->gossip_stage_timeout.IsZero()) {
    job.ExpiresAfter(env_->config->gossip_stage_timeout);
  }
  job.Compute([this, syn] {
       return Gossiper::EstimateSynWork(*syn, env_->config->gossip_costs);
     })
      .Run([this, syn, peer] {
        auto ack = std::make_shared<AckPayload>();
        core_.gossiper().HandleSyn(syn->digests, &ack->requests, &ack->states);
        if (env_->profile_hook) {
          env_->profile_hook(env_->gossip_syn_function,
                             Gossiper::EstimateSynWork(*syn, env_->config->gossip_costs),
                             core_.gossiper().endpoints().size());
        }
        env_->transport->Send(id_, peer, kGossipAck, std::move(ack));
      });
  gossip_stage_.Enqueue(std::move(job));
}

void Node::HandleAckMessage(const Message& msg) {
  auto ack = std::static_pointer_cast<const AckPayload>(msg.payload);
  NodeId peer = msg.from;
  Job job("gossip.handle-ack");
  if (!env_->config->gossip_stage_timeout.IsZero()) {
    job.ExpiresAfter(env_->config->gossip_stage_timeout);
  }
  job.Compute([this, ack] {
    return Gossiper::EstimateAckWork(*ack, env_->config->gossip_costs);
  });
  if (UsesRingLock()) {
    job.Lock(&ring_lock_);
  }
  job.Run([this, ack] {
    core_.gossiper().ApplyStates(ack->states);
    if (env_->profile_hook) {
      env_->profile_hook(env_->gossip_apply_function,
                         Gossiper::EstimateAckWork(*ack, env_->config->gossip_costs),
                         core_.gossiper().endpoints().size());
    }
  });
  if (UsesRingLock()) {
    job.Unlock(&ring_lock_);
  }
  job.Run([this, ack, peer] {
    if (!ack->requests.empty()) {
      auto ack2 = std::make_shared<Ack2Payload>();
      core_.gossiper().StatesForRequests(ack->requests, &ack2->states);
      if (!ack2->states.empty()) {
        env_->transport->Send(id_, peer, kGossipAck2, std::move(ack2));
      }
    }
    MaybeScheduleRecalc();
  });
  gossip_stage_.Enqueue(std::move(job));
}

void Node::HandleAck2Message(const Message& msg) {
  auto ack2 = std::static_pointer_cast<const Ack2Payload>(msg.payload);
  Job job("gossip.handle-ack2");
  if (!env_->config->gossip_stage_timeout.IsZero()) {
    job.ExpiresAfter(env_->config->gossip_stage_timeout);
  }
  job.Compute([this, ack2] {
    return Gossiper::EstimateAck2Work(*ack2, env_->config->gossip_costs);
  });
  if (UsesRingLock()) {
    job.Lock(&ring_lock_);
  }
  job.Run([this, ack2] { core_.gossiper().ApplyStates(ack2->states); });
  if (UsesRingLock()) {
    job.Unlock(&ring_lock_);
  }
  job.Run([this] { MaybeScheduleRecalc(); });
  gossip_stage_.Enqueue(std::move(job));
}

// ---- Pending-range machinery -------------------------------------------------

void Node::UpdatePartitionServiceMemory() {
  bool want = !core_.pending_changes().empty();
  if (want == partition_services_allocated_) {
    return;
  }
  if (want) {
    // §6: the rebalance protocol allocates partition services up front. The
    // space-oblivious variant allocates (N-1)*P of them; the fixed code P.
    int64_t services =
        env_->config->space_oblivious_rebalance
            ? static_cast<int64_t>(core_.gossiper().endpoints().size() - 1) *
                  env_->config->vnodes_per_node
            : env_->config->vnodes_per_node;
    partition_services_bytes_ = services * env_->config->partition_service_bytes;
    machine_->memory().Allocate(id_, "partition-services", partition_services_bytes_);
    partition_services_allocated_ = true;
  } else {
    machine_->memory().Release(id_, "partition-services", partition_services_bytes_);
    partition_services_bytes_ = 0;
    partition_services_allocated_ = false;
  }
}

void Node::MaybeScheduleRecalc() {
  if (crashed_ || !core_.ring_dirty() || recalc_inflight_) {
    return;
  }
  if (core_.pending_changes().empty()) {
    // Nothing in flight: the recalculation is trivial; skip it (the cheap
    // path real code takes too).
    core_.ClearRingDirty();
    pending_ranges_ = PendingRanges();
    return;
  }
  recalc_inflight_ = true;
  BuildRecalcJob();
}

void Node::BuildRecalcJob() {
  struct RecalcState {
    TokenRing ring_copy;
    CalcInput input;
    bool bootstrap_path = false;
    bool digest_ready = false;
    DigestValue digest;
  };
  auto state = std::make_shared<RecalcState>();

  auto digest_fn = [state] {
    if (!state->digest_ready) {
      state->digest = state->input.ComputeDigest();
      state->digest_ready = true;
    }
    return state->digest;
  };
  // Memoize and replay hash the input in digest_fn before computing; the
  // calculation reuses that digest for its output-cache key.
  auto compute_fn = [this, state, digest_fn] {
    return ComputeCalc(state->input, state->bootstrap_path, digest_fn());
  };
  auto apply_fn = [this](const std::vector<uint8_t>& output, bool from_memo) {
    PendingRanges decoded;
    if (!PendingRanges::Decode(output, &decoded)) {
      SC_LOG(Error) << "node " << id_ << ": undecodable pending-range output";
      return;
    }
    pending_ranges_ = std::move(decoded);
  };

  auto prepare = [this, state] {
    core_.ClearRingDirty();
    ++*env_->calc_invocations;
    if (env_->trace != nullptr) {
      env_->trace->Record(env_->clock->Now(), TraceKind::kCalcStart, id_, kInvalidNode,
                          static_cast<int64_t>(core_.pending_changes().size()));
    }
    state->bootstrap_path =
        core_.ring().num_nodes() < static_cast<size_t>(env_->config->replication_factor);
    state->input.changes = core_.pending_changes();
    state->input.rf = env_->config->replication_factor;
  };
  auto finish = [this] {
    recalc_inflight_ = false;
    if (env_->trace != nullptr) {
      env_->trace->Record(env_->clock->Now(), TraceKind::kCalcDone, id_, kInvalidNode,
                          static_cast<int64_t>(pending_ranges_.size()));
    }
    MaybeScheduleRecalc();  // re-run if dirtied during the calculation
  };

  Job job("ring.recalc");
  switch (env_->config->calc_placement) {
    case CalcPlacement::kInlineGossipStage:
      job.Run([prepare, state, this] {
        prepare();
        state->input.ring = &core_.ring();
      });
      break;
    case CalcPlacement::kSeparateThreadCoarseLock:
      // The C5456 bug: the whole calculation (or its PIL sleep) happens with
      // the ring lock held.
      job.Lock(&ring_lock_);
      job.Run([prepare, state, this] {
        prepare();
        state->input.ring = &core_.ring();
      });
      break;
    case CalcPlacement::kSeparateThreadClone:
      // The C5456 fix: clone under the lock, release, then compute.
      job.Lock(&ring_lock_);
      job.Compute([this] { return static_cast<WorkUnits>(core_.ring().num_entries()) * 6; });
      job.Run([prepare, state, this] {
        prepare();
        state->ring_copy = core_.ring().Clone();
        state->input.ring = &state->ring_copy;
      });
      job.Unlock(&ring_lock_);
      break;
  }

  // The PIL boundary itself. The function id must distinguish the two code
  // paths (they memoize separately).
  PilFunctionId main_id = env_->calc_function;
  PilFunctionId boot_id = env_->bootstrap_function;
  // We cannot know the path before prepare() runs, so wrap the boundary with
  // the main id and fold the path into the digest: same effect, stable keys.
  auto path_digest_fn = [digest_fn, state, boot_id, main_id] {
    DigestValue d = digest_fn();
    d.lo = HashCombine(d.lo, state->bootstrap_path ? boot_id : main_id);
    return d;
  };
  env_->pil->Apply(&job, main_id, path_digest_fn, compute_fn, apply_fn);

  if (env_->config->calc_placement == CalcPlacement::kSeparateThreadCoarseLock) {
    job.Unlock(&ring_lock_);
  }
  job.Run(finish);
  CalcThread()->Enqueue(std::move(job));
}

PilBoundary::ComputeOutput Node::ComputeCalc(const CalcInput& input,
                                             bool bootstrap_path,
                                             const DigestValue& digest) {
  PendingRangeCalculator* calc =
      bootstrap_path ? env_->bootstrap_calc : env_->calculator;

  PilBoundary::ComputeOutput out;
  const CalcOutputCache::Entry* cached =
      env_->output_cache == nullptr ? nullptr
                                    : env_->output_cache->Find(calc->version(), digest);
  int64_t ops = 0;
  bool executed = false;
  if (cached != nullptr) {
    out.output = cached->output;
    out.work = cached->work;
    ops = cached->ops;
    executed = cached->executed;
  } else {
    PendingRangeCalculator::RunOutcome outcome =
        calc->Run(input, env_->config->execute_threshold_ops);
    out.output = outcome.pending.Encode();
    out.work = outcome.work;
    ops = outcome.ops;
    executed = outcome.executed;
    if (env_->output_cache != nullptr) {
      env_->output_cache->Put(calc->version(), digest,
                              CalcOutputCache::Entry{out.output, out.work, ops, executed});
    }
  }
  if (executed) {
    ++*env_->calc_executed_real;
  }
  env_->calc_durations->Add(env_->pil->WorkToDuration(out.work).seconds());
  if (env_->profile_hook) {
    env_->profile_hook(bootstrap_path ? env_->bootstrap_function : env_->calc_function,
                       ops, input.ring->num_entries());
  }
  return out;
}

}  // namespace scalecheck
