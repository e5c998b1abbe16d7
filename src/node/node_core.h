// The protocol core of one node, shared by both carriers.
//
// NodeCore holds a node's protocol state — the gossip state machine, the
// phi failure detector, the ring view, the pending membership changes, the
// KV service — and every reaction to it: what a STATUS change, a heartbeat
// or a peer restart does to the ring and the detector, which peers a round
// SYNs, who the failure sweep convicts. The sim Node (src/cluster/node.cc)
// and the real-socket RealNode (src/net/real_node.cc) each own one and keep
// only what is carrier-specific: scheduling, the pending-range calculation
// (and PIL around it), the memory model, and locking. So the colocated run
// and the deployment it stands in for execute the same protocol code.
//
// Not thread-safe: the owner serializes access (the simulator's one event at
// a time, or RealNode's per-node mutex).

#ifndef SCALECHECK_SRC_NODE_NODE_CORE_H_
#define SCALECHECK_SRC_NODE_NODE_CORE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/gossip/failure_detector.h"
#include "src/gossip/flap_counter.h"
#include "src/gossip/gossiper.h"
#include "src/kv/kv_config.h"
#include "src/kv/kv_service.h"
#include "src/ring/pending_ranges.h"
#include "src/ring/token_ring.h"
#include "src/sim/trace.h"
#include "src/transport/substrate.h"

namespace scalecheck {

class KvHistory;
class SettledCluster;

class NodeCore {
 public:
  // `clock` and `flaps` outlive the core; `trace` may be null. `token_seed`
  // derives this node's tokens when it has none (GenerateTokens).
  // `pending_changed` (may be null) fires whenever a pending change is added
  // or removed. With `plant_left_join_bug`, a view that first meets an
  // endpoint already LEFT claims its tokens back (CheckOptions).
  NodeCore(NodeId self, uint64_t seed, Clock* clock, FlapCounter* flaps,
           TraceRecorder* trace, const PhiAccrualFailureDetector::Config& fd,
           int replication_factor, int vnodes_per_node, uint64_t token_seed,
           bool plant_left_join_bug, std::function<void()> pending_changed);
  NodeCore(const NodeCore&) = delete;
  NodeCore& operator=(const NodeCore&) = delete;

  // Builds the KV service over this core's ring and liveness view. Replica
  // work runs on `stage`; `charge` (may be null) receives storage-footprint
  // deltas and `history` (may be null) the client-op history.
  void EnableKv(Transport* transport, Stage* stage, const KvConfig& config,
                bool plant_ack_before_sync, bool plant_repair_storm,
                KvHistory* history, std::function<void(int64_t)> charge);

  // ---- Priming (before the node starts) ------------------------------------

  // All members NORMAL with their tokens: the ring is cloned from the
  // template, peer states are shared with it, the detector is primed.
  void PrimeSettled(const SettledCluster& settled);
  // Peers known at start, with their tokens (self is skipped).
  void PrimeSeeds(const std::map<NodeId, std::vector<Token>>& seed_members);
  // Bare contact addresses with no known state (self is skipped).
  void PrimeContacts(const std::vector<NodeId>& contacts);
  // Seeds for the islanded-node fallback of PickSynTargets (self is skipped).
  void SetSeedContacts(const std::vector<NodeId>& contacts);

  // ---- This node's own transitions -----------------------------------------

  // Announces STATUS `status` with this node's tokens (generated on first
  // use) and applies it to the local view as a peer applies it on receipt.
  void Announce(StatusKind status);
  // A fresh process after a crash: forgets all protocol state, announces
  // NORMAL under `generation` with the durable tokens, and re-learns the
  // cluster from `contacts`. The ring is not marked dirty.
  void ResetForRestart(int64_t generation, const std::vector<NodeId>& contacts);

  // ---- One gossip round ----------------------------------------------------

  // This round's SYN targets, kInvalidNode marking an unused slot, drawn in
  // this order: a random live peer; the gossip-to-unreachable draw; a seed
  // contact when the live view is empty (an islanded node rejoins).
  std::array<NodeId, 3> PickSynTargets();
  // Convicts every monitored live peer whose phi is over the threshold.
  void SweepFailures();

  // ---- State ---------------------------------------------------------------

  Rng& rng() { return rng_; }
  Gossiper& gossiper() { return gossiper_; }
  const Gossiper& gossiper() const { return gossiper_; }
  const PhiAccrualFailureDetector& failure_detector() const { return fd_; }
  const TokenRing& ring() const { return ring_; }
  // Sorted: GenerateTokens sorts them and the settled template hands them out
  // as generated.
  const std::vector<Token>& my_tokens() const { return my_tokens_; }
  const std::vector<PendingChange>& pending_changes() const { return pending_changes_; }
  // Set by every ring or pending-change mutation; the carrier clears it when
  // it starts a pending-range calculation.
  bool ring_dirty() const { return ring_dirty_; }
  void ClearRingDirty() { ring_dirty_ = false; }
  // Endpoints the failure detector ignores: this node and departed peers.
  // A bitmap over the dense NodeIds, probed per heartbeat and per sweep.
  bool IsUnmonitored(NodeId ep) const {
    size_t word = static_cast<size_t>(ep) >> 6;
    return word < unmonitored_.size() && ((unmonitored_[word] >> (ep & 63)) & 1) != 0;
  }
  // Non-null after EnableKv.
  KvService* kv() { return kv_.get(); }
  const KvService* kv() const { return kv_.get(); }

 private:
  // Gossiper callbacks.
  void OnStatusChange(NodeId ep, StatusKind old_status, StatusKind new_status);
  void OnHeartbeat(NodeId ep);
  void OnRestart(NodeId ep);

  void AddPendingChange(PendingChange change);
  void RemovePendingChange(NodeId ep);
  bool HasPendingChange(NodeId ep) const;
  void Unmonitor(NodeId ep);

  const NodeId self_;
  const uint64_t seed_;
  Clock* const clock_;
  FlapCounter* const flaps_;
  TraceRecorder* const trace_;
  const int replication_factor_;
  const int vnodes_per_node_;
  const uint64_t token_seed_;
  const bool plant_left_join_bug_;
  const std::function<void()> pending_changed_;

  Rng rng_;
  Gossiper gossiper_;
  PhiAccrualFailureDetector fd_;
  TokenRing ring_;
  std::vector<Token> my_tokens_;
  std::vector<PendingChange> pending_changes_;
  bool ring_dirty_ = false;
  std::vector<uint64_t> unmonitored_;  // bit per NodeId
  std::vector<NodeId> seed_contacts_;  // excludes self
  std::unique_ptr<KvService> kv_;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_NODE_NODE_CORE_H_
