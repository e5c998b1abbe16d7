// One in-process node of the real-socket deployment.
//
// This is the real-mode counterpart of src/cluster/node.cc: the same
// NodeCore (gossip, failure detection, ring and KV reactions) driven over
// the substrate seam instead of the simulator. Where the sim Node spreads
// work across staged SimThreads to *model* contention, RealNode runs
// everything under one per-node mutex — real threads (socket readers, the
// timer thread, the driver) provide the concurrency, and the monitor
// provides the protocol-code guarantee both carriers share: one event at a
// time per node.
//
// Deliberately below-seam features of the sim Node have no counterpart
// here: PIL boundaries, memory modelling, fault injection, order
// enforcement. See DESIGN.md's substrate-seam section.

#ifndef SCALECHECK_SRC_NET_REAL_NODE_H_
#define SCALECHECK_SRC_NET_REAL_NODE_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "src/gossip/failure_detector.h"
#include "src/gossip/flap_counter.h"
#include "src/gossip/gossiper.h"
#include "src/gossip/messages.h"
#include "src/kv/kv_service.h"
#include "src/net/real_clock.h"
#include "src/node/node_core.h"
#include "src/ring/calculators.h"
#include "src/ring/pending_ranges.h"
#include "src/ring/token_ring.h"
#include "src/transport/substrate.h"

namespace scalecheck {

class SettledCluster;

class RealNode {
 public:
  struct Options {
    VirtualDuration gossip_interval = VirtualDuration::Millis(100);
    PhiAccrualFailureDetector::Config fd;
    int replication_factor = 3;
    int vnodes_per_node = 8;
    uint64_t seed = 1;
    bool enable_kv = false;
    // The same KV tunables as the simulator's ClusterConfig::kv, with one
    // difference in defaults: repair ticks every 2 s with a 5 s session
    // timeout (the simulator's are 10 s and 10 s) because a real-mode smoke
    // lasts seconds of wall clock and its repair phase must see several
    // sessions. The WAL here exercises deferred group-commit acks and hint
    // replay; real-mode crashes are process exits, so there is no recovery.
    KvConfig kv{.repair = {.interval = VirtualDuration::Seconds(2),
                           .session_timeout = VirtualDuration::Seconds(5)}};
    // The planted repair-storm bug. The ack-before-sync bug has no
    // counterpart here: it needs a crash inside the sync window.
    bool plant_repair_storm = false;
    // Seed addresses for the gossip-to-unreachable escape hatch (self is
    // filtered out). When the live view is empty, the round SYNs one of
    // these unconditionally so an islanded node rejoins after a partition.
    std::vector<NodeId> seed_contacts;
  };

  // `transport` and `clock` outlive the node.
  RealNode(NodeId id, const Options& options, Transport* transport, Clock* clock);
  ~RealNode();
  RealNode(const RealNode&) = delete;
  RealNode& operator=(const RealNode&) = delete;

  NodeId id() const { return id_; }

  // Pre-start: install the settled template (self included), as the sim
  // Node's PrimeSettled does, or just seed contacts.
  void PrimeSettled(const SettledCluster& settled);
  void PrimeSeeds(const std::map<NodeId, std::vector<Token>>& seed_members);

  // Registers with the transport and starts the periodic gossip round.
  void Start();
  // Stops gossip and leaves the transport. Safe to call twice.
  void Stop();

  // KV client entry points (no-ops calling done(kUnavailable) without KV).
  void KvWrite(uint64_t key, std::string value, KvService::DoneFn done);
  void KvRead(uint64_t key, KvService::DoneFn done);

  // ---- Snapshots (taken under the node mutex) ----------------------------
  // True when this node sees `n` members: knows n endpoints, all alive,
  // every status NORMAL, and the ring holds n nodes.
  bool SeesConvergedCluster(int n) const;
  size_t known_endpoints() const;
  size_t live_endpoints() const;
  // Known-but-dead peers that have not departed (the healing target set).
  size_t unreachable_endpoints() const;
  // This node's flaps as observer: alive->dead transitions and the distinct
  // peers it convicted at least once.
  int64_t total_flaps() const;
  int64_t flapped_pairs() const;
  // Written only before Start(), so safe to read without the node mutex.
  // Sorted, like the sim Node's.
  const std::vector<Token>& my_tokens() const { return core_.my_tokens(); }
  // The KvService's configuration (null without KV); fixed at construction.
  const KvConfig* kv_config() const {
    return core_.kv() != nullptr ? &core_.kv()->config() : nullptr;
  }
  const KvStats KvStatsSnapshot() const;
  // Replica-convergence audit hooks (real-mode verdict synthesis): the local
  // storage version of `key` (0 = absent / KV off) and this node's view of
  // the key's natural replica set.
  int64_t KvTimestampOf(uint64_t key) const;
  std::vector<NodeId> KvNaturalEndpoints(uint64_t key) const;
  // Runs `fn` under the node mutex over the ring, endpoint table and failure
  // detector (tests compare them across carriers and priming paths).
  void Inspect(const std::function<void(const TokenRing&, const Gossiper&,
                                        const PhiAccrualFailureDetector&)>& fn) const;
  // Runs `fn` under the node mutex over the protocol core (tests drive its
  // reactions directly).
  void WithCore(const std::function<void(NodeCore&)>& fn);

 private:
  void OnMessage(const Message& msg);
  void GossipRound();
  void HandleSyn(const Message& msg);
  void HandleAck(const Message& msg);
  void HandleAck2(const Message& msg);

  void SendSynTo(NodeId peer);
  void MaybeRecalc();

  const NodeId id_;
  const Options options_;
  Transport* transport_;

  mutable std::mutex mu_;
  SerializedClock clock_;  // wraps the shared RealClock with mu_
  RealStage stage_;
  FlapCounter flaps_;  // this node's observations; RealCluster sums them
  NodeCore core_;
  std::unique_ptr<PendingRangeCalculator> calculator_;
  PendingRanges pending_ranges_;
  std::unique_ptr<PeriodicClockTimer> gossip_timer_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_NET_REAL_NODE_H_
