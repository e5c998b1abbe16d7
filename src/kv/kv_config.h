// Every tunable of the KV data path, declared once.
//
// ClusterConfig (the simulator), RealNode::Options (real sockets),
// KvService::Deps and InvariantContext each hold one KvConfig, so both
// carriers run the same knobs and a new knob cannot be dropped by one of
// them. The planted bugs are not tunables: they ride in CheckOptions
// (simulator) and RealNode::Options, and reach KvService::Deps beside this.
//
// Like kv_consistency.h, this header stays free of the KvService include
// graph so config consumers can name it cheaply.

#ifndef SCALECHECK_SRC_KV_KV_CONFIG_H_
#define SCALECHECK_SRC_KV_KV_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "src/common/types.h"
#include "src/kv/kv_consistency.h"

namespace scalecheck {

struct KvConfig {
  // Ack threshold for reads and writes (ONE / QUORUM / ALL).
  KvConsistency consistency = KvConsistency::kQuorum;
  // Per-attempt quorum timeout.
  VirtualDuration timeout = VirtualDuration::Seconds(2);
  // Client attempts per request, with jittered exponential backoff between
  // them. The default is non-retrying so the control-plane experiments
  // observe raw unavailability; fault-injection runs opt in.
  int max_attempts = 1;
  // Durable replica path: replica writes append to a per-node WAL and are
  // acked only after the group-commit sync; a crash loses the unsynced tail
  // plus the in-memory engine, restart replays the durable prefix. Off by
  // default so the control-plane experiments keep their calibrated
  // (unrealistically crash-durable) storage behaviour.
  bool wal = false;
  VirtualDuration wal_sync_interval = VirtualDuration::Millis(250);
  // Hinted handoff: total hints per coordinator (zero disables) and per-hint
  // TTL.
  size_t hint_limit = 1024;
  VirtualDuration hint_ttl = VirtualDuration::Seconds(120);

  // Anti-entropy repair (anti_entropy.h): periodic Merkle-tree sessions
  // against co-replica peers, streaming only differing leaf ranges. Off by
  // default: when off no AntiEntropy instance exists and the pre-anti-entropy
  // RNG/golden behaviour is untouched.
  struct Repair {
    bool enabled = false;
    VirtualDuration interval = VirtualDuration::Seconds(10);
    // Overload-safety knobs: token-bucket byte rate, concurrent session cap
    // and per-session timeout.
    int64_t rate_bytes = 256 * 1024;
    int max_sessions = 1;
    VirtualDuration session_timeout = VirtualDuration::Seconds(10);

    bool operator==(const Repair&) const = default;
  };
  Repair repair;

  bool operator==(const KvConfig&) const = default;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_KV_KV_CONFIG_H_
