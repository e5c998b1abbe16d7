// Gossip endpoint state, Cassandra-style.
//
// Every node maintains a store from peer endpoint to EndpointState. An
// EndpointState is a heartbeat (generation = boot epoch, version = counter
// incremented every gossip round) plus a set of versioned application states
// (STATUS, TOKENS, LOAD). Anti-entropy exchanges ship the states whose
// versions the peer has not seen. Ring-membership changes (BOOT / LEAVING /
// LEFT) ride on the STATUS application state — which is why the
// pending-range calculation is triggered from the gossip stage, and why an
// expensive calculation starves gossip processing (bugs C3831..C6127).
//
// Layout: an EndpointState is a 48-byte handle. It holds the heartbeat, the
// app-state version ceiling, a presence bitmask and a shared pointer to an
// immutable AppStateBlock (a fixed std::array<VersionedValue, 3>). Copying a
// state shares its block; Set builds a new block, so a copy never sees a
// later Set on another copy. A heartbeat-only state (almost every gossip
// delta in steady state) owns no block at all. Blocks are never written
// after construction, so handles on different threads (the real-socket
// carrier's nodes, primed from one src/ring/settled_cluster.h template) may
// share them.
//
// Pointer rule: Get() and app_states() point into the current block. Set()
// on the same handle replaces that block and frees it if no other copy holds
// it, so neither may be used after a Set() on the handle it came from.
//
// app_states() returns a lightweight view that iterates present entries in
// ascending key order, so digest/wire/merge loops see exactly the old map
// order.

#ifndef SCALECHECK_SRC_GOSSIP_ENDPOINT_STATE_H_
#define SCALECHECK_SRC_GOSSIP_ENDPOINT_STATE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/hash.h"
#include "src/common/types.h"

namespace scalecheck {

// Ring position token (consistent-hashing position on [0, 2^64)).
using Token = uint64_t;

enum class ApplicationStateKey : int {
  kStatus = 0,
  kTokens = 1,
  kLoad = 2,
};

inline constexpr int kNumApplicationStateKeys = 3;

enum class StatusKind : int {
  kUnknown = 0,
  kBootstrapping = 1,  // joining: pending token claims
  kNormal = 2,         // settled member
  kLeaving = 3,        // decommission announced
  kLeft = 4,           // decommission complete
  kRemoved = 5,        // forcibly removed
};

const char* StatusKindName(StatusKind kind);

// One versioned application state value. Tokens ride along for STATUS and
// TOKENS states (Cassandra packs them into the value string; we keep them
// typed).
struct VersionedValue {
  int64_t version = 0;
  StatusKind status = StatusKind::kUnknown;  // meaningful for kStatus
  double load = 0.0;                         // meaningful for kLoad
  std::vector<Token> tokens;                 // meaningful for kStatus/kTokens

  void AddToDigest(Digest* d) const;
};

struct HeartbeatState {
  int64_t generation = 0;  // node boot epoch; higher = restarted instance
  int64_t version = 0;     // incremented every gossip round

  void AddToDigest(Digest* d) const;
};

// The immutable app-state values an EndpointState points at. Slots whose
// bit is clear in the owning handle's presence mask hold default values.
struct AppStateBlock {
  std::array<VersionedValue, kNumApplicationStateKeys> values;
};

// Iterable view over the present app states of an EndpointState, in
// ascending key order. Dereferences to pair<key, const VersionedValue&> so
// the structured-binding loops written against the old std::map still work.
class AppStateView {
 public:
  class Iterator {
   public:
    Iterator(const std::array<VersionedValue, kNumApplicationStateKeys>* values,
             uint8_t mask, int index)
        : values_(values), mask_(mask), index_(index) {
      SkipAbsent();
    }

    std::pair<ApplicationStateKey, const VersionedValue&> operator*() const {
      return {static_cast<ApplicationStateKey>(index_), (*values_)[index_]};
    }
    Iterator& operator++() {
      ++index_;
      SkipAbsent();
      return *this;
    }
    bool operator==(const Iterator& other) const { return index_ == other.index_; }
    bool operator!=(const Iterator& other) const { return index_ != other.index_; }

   private:
    void SkipAbsent() {
      while (index_ < kNumApplicationStateKeys &&
             (mask_ & (1u << index_)) == 0) {
        ++index_;
      }
    }

    const std::array<VersionedValue, kNumApplicationStateKeys>* values_;
    uint8_t mask_;
    int index_;
  };

  AppStateView(const std::array<VersionedValue, kNumApplicationStateKeys>* values,
               uint8_t mask)
      : values_(values), mask_(mask) {}

  Iterator begin() const { return Iterator(values_, mask_, 0); }
  Iterator end() const { return Iterator(values_, mask_, kNumApplicationStateKeys); }
  size_t size() const {
    return static_cast<size_t>(__builtin_popcount(mask_));
  }
  bool empty() const { return mask_ == 0; }

 private:
  const std::array<VersionedValue, kNumApplicationStateKeys>* values_;
  uint8_t mask_;
};

class EndpointState {
 public:
  EndpointState() = default;
  explicit EndpointState(int64_t generation) { heartbeat_.generation = generation; }

  const HeartbeatState& heartbeat() const { return heartbeat_; }
  HeartbeatState& mutable_heartbeat() { return heartbeat_; }

  // Highest version carried by this state (heartbeat or any app state); this
  // is what gossip digests advertise. Inline: the SYN merge-walk reads it for
  // every (local endpoint × digest) pair.
  int64_t MaxVersion() const {
    return heartbeat_.version > app_version_ceiling_ ? heartbeat_.version
                                                     : app_version_ceiling_;
  }

  // Null when `key` is absent. See the pointer rule at the top of the file.
  const VersionedValue* Get(ApplicationStateKey key) const;
  // Builds a new block holding the current values plus `value` at `key`.
  void Set(ApplicationStateKey key, VersionedValue value);
  AppStateView app_states() const {
    return AppStateView(block_ == nullptr ? nullptr : &block_->values,
                        present_mask_);
  }

  // The heartbeat plus only the app states newer than `after_version` (a
  // gossip delta). Shares this state's block when every present app state
  // qualifies, so the common cases allocate nothing.
  EndpointState DeltaAfter(int64_t after_version) const;

  // Convenience: current STATUS kind (kUnknown if absent).
  StatusKind Status() const;
  // Tokens from the STATUS (falling back to TOKENS) state.
  std::vector<Token> Tokens() const;

  // Approximate serialized size for network accounting.
  size_t WireSize() const;

  void AddToDigest(Digest* d) const;

  // False for a heartbeat-only state: it allocates nothing.
  bool has_block() const { return block_ != nullptr; }

 private:
  HeartbeatState heartbeat_;
  // Max version across present app states, maintained by Set so the
  // digest-building hot path reads MaxVersion in O(1).
  int64_t app_version_ceiling_ = 0;
  std::shared_ptr<const AppStateBlock> block_;  // null iff present_mask_ == 0
  uint8_t present_mask_ = 0;
};

static_assert(sizeof(EndpointState) <= 48,
              "EndpointState is a handle; app states live in the shared block");

// Sorted-by-endpoint payload container: deterministic iteration is
// load-bearing for reproducibility, and the protocol emits keys in
// ascending order, so inserts are O(1) appends (see src/common/flat_map.h).
using EndpointStateMap = FlatMap<NodeId, EndpointState>;

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_GOSSIP_ENDPOINT_STATE_H_
