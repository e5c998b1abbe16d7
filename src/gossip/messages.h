// Gossip wire messages: the Cassandra-style three-way anti-entropy exchange.
//
//   X -> Y  SYN : digests of everything X knows (endpoint, generation,
//                 max version)
//   Y -> X  ACK : states Y has that X is missing, plus digests of what Y
//                 wants from X
//   X -> Y  ACK2: the states Y requested
//
// Payload objects are immutable after send (shared_ptr<const>), so a payload
// can be delivered to a node that processes it much later without copying.

#ifndef SCALECHECK_SRC_GOSSIP_MESSAGES_H_
#define SCALECHECK_SRC_GOSSIP_MESSAGES_H_

#include <vector>

#include "src/gossip/endpoint_state.h"
#include "src/transport/message.h"

namespace scalecheck {

// Message::type discriminators for gossip traffic.
enum GossipMessageType : int {
  kGossipSyn = 1,
  kGossipAck = 2,
  kGossipAck2 = 3,
};

struct GossipDigest {
  NodeId endpoint = kInvalidNode;
  int64_t generation = 0;
  int64_t max_version = 0;
};

// SizeBytes accounts digest sections at their delta-varint encoded size
// (src/gossip/digest_codec.h) so the simulated NetworkModel charges the same
// bytes the v2 wire format ships; implementations live in messages.cc.

struct SynPayload : public Payload {
  std::vector<GossipDigest> digests;

  // Measures the encoded size once and keeps it, so the sender's byte
  // counter and the network model do not both walk N digests. Call it after
  // the last change to `digests`, before the payload is shared: SizeBytes()
  // stays a pure read, safe on payloads other threads hold.
  size_t CacheSize() {
    size_bytes_ = SizeBytes();
    return size_bytes_;
  }
  size_t SizeBytes() const override;

 private:
  size_t size_bytes_ = 0;  // 0: not cached (a real size is at least 16)
};

struct AckPayload : public Payload {
  // States the receiver is missing (sender is ahead).
  EndpointStateMap states;
  // Digests the sender wants full states for (receiver is ahead).
  std::vector<GossipDigest> requests;

  size_t SizeBytes() const override;
};

struct Ack2Payload : public Payload {
  EndpointStateMap states;

  size_t SizeBytes() const override;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_GOSSIP_MESSAGES_H_
