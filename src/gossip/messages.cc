#include "src/gossip/messages.h"

#include "src/gossip/digest_codec.h"

namespace scalecheck {

size_t SynPayload::SizeBytes() const {
  if (size_bytes_ != 0) {
    return size_bytes_;
  }
  return 16 + digest_codec::MeasureBytes(digests);
}

size_t AckPayload::SizeBytes() const {
  size_t size = 16 + digest_codec::MeasureBytes(requests);
  for (const auto& [node, state] : states) {
    size += 8 + state.WireSize();
  }
  return size;
}

size_t Ack2Payload::SizeBytes() const {
  size_t size = 16;
  for (const auto& [node, state] : states) {
    size += 8 + state.WireSize();
  }
  return size;
}

}  // namespace scalecheck
