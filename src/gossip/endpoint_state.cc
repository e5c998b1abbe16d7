#include "src/gossip/endpoint_state.h"

#include <algorithm>

namespace scalecheck {

const char* StatusKindName(StatusKind kind) {
  switch (kind) {
    case StatusKind::kUnknown:
      return "UNKNOWN";
    case StatusKind::kBootstrapping:
      return "BOOT";
    case StatusKind::kNormal:
      return "NORMAL";
    case StatusKind::kLeaving:
      return "LEAVING";
    case StatusKind::kLeft:
      return "LEFT";
    case StatusKind::kRemoved:
      return "REMOVED";
  }
  return "?";
}

void VersionedValue::AddToDigest(Digest* d) const {
  d->Add(version);
  d->Add(static_cast<int64_t>(status));
  d->Add(load);
  d->AddRange(tokens);
}

void HeartbeatState::AddToDigest(Digest* d) const {
  d->Add(generation);
  d->Add(version);
}

const VersionedValue* EndpointState::Get(ApplicationStateKey key) const {
  int index = static_cast<int>(key);
  if ((present_mask_ & (1u << index)) == 0) {
    return nullptr;
  }
  return &block_->values[index];
}

void EndpointState::Set(ApplicationStateKey key, VersionedValue value) {
  int64_t version = value.version;
  int index = static_cast<int>(key);
  auto block = block_ == nullptr ? std::make_shared<AppStateBlock>()
                                 : std::make_shared<AppStateBlock>(*block_);
  block->values[index] = std::move(value);
  block_ = std::move(block);
  present_mask_ |= (1u << index);
  if (version >= app_version_ceiling_) {
    app_version_ceiling_ = version;
  } else {
    // An overwrite may have lowered the key that held the ceiling; recompute
    // exactly (at most three app states exist).
    app_version_ceiling_ = 0;
    for (const auto& [k, v] : app_states()) {
      app_version_ceiling_ = std::max(app_version_ceiling_, v.version);
    }
  }
}

EndpointState EndpointState::DeltaAfter(int64_t after_version) const {
  EndpointState delta;
  delta.heartbeat_ = heartbeat_;
  uint8_t newer = 0;
  for (const auto& [key, value] : app_states()) {
    if (value.version > after_version) {
      newer |= static_cast<uint8_t>(1u << static_cast<int>(key));
    }
  }
  if (newer == 0) {
    return delta;
  }
  if (newer == present_mask_) {
    delta.block_ = block_;
    delta.present_mask_ = present_mask_;
    delta.app_version_ceiling_ = app_version_ceiling_;
    return delta;
  }
  // A strict subset: one new block with just the newer values (the ceiling
  // is their max, exactly what Set-ing them one by one would leave).
  auto block = std::make_shared<AppStateBlock>();
  for (const auto& [key, value] : app_states()) {
    int index = static_cast<int>(key);
    if ((newer & (1u << index)) != 0) {
      block->values[index] = value;
      delta.app_version_ceiling_ =
          std::max(delta.app_version_ceiling_, value.version);
    }
  }
  delta.block_ = std::move(block);
  delta.present_mask_ = newer;
  return delta;
}

StatusKind EndpointState::Status() const {
  const VersionedValue* v = Get(ApplicationStateKey::kStatus);
  return v == nullptr ? StatusKind::kUnknown : v->status;
}

std::vector<Token> EndpointState::Tokens() const {
  const VersionedValue* v = Get(ApplicationStateKey::kStatus);
  if (v != nullptr && !v->tokens.empty()) {
    return v->tokens;
  }
  v = Get(ApplicationStateKey::kTokens);
  return v == nullptr ? std::vector<Token>{} : v->tokens;
}

size_t EndpointState::WireSize() const {
  size_t size = 16;  // heartbeat
  for (const auto& [key, value] : app_states()) {
    size += 24 + value.tokens.size() * 8;
  }
  return size;
}

void EndpointState::AddToDigest(Digest* d) const {
  heartbeat_.AddToDigest(d);
  d->Add(static_cast<uint64_t>(app_states().size()));
  for (const auto& [key, value] : app_states()) {
    d->Add(static_cast<int64_t>(key));
    value.AddToDigest(d);
  }
}

}  // namespace scalecheck
