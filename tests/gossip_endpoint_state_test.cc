#include <gtest/gtest.h>

#include "src/gossip/endpoint_state.h"
#include "src/gossip/gossiper.h"

namespace scalecheck {
namespace {

TEST(EndpointStateTest, MaxVersionCoversHeartbeatAndAppStates) {
  EndpointState state(1);
  state.mutable_heartbeat().version = 5;
  EXPECT_EQ(state.MaxVersion(), 5);
  VersionedValue status;
  status.version = 9;
  status.status = StatusKind::kNormal;
  state.Set(ApplicationStateKey::kStatus, status);
  EXPECT_EQ(state.MaxVersion(), 9);
  state.mutable_heartbeat().version = 12;
  EXPECT_EQ(state.MaxVersion(), 12);
}

TEST(EndpointStateTest, StatusAccessors) {
  EndpointState state(1);
  EXPECT_EQ(state.Status(), StatusKind::kUnknown);
  EXPECT_TRUE(state.Tokens().empty());
  VersionedValue status;
  status.status = StatusKind::kLeaving;
  status.tokens = {10, 20};
  state.Set(ApplicationStateKey::kStatus, status);
  EXPECT_EQ(state.Status(), StatusKind::kLeaving);
  EXPECT_EQ(state.Tokens(), (std::vector<Token>{10, 20}));
}

TEST(EndpointStateTest, TokensFallBackToTokensState) {
  EndpointState state(1);
  VersionedValue tokens;
  tokens.tokens = {7};
  state.Set(ApplicationStateKey::kTokens, tokens);
  EXPECT_EQ(state.Tokens(), std::vector<Token>{7});
}

TEST(EndpointStateTest, GetReturnsNullForMissingKeys) {
  EndpointState state(1);
  EXPECT_EQ(state.Get(ApplicationStateKey::kLoad), nullptr);
  VersionedValue load;
  load.load = 0.7;
  state.Set(ApplicationStateKey::kLoad, load);
  ASSERT_NE(state.Get(ApplicationStateKey::kLoad), nullptr);
  EXPECT_DOUBLE_EQ(state.Get(ApplicationStateKey::kLoad)->load, 0.7);
}

TEST(EndpointStateTest, WireSizeGrowsWithContent) {
  EndpointState bare(1);
  EndpointState rich(1);
  VersionedValue status;
  status.status = StatusKind::kNormal;
  status.tokens.assign(100, 1);
  rich.Set(ApplicationStateKey::kStatus, status);
  EXPECT_GT(rich.WireSize(), bare.WireSize() + 100 * 8 - 1);
}

TEST(EndpointStateTest, DigestReflectsAllFields) {
  auto digest_of = [](int64_t gen, int64_t hb, StatusKind s) {
    EndpointState state(gen);
    state.mutable_heartbeat().version = hb;
    VersionedValue status;
    status.version = 1;
    status.status = s;
    state.Set(ApplicationStateKey::kStatus, status);
    Digest d;
    state.AddToDigest(&d);
    return d.Finish();
  };
  DigestValue base = digest_of(1, 1, StatusKind::kNormal);
  EXPECT_NE(digest_of(2, 1, StatusKind::kNormal), base);
  EXPECT_NE(digest_of(1, 2, StatusKind::kNormal), base);
  EXPECT_NE(digest_of(1, 1, StatusKind::kLeaving), base);
  EXPECT_EQ(digest_of(1, 1, StatusKind::kNormal), base);
}

static_assert(sizeof(EndpointState) <= 48,
              "EndpointState must stay a small handle");

VersionedValue Status(int64_t version, StatusKind kind, std::vector<Token> tokens) {
  VersionedValue value;
  value.version = version;
  value.status = kind;
  value.tokens = std::move(tokens);
  return value;
}

TEST(EndpointStateSharingTest, HeartbeatOnlyStateOwnsNoBlock) {
  EndpointState state(3);
  state.mutable_heartbeat().version = 40;
  EXPECT_FALSE(state.has_block());
  EXPECT_TRUE(state.app_states().empty());
  EXPECT_EQ(state.WireSize(), 16u);
  state.Set(ApplicationStateKey::kStatus, Status(1, StatusKind::kNormal, {5}));
  EXPECT_TRUE(state.has_block());
}

TEST(EndpointStateSharingTest, CopySharesTheBlock) {
  EndpointState original(1);
  original.Set(ApplicationStateKey::kStatus, Status(1, StatusKind::kNormal, {5, 9}));
  EndpointState copy = original;
  ASSERT_NE(copy.Get(ApplicationStateKey::kStatus), nullptr);
  EXPECT_EQ(copy.Get(ApplicationStateKey::kStatus),
            original.Get(ApplicationStateKey::kStatus));
  // The heartbeat is the handle's own: bumping it shares nothing.
  copy.mutable_heartbeat().version = 7;
  EXPECT_EQ(original.heartbeat().version, 0);
  EXPECT_EQ(copy.Get(ApplicationStateKey::kStatus),
            original.Get(ApplicationStateKey::kStatus));
}

TEST(EndpointStateSharingTest, SetOnACopyLeavesTheOriginalUnchanged) {
  EndpointState original(1);
  original.Set(ApplicationStateKey::kStatus, Status(1, StatusKind::kNormal, {5}));
  Digest before_digest;
  original.AddToDigest(&before_digest);
  const DigestValue before = before_digest.Finish();
  const VersionedValue* original_status = original.Get(ApplicationStateKey::kStatus);

  EndpointState copy = original;
  copy.Set(ApplicationStateKey::kStatus, Status(2, StatusKind::kLeaving, {5}));
  VersionedValue load;
  load.version = 3;
  load.load = 0.5;
  copy.Set(ApplicationStateKey::kLoad, load);

  EXPECT_EQ(copy.Status(), StatusKind::kLeaving);
  EXPECT_EQ(copy.MaxVersion(), 3);
  EXPECT_EQ(original.Status(), StatusKind::kNormal);
  EXPECT_EQ(original.Get(ApplicationStateKey::kLoad), nullptr);
  EXPECT_EQ(original.MaxVersion(), 1);
  // The original's block is untouched, so its Get() pointer stays valid.
  EXPECT_EQ(original.Get(ApplicationStateKey::kStatus), original_status);
  EXPECT_EQ(original_status->status, StatusKind::kNormal);
  Digest after_digest;
  original.AddToDigest(&after_digest);
  EXPECT_EQ(after_digest.Finish(), before);
}

TEST(EndpointStateSharingTest, DeltaSharesTheBlockOnlyWhenEveryValueIsNewer) {
  EndpointState state(1);
  state.mutable_heartbeat().version = 30;
  state.Set(ApplicationStateKey::kStatus, Status(4, StatusKind::kNormal, {5}));
  VersionedValue tokens;
  tokens.version = 9;
  tokens.tokens = {5};
  state.Set(ApplicationStateKey::kTokens, tokens);

  EndpointState all = state.DeltaAfter(3);
  EXPECT_EQ(all.Get(ApplicationStateKey::kStatus),
            state.Get(ApplicationStateKey::kStatus));
  EXPECT_EQ(all.MaxVersion(), 30);
  EXPECT_EQ(all.heartbeat().version, 30);

  EndpointState some = state.DeltaAfter(4);
  ASSERT_EQ(some.app_states().size(), 1u);
  EXPECT_EQ(some.Get(ApplicationStateKey::kStatus), nullptr);
  ASSERT_NE(some.Get(ApplicationStateKey::kTokens), nullptr);
  EXPECT_NE(some.Get(ApplicationStateKey::kTokens),
            state.Get(ApplicationStateKey::kTokens));
  EXPECT_EQ(some.Get(ApplicationStateKey::kTokens)->version, 9);

  EndpointState none = state.DeltaAfter(9);
  EXPECT_FALSE(none.has_block());
  EXPECT_EQ(none.heartbeat().version, 30);
  EXPECT_EQ(none.MaxVersion(), 30);
}

// ApplyStates reads each local value through Get() and then replaces the
// block with Set(). A Get() pointer kept across that Set() would read a
// freed block whenever the local handle was its only owner, which the ASan
// leg of scripts/check_thread_safety.sh reports.
TEST(EndpointStateSharingTest, MergeIntoSolelyOwnedBlocksReadsNoFreedValue) {
  Gossiper gossiper(/*self=*/0, /*generation=*/1, Gossiper::Callbacks{});
  EndpointState seeded(1);
  seeded.Set(ApplicationStateKey::kStatus, Status(1, StatusKind::kNormal, {5}));
  gossiper.AddKnownEndpoint(7, seeded);
  seeded = EndpointState(1);  // the gossiper's copy is now the block's only owner

  EndpointState remote(1);
  remote.mutable_heartbeat().version = 2;
  remote.Set(ApplicationStateKey::kStatus, Status(2, StatusKind::kLeaving, {5}));
  VersionedValue tokens;
  tokens.version = 3;
  tokens.tokens = {5};
  remote.Set(ApplicationStateKey::kTokens, tokens);
  VersionedValue load;
  load.version = 4;
  load.load = 0.25;
  remote.Set(ApplicationStateKey::kLoad, load);
  EndpointStateMap batch;
  batch.emplace(7, remote);
  gossiper.ApplyStates(batch);

  const EndpointState* merged = gossiper.StateOf(7);
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->Status(), StatusKind::kLeaving);
  EXPECT_EQ(merged->app_states().size(), 3u);
  EXPECT_EQ(merged->MaxVersion(), 4);
  EXPECT_EQ(gossiper.states_applied(), 3u);
}

TEST(StatusKindNames, AllDistinct) {
  EXPECT_STREQ(StatusKindName(StatusKind::kBootstrapping), "BOOT");
  EXPECT_STREQ(StatusKindName(StatusKind::kNormal), "NORMAL");
  EXPECT_STREQ(StatusKindName(StatusKind::kLeaving), "LEAVING");
  EXPECT_STREQ(StatusKindName(StatusKind::kLeft), "LEFT");
  EXPECT_STREQ(StatusKindName(StatusKind::kRemoved), "REMOVED");
}

}  // namespace
}  // namespace scalecheck
