#include "src/ring/settled_cluster.h"

#include <utility>

#include "src/common/check.h"

namespace scalecheck {

EndpointState SettledMemberState(const std::vector<Token>& tokens) {
  EndpointState state(/*generation=*/1);
  VersionedValue status;
  status.version = 1;
  status.status = StatusKind::kNormal;
  status.tokens = tokens;
  state.Set(ApplicationStateKey::kStatus, std::move(status));
  return state;
}

SettledCluster::SettledCluster(
    const std::map<NodeId, std::vector<Token>>& members) {
  states_.reserve(members.size());
  for (const auto& [member, tokens] : members) {
    ring_.AddNode(member, tokens);
    states_.emplace(member, SettledMemberState(tokens));
  }
}

const std::vector<Token>& SettledCluster::TokensOf(NodeId member) const {
  auto it = states_.find(member);
  CHECK(it != states_.end()) << "settled node" << member << "not in member map";
  return it->second.Get(ApplicationStateKey::kStatus)->tokens;
}

}  // namespace scalecheck
