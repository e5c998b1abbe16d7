// The settled view every initial member of a deployment starts from.
//
// A settled deployment primes each of its N initial members with the same
// knowledge: a ring holding every member's tokens, and one STATUS=NORMAL
// endpoint state per member. Building that per node cost N ring inserts and
// N state constructions on each of N nodes. SettledCluster builds both once;
// each node then clones the ring (three flat vector copies) and copies the
// states, which share their immutable app-state blocks (see
// src/gossip/endpoint_state.h). Both carriers prime from it:
// cluster::Node::PrimeSettled and net::RealNode::PrimeSettled.

#ifndef SCALECHECK_SRC_RING_SETTLED_CLUSTER_H_
#define SCALECHECK_SRC_RING_SETTLED_CLUSTER_H_

#include <map>
#include <vector>

#include "src/common/types.h"
#include "src/gossip/endpoint_state.h"
#include "src/ring/token_ring.h"

namespace scalecheck {

// The peer-visible state of a settled member with `tokens`: generation 1,
// heartbeat 0, STATUS=NORMAL at version 1 carrying the tokens. Joiners are
// primed with the seeds' states built the same way.
EndpointState SettledMemberState(const std::vector<Token>& tokens);

class SettledCluster {
 public:
  // `members` maps every settled member to its tokens.
  explicit SettledCluster(const std::map<NodeId, std::vector<Token>>& members);

  const TokenRing& ring() const { return ring_; }
  // Every member's SettledMemberState, ascending by id.
  const EndpointStateMap& states() const { return states_; }
  // `member`'s tokens in the order it was given them.
  const std::vector<Token>& TokensOf(NodeId member) const;

 private:
  TokenRing ring_;
  EndpointStateMap states_;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_RING_SETTLED_CLUSTER_H_
