// FlatMap: a sorted-vector map with the std::map API subset the gossip
// payload containers actually use.
//
// Gossip payload maps (EndpointStateMap in SYN/ACK/ACK2) are built in
// strictly ascending key order — the merge-walk in Gossiper::HandleSyn and
// the wire decoder both emit sorted keys — so the common insertion is an
// O(1) append instead of a red-black-tree node allocation. Iteration is a
// contiguous scan (pair<Key, V> elements), which is where the SoA overhaul
// gets its cache behavior back on the 20%-of-profile state-copy path.
//
// Semantics match std::map where it matters: sorted deterministic
// iteration, emplace() does not overwrite an existing key, operator[]
// default-constructs, at() demands presence. Out-of-order inserts are
// supported (O(n) shift): an ACK's request list may come in any order, and
// ring members join in gossip order.

#ifndef SCALECHECK_SRC_COMMON_FLAT_MAP_H_
#define SCALECHECK_SRC_COMMON_FLAT_MAP_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include <tuple>

#include "src/common/check.h"

namespace scalecheck {

template <typename Key, typename V>
class FlatMap {
 public:
  using value_type = std::pair<Key, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }
  void reserve(size_t n) { entries_.reserve(n); }

  const_iterator find(Key key) const {
    const_iterator it = LowerBound(key);
    return (it != entries_.end() && it->first == key) ? it : entries_.end();
  }
  iterator find(Key key) {
    iterator it = LowerBound(key);
    return (it != entries_.end() && it->first == key) ? it : entries_.end();
  }
  size_t count(Key key) const { return find(key) == entries_.end() ? 0 : 1; }

  V& at(Key key) {
    iterator it = find(key);
    CHECK(it != entries_.end());
    return it->second;
  }
  const V& at(Key key) const {
    const_iterator it = find(key);
    CHECK(it != entries_.end());
    return it->second;
  }

  // Inserts default-constructed V if absent; ascending appends are O(1).
  V& operator[](Key key) {
    if (entries_.empty() || entries_.back().first < key) {
      entries_.emplace_back(key, V());
      return entries_.back().second;
    }
    iterator it = LowerBound(key);
    if (it != entries_.end() && it->first == key) {
      return it->second;
    }
    return entries_.emplace(it, key, V())->second;
  }

  // std::map semantics: no overwrite when the key already exists.
  template <typename... Args>
  std::pair<iterator, bool> emplace(Key key, Args&&... args) {
    if (entries_.empty() || entries_.back().first < key) {
      entries_.emplace_back(std::piecewise_construct, std::forward_as_tuple(key),
                            std::forward_as_tuple(std::forward<Args>(args)...));
      return {entries_.end() - 1, true};
    }
    iterator it = LowerBound(key);
    if (it != entries_.end() && it->first == key) {
      return {it, false};
    }
    it = entries_.emplace(it, std::piecewise_construct, std::forward_as_tuple(key),
                          std::forward_as_tuple(std::forward<Args>(args)...));
    return {it, true};
  }

  size_t erase(Key key) {
    iterator it = find(key);
    if (it == entries_.end()) {
      return 0;
    }
    entries_.erase(it);
    return 1;
  }

 private:
  iterator LowerBound(Key key) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, Key k) { return e.first < k; });
  }
  const_iterator LowerBound(Key key) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, Key k) { return e.first < k; });
  }

  std::vector<value_type> entries_;  // sorted by first
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_COMMON_FLAT_MAP_H_
