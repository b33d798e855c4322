#include "core/arena.h"

#include <algorithm>
#include <stdexcept>

namespace willow::core {

std::uint32_t ServerArena::add(hier::NodeId node) {
  const auto slot = static_cast<std::uint32_t>(node_of_.size());
  node_of_.push_back(node);
  if (node >= slot_of_node_.size()) {
    slot_of_node_.resize(static_cast<std::size_t>(node) + 1, kNoSlot);
  }
  if (slot_of_node_[node] != kNoSlot) {
    throw std::logic_error("ServerArena: node registered twice");
  }
  slot_of_node_[node] = slot;
  indexed_tree_size_ = 0;  // span index (if any) is stale now
  return slot;
}

std::uint32_t ServerArena::checked_slot_of(hier::NodeId node) const {
  const std::uint32_t slot = slot_of(node);
  if (slot == kNoSlot) {
    throw std::out_of_range("ServerArena: node is not a server");
  }
  return slot;
}

void ServerArena::build_subtree_index(const hier::Tree& tree) {
  const std::size_t n = tree.size();
  spans_.assign(n, SpanRec{});
  overflow_.clear();
  fragmented_ = 0;

  // Pass 1: per node, the min/max slot and count of server descendants.
  // A node whose [min, max] range is exactly `count` wide holds a contiguous
  // run of creation order and needs no materialized list.
  std::vector<std::uint32_t> min_slot(n, kNoSlot);
  std::vector<std::uint32_t> max_slot(n, 0);
  for (std::uint32_t s = 0; s < node_of_.size(); ++s) {
    for (hier::NodeId cur = node_of_[s]; cur != hier::kNoNode;
         cur = tree.node(cur).parent()) {
      min_slot[cur] = std::min(min_slot[cur], s);
      max_slot[cur] = std::max(max_slot[cur], s);
      ++spans_[cur].count;
    }
  }

  std::vector<hier::NodeId> fragmented_nodes;
  for (hier::NodeId id = 0; id < n; ++id) {
    auto& rec = spans_[id];
    if (rec.count == 0) continue;
    if (max_slot[id] - min_slot[id] + 1 == rec.count) {
      rec.first = min_slot[id];
    } else {
      fragmented_nodes.push_back(id);
    }
  }
  fragmented_ = fragmented_nodes.size();

  // Pass 2 (rare): materialize explicit slot lists, preserving creation
  // order, for the nodes whose descendants interleave with other subtrees.
  if (!fragmented_nodes.empty()) {
    std::vector<std::uint32_t> cursor(fragmented_nodes.size(), 0);
    std::size_t offset = 0;
    for (std::size_t k = 0; k < fragmented_nodes.size(); ++k) {
      auto& rec = spans_[fragmented_nodes[k]];
      rec.overflow = static_cast<std::uint32_t>(offset);
      cursor[k] = rec.overflow;
      offset += rec.count;
    }
    overflow_.resize(offset);
    std::vector<std::uint32_t> frag_index(n, kNoSlot);
    for (std::size_t k = 0; k < fragmented_nodes.size(); ++k) {
      frag_index[fragmented_nodes[k]] = static_cast<std::uint32_t>(k);
    }
    for (std::uint32_t s = 0; s < node_of_.size(); ++s) {
      for (hier::NodeId cur = node_of_[s]; cur != hier::kNoNode;
           cur = tree.node(cur).parent()) {
        const std::uint32_t k = frag_index[cur];
        if (k != kNoSlot) overflow_[cursor[k]++] = s;
      }
    }
  }

  indexed_tree_size_ = n;
}

SubtreeSpan ServerArena::subtree(hier::NodeId node) const {
  if (indexed_tree_size_ == 0) {
    throw std::logic_error("ServerArena: subtree index not built");
  }
  const auto& rec = spans_.at(node);
  if (rec.count == 0) return {};
  if (rec.overflow != kNoSlot) {
    return {0, rec.count, overflow_.data() + rec.overflow};
  }
  return {rec.first, rec.count, nullptr};
}

}  // namespace willow::core
