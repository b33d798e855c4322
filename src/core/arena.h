// ServerArena: dense server indexing for the data plane.
//
// Every server occupies one *slot* (a dense index in creation order).  The
// arena is the single authority for the slot <-> PMU-leaf mapping and
// replaces the NodeId-keyed hash lookups that used to sit on every hot path:
//
//   - `slot_of(NodeId)` is a flat vector read (was an unordered_map probe),
//   - `node_of(slot)` is the inverse array,
//   - `subtree(NodeId)` enumerates the server descendants of any PMU node as
//     a contiguous span of slots whenever the fleet was built depth-first
//     (build_datacenter always is), falling back to a materialized slot list
//     for hand-built trees whose creation order interleaves subtrees.
//
// Spans iterate in server-creation order — the same order the controller's
// old per-node `subtree_servers_` vectors used — so consumers (aggregation,
// victim selection, consolidation target collection) are bitwise-identical
// drop-in replacements that stream over contiguous memory instead of
// chasing per-node heap vectors.
#pragma once

#include <cstdint>
#include <vector>

#include "hier/tree.h"

namespace willow::core {

/// The server descendants of one PMU node, as slots in creation order.
/// Either a dense range [first, first+count) or an indirect list (the rare
/// non-contiguous fallback); operator[] hides the difference.
class SubtreeSpan {
 public:
  SubtreeSpan() = default;
  SubtreeSpan(std::uint32_t first, std::uint32_t count,
              const std::uint32_t* indirect)
      : first_(first), count_(count), indirect_(indirect) {}

  [[nodiscard]] std::uint32_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] bool contiguous() const { return indirect_ == nullptr; }
  [[nodiscard]] std::uint32_t operator[](std::uint32_t i) const {
    return indirect_ ? indirect_[i] : first_ + i;
  }

  /// Forward iteration over the span's slots, so consumers can range-for
  /// a subtree instead of hand-indexing it.  Dereferences to the slot value;
  /// the contiguous/indirect distinction stays hidden.
  class const_iterator {
   public:
    using value_type = std::uint32_t;
    using difference_type = std::int64_t;
    using iterator_category = std::forward_iterator_tag;

    const_iterator() = default;
    const_iterator(const SubtreeSpan* span, std::uint32_t pos)
        : span_(span), pos_(pos) {}

    std::uint32_t operator*() const { return (*span_)[pos_]; }
    const_iterator& operator++() {
      ++pos_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++pos_;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.pos_ == b.pos_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return a.pos_ != b.pos_;
    }

   private:
    const SubtreeSpan* span_ = nullptr;
    std::uint32_t pos_ = 0;
  };

  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, count_}; }

 private:
  std::uint32_t first_ = 0;
  std::uint32_t count_ = 0;
  const std::uint32_t* indirect_ = nullptr;
};

class ServerArena {
 public:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// Register the server living at PMU leaf `node`; returns its slot.
  /// Slots are dense and assigned in call order.
  std::uint32_t add(hier::NodeId node);

  [[nodiscard]] std::size_t size() const { return node_of_.size(); }

  /// Slot -> PMU leaf.
  [[nodiscard]] hier::NodeId node_of(std::uint32_t slot) const {
    return node_of_[slot];
  }
  /// All leaves in slot (creation) order — the legacy server_ids() surface.
  [[nodiscard]] const std::vector<hier::NodeId>& nodes() const {
    return node_of_;
  }

  /// PMU leaf -> slot, or kNoSlot when `node` is not a registered server.
  [[nodiscard]] std::uint32_t slot_of(hier::NodeId node) const {
    return node < slot_of_node_.size() ? slot_of_node_[node] : kNoSlot;
  }
  /// As slot_of, but throws std::out_of_range for non-servers.
  [[nodiscard]] std::uint32_t checked_slot_of(hier::NodeId node) const;

  /// (Re)build the subtree span index against `tree`.  Must be called after
  /// the fleet is complete and before subtree(); call again if the tree
  /// grows.  O(servers * depth).
  void build_subtree_index(const hier::Tree& tree);
  [[nodiscard]] bool subtree_index_built_for(const hier::Tree& tree) const {
    return indexed_tree_size_ == tree.size();
  }

  /// Server descendants of `node` (inclusive: subtree(leaf) is the leaf's
  /// own slot), in creation order.  Requires build_subtree_index().
  [[nodiscard]] SubtreeSpan subtree(hier::NodeId node) const;

  /// Diagnostics: number of nodes whose descendants were not contiguous in
  /// creation order (0 for any depth-first-built fleet).
  [[nodiscard]] std::size_t fragmented_nodes() const { return fragmented_; }

 private:
  struct SpanRec {
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    std::uint32_t overflow = kNoSlot;  ///< offset into overflow_, or kNoSlot
  };

  std::vector<hier::NodeId> node_of_;        ///< slot -> leaf
  std::vector<std::uint32_t> slot_of_node_;  ///< leaf -> slot (kNoSlot gaps)

  std::vector<SpanRec> spans_;           ///< node -> span record
  std::vector<std::uint32_t> overflow_;  ///< materialized slot lists
  std::size_t indexed_tree_size_ = 0;
  std::size_t fragmented_ = 0;
};

}  // namespace willow::core
