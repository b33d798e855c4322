// ServerArena unit coverage: dense slot mapping and subtree spans — both the
// contiguous fast case (depth-first fleets) and the materialized fallback for
// interleaved creation orders.
#include "core/arena.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "hier/tree.h"

namespace willow::core {
namespace {

using hier::NodeId;

/// root -> two racks -> `per_rack` servers each, built depth-first.
struct DepthFirstFleet {
  hier::Tree tree;
  ServerArena arena;
  std::vector<NodeId> servers;

  explicit DepthFirstFleet(int per_rack) {
    const NodeId root = tree.add_root("dc");
    for (int r = 0; r < 2; ++r) {
      const NodeId rack = tree.add_child(root, "rack");
      for (int i = 0; i < per_rack; ++i) {
        const NodeId leaf = tree.add_child(rack, "srv");
        arena.add(leaf);
        servers.push_back(leaf);
      }
    }
    arena.build_subtree_index(tree);
  }
};

TEST(ServerArena, SlotMappingIsDenseAndBidirectional) {
  DepthFirstFleet f(3);
  ASSERT_EQ(f.arena.size(), 6u);
  for (std::uint32_t slot = 0; slot < 6; ++slot) {
    const NodeId leaf = f.arena.node_of(slot);
    EXPECT_EQ(leaf, f.servers[slot]) << "slots follow creation order";
    EXPECT_EQ(f.arena.slot_of(leaf), slot);
    EXPECT_EQ(f.arena.checked_slot_of(leaf), slot);
  }
  EXPECT_EQ(f.arena.nodes(), f.servers);
  // Internal nodes and out-of-range ids are not servers.
  EXPECT_EQ(f.arena.slot_of(f.tree.root()), ServerArena::kNoSlot);
  EXPECT_EQ(f.arena.slot_of(NodeId{10'000}), ServerArena::kNoSlot);
  EXPECT_THROW((void)f.arena.checked_slot_of(f.tree.root()),
               std::out_of_range);
}

TEST(ServerArena, DepthFirstFleetsYieldContiguousSpans) {
  DepthFirstFleet f(4);
  EXPECT_EQ(f.arena.fragmented_nodes(), 0u);

  const SubtreeSpan all = f.arena.subtree(f.tree.root());
  ASSERT_EQ(all.size(), 8u);
  EXPECT_TRUE(all.contiguous());
  for (std::uint32_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], i) << "root span enumerates slots in creation order";
  }

  // Rack spans cover their own four servers, creation-ordered.
  const NodeId rack0 = f.tree.node(f.servers[0]).parent();
  const NodeId rack1 = f.tree.node(f.servers[4]).parent();
  const SubtreeSpan s0 = f.arena.subtree(rack0);
  const SubtreeSpan s1 = f.arena.subtree(rack1);
  ASSERT_EQ(s0.size(), 4u);
  ASSERT_EQ(s1.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(s0[i], i);
    EXPECT_EQ(s1[i], i + 4);
  }

  // A leaf's span is the leaf itself (inclusive semantics).
  const SubtreeSpan leaf = f.arena.subtree(f.servers[5]);
  ASSERT_EQ(leaf.size(), 1u);
  EXPECT_EQ(leaf[0], 5u);
}

TEST(ServerArena, InterleavedCreationFallsBackToMaterializedLists) {
  // Servers added rack0, rack1, rack0, rack1: neither rack's slots are
  // contiguous, so both must come back through the overflow lists — still in
  // creation order, because downstream iteration order is load-bearing.
  hier::Tree tree;
  ServerArena arena;
  const NodeId root = tree.add_root("dc");
  const NodeId rack0 = tree.add_child(root, "rack");
  const NodeId rack1 = tree.add_child(root, "rack");
  std::vector<NodeId> leaves;
  for (int i = 0; i < 4; ++i) {
    const NodeId leaf = tree.add_child(i % 2 == 0 ? rack0 : rack1, "srv");
    arena.add(leaf);
    leaves.push_back(leaf);
  }
  arena.build_subtree_index(tree);
  EXPECT_EQ(arena.fragmented_nodes(), 2u);

  const SubtreeSpan s0 = arena.subtree(rack0);
  const SubtreeSpan s1 = arena.subtree(rack1);
  ASSERT_EQ(s0.size(), 2u);
  ASSERT_EQ(s1.size(), 2u);
  EXPECT_FALSE(s0.contiguous());
  EXPECT_FALSE(s1.contiguous());
  EXPECT_EQ(s0[0], 0u);
  EXPECT_EQ(s0[1], 2u);
  EXPECT_EQ(s1[0], 1u);
  EXPECT_EQ(s1[1], 3u);

  // The root still sees every server, contiguously.
  const SubtreeSpan all = arena.subtree(root);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_TRUE(all.contiguous());

  // Adding a server invalidates the span index until the next rebuild.
  arena.add(tree.add_child(rack0, "late"));
  EXPECT_FALSE(arena.subtree_index_built_for(tree));
  EXPECT_THROW((void)arena.subtree(root), std::logic_error);
  arena.build_subtree_index(tree);
  EXPECT_EQ(arena.subtree(root).size(), 5u);
  EXPECT_EQ(arena.subtree(rack0).size(), 3u);
}

TEST(ServerArena, DoubleRegistrationThrows) {
  hier::Tree tree;
  ServerArena arena;
  const NodeId root = tree.add_root("dc");
  const NodeId leaf = tree.add_child(root, "rack");
  arena.add(leaf);
  EXPECT_THROW((void)arena.add(leaf), std::logic_error);
}

}  // namespace
}  // namespace willow::core
