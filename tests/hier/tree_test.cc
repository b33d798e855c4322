#include "hier/tree.h"

#include <gtest/gtest.h>

#include <vector>

namespace willow::hier {
namespace {

using namespace willow::util::literals;

/// Fig.-1-shaped fixture: datacenter -> 2 racks -> 2 servers each.
struct SmallTree {
  Tree tree{0.5};
  NodeId root, rack0, rack1, s00, s01, s10, s11;

  SmallTree() {
    root = tree.add_root("dc");
    rack0 = tree.add_child(root, "rack0", NodeKind::kRack);
    rack1 = tree.add_child(root, "rack1", NodeKind::kRack);
    s00 = tree.add_child(rack0, "s00", NodeKind::kServer);
    s01 = tree.add_child(rack0, "s01", NodeKind::kServer);
    s10 = tree.add_child(rack1, "s10", NodeKind::kServer);
    s11 = tree.add_child(rack1, "s11", NodeKind::kServer);
  }
};

TEST(Tree, RejectsBadSmoothingAlpha) {
  EXPECT_THROW(Tree(0.0), std::invalid_argument);
  EXPECT_THROW(Tree(1.5), std::invalid_argument);
}

TEST(Tree, SingleRootOnly) {
  Tree t(0.5);
  t.add_root("dc");
  EXPECT_THROW(t.add_root("again"), std::logic_error);
}

TEST(Tree, AddChildValidatesParent) {
  Tree t(0.5);
  t.add_root("dc");
  EXPECT_THROW(t.add_child(99, "x"), std::out_of_range);
}

TEST(Tree, StructureQueries) {
  SmallTree f;
  EXPECT_EQ(f.tree.size(), 7u);
  EXPECT_EQ(f.tree.height(), 3);
  EXPECT_TRUE(f.tree.node(f.root).is_root());
  EXPECT_TRUE(f.tree.node(f.s00).is_leaf());
  EXPECT_FALSE(f.tree.node(f.rack0).is_leaf());
  EXPECT_EQ(f.tree.node(f.s00).parent(), f.rack0);
  EXPECT_EQ(f.tree.node(f.rack0).children().size(), 2u);
  EXPECT_EQ(f.tree.leaves().size(), 4u);
}

TEST(Tree, PaperLevelNumbering) {
  // Leaves at level 0, root at height-1 (Sec. IV-A: "All the leaf nodes are
  // in level 0").
  SmallTree f;
  EXPECT_EQ(f.tree.level_of(f.s00), 0);
  EXPECT_EQ(f.tree.level_of(f.rack0), 1);
  EXPECT_EQ(f.tree.level_of(f.root), 2);
  EXPECT_EQ(f.tree.nodes_at_level(0).size(), 4u);
  EXPECT_EQ(f.tree.nodes_at_level(1).size(), 2u);
  EXPECT_EQ(f.tree.nodes_at_level(2).size(), 1u);
}

TEST(Tree, NodesAtLevelFollowAddChild) {
  // The per-level lists are kept as nodes are added; a level is counted
  // from the bottom, so deepening the tree renumbers every existing level.
  const auto scan = [](const Tree& t, int level) {
    std::vector<NodeId> out;
    for (NodeId id = 0; id < t.size(); ++id) {
      if (t.level_of(id) == level) out.push_back(id);
    }
    return out;
  };
  const auto expect_matches_scan = [&](const Tree& t) {
    for (int level = -1; level <= t.height(); ++level) {
      EXPECT_EQ(t.nodes_at_level(level), scan(t, level))
          << "level " << level << " of a tree of height " << t.height();
    }
  };
  Tree empty(0.5);
  EXPECT_TRUE(empty.nodes_at_level(0).empty());

  SmallTree f;
  expect_matches_scan(f.tree);
  // Grow a level that exists: a new server under rack1 joins level 0 in
  // creation order.
  const NodeId s12 = f.tree.add_child(f.rack1, "s12", NodeKind::kServer);
  expect_matches_scan(f.tree);
  EXPECT_EQ(f.tree.nodes_at_level(0).back(), s12);
  // Deepen the tree: a child under a server moves the old leaves to level 1
  // and the root to level 3.
  const NodeId vm = f.tree.add_child(f.s01, "vm", NodeKind::kGeneric);
  expect_matches_scan(f.tree);
  EXPECT_EQ(f.tree.nodes_at_level(0), std::vector<NodeId>{vm});
  EXPECT_EQ(f.tree.nodes_at_level(3), std::vector<NodeId>{f.root});
  // Interleave more growth at several depths.
  f.tree.add_child(f.root, "rack2", NodeKind::kRack);
  f.tree.add_child(vm, "deeper", NodeKind::kGeneric);
  f.tree.add_child(f.s00, "vm2", NodeKind::kGeneric);
  expect_matches_scan(f.tree);
  // A copy keeps its own lists.
  Tree copy = f.tree;
  copy.add_child(copy.root(), "rack3", NodeKind::kRack);
  expect_matches_scan(copy);
  expect_matches_scan(f.tree);
}

TEST(Tree, BottomUpVisitsChildrenBeforeParents) {
  SmallTree f;
  const auto order = f.tree.bottom_up();
  std::vector<std::size_t> pos(f.tree.size());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (NodeId id : f.tree.all_nodes()) {
    const auto& n = f.tree.node(id);
    if (!n.is_root()) {
      EXPECT_LT(pos[id], pos[n.parent()]);
    }
  }
}

TEST(Tree, TopDownVisitsParentsBeforeChildren) {
  SmallTree f;
  const auto order = f.tree.top_down();
  std::vector<std::size_t> pos(f.tree.size());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (NodeId id : f.tree.all_nodes()) {
    const auto& n = f.tree.node(id);
    if (!n.is_root()) {
      EXPECT_GT(pos[id], pos[n.parent()]);
    }
  }
}

TEST(Tree, IsAncestor) {
  SmallTree f;
  EXPECT_TRUE(f.tree.is_ancestor(f.root, f.s00));
  EXPECT_TRUE(f.tree.is_ancestor(f.rack0, f.s01));
  EXPECT_TRUE(f.tree.is_ancestor(f.s00, f.s00));
  EXPECT_FALSE(f.tree.is_ancestor(f.rack1, f.s00));
  EXPECT_FALSE(f.tree.is_ancestor(f.s00, f.rack0));
}

TEST(Node, DemandSmoothingFollowsEq4) {
  SmallTree f;
  auto& n = f.tree.node(f.s00);
  n.observe_demand(100_W);
  EXPECT_DOUBLE_EQ(n.smoothed_demand().value(), 100.0);
  n.observe_demand(200_W);
  EXPECT_DOUBLE_EQ(n.smoothed_demand().value(), 0.5 * 200 + 0.5 * 100);
  EXPECT_DOUBLE_EQ(n.raw_demand().value(), 200.0);
}

TEST(Tree, ReportDemandsAggregatesUpward) {
  SmallTree f;
  f.tree.node(f.s00).observe_demand(10_W);
  f.tree.node(f.s01).observe_demand(20_W);
  f.tree.node(f.s10).observe_demand(30_W);
  f.tree.node(f.s11).observe_demand(40_W);
  f.tree.report_demands();
  EXPECT_DOUBLE_EQ(f.tree.node(f.rack0).smoothed_demand().value(), 30.0);
  EXPECT_DOUBLE_EQ(f.tree.node(f.rack1).smoothed_demand().value(), 70.0);
  EXPECT_DOUBLE_EQ(f.tree.node(f.root).smoothed_demand().value(), 100.0);
}

TEST(Tree, InactiveNodesReportZero) {
  SmallTree f;
  f.tree.node(f.s00).observe_demand(10_W);
  f.tree.node(f.s01).observe_demand(20_W);
  f.tree.node(f.s01).set_active(false);
  f.tree.report_demands();
  EXPECT_DOUBLE_EQ(f.tree.node(f.rack0).smoothed_demand().value(), 10.0);
}

// Property 3: at most 2 control messages per link per demand period —
// one report up, one directive down.  Demand moves every period here, so
// every node re-reports every sweep (the most message-heavy case).
TEST(Tree, Property3AtMostTwoMessagesPerLinkPerPeriod) {
  SmallTree f;
  for (int period = 1; period <= 5; ++period) {
    for (NodeId leaf : f.tree.leaves()) {
      f.tree.node(leaf).observe_demand(Watts{10.0 * period});
    }
    f.tree.report_demands();
    // The budget distributor announces one directive per node and period.
    for (NodeId id : f.tree.all_nodes()) {
      if (!f.tree.node(id).is_root()) f.tree.record_budget_directive(id);
    }
    for (NodeId id : f.tree.all_nodes()) {
      if (f.tree.node(id).is_root()) continue;
      const auto& link = f.tree.node(id).link();
      EXPECT_EQ(link.up, static_cast<std::uint64_t>(period));
      EXPECT_EQ(link.down, static_cast<std::uint64_t>(period));
      EXPECT_LE(link.up + link.down, static_cast<std::uint64_t>(2 * period));
    }
  }
}

// Event-driven reporting: once demand stops moving, no further report
// crosses any link — in either walk mode.
TEST(Tree, UnchangedDemandSendsNoFurtherReports) {
  for (const bool incremental : {false, true}) {
    SmallTree f;
    f.tree.set_incremental(incremental);
    for (int period = 1; period <= 4; ++period) {
      for (NodeId leaf : f.tree.leaves()) {
        f.tree.node(leaf).observe_demand(10_W);
      }
      f.tree.report_demands();
    }
    for (NodeId id : f.tree.all_nodes()) {
      if (f.tree.node(id).is_root()) continue;
      // alpha = 0.5: the EWMA keeps moving toward 10 W each sweep, but the
      // *first* sweep already reported; later sweeps report only while the
      // smoothed value still changes bitwise.  The leaves' EWMA halves the
      // gap each period, so every sweep here still moves — what must hold
      // is the Property 3 bound, and exactly one report per moving sweep.
      EXPECT_LE(f.tree.node(id).link().up, 4u);
      EXPECT_GE(f.tree.node(id).link().up, 1u);
    }
    // Drive the EWMA to its fixed point, then verify silence.
    for (int i = 0; i < 200; ++i) {
      for (NodeId leaf : f.tree.leaves()) {
        f.tree.node(leaf).observe_demand(10_W);
      }
      f.tree.report_demands();
    }
    std::vector<std::uint64_t> ups;
    for (NodeId id : f.tree.all_nodes()) {
      ups.push_back(f.tree.node(id).link().up);
    }
    for (NodeId leaf : f.tree.leaves()) {
      f.tree.node(leaf).observe_demand(10_W);
    }
    f.tree.report_demands();
    for (std::size_t i = 0; i < ups.size(); ++i) {
      EXPECT_EQ(f.tree.node(static_cast<NodeId>(i)).link().up, ups[i])
          << "node " << i << " re-reported an unchanged demand";
    }
  }
}

TEST(Tree, ResetLinkCounters) {
  SmallTree f;
  f.tree.report_demands();
  for (NodeId id : f.tree.all_nodes()) {
    if (!f.tree.node(id).is_root()) f.tree.record_budget_directive(id);
  }
  f.tree.reset_link_counters();
  for (NodeId id : f.tree.all_nodes()) {
    EXPECT_EQ(f.tree.node(id).link().up, 0u);
    EXPECT_EQ(f.tree.node(id).link().down, 0u);
  }
}

}  // namespace
}  // namespace willow::hier
