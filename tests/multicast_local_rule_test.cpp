// Direct unit tests of partition_step — the §2 local forwarding rule —
// without going through the tree builders, plus an equivalence sweep of the
// graph-reading kernel against the per-region std::map rule it replaced.
#include "multicast/local_rule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <string>

#include "geometry/orthant.hpp"
#include "geometry/random_points.hpp"
#include "multicast/space_partition.hpp"
#include "multicast/zone.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/equilibrium.hpp"
#include "util/rng.hpp"

namespace geomcast::multicast {
namespace {

using overlay::Candidate;
using overlay::PeerId;

/// A star overlay: peer 0 sits at `ego` and selected peers 1..k, placed at
/// `neighbors` in order (so neighbour i has id i + 1).
overlay::OverlayGraph star(const geometry::Point& ego,
                           const std::vector<geometry::Point>& neighbors) {
  std::vector<geometry::Point> points{ego};
  points.insert(points.end(), neighbors.begin(), neighbors.end());
  std::vector<std::vector<PeerId>> out(points.size());
  for (PeerId q = 1; q < points.size(); ++q) out[0].push_back(q);
  return overlay::OverlayGraph(std::move(points), std::move(out));
}

/// One step at the star's centre.
std::vector<ZoneAssignment> step_at_center(const overlay::OverlayGraph& graph,
                                           const geometry::Rect& zone,
                                           PickPolicy policy = PickPolicy::kMedian,
                                           util::Rng* rng = nullptr) {
  std::vector<ZoneAssignment> out;
  partition_step(graph, 0, zone, out, policy, geometry::Metric::kL1, rng);
  return out;
}

TEST(LocalRuleTest, NoNeighborsNoAssignments) {
  const auto assignments =
      step_at_center(star(geometry::Point({1.0, 2.0}), {}), initiator_zone(2));
  EXPECT_TRUE(assignments.empty());
}

TEST(LocalRuleTest, NeighborsOutsideZoneIgnored) {
  const geometry::Point ego{50.0, 50.0};
  const auto zone = geometry::Rect::cube(2, 40.0, 60.0);
  const auto graph =
      star(ego, {geometry::Point({70.0, 70.0}), geometry::Point({10.0, 55.0})});
  EXPECT_TRUE(step_at_center(graph, zone).empty());
}

TEST(LocalRuleTest, ZoneBoundaryIsExclusive) {
  // Zones are strict interiors: a neighbour exactly on the boundary is out.
  const geometry::Point ego{50.0, 50.0};
  const auto zone = geometry::Rect::cube(2, 40.0, 60.0);
  EXPECT_TRUE(step_at_center(star(ego, {geometry::Point({60.0, 55.0})}), zone).empty());
}

TEST(LocalRuleTest, OneDelegatePerOccupiedRegion) {
  const geometry::Point ego{50.0, 50.0};
  // Two neighbours in the (+,+) quadrant, one in (-,-).
  const auto graph = star(ego, {geometry::Point({60.0, 60.0}), geometry::Point({55.0, 70.0}),
                                geometry::Point({40.0, 30.0})});
  const auto assignments = step_at_center(graph, initiator_zone(2));
  EXPECT_EQ(assignments.size(), 2u);
}

TEST(LocalRuleTest, MedianPickIsLowerMedian) {
  // L1 distances in one quadrant: 4 < 8 < 20; median (lower, index (3-1)/2=1)
  // must be the distance-8 neighbour.
  const geometry::Point ego{0.0, 0.0};
  const auto graph = star(ego, {geometry::Point({1.0, 3.0}),       // L1=4
                                geometry::Point({5.0, 3.5}),       // L1=8.5
                                geometry::Point({10.0, 10.5})});   // L1=20.5
  const auto assignments = step_at_center(graph, initiator_zone(2));
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].child, 2u);
}

TEST(LocalRuleTest, EvenCountLowerMedian) {
  // Four neighbours: lower median = index 1 of the sorted order.
  const geometry::Point ego{0.0, 0.0};
  const auto graph = star(ego, {geometry::Point({1.0, 1.5}), geometry::Point({2.0, 2.5}),
                                geometry::Point({3.0, 3.5}), geometry::Point({4.0, 4.5})});
  const auto assignments = step_at_center(graph, initiator_zone(2));
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].child, 2u);
}

TEST(LocalRuleTest, PoliciesSelectExpectedRanks) {
  const geometry::Point ego{0.0, 0.0};
  const auto graph = star(ego, {geometry::Point({1.0, 1.5}), geometry::Point({2.0, 2.5}),
                                geometry::Point({3.0, 3.5})});
  auto pick = [&](PickPolicy policy) {
    return step_at_center(graph, initiator_zone(2), policy).at(0).child;
  };
  EXPECT_EQ(pick(PickPolicy::kClosest), 1u);
  EXPECT_EQ(pick(PickPolicy::kMedian), 2u);
  EXPECT_EQ(pick(PickPolicy::kFarthest), 3u);
}

TEST(LocalRuleTest, RandomPolicyWithoutRngThrows) {
  const auto graph = star(geometry::Point({0.0, 0.0}), {geometry::Point({1.0, 1.5})});
  EXPECT_THROW((void)step_at_center(graph, initiator_zone(2), PickPolicy::kRandom, nullptr),
               std::invalid_argument);
}

TEST(LocalRuleTest, DelegateZoneMatchesPaperFormula) {
  const geometry::Point ego{50.0, 50.0};
  const auto zone = geometry::Rect::cube(2, 0.0, 100.0);
  const auto assignments = step_at_center(star(ego, {geometry::Point({30.0, 80.0})}), zone);
  ASSERT_EQ(assignments.size(), 1u);
  // x(Q,1) < x(P,1): side (-inf, 50) clipped to (0, 50);
  // x(Q,2) > x(P,2): side (50, +inf) clipped to (50, 100).
  EXPECT_EQ(assignments[0].zone.lo(0), 0.0);
  EXPECT_EQ(assignments[0].zone.hi(0), 50.0);
  EXPECT_EQ(assignments[0].zone.lo(1), 50.0);
  EXPECT_EQ(assignments[0].zone.hi(1), 100.0);
}

// Structural invariants of a single step over random inputs.
class LocalRuleInvariantTest : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(LocalRuleInvariantTest, AssignmentsPartitionCleanly) {
  const auto [dims, seed] = GetParam();
  util::Rng rng(seed);
  const auto points =
      geometry::random_points(rng, 60, static_cast<std::size_t>(dims), 100.0);
  const geometry::Point& ego = points[0];
  const auto graph = star(ego, std::vector<geometry::Point>(points.begin() + 1, points.end()));

  const auto zone = geometry::Rect::cube(static_cast<std::size_t>(dims), 10.0, 90.0);
  if (!zone.contains_interior(ego)) return;  // step assumes the ego holds the zone
  const auto assignments = step_at_center(graph, zone);

  for (std::size_t i = 0; i < assignments.size(); ++i) {
    const auto& a = assignments[i];
    // Delegate inside its zone; ego outside it; zone nested in parent zone.
    EXPECT_TRUE(a.zone.contains_interior(points[a.child]));
    EXPECT_FALSE(a.zone.contains_interior(ego));
    EXPECT_TRUE(a.zone.interior_subset_of(zone));
    for (std::size_t j = i + 1; j < assignments.size(); ++j)
      EXPECT_TRUE(a.zone.interior_disjoint(assignments[j].zone));
  }
  // Every in-zone neighbour is covered by exactly one delegate zone.
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (!zone.contains_interior(points[i])) continue;
    int covering = 0;
    for (const auto& a : assignments)
      if (a.zone.contains_interior(points[i])) ++covering;
    EXPECT_EQ(covering, 1) << "neighbour " << i;
  }
  // At most one delegate per orthant.
  EXPECT_LE(assignments.size(), geometry::orthant_count(static_cast<std::size_t>(dims)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, LocalRuleInvariantTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                                            ::testing::Values(81u, 82u, 83u)));

// ------------------------------------------------- kernel equivalence sweep
// The per-region rule the graph-reading kernel replaced, kept here only as
// the reference: copy the alive neighbours into Candidates, bucket the
// in-zone ones by orthant in a std::map (ascending code), sort each bucket
// by (distance, id) and pick one delegate per bucket.
std::vector<ZoneAssignment> reference_step(const geometry::Point& ego,
                                           const geometry::Rect& zone,
                                           std::span<const Candidate> neighbors,
                                           PickPolicy policy, geometry::Metric metric,
                                           util::Rng* rng) {
  struct Member {
    PeerId id;
    double dist;
  };
  std::map<geometry::OrthantCode, std::vector<Member>> regions;
  for (const Candidate& c : neighbors) {
    if (!zone.contains_interior(c.point)) continue;
    regions[geometry::orthant_of(ego, c.point)].push_back(
        Member{c.id, geometry::distance(metric, ego, c.point)});
  }
  std::vector<ZoneAssignment> assignments;
  for (auto& [orthant, members] : regions) {
    std::sort(members.begin(), members.end(), [](const Member& a, const Member& b) {
      if (a.dist != b.dist) return a.dist < b.dist;
      return a.id < b.id;
    });
    std::size_t pick = 0;
    switch (policy) {
      case PickPolicy::kMedian: pick = (members.size() - 1) / 2; break;
      case PickPolicy::kClosest: pick = 0; break;
      case PickPolicy::kFarthest: pick = members.size() - 1; break;
      case PickPolicy::kRandom: pick = rng->next_below(members.size()); break;
    }
    assignments.push_back(ZoneAssignment{members[pick].id, child_zone(zone, ego, orthant)});
  }
  return assignments;
}

/// A random overlay on a coarse integer lattice, so points often tie on a
/// coordinate and candidates often tie on distance.
overlay::OverlayGraph tied_overlay(util::Rng& rng, std::size_t n, std::size_t dims) {
  std::vector<geometry::Point> points(n, geometry::Point(dims));
  for (auto& point : points)
    for (std::size_t i = 0; i < dims; ++i)
      point[i] = static_cast<double>(rng.next_below(8));
  std::vector<std::vector<PeerId>> out(n);
  for (PeerId p = 0; p < n; ++p)
    for (PeerId q = 0; q < n; ++q)
      if (q != p && rng.next_below(3) == 0) out[p].push_back(q);
  return overlay::OverlayGraph(std::move(points), std::move(out));
}

/// A random zone: the whole space, a box around the lattice, or a box
/// whose bounds sit on lattice values (so some points lie on its boundary).
geometry::Rect random_zone(util::Rng& rng, std::size_t dims) {
  switch (rng.next_below(3)) {
    case 0: return initiator_zone(dims);
    case 1: return geometry::Rect::cube(dims, -1.0, 9.0);
    default: {
      geometry::Rect zone = initiator_zone(dims);
      for (std::size_t i = 0; i < dims; ++i) {
        if (rng.next_below(2) == 0) zone.set_lo(i, static_cast<double>(rng.next_below(4)));
        if (rng.next_below(2) == 0) zone.set_hi(i, static_cast<double>(4 + rng.next_below(4)));
      }
      return zone;
    }
  }
}

class KernelEquivalenceTest : public ::testing::TestWithParam<std::tuple<int, PickPolicy>> {};

TEST_P(KernelEquivalenceTest, MatchesPerRegionReference) {
  const auto [d, policy] = GetParam();
  const auto dims = static_cast<std::size_t>(d);
  const geometry::Metric metrics[] = {geometry::Metric::kL1, geometry::Metric::kL2,
                                      geometry::Metric::kLInf};
  util::Rng rng(4000 + dims * 10 + static_cast<std::uint64_t>(policy));
  std::size_t compared = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const auto graph = tied_overlay(rng, 40, dims);
    // Every third trial runs with all peers up; the rest drop ~30%.
    std::vector<bool> alive;
    if (trial % 3 != 0) {
      alive.assign(graph.size(), true);
      for (PeerId p = 0; p < graph.size(); ++p)
        if (rng.next_below(10) < 3) alive[p] = false;
    }
    const geometry::Metric metric = metrics[trial % 3];
    std::vector<ZoneAssignment> got;
    for (PeerId ego = 0; ego < graph.size(); ++ego) {
      const geometry::Rect zone = random_zone(rng, dims);
      std::vector<Candidate> candidates;
      for (PeerId q : graph.neighbors(ego))
        if (alive.empty() || alive[q]) candidates.push_back(Candidate{q, graph.point(q)});

      const std::uint64_t seed = rng();
      util::Rng reference_rng(seed);
      util::Rng kernel_rng(seed);
      const bool random = policy == PickPolicy::kRandom;
      const auto want = reference_step(graph.point(ego), zone, candidates, policy, metric,
                                       random ? &reference_rng : nullptr);
      partition_step(graph, ego, zone, got, policy, metric, random ? &kernel_rng : nullptr,
                     alive);
      ASSERT_EQ(got.size(), want.size()) << "trial " << trial << " ego " << ego;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].child, want[i].child) << "trial " << trial << " ego " << ego;
        EXPECT_EQ(got[i].zone, want[i].zone) << "trial " << trial << " ego " << ego;
      }
      // kRandom draws once per occupied orthant, in the same order.
      EXPECT_EQ(kernel_rng(), reference_rng()) << "trial " << trial << " ego " << ego;
      compared += want.size();
    }
  }
  EXPECT_GT(compared, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 5),
                       ::testing::Values(PickPolicy::kMedian, PickPolicy::kClosest,
                                         PickPolicy::kFarthest, PickPolicy::kRandom)),
    [](const auto& info) {
      return "D" + std::to_string(std::get<0>(info.param)) + "_" +
             to_string(std::get<1>(info.param));
    });

TEST(LocalRuleTest, AliveMaskDropsDownNeighbours) {
  // The median of {1, 2, 3} is 2; with 2 down it is the lower median of
  // {1, 3}, which is 1.
  const auto graph = star(geometry::Point({0.0, 0.0}),
                          {geometry::Point({1.0, 1.5}), geometry::Point({2.0, 2.5}),
                           geometry::Point({3.0, 3.5})});
  std::vector<ZoneAssignment> out;
  partition_step(graph, 0, initiator_zone(2), out, PickPolicy::kMedian,
                 geometry::Metric::kL1, nullptr, {true, true, false, true});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].child, 1u);
}

// ------------------------------------------------------------ D=1 degeneracy
// On a line, the empty-rectangle overlay is exactly the sorted path, and the
// §2 construction on it splits the line into two rays per step.

TEST(LocalRuleTest, OneDimensionalOverlayIsSortedPath) {
  util::Rng rng(84);
  const auto points = geometry::random_points(rng, 50, 1, 100.0);
  const auto graph =
      overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
  std::vector<std::pair<double, PeerId>> order;
  for (PeerId p = 0; p < graph.size(); ++p) order.push_back({points[p][0], p});
  std::sort(order.begin(), order.end());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const PeerId p = order[i].second;
    std::size_t expected = (i == 0 || i + 1 == order.size()) ? 1 : 2;
    EXPECT_EQ(graph.degree(p), expected) << "rank " << i;
    if (i + 1 < order.size()) EXPECT_TRUE(graph.has_edge(p, order[i + 1].second));
  }
}

TEST(LocalRuleTest, OneDimensionalMulticastInvariants) {
  util::Rng rng(85);
  const auto points = geometry::random_points(rng, 50, 1, 100.0);
  const auto graph =
      overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
  const auto result = build_multicast_tree(graph, 7);
  EXPECT_EQ(result.tree.reached_count(), graph.size());
  EXPECT_EQ(result.request_messages, graph.size() - 1);
  EXPECT_LE(result.tree.max_children(), 2u);  // 2^1 orthants
}

}  // namespace
}  // namespace geomcast::multicast
