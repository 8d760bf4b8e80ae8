#include "multicast/local_rule.hpp"

#include <algorithm>
#include <stdexcept>

#include "geometry/orthant.hpp"
#include "multicast/zone.hpp"

namespace geomcast::multicast {

void partition_step(const overlay::OverlayGraph& graph, overlay::PeerId ego,
                    const geometry::Rect& zone, std::vector<ZoneAssignment>& out,
                    PickPolicy policy, geometry::Metric metric, util::Rng* rng,
                    const std::vector<bool>& alive) {
  if (policy == PickPolicy::kRandom && rng == nullptr)
    throw std::invalid_argument("partition_step: kRandom policy requires an rng");

  struct Ranked {
    geometry::OrthantCode orthant;
    double dist;
    overlay::PeerId id;
  };
  // One flat buffer sorted by (orthant, distance, id): each orthant's
  // members form a contiguous run in ascending code order, ranked exactly
  // as a per-region sort would rank them. Neighbour ids are unique, so the
  // order is total and the picks do not depend on the sort algorithm.
  thread_local std::vector<Ranked> ranked;
  ranked.clear();
  const std::vector<geometry::Point>& points = graph.points();
  const geometry::Point& at = graph.point(ego);
  for (const overlay::PeerId q : graph.neighbors(ego)) {
    if (!alive.empty() && !alive[q]) continue;
    const geometry::Point& point = points[q];
    if (!zone.contains_interior(point)) continue;
    ranked.push_back(
        Ranked{geometry::orthant_of(at, point), geometry::distance(metric, at, point), q});
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.orthant != b.orthant) return a.orthant < b.orthant;
    if (a.dist != b.dist) return a.dist < b.dist;
    return a.id < b.id;
  });

  out.clear();
  for (std::size_t begin = 0; begin < ranked.size();) {
    std::size_t end = begin + 1;
    while (end < ranked.size() && ranked[end].orthant == ranked[begin].orthant) ++end;
    const std::size_t size = end - begin;
    std::size_t pick = 0;
    switch (policy) {
      case PickPolicy::kMedian: pick = (size - 1) / 2; break;
      case PickPolicy::kClosest: pick = 0; break;
      case PickPolicy::kFarthest: pick = size - 1; break;
      case PickPolicy::kRandom: pick = rng->next_below(size); break;
    }
    const Ranked& chosen = ranked[begin + pick];
    out.push_back(ZoneAssignment{chosen.id, child_zone(zone, at, chosen.orthant)});
    begin = end;
  }
}

}  // namespace geomcast::multicast
