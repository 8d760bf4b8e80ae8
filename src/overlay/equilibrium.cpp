#include "overlay/equilibrium.hpp"

#include <algorithm>

#include "util/parallel.hpp"

namespace geomcast::overlay {

OverlayGraph build_equilibrium(const std::vector<geometry::Point>& points,
                               const NeighborSelector& selector, std::size_t threads) {
  const std::size_t n = points.size();
  std::vector<std::vector<PeerId>> out(n);
  if (n <= 1) return OverlayGraph(points, std::move(out));

  if (threads == 0) threads = util::hardware_threads();
  util::parallel_for(n, threads, [&](std::size_t begin, std::size_t end) {
    for (std::size_t p = begin; p < end; ++p) {
      const auto candidates = candidates_excluding(points, static_cast<PeerId>(p));
      out[p] = selector.select(points[p], candidates);
    }
  });
  return OverlayGraph(points, std::move(out));
}

bool is_equilibrium(const OverlayGraph& graph, const NeighborSelector& selector) {
  for (PeerId p = 0; p < graph.size(); ++p) {
    const auto candidates = candidates_excluding(graph.points(), p);
    auto fresh = selector.select(graph.point(p), candidates);
    std::sort(fresh.begin(), fresh.end());
    if (fresh != graph.selected(p)) return false;
  }
  return true;
}

}  // namespace geomcast::overlay
