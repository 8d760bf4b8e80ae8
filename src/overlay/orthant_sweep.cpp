#include "overlay/orthant_sweep.hpp"

#include <algorithm>

#include "util/parallel.hpp"

namespace geomcast::overlay {

OrthantSweepIndex::OrthantSweepIndex(std::vector<geometry::Point> points,
                                     geometry::Metric metric)
    : points_(std::move(points)), sorted_(points_.size()) {
  const std::size_t n = points_.size();
  auto build_for = [&](std::size_t begin, std::size_t end) {
    for (std::size_t p = begin; p < end; ++p) {
      auto& list = sorted_[p];
      list.reserve(n > 0 ? n - 1 : 0);
      for (std::size_t q = 0; q < n; ++q) {
        if (q == p) continue;
        list.push_back(Entry{geometry::orthant_of(points_[p], points_[q]),
                             geometry::distance(metric, points_[p], points_[q]),
                             static_cast<PeerId>(q)});
      }
      std::sort(list.begin(), list.end(), [](const Entry& a, const Entry& b) {
        if (a.orthant != b.orthant) return a.orthant < b.orthant;
        if (a.dist != b.dist) return a.dist < b.dist;
        return a.id < b.id;
      });
    }
  };

  util::parallel_for(n, n < 64 ? 1 : util::hardware_threads(), build_for);
}

std::vector<std::vector<PeerId>> OrthantSweepIndex::select_k(std::size_t k) const {
  std::vector<std::vector<PeerId>> out(points_.size());
  for (std::size_t p = 0; p < points_.size(); ++p) {
    const auto& list = sorted_[p];
    auto& selection = out[p];
    std::size_t taken_in_run = 0;
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (i > 0 && list[i].orthant != list[i - 1].orthant) taken_in_run = 0;
      if (taken_in_run < k) {
        selection.push_back(list[i].id);
        ++taken_in_run;
      }
    }
    std::sort(selection.begin(), selection.end());
  }
  return out;
}

OverlayGraph OrthantSweepIndex::graph_for_k(std::size_t k) const {
  return OverlayGraph(points_, select_k(k));
}

}  // namespace geomcast::overlay
