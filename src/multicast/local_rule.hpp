// The per-peer forwarding rule of the space-partitioning algorithm (§2).
// This single function is the whole "decentralized" core: it uses only
// information a real peer has locally — its own coordinates, the zone
// description from the incoming request, and the identifiers of its overlay
// neighbours. Every tree builder (the synchronous one, the message-driven
// protocol, range multicast and the per-group trees) calls it, so they
// provably make identical decisions.
#pragma once

#include <vector>

#include "geometry/distance.hpp"
#include "geometry/rect.hpp"
#include "multicast/pick_policy.hpp"
#include "overlay/graph.hpp"
#include "util/rng.hpp"

namespace geomcast::multicast {

/// A delegated slice of the ego peer's responsibility zone.
struct ZoneAssignment {
  overlay::PeerId child = overlay::kInvalidPeer;
  geometry::Rect zone;
};

/// Executes one step of the paper's rule for peer `ego` of `graph` that
/// received responsibility zone `zone`:
///   1. keep only neighbours strictly inside `zone` (and up, when `alive`
///      is non-empty: `alive[q] == false` drops q);
///   2. classify them into orthant regions relative to `ego` (Orthogonal
///      Hyperplanes classification);
///   3. sort each region by distance (paper: L1) and select one delegate
///      per `policy` (paper: median; lower median for even sizes);
///   4. delegate `zone ∩ orthant half-space` to each selected neighbour.
/// Writes one assignment per occupied orthant into `out` (cleared first),
/// in ascending orthant-code order. Neighbour ids and points are read
/// straight from the graph; the ranking runs in a reused per-thread buffer,
/// so a step allocates only when `out` or that buffer must grow.
/// `rng` is only consulted by PickPolicy::kRandom (may be null otherwise),
/// once per occupied orthant in ascending code order.
void partition_step(const overlay::OverlayGraph& graph, overlay::PeerId ego,
                    const geometry::Rect& zone, std::vector<ZoneAssignment>& out,
                    PickPolicy policy = PickPolicy::kMedian,
                    geometry::Metric metric = geometry::Metric::kL1,
                    util::Rng* rng = nullptr, const std::vector<bool>& alive = {});

}  // namespace geomcast::multicast
