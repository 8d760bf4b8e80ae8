#include "multicast/space_partition.hpp"

#include <deque>
#include <stdexcept>

#include "multicast/zone.hpp"

namespace geomcast::multicast {

BuildResult build_multicast_tree(const overlay::OverlayGraph& graph, overlay::PeerId root,
                                 const MulticastConfig& config) {
  const std::size_t n = graph.size();
  if (root >= n) throw std::invalid_argument("build_multicast_tree: root out of range");
  const std::size_t dims = graph.dims();

  BuildResult result;
  result.tree = MulticastTree(n, root);
  result.zones.assign(n, geometry::Rect(dims));
  result.zone_assigned.assign(n, false);

  util::Rng rng(config.rng_seed);
  util::Rng* rng_ptr = config.policy == PickPolicy::kRandom ? &rng : nullptr;

  struct Pending {
    overlay::PeerId peer;
    geometry::Rect zone;
  };
  // FIFO processing = breadth-first message wave; the paper implicitly
  // delivers the initiator its own request with the whole space as zone.
  std::deque<Pending> queue;
  queue.push_back(Pending{root, initiator_zone(dims)});
  result.zones[root] = initiator_zone(dims);
  result.zone_assigned[root] = true;

  std::vector<ZoneAssignment> assignments;
  while (!queue.empty()) {
    const Pending current = queue.front();
    queue.pop_front();

    partition_step(graph, current.peer, current.zone, assignments, config.policy,
                   config.metric, rng_ptr);
    for (const ZoneAssignment& a : assignments) {
      ++result.request_messages;
      if (result.zone_assigned[a.child]) {
        ++result.duplicate_deliveries;  // protocol violation; validator reports it
        continue;
      }
      result.zone_assigned[a.child] = true;
      result.zones[a.child] = a.zone;
      result.tree.add_edge(current.peer, a.child);
      queue.push_back(Pending{a.child, a.zone});
    }
  }
  return result;
}

}  // namespace geomcast::multicast
