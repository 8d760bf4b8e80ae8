#include "multicast/protocol.hpp"

#include <stdexcept>

#include "multicast/zone.hpp"

namespace geomcast::multicast {

namespace {

/// A peer participating in tree construction. Local state only: its
/// coordinates, its overlay neighbours (ids + identifiers, which gossip
/// already gave it), and the zone it received.
class MulticastNode final : public sim::Node {
 public:
  MulticastNode(overlay::PeerId id, const overlay::OverlayGraph& graph,
                const MulticastConfig& config, ProtocolRunResult& shared)
      : sim::Node(id), graph_(graph), config_(config), shared_(shared),
        rng_(config.rng_seed ^ (0x9e3779b97f4a7c15ULL * (id + 1))) {}

  void on_message(sim::Simulator& sim, const sim::Envelope& envelope) override {
    if (envelope.kind != kBuildRequestKind)
      throw std::logic_error("MulticastNode: unexpected message kind");
    const auto& request = std::any_cast<const BuildRequest&>(envelope.payload);
    accept(sim, envelope.from, request);
  }

  /// Handles a request arriving from `from` (kInvalidPeer for the implicit
  /// self-delivery at the initiator).
  void accept(sim::Simulator& sim, overlay::PeerId from, const BuildRequest& request) {
    auto& build = shared_.build;
    if (build.zone_assigned[id()]) {
      ++build.duplicate_deliveries;
      return;
    }
    build.zone_assigned[id()] = true;
    build.zones[id()] = request.zone;
    if (from != overlay::kInvalidPeer) build.tree.add_edge(from, id());
    shared_.completion_time = sim.now();

    util::Rng* rng_ptr = config_.policy == PickPolicy::kRandom ? &rng_ : nullptr;
    std::vector<ZoneAssignment> assignments;
    partition_step(graph_, id(), request.zone, assignments, config_.policy, config_.metric,
                   rng_ptr);
    for (const ZoneAssignment& a : assignments)
      sim.send(id(), a.child, kBuildRequestKind, BuildRequest{a.zone, request.root});
  }

 private:
  const overlay::OverlayGraph& graph_;
  const MulticastConfig& config_;
  ProtocolRunResult& shared_;
  util::Rng rng_;
};

}  // namespace

ProtocolRunResult run_multicast_protocol(const overlay::OverlayGraph& graph,
                                         overlay::PeerId root, const MulticastConfig& config,
                                         sim::LatencyModel latency, sim::LossModel loss,
                                         std::uint64_t seed) {
  const std::size_t n = graph.size();
  if (root >= n) throw std::invalid_argument("run_multicast_protocol: root out of range");

  ProtocolRunResult result;
  result.build.tree = MulticastTree(n, root);
  result.build.zones.assign(n, geometry::Rect(graph.dims()));
  result.build.zone_assigned.assign(n, false);

  sim::Simulator sim(seed);
  sim.network().set_latency(latency);
  sim.network().set_loss(std::move(loss));

  std::vector<std::unique_ptr<MulticastNode>> nodes;
  nodes.reserve(n);
  for (overlay::PeerId i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<MulticastNode>(i, graph, config, result));
    sim.add_node(*nodes[i]);
  }

  // The initiator receives its request "implicitly" (paper §2).
  const BuildRequest initial{initiator_zone(graph.dims()), root};
  sim.schedule_at(0.0, [&, initial]() {
    nodes[root]->accept(sim, overlay::kInvalidPeer, initial);
  });
  sim.run_until_idle();

  const auto& stats = sim.stats();
  if (const auto it = stats.sent_by_kind.find(kBuildRequestKind); it != stats.sent_by_kind.end())
    result.build.request_messages = it->second;
  result.dropped_requests = stats.dropped;
  return result;
}

}  // namespace geomcast::multicast
