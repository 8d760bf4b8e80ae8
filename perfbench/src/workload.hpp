// Workload definitions for the tracked benchmark: the three named shapes,
// the seeded schedule generator, and the requested-deliveries calculator
// the delivered_share metric divides by.
//
// Every schedule is fixed in simulated time (an open loop in sim time):
// initial subscribes land in [0, 1), publishes, departures and churn
// join/leave pairs in [3, 20). The PubSubSystem receives only the generated
// operations; the seed drives the identifiers, the overlay, the schedule
// and the network's loss/latency stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "geometry/point.hpp"
#include "groups/pubsub.hpp"
#include "overlay/graph.hpp"

namespace perfbench {

using geomcast::groups::GroupId;
using geomcast::overlay::PeerId;

enum class OpKind : std::uint8_t { kSubscribe, kUnsubscribe, kDepart, kPublish };

/// One scheduled operation. `group` is unused for departures.
struct Op {
  double time = 0.0;
  OpKind kind = OpKind::kPublish;
  PeerId peer = 0;
  GroupId group = 0;
};

/// The fixed shape of one workload — every input except the seed.
struct WorkloadSpec {
  std::string name;
  std::size_t peers = 0;
  /// 0: full-knowledge build_equilibrium; otherwise the grid-kNN
  /// build_equilibrium_local with this k.
  std::size_t knn_k = 0;
  std::size_t groups = 0;
  /// Initial members per group (subscribed in [0, 1), never leave).
  std::size_t subscribers = 0;
  /// Members are the nearest non-root peers to each root instead of
  /// uniform non-root peers.
  bool nearest_members = false;
  std::size_t publishes = 0;  ///< per group, from alive initial members
  std::size_t departures = 0; ///< non-root peers leaving for good
  /// Join/leave pairs: a random non-root peer joins a random group it is
  /// not already in and leaves 0.5-4 s later.
  std::size_t churn_pairs = 0;
  int qos = 1;
  double loss = 0.0;
};

/// Simulated-time layout of every schedule (seconds).
inline constexpr double kSubscribeEnd = 1.0;
inline constexpr double kActiveStart = 3.0;
inline constexpr double kActiveEnd = 20.0;
inline constexpr double kChurnJoinEnd = 18.0;
inline constexpr double kChurnHoldMin = 0.5;
inline constexpr double kChurnHoldMax = 4.0;
/// A member counts toward a publish's requested deliveries only once its
/// subscribe is at least this old: time to route to the root and graft.
inline constexpr double kSettle = 0.5;

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
/// nullptr for an unknown name.
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// Operations sorted by (time, kind, peer, group).
struct Schedule {
  std::vector<Op> ops;
  [[nodiscard]] std::size_t count(OpKind kind) const;
};

[[nodiscard]] std::vector<geomcast::geometry::Point> make_points(const WorkloadSpec& spec,
                                                                 std::uint64_t seed);
/// Single-threaded overlay build (full-knowledge or grid-kNN per spec).
[[nodiscard]] geomcast::overlay::OverlayGraph build_overlay(
    const WorkloadSpec& spec, const std::vector<geomcast::geometry::Point>& points);
[[nodiscard]] geomcast::groups::PubSubConfig make_config(const WorkloadSpec& spec,
                                                         std::uint64_t seed);

/// Draws the schedule. `roots[g]` is group g's rendezvous root; roots never
/// subscribe, publish or depart, so the run measures group service rather
/// than root migration.
[[nodiscard]] Schedule make_schedule(const WorkloadSpec& spec,
                                     const geomcast::overlay::OverlayGraph& graph,
                                     const std::vector<PeerId>& roots, std::uint64_t seed);

/// Hands every operation to the system (subscribe_at / unsubscribe_at /
/// publish_at / depart_at).
void apply(const Schedule& schedule, geomcast::groups::PubSubSystem& system);

/// One scheduled membership of `peer` in `group`: its subscribe is due at
/// `start`, and it ends at `end` — the unsubscribe or the peer's departure,
/// whichever is due first (+inf for neither). `requested` counts the
/// group's publishes due in [start + settle, end).
struct Membership {
  PeerId peer = 0;
  GroupId group = 0;
  double start = 0.0;
  double end = 0.0;
  std::uint64_t requested = 0;
};

/// Every membership the schedule creates, with its requested deliveries.
[[nodiscard]] std::vector<Membership> memberships(const Schedule& schedule, double settle);

/// Deliveries the schedule asks for, summed over `memberships(schedule,
/// settle)`: for each publish at time t of group g, the peers whose
/// subscribe to g is due at or before t - settle, whose unsubscribe from g
/// (if any) is due after t, and who have not departed by t. A publish the
/// network strands still counts, so stranded subscribes and publishes show
/// up as missing deliveries.
[[nodiscard]] std::uint64_t requested_deliveries(const std::vector<Membership>& memberships);

}  // namespace perfbench
