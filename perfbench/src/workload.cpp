#include "workload.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "geometry/distance.hpp"
#include "geometry/random_points.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/equilibrium.hpp"
#include "overlay/grid_knn.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace groups = geomcast::groups;
namespace overlay = geomcast::overlay;

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    WorkloadSpec fanout;
    fanout.name = "fanout";
    fanout.peers = 2000;
    fanout.groups = 64;
    fanout.subscribers = 64;
    fanout.publishes = 64;
    fanout.departures = 16;
    fanout.qos = 2;
    fanout.loss = 0.02;
    v.push_back(fanout);

    WorkloadSpec churn;
    churn.name = "churn";
    churn.peers = 2000;
    churn.groups = 128;
    churn.subscribers = 24;
    churn.publishes = 24;
    churn.departures = 200;
    churn.churn_pairs = 6000;
    v.push_back(churn);

    WorkloadSpec scale;
    scale.name = "scale100k";
    scale.peers = 100000;
    scale.knn_k = 16;
    scale.groups = 32;
    scale.subscribers = 256;
    scale.nearest_members = true;
    scale.publishes = 512;
    scale.departures = 200;
    v.push_back(scale);
    return v;
  }();
  return specs;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : workloads())
    if (spec.name == name) return &spec;
  return nullptr;
}

std::size_t Schedule::count(OpKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(ops.begin(), ops.end(), [kind](const Op& op) { return op.kind == kind; }));
}

std::vector<geomcast::geometry::Point> make_points(const WorkloadSpec& spec,
                                                   std::uint64_t seed) {
  geomcast::util::Rng rng(seed);
  return geomcast::geometry::random_points(rng, spec.peers, 3, 100.0);
}

overlay::OverlayGraph build_overlay(const WorkloadSpec& spec,
                                    const std::vector<geomcast::geometry::Point>& points) {
  const overlay::EmptyRectSelector selector;
  if (spec.knn_k == 0) return overlay::build_equilibrium(points, selector, 1);
  return overlay::build_equilibrium_local(points, selector, spec.knn_k);
}

groups::PubSubConfig make_config(const WorkloadSpec& spec, std::uint64_t seed) {
  groups::PubSubConfig config;
  config.seed = seed;
  config.latency = geomcast::sim::LatencyModel::uniform(0.005, 0.015);
  config.loss.drop_probability = spec.loss;
  config.reliability.qos = static_cast<geomcast::multicast::QoS>(spec.qos);
  config.reliability.ack_timeout = 0.05;
  return config;
}

namespace {

constexpr std::size_t kMaxDraws = 100000;

std::uint64_t pair_key(PeerId peer, GroupId group) {
  return (group << 32) | peer;
}

}  // namespace

Schedule make_schedule(const WorkloadSpec& spec, const overlay::OverlayGraph& graph,
                       const std::vector<PeerId>& roots, std::uint64_t seed) {
  geomcast::util::Rng rng(seed ^ 0x7065726662656e63ULL);
  const std::size_t n = graph.size();
  std::vector<bool> is_root(n, false);
  for (const PeerId root : roots) is_root.at(root) = true;
  std::vector<PeerId> non_roots;
  for (PeerId p = 0; p < n; ++p)
    if (!is_root[p]) non_roots.push_back(p);
  if (spec.subscribers > non_roots.size() || spec.departures > non_roots.size())
    throw std::invalid_argument("workload " + spec.name + ": too few non-root peers");
  const auto random_non_root = [&] {
    return non_roots[rng.next_below(non_roots.size())];
  };

  Schedule schedule;
  auto& ops = schedule.ops;
  std::vector<std::vector<PeerId>> members(spec.groups);
  std::unordered_set<std::uint64_t> initial;
  for (GroupId g = 0; g < spec.groups; ++g) {
    if (spec.nearest_members) {
      const geomcast::geometry::Point& at = graph.point(roots[g]);
      std::vector<std::pair<double, PeerId>> by_dist;
      by_dist.reserve(non_roots.size());
      for (const PeerId p : non_roots)
        by_dist.emplace_back(geomcast::geometry::l2_distance_sq(graph.point(p), at), p);
      std::partial_sort(by_dist.begin(),
                        by_dist.begin() + static_cast<std::ptrdiff_t>(spec.subscribers),
                        by_dist.end());
      for (std::size_t i = 0; i < spec.subscribers; ++i)
        members[g].push_back(by_dist[i].second);
    } else {
      std::unordered_set<PeerId> chosen;
      while (members[g].size() < spec.subscribers) {
        const PeerId p = random_non_root();
        if (chosen.insert(p).second) members[g].push_back(p);
      }
    }
    for (const PeerId p : members[g]) {
      initial.insert(pair_key(p, g));
      ops.push_back({rng.uniform(0.0, kSubscribeEnd), OpKind::kSubscribe, p, g});
    }
  }

  constexpr double kNever = std::numeric_limits<double>::infinity();
  std::vector<double> departs(n, kNever);
  for (std::size_t i = 0; i < spec.departures;) {
    const PeerId p = random_non_root();
    if (departs[p] != kNever) continue;
    departs[p] = rng.uniform(kActiveStart, kActiveEnd);
    ops.push_back({departs[p], OpKind::kDepart, p, 0});
    ++i;
  }

  // Publishers are initial members still alive at the publish time.
  for (GroupId g = 0; g < spec.groups; ++g) {
    for (std::size_t i = 0; i < spec.publishes; ++i) {
      const double t = rng.uniform(kActiveStart, kActiveEnd);
      for (std::size_t draw = 0;; ++draw) {
        if (draw == kMaxDraws)
          throw std::runtime_error("workload " + spec.name + ": no live publisher");
        const PeerId p = members[g][rng.next_below(members[g].size())];
        if (departs[p] <= t) continue;
        ops.push_back({t, OpKind::kPublish, p, g});
        break;
      }
    }
  }

  // Churn: the peer stays alive through its leave and never overlaps its
  // own membership of the group, so every join and leave is a real change.
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>> held;
  for (std::size_t i = 0; i < spec.churn_pairs; ++i) {
    for (std::size_t draw = 0;; ++draw) {
      if (draw == kMaxDraws)
        throw std::runtime_error("workload " + spec.name + ": churn pairs do not fit");
      const PeerId p = random_non_root();
      const auto g = static_cast<GroupId>(rng.next_below(spec.groups));
      const double join = rng.uniform(kActiveStart, kChurnJoinEnd);
      const double leave = join + rng.uniform(kChurnHoldMin, kChurnHoldMax);
      if (departs[p] <= leave || initial.count(pair_key(p, g)) > 0) continue;
      auto& spans = held[pair_key(p, g)];
      // Memberships of one (peer, group) stay kSettle apart, so every
      // delivery belongs to exactly one of them (see matched_deliveries).
      const bool overlaps = std::any_of(spans.begin(), spans.end(), [&](const auto& s) {
        return join <= s.second + kSettle && s.first <= leave + kSettle;
      });
      if (overlaps) continue;
      spans.emplace_back(join, leave);
      ops.push_back({join, OpKind::kSubscribe, p, g});
      ops.push_back({leave, OpKind::kUnsubscribe, p, g});
      break;
    }
  }

  std::sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
    return std::tie(a.time, a.kind, a.peer, a.group) <
           std::tie(b.time, b.kind, b.peer, b.group);
  });
  return schedule;
}

void apply(const Schedule& schedule, groups::PubSubSystem& system) {
  for (const Op& op : schedule.ops) {
    switch (op.kind) {
      case OpKind::kSubscribe: system.subscribe_at(op.time, op.peer, op.group); break;
      case OpKind::kUnsubscribe: system.unsubscribe_at(op.time, op.peer, op.group); break;
      case OpKind::kPublish: system.publish_at(op.time, op.peer, op.group); break;
      case OpKind::kDepart: system.depart_at(op.time, op.peer); break;
    }
  }
}

std::vector<Membership> memberships(const Schedule& schedule, double settle) {
  std::map<GroupId, std::vector<double>> publishes;  // due times, ascending
  std::map<std::pair<PeerId, GroupId>, double> open;
  std::vector<Membership> out;
  const auto close = [&out](PeerId peer, GroupId group, double start, double end) {
    out.push_back({peer, group, start, end, 0});
  };
  for (const Op& op : schedule.ops) {
    switch (op.kind) {
      case OpKind::kSubscribe: open.emplace(std::pair{op.peer, op.group}, op.time); break;
      case OpKind::kUnsubscribe: {
        const auto it = open.find({op.peer, op.group});
        if (it == open.end()) break;
        close(op.peer, op.group, it->second, op.time);
        open.erase(it);
        break;
      }
      case OpKind::kDepart: {
        auto it = open.lower_bound({op.peer, 0});
        while (it != open.end() && it->first.first == op.peer) {
          close(op.peer, it->first.second, it->second, op.time);
          it = open.erase(it);
        }
        break;
      }
      case OpKind::kPublish: publishes[op.group].push_back(op.time); break;
    }
  }
  for (const auto& [key, start] : open)
    close(key.first, key.second, start, std::numeric_limits<double>::infinity());
  for (Membership& m : out) {
    const std::vector<double>& times = publishes[m.group];
    // Publish due at t counts when start + settle <= t < end, matching
    // requested_deliveries' "subscribe due at or before t - settle".
    const auto first = std::partition_point(times.begin(), times.end(), [&](double t) {
      return m.start > t - settle;
    });
    const auto last = std::lower_bound(times.begin(), times.end(), m.end);
    m.requested = last > first ? static_cast<std::uint64_t>(last - first) : 0;
  }
  return out;
}

std::uint64_t requested_deliveries(const std::vector<Membership>& memberships) {
  std::uint64_t requested = 0;
  for (const Membership& m : memberships) requested += m.requested;
  return requested;
}

}  // namespace perfbench
