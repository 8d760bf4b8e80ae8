#include "analysis/experiments.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/graph_metrics.hpp"
#include "geometry/random_points.hpp"
#include "multicast/flooding.hpp"
#include "multicast/space_partition.hpp"
#include "multicast/validator.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/equilibrium.hpp"
#include "overlay/hyperplane_k.hpp"
#include "overlay/k_closest.hpp"
#include "overlay/orthant_sweep.hpp"
#include "stability/churn.hpp"
#include "stability/lifetime.hpp"
#include "stability/random_parent.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace geomcast::analysis {

namespace {

/// Deterministic per-(seed, dims, peers) point cloud, so panels built from
/// the same config share overlays where the paper shares them.
std::vector<geometry::Point> workload_points(std::uint64_t seed, std::size_t peers,
                                             std::size_t dims) {
  util::Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * dims) ^ (0xbf58476d1ce4e5b9ULL * peers));
  return geometry::random_points(rng, peers, dims);
}

/// Longest-path statistics of space-partition trees rooted at each of the
/// first `roots` peers (all peers when roots == 0). Parallel over roots.
struct SessionSweep {
  std::size_t max_longest_path = 0;
  double avg_longest_path = 0.0;
  std::size_t max_children = 0;
  std::size_t sessions = 0;
  std::size_t invalid_sessions = 0;
  double avg_coverage = 0.0;
};

SessionSweep sweep_sessions(const overlay::OverlayGraph& graph, std::size_t roots,
                            const multicast::MulticastConfig& config) {
  const std::size_t n = graph.size();
  const std::size_t sessions = roots == 0 ? n : std::min(roots, n);

  std::vector<std::size_t> longest(sessions, 0);
  std::vector<std::size_t> children(sessions, 0);
  std::vector<char> invalid(sessions, 0);
  std::vector<double> coverage(sessions, 0.0);

  auto run_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      const auto result =
          multicast::build_multicast_tree(graph, static_cast<overlay::PeerId>(r), config);
      const auto report = multicast::validate_build(graph, result);
      longest[r] = result.tree.max_root_to_leaf_path();
      children[r] = result.tree.max_children();
      coverage[r] = n == 0 ? 1.0
                           : static_cast<double>(result.tree.reached_count()) /
                                 static_cast<double>(n);
      // A session over a non-empty-rect overlay may legitimately fail
      // coverage; the caller decides what counts as invalid. Here we flag
      // structural violations only when everything was reachable.
      if (report.all_reached && !report.valid()) invalid[r] = 1;
      if (!report.all_reached &&
          (report.duplicate_deliveries > 0 || !report.children_bound_ok))
        invalid[r] = 1;
    }
  };

  util::parallel_for(sessions, sessions < 16 ? 1 : util::hardware_threads(), run_range);

  SessionSweep sweep;
  sweep.sessions = sessions;
  util::RunningStats path_stats;
  util::RunningStats coverage_stats;
  for (std::size_t r = 0; r < sessions; ++r) {
    sweep.max_longest_path = std::max(sweep.max_longest_path, longest[r]);
    sweep.max_children = std::max(sweep.max_children, children[r]);
    sweep.invalid_sessions += invalid[r];
    path_stats.add(static_cast<double>(longest[r]));
    coverage_stats.add(coverage[r]);
  }
  sweep.avg_longest_path = path_stats.mean();
  sweep.avg_coverage = coverage_stats.mean();
  return sweep;
}

}  // namespace

// ------------------------------------------------------------------ Fig 1 a

std::vector<Fig1aRow> run_fig1a(const Fig1aConfig& config) {
  std::vector<Fig1aRow> rows;
  const overlay::EmptyRectSelector selector;
  for (std::size_t dims : config.dims) {
    const auto points = workload_points(config.seed, config.peers, dims);
    const auto graph = overlay::build_equilibrium(points, selector);
    const auto stats = degree_stats(graph);
    rows.push_back(Fig1aRow{dims, stats.max, stats.avg, is_connected(graph)});
  }
  return rows;
}

util::Table fig1a_table(const std::vector<Fig1aRow>& rows) {
  util::Table table({"D", "max_degree", "avg_degree", "connected"});
  for (const auto& row : rows) {
    table.begin_row()
        .add_integer(static_cast<long long>(row.dims))
        .add_integer(static_cast<long long>(row.max_degree))
        .add_number(row.avg_degree, 2)
        .add_cell(row.connected ? "yes" : "NO");
  }
  return table;
}

// ------------------------------------------------------------------ Fig 1 b

std::vector<Fig1bRow> run_fig1b(const Fig1bConfig& config) {
  std::vector<Fig1bRow> rows;
  const overlay::EmptyRectSelector selector;
  const multicast::MulticastConfig mc_config{};  // median / L1, the paper's rule
  for (std::size_t dims : config.dims) {
    const auto points = workload_points(config.seed, config.peers, dims);
    const auto graph = overlay::build_equilibrium(points, selector);
    const auto sweep = sweep_sessions(graph, config.roots, mc_config);
    rows.push_back(Fig1bRow{dims, sweep.max_longest_path, sweep.avg_longest_path,
                            sweep.max_children, sweep.sessions, sweep.invalid_sessions});
  }
  return rows;
}

util::Table fig1b_table(const std::vector<Fig1bRow>& rows) {
  util::Table table({"D", "max_root_leaf_path", "avg_max_root_leaf_path", "max_children",
                     "sessions", "invalid"});
  for (const auto& row : rows) {
    table.begin_row()
        .add_integer(static_cast<long long>(row.dims))
        .add_integer(static_cast<long long>(row.max_longest_path))
        .add_number(row.avg_longest_path, 2)
        .add_integer(static_cast<long long>(row.max_children))
        .add_integer(static_cast<long long>(row.sessions))
        .add_integer(static_cast<long long>(row.invalid_sessions));
  }
  return table;
}

// ------------------------------------------------------------------ Fig 1 c

std::vector<Fig1cRow> run_fig1c(const Fig1cConfig& config) {
  std::vector<Fig1cRow> rows;
  const overlay::EmptyRectSelector selector;
  for (std::size_t peers : config.peer_counts) {
    const auto points = workload_points(config.seed, peers, config.dims);
    const auto graph = overlay::build_equilibrium(points, selector);
    const auto stats = degree_stats(graph);
    rows.push_back(Fig1cRow{peers, stats.max, stats.avg,
                            10.0 * std::log10(static_cast<double>(peers))});
  }
  return rows;
}

util::Table fig1c_table(const std::vector<Fig1cRow>& rows) {
  util::Table table({"N", "max_degree", "avg_degree", "10*log10(N)"});
  for (const auto& row : rows) {
    table.begin_row()
        .add_integer(static_cast<long long>(row.peers))
        .add_integer(static_cast<long long>(row.max_degree))
        .add_number(row.avg_degree, 2)
        .add_number(row.ten_log10_n, 2);
  }
  return table;
}

// ---------------------------------------------------------------- Fig 1 d/e

std::vector<StabilitySweepRow> run_stability_sweep(const StabilitySweepConfig& config) {
  std::vector<StabilitySweepRow> rows;
  if (config.k_max < config.k_min) return rows;
  for (std::size_t dims : config.dims) {
    // §3 workload: x(P,1) = T(P), other coordinates uniform.
    util::Rng rng(config.seed ^ (0x9e3779b97f4a7c15ULL * dims));
    std::vector<double> departure_times;
    const auto points = stability::lifetime_points(rng, config.peers, dims,
                                                   geometry::kDefaultVmax, departure_times);
    const overlay::OrthantSweepIndex index(points, config.metric);

    // K values are independent given the index; split them across threads.
    const std::size_t k_count = config.k_max - config.k_min + 1;
    std::vector<StabilitySweepRow> dim_rows(k_count);
    auto run_k_range = [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        const std::size_t k = config.k_min + i;
        const auto selections = index.select_k(k);
        const auto tree = stability::build_stable_tree_from_selections(
            selections, points, departure_times, config.policy);
        dim_rows[i] = StabilitySweepRow{dims, k, stability::tree_diameter(tree),
                                        tree.max_degree(), tree.is_single_tree(),
                                        tree.lifetimes_monotone()};
      }
    };
    util::parallel_for(k_count, util::hardware_threads(), run_k_range);
    rows.insert(rows.end(), dim_rows.begin(), dim_rows.end());
  }
  return rows;
}

util::Table stability_table(const std::vector<StabilitySweepRow>& rows,
                            bool diameter_panel) {
  util::Table table({"D", "K", diameter_panel ? "tree_diameter" : "max_tree_degree",
                     "single_tree", "monotone_T"});
  for (const auto& row : rows) {
    table.begin_row()
        .add_integer(static_cast<long long>(row.dims))
        .add_integer(static_cast<long long>(row.k))
        .add_integer(static_cast<long long>(diameter_panel ? row.diameter : row.max_degree))
        .add_cell(row.single_tree ? "yes" : "NO")
        .add_cell(row.monotone ? "yes" : "NO");
  }
  return table;
}

// ------------------------------------------------------ A1: message counts

std::vector<MessageComparisonRow> run_message_comparison(
    const MessageComparisonConfig& config) {
  std::vector<MessageComparisonRow> rows;
  const overlay::EmptyRectSelector selector;
  for (std::size_t dims : config.dims) {
    const auto points = workload_points(config.seed, config.peers, dims);
    const auto graph = overlay::build_equilibrium(points, selector);
    const overlay::PeerId root = 0;
    const auto sp = multicast::build_multicast_tree(graph, root);
    const auto flood = multicast::build_flooding_tree(graph, root);
    MessageComparisonRow row;
    row.dims = dims;
    row.peers = config.peers;
    row.space_partition_messages = sp.request_messages;
    row.flooding_messages = flood.request_messages;
    row.flooding_duplicates = flood.duplicate_deliveries;
    row.overhead_factor = sp.request_messages == 0
                              ? 0.0
                              : static_cast<double>(flood.request_messages) /
                                    static_cast<double>(sp.request_messages);
    rows.push_back(row);
  }
  return rows;
}

util::Table message_comparison_table(const std::vector<MessageComparisonRow>& rows) {
  util::Table table({"D", "N", "space_partition_msgs", "flooding_msgs",
                     "flooding_duplicates", "flooding/sp"});
  for (const auto& row : rows) {
    table.begin_row()
        .add_integer(static_cast<long long>(row.dims))
        .add_integer(static_cast<long long>(row.peers))
        .add_integer(static_cast<long long>(row.space_partition_messages))
        .add_integer(static_cast<long long>(row.flooding_messages))
        .add_integer(static_cast<long long>(row.flooding_duplicates))
        .add_number(row.overhead_factor, 2);
  }
  return table;
}

// ------------------------------------------------- A2: pick-policy ablation

std::vector<PickPolicyRow> run_pick_policy_ablation(const PickPolicyAblationConfig& config) {
  std::vector<PickPolicyRow> rows;
  const overlay::EmptyRectSelector selector;
  const auto points = workload_points(config.seed, config.peers, config.dims);
  const auto graph = overlay::build_equilibrium(points, selector);
  for (const auto policy :
       {multicast::PickPolicy::kMedian, multicast::PickPolicy::kClosest,
        multicast::PickPolicy::kFarthest, multicast::PickPolicy::kRandom}) {
    multicast::MulticastConfig mc_config;
    mc_config.policy = policy;
    mc_config.rng_seed = config.seed;
    const auto sweep = sweep_sessions(graph, config.roots, mc_config);
    rows.push_back(PickPolicyRow{policy, sweep.max_longest_path, sweep.avg_longest_path,
                                 sweep.max_children, sweep.invalid_sessions});
  }
  return rows;
}

util::Table pick_policy_table(const std::vector<PickPolicyRow>& rows) {
  util::Table table(
      {"policy", "max_root_leaf_path", "avg_max_root_leaf_path", "max_children", "invalid"});
  for (const auto& row : rows) {
    table.begin_row()
        .add_cell(multicast::to_string(row.policy))
        .add_integer(static_cast<long long>(row.max_longest_path))
        .add_number(row.avg_longest_path, 2)
        .add_integer(static_cast<long long>(row.max_children))
        .add_integer(static_cast<long long>(row.invalid_sessions));
  }
  return table;
}

// ------------------------------------------------------ A3: churn comparison

std::vector<ChurnComparisonRow> run_churn_comparison(const ChurnComparisonConfig& config) {
  util::Rng rng(config.seed);
  std::vector<double> departure_times;
  const auto points = stability::lifetime_points(rng, config.peers, config.dims,
                                                 geometry::kDefaultVmax, departure_times);
  const auto selector = overlay::HyperplaneKSelector::orthogonal(config.dims, config.k);
  const auto graph = overlay::build_equilibrium(points, selector);

  std::vector<ChurnComparisonRow> rows;
  {
    const auto tree = stability::build_stable_tree(graph, departure_times);
    const auto churn = stability::simulate_departures(tree.parent, departure_times);
    const auto repair =
        stability::simulate_departures_with_repair(graph, tree.parent, departure_times);
    rows.push_back(ChurnComparisonRow{"stable(S3)", churn.disruptive_departures,
                                      churn.total_orphaned, churn.max_orphaned_at_once,
                                      repair.repair_failures});
  }
  {
    util::Rng tree_rng = rng.derive(0xc0ffee);
    const auto parent = stability::build_random_spanning_tree(graph, tree_rng);
    const auto churn = stability::simulate_departures(parent, departure_times);
    const auto repair =
        stability::simulate_departures_with_repair(graph, parent, departure_times);
    rows.push_back(ChurnComparisonRow{"random-spanning", churn.disruptive_departures,
                                      churn.total_orphaned, churn.max_orphaned_at_once,
                                      repair.repair_failures});
  }
  return rows;
}

util::Table churn_table(const std::vector<ChurnComparisonRow>& rows) {
  util::Table table({"tree", "disruptive_departures", "total_orphaned",
                     "max_orphaned_at_once", "repair_failures"});
  for (const auto& row : rows) {
    table.begin_row()
        .add_cell(row.tree_kind)
        .add_integer(static_cast<long long>(row.disruptive_departures))
        .add_integer(static_cast<long long>(row.total_orphaned))
        .add_integer(static_cast<long long>(row.max_orphaned_at_once))
        .add_integer(static_cast<long long>(row.repair_failures));
  }
  return table;
}

// ----------------------------------------------- A4: selection-method ablation

std::vector<SelectionAblationRow> run_selection_ablation(
    const SelectionAblationConfig& config) {
  const auto points = workload_points(config.seed, config.peers, config.dims);

  const overlay::EmptyRectSelector empty_rect;
  const auto ortho = overlay::HyperplaneKSelector::orthogonal(config.dims, config.k);
  const overlay::KClosestSelector k_closest(config.k);

  std::vector<SelectionAblationRow> rows;
  const multicast::MulticastConfig mc_config{};
  for (const overlay::NeighborSelector* selector :
       std::initializer_list<const overlay::NeighborSelector*>{&empty_rect, &ortho,
                                                               &k_closest}) {
    const auto graph = overlay::build_equilibrium(points, *selector);
    const auto stats = degree_stats(graph);
    const auto sweep = sweep_sessions(graph, config.roots, mc_config);
    rows.push_back(SelectionAblationRow{selector->name(), stats.max, stats.avg,
                                        sweep.avg_coverage, sweep.avg_longest_path});
  }
  return rows;
}

util::Table selection_ablation_table(const std::vector<SelectionAblationRow>& rows) {
  util::Table table({"selector", "max_degree", "avg_degree", "avg_coverage",
                     "avg_max_root_leaf_path"});
  for (const auto& row : rows) {
    table.begin_row()
        .add_cell(row.selector)
        .add_integer(static_cast<long long>(row.max_degree))
        .add_number(row.avg_degree, 2)
        .add_number(row.avg_coverage, 4)
        .add_number(row.avg_longest_path, 2);
  }
  return table;
}

}  // namespace geomcast::analysis
