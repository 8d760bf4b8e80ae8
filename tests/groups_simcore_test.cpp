// Oracle-equivalence battery for the simulator-core fast path.
//
// PubSubConfig::sim_core gates three substitutions: the hierarchical
// timer-wheel event queue (vs the historic binary heap), interval-set
// (group, seq) dedup (vs per-seq std::set), and the dense window-slot
// storage. All three are engineered to be *bit-passive*: same pop order,
// same dedup verdicts, same stats. This battery pins that claim the
// strongest way the observability layer allows — for each workload cell it
// runs the identical seeded scenario with sim_core on and off and demands
//   (1) identical delivered sequences: every (peer, group, seq, time)
//       tuple, in probe-invocation order,
//   (2) byte-identical stats JSON (GroupStats + NetworkStats + HopStats —
//       obs::to_json is canonical, so one differing counter fails), and
//   (3) the same run() event count.
// Each cell also pins a checked-in FNV-1a-64 digest over all three, so a
// change that moves both paths in lockstep still fails: a digest that has
// to change is a behaviour change, never a silent re-pin.
// Cells span QoS 0/1/2, stochastic loss, churn, batching, and a warm
// root-kill, so every subsystem the knob touches is exercised.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "groups/pubsub.hpp"
#include "obs/snapshot.hpp"
#include "groups_test_util.hpp"

namespace geomcast::groups {
namespace {

using testutil::make_overlay;
using testutil::subscribe_members;

struct CellResult {
  std::vector<std::tuple<PeerId, GroupId, std::uint64_t, double>> delivered;
  std::string stats_json;
  std::size_t events = 0;
};

/// Runs one seeded workload and captures everything the equivalence gate
/// compares. The workload is a pure function of (config, knobs below);
/// only config.sim_core varies between the two runs of a cell.
CellResult run_cell(const overlay::OverlayGraph& graph, PubSubConfig config,
                    std::size_t groups, std::size_t members, std::size_t publishes,
                    std::size_t departures, bool kill_root) {
  PubSubSystem system(graph, config);
  CellResult out;
  system.set_delivery_probe(
      [&out](PeerId peer, GroupId group, std::uint64_t seq, double time) {
        out.delivered.emplace_back(peer, group, seq, time);
      });
  std::vector<std::vector<PeerId>> cell_members(groups);
  for (GroupId g = 0; g < groups; ++g)
    cell_members[g] = subscribe_members(system, graph, g, members, config.seed + g);
  for (GroupId g = 0; g < groups; ++g) {
    const PeerId root = system.manager().root_of(g);
    for (std::size_t i = 0; i < publishes; ++i)
      system.publish_at(2.0 + 0.05 * static_cast<double>(i) +
                            0.001 * static_cast<double>(g),
                        root, g);
  }
  // Churn: subscribers leave mid-workload, deterministically picked from
  // the back of each membership list so roots survive.
  std::size_t departed = 0;
  for (GroupId g = 0; g < groups && departed < departures; ++g)
    for (auto it = cell_members[g].rbegin();
         it != cell_members[g].rend() && departed < departures; ++it, ++departed)
      system.depart_at(2.2 + 0.05 * static_cast<double>(departed), *it);
  if (kill_root) system.depart_at(2.26, system.manager().root_of(0));
  out.events = system.run();

  std::string json = obs::to_json(system.total_stats());
  json += '\n';
  json += obs::to_json(system.simulator().stats());
  json += '\n';
  json += obs::to_json(system.hop_stats());
  out.stats_json = std::move(json);
  return out;
}

/// FNV-1a-64 over the delivered (peer, group, seq, time-bits) tuples, the
/// stats JSON and the event count, each integer fed little-endian.
std::uint64_t digest(const CellResult& cell) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto byte = [&h](std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  };
  const auto word = [&byte](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  for (const auto& [peer, group, seq, time] : cell.delivered) {
    word(peer);
    word(group);
    word(seq);
    word(std::bit_cast<std::uint64_t>(time));
  }
  for (const char c : cell.stats_json) byte(static_cast<std::uint8_t>(c));
  word(cell.events);
  return h;
}

void expect_equivalent(const overlay::OverlayGraph& graph, PubSubConfig config,
                       std::uint64_t expected_digest, std::size_t groups,
                       std::size_t members, std::size_t publishes,
                       std::size_t departures = 0, bool kill_root = false) {
  config.sim_core = true;
  const auto fast = run_cell(graph, config, groups, members, publishes, departures,
                             kill_root);
  config.sim_core = false;
  const auto oracle = run_cell(graph, config, groups, members, publishes, departures,
                               kill_root);
  EXPECT_EQ(fast.delivered, oracle.delivered);
  EXPECT_EQ(fast.stats_json, oracle.stats_json);
  EXPECT_EQ(fast.events, oracle.events);
  EXPECT_FALSE(fast.delivered.empty());
  EXPECT_EQ(digest(fast), expected_digest)
      << std::hex << "actual digest 0x" << digest(fast);
}

TEST(GroupsSimCoreTest, QoS0BatchedLossless) {
  const auto graph = make_overlay(150, 2, 1501);
  PubSubConfig config;
  config.seed = 211;
  config.batch_window = 0.1;
  expect_equivalent(graph, config, 0xe397f1c6456601a3ULL, /*groups=*/4, /*members=*/10,
                    /*publishes=*/6);
}

TEST(GroupsSimCoreTest, QoS1LossyBatchedWithChurn) {
  const auto graph = make_overlay(150, 2, 1502);
  PubSubConfig config;
  config.seed = 223;
  config.reliability.qos = multicast::QoS::kAcked;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 4;
  config.batch_window = 0.1;
  config.loss.drop_probability = 0.03;
  expect_equivalent(graph, config, 0x75da9f0377a49240ULL, 4, 10, 6, /*departures=*/6);
}

TEST(GroupsSimCoreTest, QoS2LossyRepairPath) {
  const auto graph = make_overlay(120, 3, 1503);
  PubSubConfig config;
  config.seed = 227;
  config.reliability.qos = multicast::QoS::kEndToEnd;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 4;
  config.batch_window = 0.05;
  config.loss.drop_probability = 0.04;
  expect_equivalent(graph, config, 0xb8dc8669b4ee9421ULL, 3, 12, 8);
}

TEST(GroupsSimCoreTest, WarmRootKillFailover) {
  const auto graph = make_overlay(150, 2, 1504);
  PubSubConfig config;
  config.seed = 229;
  config.reliability.qos = multicast::QoS::kEndToEnd;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 4;
  config.batch_window = 0.1;
  config.warm_failover = true;
  expect_equivalent(graph, config, 0x3408acba71666202ULL, 3, 12, 6, /*departures=*/0,
                    /*kill_root=*/true);
}

TEST(GroupsSimCoreTest, SeedSweepQoS1) {
  // Same scenario, several seeds — the dedup interval-set and wheel pop
  // order must hold across schedule permutations, not one lucky seed.
  const auto graph = make_overlay(130, 2, 1505);
  const std::pair<std::uint64_t, std::uint64_t> seeds[] = {
      {233, 0x2e66a4e07807f563ULL},
      {239, 0x7ef2dbea2d9589bcULL},
      {241, 0x253b86a9db7788e8ULL}};
  for (const auto& [seed, expected] : seeds) {
    PubSubConfig config;
    config.seed = seed;
    config.reliability.qos = multicast::QoS::kAcked;
    config.reliability.ack_timeout = 0.05;
    config.reliability.max_retries = 4;
    config.loss.drop_probability = 0.02;
    expect_equivalent(graph, config, expected, 3, 8, 5);
  }
}

}  // namespace
}  // namespace geomcast::groups
