// The benchmark's own tests: the requested-deliveries calculator on a
// hand-built schedule, delivery matching, the metric-name rule and result
// line, span self-time arithmetic, and the output checks — including a real
// small run whose delivered set, once corrupted, must fail them.
//
// Built by perfbench/CMakeLists.txt; run with `python3 perfbench/run.py
// --self-test` or `ctest` in the benchmark's build directory.
#include <cmath>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "groups/pubsub.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::cerr << "FAIL: " << what << "\n";
}

void expect_near(double got, double want, const std::string& what) {
  expect(std::fabs(got - want) < 1e-9, what + " (got " + std::to_string(got) + ", want " +
                                           std::to_string(want) + ")");
}

Op op(double time, OpKind kind, PeerId peer, GroupId group = 0) {
  return {time, kind, peer, group};
}

/// Group 0: peers 1 and 2 subscribe early, peer 3 at t=3 (still settling at
/// the first publish); peer 2 leaves at 4, peer 1 departs at 5. Group 1:
/// one member, one publish.
Schedule tiny_schedule() {
  Schedule s;
  s.ops = {
      op(0.0, OpKind::kSubscribe, 1),   op(0.0, OpKind::kSubscribe, 4, 1),
      op(0.2, OpKind::kSubscribe, 2),   op(1.0, OpKind::kPublish, 4, 1),
      op(3.0, OpKind::kSubscribe, 3),   op(3.2, OpKind::kPublish, 1),
      op(4.0, OpKind::kUnsubscribe, 2), op(4.5, OpKind::kPublish, 3),
      op(5.0, OpKind::kDepart, 1),      op(6.0, OpKind::kPublish, 3),
  };
  return s;
}

void test_requested_deliveries() {
  const Schedule s = tiny_schedule();
  // t=1.0 (g1): peer 4.  t=3.2: peers 1, 2 (3 settles at 3.5).
  // t=4.5: peers 1, 3 (2 left at 4.0).  t=6.0: peer 3 (1 departed at 5).
  expect(requested_deliveries(memberships(s, 0.5)) == 6, "requested deliveries, settle 0.5");
  // Without settling, peer 3 also counts at t=3.2.
  expect(requested_deliveries(memberships(s, 0.0)) == 7, "requested deliveries, settle 0");

  std::map<std::pair<PeerId, GroupId>, Membership> by_pair;
  for (const Membership& m : memberships(s, 0.5)) by_pair[{m.peer, m.group}] = m;
  expect(by_pair.size() == 4, "four memberships");
  expect(by_pair[{1, 0}].end == 5.0 && by_pair[{1, 0}].requested == 2,
         "peer 1 ends at its departure with 2 requests");
  expect(by_pair[{2, 0}].end == 4.0 && by_pair[{2, 0}].requested == 1,
         "peer 2 ends at its unsubscribe with 1 request");
  expect(std::isinf(by_pair[{3, 0}].end) && by_pair[{3, 0}].requested == 2,
         "peer 3 never ends, 2 requests");
  expect(by_pair[{4, 1}].requested == 1, "group 1 member, 1 request");
}

void test_matched_deliveries() {
  const Schedule s = tiny_schedule();
  const auto members = memberships(s, 0.5);
  const std::vector<Delivery> deliveries = {
      {4, 1, 0, 1.05},
      // Peer 1: both requests plus a stray third delivery — capped at 2.
      {1, 0, 0, 3.25}, {1, 0, 1, 4.55}, {1, 0, 2, 5.2},
      // Peer 2: one in its membership; one after end + settle does not count.
      {2, 0, 0, 3.25}, {2, 0, 1, 4.6},
      // Peer 3: only the last publish arrived.
      {3, 0, 2, 6.05},
  };
  expect(matched_deliveries(members, deliveries, 0.5) == 5, "matched deliveries");
  expect(matched_deliveries(members, {}, 0.5) == 0, "nothing delivered, nothing matched");
}

void test_metric_names() {
  expect(valid_metric_name("setup_s"), "setup_s is valid");
  expect(valid_metric_name("sim.kind.deliver_ack.s"), "dotted name is valid");
  expect(valid_metric_name("a-B_9.x"), "mixed name is valid");
  expect(!valid_metric_name(""), "empty name is invalid");
  expect(!valid_metric_name("run s"), "space is invalid");
  expect(!valid_metric_name("mem/mb"), "slash is invalid");
  expect(!valid_metric_name("\"q\""), "quote is invalid");

  const std::string line =
      result_json(true, 3, 0, {{"run_s", 1.5, "s"}, {"sim.events", 42, "count"}});
  expect(line == "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{"
                 "\"run_s\":{\"value\":1.5,\"unit\":\"s\"},"
                 "\"sim.events\":{\"value\":42,\"unit\":\"count\"}}}",
         "result line format: " + line);
  bool threw = false;
  try {
    (void)result_json(true, 1, 0, {{"bad name", 1.0, "s"}});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "result line rejects an invalid name");
  threw = false;
  try {
    (void)result_json(true, 1, 0, {{"x", 1.0, "s"}, {"x", 2.0, "s"}});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "result line rejects a repeated name");
}

void test_span_self_time() {
  expect_near(covered_length({{1, 3}, {2, 5}, {8, 12}}, 0, 10), 6.0,
              "overlapping and clipped intervals");
  expect_near(covered_length({{2, 4}, {2.5, 3}}, 0, 10), 2.0, "nested interval");
  expect_near(covered_length({{-5, -1}, {11, 12}}, 0, 10), 0.0, "intervals outside");
  expect_near(covered_length({}, 0, 10), 0.0, "no intervals");

  SpanRecorder r;
  const int run = r.add({"run", 0.0, 10.0, -1});
  const int a = r.add({"a", 1.0, 3.0, run});
  r.add({"b", 2.0, 5.0, run});
  r.add({"c", 8.0, 12.0, run});  // overruns its parent: only [8, 10) counts
  r.add({"a.child", 1.5, 2.5, a});
  r.add({"other", 0.0, 10.0, -1});  // not a child of `run`
  expect_near(r.self_time(run), 4.0, "run self time");
  expect_near(r.self_time(a), 1.0, "child self time");
  expect_near(r.self_time(r.add({"leaf", 3.0, 3.5, -1})), 0.5, "leaf self time");
}

void test_checks_synthetic() {
  const std::map<GroupId, std::uint64_t> accepted = {{0, 3}, {1, 1}};
  const std::vector<Delivery> good = {
      {1, 0, 0, 0}, {1, 0, 1, 0}, {2, 0, 0, 0}, {1, 0, 2, 0}, {2, 1, 0, 0}};
  const CheckReport ok = check_deliveries(good, accepted, true, 0);
  expect(ok.violations() == 0, "clean delivered set passes");

  std::vector<Delivery> dup = good;
  dup.push_back({1, 0, 1, 0});
  expect(check_deliveries(dup, accepted, false, 0).duplicates == 1, "duplicate caught");

  const std::vector<Delivery> hole = {{1, 0, 0, 0}, {1, 0, 2, 0}, {2, 1, 0, 0}};
  expect(check_deliveries(hole, accepted, false, 0).holes == 1, "hole caught");
  const std::vector<Delivery> last = {{1, 0, 0, 0}, {1, 0, 1, 0}, {2, 1, 0, 0}};
  expect(check_deliveries(last, accepted, false, 0).holes == 1,
         "missing last accepted seq caught");
  const std::vector<Delivery> silent = {{1, 0, 0, 0}, {1, 0, 1, 0}, {1, 0, 2, 0}};
  expect(check_deliveries(silent, accepted, false, 0).holes == 1,
         "group with no delivery caught");

  const std::vector<Delivery> beyond = {{1, 1, 0, 0}, {1, 1, 1, 0}};
  expect(check_deliveries(beyond, accepted, false, 0).beyond_accepted == 1,
         "seq beyond the accepted publishes caught");

  const std::vector<Delivery> late = {
      {1, 0, 1, 0}, {1, 0, 0, 0}, {1, 0, 2, 0}, {2, 1, 0, 0}};
  expect(check_deliveries(late, accepted, true, 0).violations() == 1,
         "out-of-order release caught");
  expect(check_deliveries(late, accepted, true, 1).violations() == 0,
         "out-of-order release covered by a pre-window release");
  expect(check_deliveries(late, accepted, false, 0).violations() == 0,
         "order not checked below QoS 2");

  std::vector<Delivery> shuffled = good;
  std::swap(shuffled[0], shuffled[4]);
  expect(delivery_digest(shuffled) == delivery_digest(good), "digest ignores probe order");
  std::vector<Delivery> changed = good;
  changed[2].peer = 3;
  expect(delivery_digest(changed) != delivery_digest(good), "digest sees a changed tuple");
}

/// A small real QoS 2 run: the checks pass on its delivered set and fail on
/// each corruption of it.
void test_checks_on_real_run() {
  WorkloadSpec spec;
  spec.name = "tiny";
  spec.peers = 300;
  spec.groups = 4;
  spec.subscribers = 12;
  spec.publishes = 10;
  spec.departures = 4;
  spec.churn_pairs = 20;
  spec.qos = 2;
  spec.loss = 0.02;
  const std::uint64_t seed = 7;
  const auto graph = build_overlay(spec, make_points(spec, seed));
  geomcast::groups::PubSubSystem system(graph, make_config(spec, seed));
  std::vector<PeerId> roots;
  for (GroupId g = 0; g < spec.groups; ++g) roots.push_back(system.manager().root_of(g));
  const Schedule schedule = make_schedule(spec, graph, roots, seed);
  apply(schedule, system);
  std::vector<Delivery> delivered;
  system.set_delivery_probe([&](PeerId p, GroupId g, std::uint64_t seq, double t) {
    delivered.push_back({p, g, seq, t});
  });
  system.run();
  std::map<GroupId, std::uint64_t> accepted;
  for (GroupId g = 0; g < spec.groups; ++g)
    accepted[g] = system.manager().stats(g).publishes;
  const std::uint64_t pre_window = system.total_stats().pre_window_deliveries;

  expect(delivered.size() > 100, "tiny run delivers");
  expect(check_deliveries(delivered, accepted, true, pre_window).violations() == 0,
         "tiny run passes the checks");
  const auto members = memberships(schedule, kSettle);
  const std::uint64_t requested = requested_deliveries(members);
  const std::uint64_t matched = matched_deliveries(members, delivered, kSettle);
  expect(matched > 0 && matched <= requested, "matched deliveries within requested");

  std::vector<Delivery> dup = delivered;
  dup.push_back(delivered[delivered.size() / 2]);
  expect(check_deliveries(dup, accepted, true, pre_window).duplicates == 1,
         "corruption: duplicated tuple fails");

  // Drop every delivery of group 0's seq 0.
  std::vector<Delivery> hole;
  for (const Delivery& d : delivered)
    if (d.group != 0 || d.seq != 0) hole.push_back(d);
  expect(check_deliveries(hole, accepted, true, pre_window).holes >= 1,
         "corruption: a missing seq fails density");

  // Drop every delivery of group 0's last accepted seq.
  std::vector<Delivery> tail;
  for (const Delivery& d : delivered)
    if (d.group != 0 || d.seq + 1 != accepted[0]) tail.push_back(d);
  expect(tail.size() < delivered.size() &&
             check_deliveries(tail, accepted, true, pre_window).holes == 1,
         "corruption: a missing last seq fails density");

  // Move one subscriber's first release behind its second.
  std::vector<Delivery> swapped = delivered;
  for (std::size_t i = 0; i < swapped.size(); ++i) {
    std::size_t j = i + 1;
    while (j < swapped.size() &&
           (swapped[j].peer != swapped[i].peer || swapped[j].group != swapped[i].group))
      ++j;
    if (j == swapped.size() || swapped[j].seq <= swapped[i].seq) continue;
    std::swap(swapped[i].seq, swapped[j].seq);
    break;
  }
  expect(check_deliveries(swapped, accepted, true, pre_window).violations() >= 1,
         "corruption: a reordered release fails");

  std::vector<Delivery> renamed = delivered;
  renamed.back().seq += 1000;
  expect(check_deliveries(renamed, accepted, true, pre_window).violations() >= 1,
         "corruption: a seq never published fails");
}

}  // namespace

int main() {
  test_requested_deliveries();
  test_matched_deliveries();
  test_metric_names();
  test_span_self_time();
  test_checks_synthetic();
  test_checks_on_real_run();
  if (failures > 0) {
    std::cerr << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench self-test passed\n";
  return 0;
}
