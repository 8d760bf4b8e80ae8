#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace geomcast::sim {
namespace {

/// Test node that records deliveries and can echo messages back.
class RecorderNode final : public Node {
 public:
  explicit RecorderNode(NodeId id, bool echo = false) : Node(id), echo_(echo) {}

  void on_message(Simulator& sim, const Envelope& envelope) override {
    received.push_back(envelope);
    times.push_back(sim.now());
    if (echo_ && envelope.kind == 1)
      sim.send(id(), envelope.from, /*kind=*/2, std::string("ack"));
  }

  std::vector<Envelope> received;
  std::vector<SimTime> times;

 private:
  bool echo_;
};

TEST(SimulatorTest, DeliversWithConstantLatency) {
  Simulator sim;
  RecorderNode a(0), b(1);
  sim.add_node(a);
  sim.add_node(b);
  sim.network().set_latency(LatencyModel::constant(0.5));
  sim.send(0, 1, 7, std::string("hello"));
  sim.run_until_idle();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].kind, 7u);
  EXPECT_EQ(std::any_cast<std::string>(b.received[0].payload), "hello");
  EXPECT_DOUBLE_EQ(b.times[0], 0.5);
}

TEST(SimulatorTest, RequestResponseRoundTrip) {
  Simulator sim;
  RecorderNode a(0);
  RecorderNode b(1, /*echo=*/true);
  sim.add_node(a);
  sim.add_node(b);
  sim.network().set_latency(LatencyModel::constant(1.0));
  sim.send(0, 1, 1, std::string("ping"));
  sim.run_until_idle();
  ASSERT_EQ(a.received.size(), 1u);
  EXPECT_EQ(a.received[0].kind, 2u);
  EXPECT_DOUBLE_EQ(a.times[0], 2.0);  // one hop out, one hop back
}

TEST(SimulatorTest, SendToUnknownNodeThrows) {
  Simulator sim;
  RecorderNode a(0);
  sim.add_node(a);
  EXPECT_THROW(sim.send(0, 5, 1, 0), std::invalid_argument);
}

TEST(SimulatorTest, NodeIdsMustBeDense) {
  Simulator sim;
  RecorderNode wrong(3);
  EXPECT_THROW(sim.add_node(wrong), std::invalid_argument);
}

TEST(SimulatorTest, StatsCountMessages) {
  Simulator sim;
  RecorderNode a(0), b(1);
  sim.add_node(a);
  sim.add_node(b);
  sim.send(0, 1, 1, 0);
  sim.send(0, 1, 1, 0);
  sim.send(1, 0, 2, 0);
  sim.run_until_idle();
  const auto& stats = sim.stats();
  EXPECT_EQ(stats.sent, 3u);
  EXPECT_EQ(stats.delivered, 3u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.sent_by_kind.at(1), 2u);
  EXPECT_EQ(stats.sent_by_kind.at(2), 1u);
  EXPECT_EQ(stats.sent_by_node[0], 2u);
  EXPECT_EQ(stats.received_by_node[1], 2u);
}

TEST(SimulatorTest, LossModelDropsEverything) {
  Simulator sim;
  RecorderNode a(0), b(1);
  sim.add_node(a);
  sim.add_node(b);
  sim.network().set_loss(LossModel{1.0, nullptr});
  for (int i = 0; i < 10; ++i) sim.send(0, 1, 1, 0);
  sim.run_until_idle();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(sim.stats().dropped, 10u);
  EXPECT_EQ(sim.stats().delivered, 0u);
}

TEST(SimulatorTest, TargetedDropPredicate) {
  Simulator sim;
  RecorderNode a(0), b(1), c(2);
  sim.add_node(a);
  sim.add_node(b);
  sim.add_node(c);
  sim.network().set_loss(
      LossModel{0.0, [](const Envelope& e) { return e.to == 1; }});
  sim.send(0, 1, 1, 0);
  sim.send(0, 2, 1, 0);
  sim.run_until_idle();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(c.received.size(), 1u);
}

TEST(SimulatorTest, ScheduleAfterFiresAtRightTime) {
  Simulator sim;
  std::vector<SimTime> fired;
  sim.schedule_after(2.5, [&] { fired.push_back(sim.now()); });
  sim.schedule_after(1.0, [&] { fired.push_back(sim.now()); });
  sim.run_until_idle();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_DOUBLE_EQ(fired[0], 1.0);
  EXPECT_DOUBLE_EQ(fired[1], 2.5);
}

TEST(SimulatorTest, NegativeDelayThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_after(-1.0, [] {}), std::invalid_argument);
}

TEST(SimulatorTest, CancelTimer) {
  Simulator sim;
  bool fired = false;
  const auto id = sim.schedule_after(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run_until_idle();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(1.0, [&] { ++fired; });
  sim.schedule_after(5.0, [&] { ++fired; });
  sim.run_until(3.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  sim.run_until_idle();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunUntilEventBudgetNeverMovesClockPastPendingEvents) {
  // Stopping on max_events with events <= `until` still queued must leave
  // the clock at the last event run: jumping to `until` would make the
  // next run execute those events with the clock going backwards.
  Simulator sim;
  std::vector<SimTime> seen;
  for (const SimTime t : {1.0, 2.0, 3.0})
    sim.schedule_at(t, [&] { seen.push_back(sim.now()); });
  EXPECT_EQ(sim.run_until(5.0, /*max_events=*/1), 1u);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_EQ(sim.run_until_idle(), 2u);
  EXPECT_EQ(seen, (std::vector<SimTime>{1.0, 2.0, 3.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  // Once nothing at or before `until` is left, the clock does advance.
  sim.run_until(5.0);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(SimulatorTest, UniformLatencyWithinBounds) {
  Simulator sim(99);
  RecorderNode a(0), b(1);
  sim.add_node(a);
  sim.add_node(b);
  sim.network().set_latency(LatencyModel::uniform(0.2, 0.4));
  for (int i = 0; i < 100; ++i) sim.send(0, 1, 1, 0);
  sim.run_until_idle();
  ASSERT_EQ(b.times.size(), 100u);
  for (const SimTime t : b.times) {
    EXPECT_GE(t, 0.2);
    EXPECT_LT(t, 0.4);
  }
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  auto run = [] {
    Simulator sim(1234);
    RecorderNode a(0), b(1);
    sim.add_node(a);
    sim.add_node(b);
    sim.network().set_latency(LatencyModel::uniform(0.1, 1.0));
    for (int i = 0; i < 50; ++i) sim.send(0, 1, 1, i);
    sim.run_until_idle();
    return b.times;
  };
  EXPECT_EQ(run(), run());
}

TEST(SimulatorTest, DeliveryObserverSeesEveryDelivery) {
  Simulator sim;
  RecorderNode a(0), b(1);
  sim.add_node(a);
  sim.add_node(b);
  sim.network().set_latency(LatencyModel::constant(0.5));
  std::vector<std::pair<SimTime, MessageKind>> trace;
  sim.set_delivery_observer([&](SimTime when, const Envelope& envelope) {
    trace.emplace_back(when, envelope.kind);
  });
  sim.send(0, 1, 7, 0);
  sim.send(1, 0, 9, 0);
  sim.run_until_idle();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].second, 7u);
  EXPECT_EQ(trace[1].second, 9u);
  EXPECT_DOUBLE_EQ(trace[0].first, 0.5);

  // Clearing the observer stops tracing but not delivery.
  sim.set_delivery_observer(nullptr);
  sim.send(0, 1, 7, 0);
  sim.run_until_idle();
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(b.received.size(), 2u);
}

TEST(SimulatorTest, ObserverNotCalledForDroppedMessages) {
  Simulator sim;
  RecorderNode a(0), b(1);
  sim.add_node(a);
  sim.add_node(b);
  sim.network().set_loss(LossModel{1.0, nullptr});
  int observed = 0;
  sim.set_delivery_observer([&](SimTime, const Envelope&) { ++observed; });
  sim.send(0, 1, 1, 0);
  sim.run_until_idle();
  EXPECT_EQ(observed, 0);
}

TEST(SimulatorTest, MaxEventsBoundsRunaway) {
  Simulator sim;
  std::function<void()> forever = [&] { sim.schedule_after(1.0, forever); };
  sim.schedule_after(1.0, forever);
  const auto processed = sim.run_until_idle(/*max_events=*/100);
  EXPECT_EQ(processed, 100u);
}

}  // namespace
}  // namespace geomcast::sim
