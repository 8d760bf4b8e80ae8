// perfbench: the repository's tracked benchmark.
//
// Runs one named workload (see workload.hpp) through the public geomcast
// API — overlay::build_equilibrium*, groups::PubSubSystem — single-threaded,
// and prints every metric by name and unit, then one JSON result line.
//
//   perfbench --workload fanout|churn|scale100k --seed N --seconds S
//             --trace 0|1 [--spans FILE] [--source-id ID]
//
// --trace 0 (timed): an untimed warm-up repetition, then kSetupSamples
// repetitions that set up from scratch, then repetitions that reuse the
// overlay and set up only the system, until --seconds of host time are
// used. setup_s is the fastest full set-up and run_s the fastest run():
// both do fixed work, so the fastest repetition is the one least disturbed
// by other load on the host. --trace 1 (traced): three repetitions —
// a cold one for the memory deltas, a warm untraced one, and a traced one
// whose delivery observer charges host time to message kinds — followed by
// replays of the schedule through single layers; reports the per-layer
// metrics and writes the spans to --spans.
//
// Every repetition's delivered tuples are checked (checks.hpp) and must
// reproduce the first repetition's digest and event count. A violation
// prints the result with "correct": false and exits 1.
#include <sched.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "groups/group_manager.hpp"
#include "groups/group_tree.hpp"
#include "groups/message_kinds.hpp"
#include "groups/pubsub.hpp"
#include "overlay/routing.hpp"
#include "sim/event_queue.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;
namespace groups = geomcast::groups;
namespace overlay = geomcast::overlay;
namespace sim = geomcast::sim;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
  std::string source_id = "unknown";
};

/// Charges the host time between consecutive deliveries to the kind of the
/// envelope that opened the interval (the last one runs to the end of
/// run()); time before the first delivery is kept apart as `lead`.
class KindClock {
 public:
  static constexpr std::size_t kSlots = 64;  // sim::Network's dense kind range

  void start(double t) { last_ = t; }
  void on_delivery(sim::MessageKind kind, double t) {
    charge(t);
    current_ = kind < kSlots ? static_cast<int>(kind) : static_cast<int>(kSlots - 1);
    ++count_[static_cast<std::size_t>(current_)];
  }
  void finish(double t) { charge(t); }

  [[nodiscard]] double seconds(std::size_t slot) const { return seconds_[slot]; }
  [[nodiscard]] std::uint64_t count(std::size_t slot) const { return count_[slot]; }
  [[nodiscard]] double lead() const { return lead_; }

 private:
  void charge(double t) {
    if (current_ < 0)
      lead_ += t - last_;
    else
      seconds_[static_cast<std::size_t>(current_)] += t - last_;
    last_ = t;
  }

  double last_ = 0.0;
  double lead_ = 0.0;
  int current_ = -1;
  std::array<double, kSlots> seconds_{};
  std::array<std::uint64_t, kSlots> count_{};
};

/// Instrumentation a traced repetition attaches; all null when untraced.
struct Tracing {
  SpanRecorder* spans = nullptr;
  KindClock* kinds = nullptr;
  std::vector<double>* delivery_times = nullptr;  // sim time of every delivery
};

/// One repetition: set-up, run(), and everything read back afterwards.
struct Rep {
  double setup_s = 0.0;
  double build_s = 0.0;
  double run_s = 0.0;
  MemSample before_build, after_build, after_schedule, after_run;
  std::shared_ptr<const overlay::OverlayGraph> graph;
  std::vector<PeerId> roots;
  Schedule schedule;
  std::size_t events = 0;
  groups::GroupStats total;
  sim::NetworkStats net;
  geomcast::multicast::HopStats hop;
  std::size_t retained_peak = 0;
  std::map<GroupId, std::uint64_t> accepted;
  std::vector<Delivery> deliveries;
};

int open_span(const Tracing& tracing, const char* name, int parent) {
  return tracing.spans != nullptr ? tracing.spans->open(name, parent) : -1;
}
void close_span(const Tracing& tracing, int id) {
  if (tracing.spans != nullptr) tracing.spans->close(id);
}

/// Sets up and runs the workload once. With `overlay` the repetition reuses
/// that graph instead of generating points and building one, and its
/// setup_s covers only PubSubSystem construction and scheduling.
Rep run_rep(const WorkloadSpec& spec, std::uint64_t seed, const Tracing& tracing,
            std::shared_ptr<const overlay::OverlayGraph> overlay = nullptr) {
  Rep rep;
  const int setup_span = open_span(tracing, "setup", -1);
  const double t0 = now_s();
  rep.before_build = read_mem();
  if (overlay != nullptr) {
    rep.graph = std::move(overlay);
  } else {
    const auto points = make_points(spec, seed);
    const int build_span = open_span(tracing, "overlay.build", setup_span);
    const double tb = now_s();
    rep.graph = std::make_shared<const overlay::OverlayGraph>(build_overlay(spec, points));
    rep.build_s = now_s() - tb;
    close_span(tracing, build_span);
  }
  rep.after_build = read_mem();

  const int system_span = open_span(tracing, "groups.system", setup_span);
  auto system = std::make_unique<groups::PubSubSystem>(*rep.graph, make_config(spec, seed));
  close_span(tracing, system_span);
  const int schedule_span = open_span(tracing, "workload.schedule", setup_span);
  for (GroupId g = 0; g < spec.groups; ++g) rep.roots.push_back(system->manager().root_of(g));
  rep.schedule = make_schedule(spec, *rep.graph, rep.roots, seed);
  apply(rep.schedule, *system);
  close_span(tracing, schedule_span);
  rep.after_schedule = read_mem();
  rep.setup_s = now_s() - t0;
  close_span(tracing, setup_span);

  system->set_delivery_probe(
      [&rep](PeerId peer, GroupId group, std::uint64_t seq, double time) {
        rep.deliveries.push_back({peer, group, seq, time});
      });
  if (tracing.kinds != nullptr) {
    KindClock* kinds = tracing.kinds;
    std::vector<double>* times = tracing.delivery_times;
    system->simulator().set_delivery_observer(
        [kinds, times](sim::SimTime at, const sim::Envelope& envelope) {
          kinds->on_delivery(envelope.kind, now_s());
          times->push_back(at);
        });
  }
  const int run_span = open_span(tracing, "run", -1);
  const double t2 = now_s();
  if (tracing.kinds != nullptr) tracing.kinds->start(t2);
  rep.events = system->run();
  const double t3 = now_s();
  if (tracing.kinds != nullptr) tracing.kinds->finish(t3);
  rep.run_s = t3 - t2;
  close_span(tracing, run_span);
  rep.after_run = read_mem();

  rep.total = system->total_stats();
  rep.net = system->simulator().stats();
  rep.hop = system->hop_stats();
  rep.retained_peak = system->manager().retained_peak();
  for (GroupId g = 0; g < spec.groups; ++g)
    rep.accepted[g] = system->manager().stats(g).publishes;
  return rep;
}

/// Checks one repetition and compares it with the first; returns the
/// violations found (0 when the outputs are correct).
std::uint64_t check_rep(const WorkloadSpec& spec, const Rep& rep, std::size_t index,
                        std::uint64_t& digest, std::size_t& events) {
  const CheckReport report = check_deliveries(rep.deliveries, rep.accepted, spec.qos >= 2,
                                             rep.total.pre_window_deliveries);
  std::uint64_t violations = report.violations();
  for (const std::string& message : report.messages)
    std::cerr << "check failed: " << message << "\n";
  if (index == 0) {
    digest = report.digest;
    events = rep.events;
  } else if (report.digest != digest || rep.events != events) {
    ++violations;
    std::cerr << "check failed: repetition " << index << " digest/events "
              << report.digest << "/" << rep.events << " differ from " << digest << "/"
              << events << "\n";
  }
  return violations;
}

std::string hex(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

void print_fingerprint(const Options& options) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const bool release = build_type == "Release";
  std::cout << "fingerprint {\"source\":\"" << options.source_id << "\",\"compiler\":\""
            << PERFBENCH_COMPILER << "\",\"build_type\":\"" << build_type
            << "\",\"release\":" << (release ? "true" : "false")
            << ",\"nproc\":" << nproc
            << ",\"hardware_threads\":" << std::thread::hardware_concurrency() << "}\n";
  if (!release)
    std::cerr << "WARNING: build type '" << build_type
              << "' is not Release; timings are not comparable\n";
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::cout << "metric " << m.name << " " << m.value << " " << m.unit << "\n";
}

struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Timed repetitions that set up from scratch (setup_s is the fastest of
/// them); a run makes at least these whatever --seconds says.
constexpr std::size_t kSetupSamples = 5;

int finish(const Verdict& verdict, const std::vector<Metric>& metrics) {
  print_metrics(metrics);
  const bool correct = verdict.failed == 0;
  std::cout << result_json(correct, verdict.attempted, verdict.failed, metrics) << std::endl;
  return correct ? 0 : 1;
}

// ------------------------------------------------------------ timed run ----

int run_timed(const WorkloadSpec& spec, const Options& options) {
  std::vector<double> setup, run;
  double delivered = 0.0;  // probe calls per repetition (checked identical)
  Verdict verdict;
  std::uint64_t digest = 0;
  std::size_t events = 0;
  std::vector<Metric> fixed;  // seed-determined metrics, from the first rep
  std::shared_ptr<const overlay::OverlayGraph> overlay;
  const double start = now_s();
  // Repetition 0 warms the allocator and caches; it is checked but not
  // timed. The first kSetupSamples timed repetitions set up from scratch;
  // later ones reuse the overlay so a run fits more timed run() calls.
  for (std::size_t i = 0; i <= kSetupSamples || now_s() - start < options.seconds; ++i) {
    const bool full_setup = i <= kSetupSamples;
    if (full_setup) overlay.reset();  // one overlay resident at a time
    const Rep rep = run_rep(spec, options.seed, {}, overlay);
    overlay = rep.graph;
    verdict.failed += check_rep(spec, rep, i, digest, events);
    verdict.attempted += rep.schedule.ops.size();
    if (i > 0) {
      if (full_setup) setup.push_back(rep.setup_s);
      run.push_back(rep.run_s);
      continue;
    }
    delivered = static_cast<double>(rep.deliveries.size());
    const auto members = memberships(rep.schedule, kSettle);
    const std::uint64_t requested = requested_deliveries(members);
    const std::uint64_t matched = matched_deliveries(members, rep.deliveries, kSettle);
    const auto subscribes = static_cast<double>(rep.schedule.count(OpKind::kSubscribe));
    const groups::GroupStats& t = rep.total;
    std::cout << "workload " << spec.name << " seed " << options.seed << " ops "
              << rep.schedule.ops.size() << " requested " << requested << " matched "
              << matched << " delivered " << rep.deliveries.size() << " settle_s " << kSettle
              << " pre_window " << rep.total.pre_window_deliveries << "\n"
              << "digest " << hex(digest) << " sim.events " << events << "\n"
              << "latency samples " << t.delivery_latency.count() << "\n"
              << "publishes scheduled " << rep.schedule.count(OpKind::kPublish)
              << " accepted " << t.publishes << " stranded_msgs " << t.stranded_messages
              << "\n";
    fixed = {
        {"delivered_share",
         ratio(static_cast<double>(matched), static_cast<double>(requested)), "ratio"},
        {"delivery_ratio", t.delivery_ratio(), "ratio"},
        {"latency_p50_ms", t.delivery_latency.p50() * 1e3, "ms"},
        {"latency_p99_ms", t.delivery_latency.p99() * 1e3, "ms"},
        {"envelopes_per_delivery", ratio(static_cast<double>(rep.net.sent), delivered),
         "count"},
        {"construction_msgs_per_subscribe",
         ratio(static_cast<double>(t.build_messages + t.graft_hops + t.repair_messages),
               subscribes),
         "count"},
    };
  }
  // Set-up and run() do identical work in every repetition, so the fastest
  // repetition is the estimate least disturbed by other load on the host.
  const double setup_min = *std::min_element(setup.begin(), setup.end());
  const double run_min = *std::min_element(run.begin(), run.end());
  std::cout << "timed repetitions " << run.size() << " run_s median " << median(run)
            << " min " << run_min << " setup samples " << setup.size() << " median "
            << median(setup) << " min " << setup_min << "\n";
  std::vector<Metric> metrics = {
      {"setup_s", setup_min, "s"},
      {"run_s", run_min, "s"},
      {"deliveries_per_s", delivered / run_min, "1/s"},
      {"peak_rss_mb", read_mem().hwm_mb, "MB"},
  };
  metrics.insert(metrics.end(), fixed.begin(), fixed.end());
  return finish(verdict, metrics);
}

// ----------------------------------------------------------- traced run ----

/// Message kinds reported one by one; any other kind lands in "other".
constexpr const char* kReportedKinds[] = {
    "subscribe",    "unsubscribe",   "publish",      "deliver",
    "deliver_ack",  "nack",          "repair",       "repair_miss",
    "graft_request", "graft_accept", "graft_reject", "graft_ack",
};

sim::MessageKind kind_id(const char* name) {
  for (const auto& entry : groups::detail::kRegistry)
    if (std::string(entry.name) == name) return entry.kind;
  throw std::logic_error(std::string("unknown message kind ") + name);
}

void add_kind_metrics(const KindClock& kinds, std::vector<Metric>& out) {
  std::array<bool, KindClock::kSlots> reported{};
  for (const char* name : kReportedKinds) {
    const sim::MessageKind id = kind_id(name);
    reported[id] = true;
    out.push_back({std::string("sim.kind.") + name + ".s", kinds.seconds(id), "s"});
    out.push_back({std::string("sim.kind.") + name + ".count",
                   static_cast<double>(kinds.count(id)), "count"});
  }
  double other_s = 0.0;
  std::uint64_t other_count = 0;
  for (std::size_t slot = 0; slot < KindClock::kSlots; ++slot) {
    if (reported[slot]) continue;
    other_s += kinds.seconds(slot);
    other_count += kinds.count(slot);
  }
  out.push_back({"sim.kind.other.s", other_s, "s"});
  out.push_back({"sim.kind.other.count", static_cast<double>(other_count), "count"});
}

/// Replays every scheduled subscribe and publish as a greedy route from the
/// member to its group's root.
void replay_routes(const Rep& rep, std::vector<Metric>& out) {
  std::size_t routes = 0, delivered = 0, hops = 0;
  const double t0 = now_s();
  for (const Op& op : rep.schedule.ops) {
    if (op.kind != OpKind::kSubscribe && op.kind != OpKind::kPublish) continue;
    const auto route = overlay::route_greedy(*rep.graph, op.peer, rep.roots[op.group]);
    ++routes;
    if (!route.delivered) continue;
    ++delivered;
    hops += route.hops();
  }
  out.push_back({"overlay.route_s", now_s() - t0, "s"});
  out.push_back({"overlay.route_success_ratio",
                 ratio(static_cast<double>(delivered), static_cast<double>(routes)), "ratio"});
  out.push_back({"overlay.route_hops_mean",
                 ratio(static_cast<double>(hops), static_cast<double>(delivered)), "count"});
}

/// Replays the schedule through a standalone GroupManager, then builds
/// every group's tree over the final membership with build_group_tree.
void replay_groups(const WorkloadSpec& spec, const Rep& rep, std::uint64_t seed,
                   std::vector<Metric>& out) {
  const groups::GroupConfig config = make_config(spec, seed).groups;
  groups::GroupManager manager(*rep.graph, config);
  double membership = 0.0, refresh = 0.0, departure = 0.0;
  for (const Op& op : rep.schedule.ops) {
    const double t = now_s();
    switch (op.kind) {
      case OpKind::kSubscribe:
        manager.subscribe(op.group, op.peer);
        membership += now_s() - t;
        break;
      case OpKind::kUnsubscribe:
        manager.unsubscribe(op.group, op.peer);
        membership += now_s() - t;
        break;
      case OpKind::kPublish:
        (void)manager.tree(op.group);
        refresh += now_s() - t;
        break;
      case OpKind::kDepart:
        (void)manager.handle_departure(op.peer);
        departure += now_s() - t;
        break;
    }
  }
  out.push_back({"groups.membership_s", membership, "s"});
  out.push_back({"groups.refresh_s", refresh, "s"});
  out.push_back({"groups.departure_s", departure, "s"});

  const std::size_t n = rep.graph->size();
  std::vector<bool> alive(n);
  for (PeerId p = 0; p < n; ++p) alive[p] = manager.alive(p);
  double build = 0.0;
  for (GroupId g = 0; g < spec.groups; ++g) {
    std::vector<bool> members(n, false);
    for (const PeerId p : manager.subscribers_of(g)) members[p] = true;
    const PeerId root = manager.root_of(g);
    const double t = now_s();
    const auto tree = groups::build_group_tree(*rep.graph, root, members, config.tree, alive);
    build += now_s() - t;
    (void)tree;
  }
  out.push_back({"multicast.tree_build_s", build, "s"});
}

void noop_event(void*, std::uint64_t) {}

/// The run's delivery times, replayed through a bare EventQueue with empty
/// actions: each time is scheduled once the replay clock is within the
/// latency model's maximum delay of it, so the queue holds about what was
/// in flight during the run.
double replay_queue(const std::vector<double>& times) {
  constexpr double kHorizon = 0.015;
  sim::EventQueue queue(sim::QueueBackend::kWheel);
  std::size_t next = 0;
  double now = 0.0;
  const double t0 = now_s();
  for (;;) {
    while (next < times.size() && times[next] <= now + kHorizon)
      queue.schedule(times[next++], &noop_event, nullptr, 0);
    if (queue.empty()) {
      if (next == times.size()) break;
      queue.schedule(times[next++], &noop_event, nullptr, 0);
    }
    queue.run_next(&now);
  }
  return now_s() - t0;
}

int run_traced(const WorkloadSpec& spec, const Options& options) {
  Verdict verdict;
  std::uint64_t digest = 0;
  std::size_t events = 0;
  // Cold repetition first: its memory deltas are not hidden by an earlier
  // repetition's high-water mark.
  const Rep cold = run_rep(spec, options.seed, {});
  verdict.failed += check_rep(spec, cold, 0, digest, events);
  const Rep warm = run_rep(spec, options.seed, {});
  verdict.failed += check_rep(spec, warm, 1, digest, events);

  SpanRecorder spans;
  KindClock kinds;
  std::vector<double> delivery_times;
  const Rep traced = run_rep(spec, options.seed, {&spans, &kinds, &delivery_times});
  verdict.failed += check_rep(spec, traced, 2, digest, events);
  verdict.attempted = 3 * traced.schedule.ops.size();

  const groups::GroupStats& t = traced.total;
  const auto delivered = static_cast<double>(traced.deliveries.size());
  std::vector<Metric> metrics = {
      {"overlay.build_s", traced.build_s, "s"},
      {"overlay.mean_degree",
       ratio(2.0 * static_cast<double>(traced.graph->edge_count()),
             static_cast<double>(traced.graph->size())),
       "count"},
  };
  const int replay_span = spans.open("replay");
  const int route_span = spans.open("overlay.route", replay_span);
  replay_routes(traced, metrics);
  spans.close(route_span);
  const int groups_span = spans.open("groups.replay", replay_span);
  replay_groups(spec, traced, options.seed, metrics);
  spans.close(groups_span);
  const int queue_span = spans.open("sim.queue_replay", replay_span);
  const double queue_s = replay_queue(delivery_times);
  spans.close(queue_span);
  spans.close(replay_span);

  const auto cache_lookups = static_cast<double>(t.cache_hits + t.tree_builds);
  metrics.insert(
      metrics.end(),
      {
          {"groups.tree_builds", static_cast<double>(t.tree_builds), "count"},
          {"groups.cache_hit_ratio", ratio(static_cast<double>(t.cache_hits), cache_lookups),
           "ratio"},
          {"groups.build_msgs_per_build",
           ratio(static_cast<double>(t.build_messages), static_cast<double>(t.tree_builds)),
           "count"},
          {"groups.grafts", static_cast<double>(t.grafts), "count"},
          {"groups.repairs", static_cast<double>(t.repairs), "count"},
          {"groups.stranded_msgs", static_cast<double>(t.stranded_messages), "count"},
          {"groups.nacks", static_cast<double>(t.nacks_sent), "count"},
          {"groups.repairs_served", static_cast<double>(t.repairs_served), "count"},
          {"groups.gap_seqs_abandoned", static_cast<double>(t.gap_seqs_abandoned), "count"},
          {"groups.retained_peak", static_cast<double>(traced.retained_peak), "count"},
          {"groups.gap_repair_p99_ms", t.gap_repair_latency.p99() * 1e3, "ms"},
          {"multicast.hop_acks", static_cast<double>(traced.hop.ack_messages), "count"},
          {"multicast.hop_retransmissions", static_cast<double>(traced.hop.retransmissions),
           "count"},
          {"multicast.hop_abandoned", static_cast<double>(traced.hop.abandoned_hops),
           "count"},
          {"multicast.retx_per_delivery",
           ratio(static_cast<double>(traced.hop.retransmissions), delivered), "ratio"},
          {"sim.events", static_cast<double>(traced.events), "count"},
          {"sim.events_per_s", ratio(static_cast<double>(warm.events), warm.run_s), "1/s"},
          {"sim.envelopes_sent", static_cast<double>(traced.net.sent), "count"},
          {"sim.envelopes_dropped", static_cast<double>(traced.net.dropped), "count"},
          {"sim.queue_replay_s", queue_s, "s"},
          {"sim.non_delivery_events",
           static_cast<double>(traced.events - delivery_times.size()), "count"},
      });
  add_kind_metrics(kinds, metrics);
  double kind_total = 0.0;
  for (std::size_t slot = 0; slot < KindClock::kSlots; ++slot) kind_total += kinds.seconds(slot);
  metrics.insert(
      metrics.end(),
      {
          {"mem.overlay_mb", (cold.after_build.rss_mb - cold.before_build.rss_mb), "MB"},
          {"mem.system_mb", (cold.after_schedule.rss_mb - cold.after_build.rss_mb),
           "MB"},
          {"mem.run_mb", (cold.after_run.hwm_mb - cold.after_schedule.rss_mb), "MB"},
          {"obs.trace_overhead_s", traced.run_s - warm.run_s, "s"},
          {"obs.kind_span_share", ratio(kind_total, traced.run_s), "ratio"},
      });
  std::cout << "trace run_s untraced " << warm.run_s << " traced " << traced.run_s
            << " kind_spans_s " << kind_total << " lead_s " << kinds.lead() << "\n";

  if (!options.spans_path.empty()) {
    std::ofstream file(options.spans_path);
    file << spans.to_json() << "\n";
    if (!file) {
      std::cerr << "cannot write spans to " << options.spans_path << "\n";
      return 2;
    }
  }
  return finish(verdict, metrics);
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") options.workload = value;
    else if (key == "--seed") options.seed = std::stoull(value);
    else if (key == "--seconds") options.seconds = std::stod(value);
    else if (key == "--trace") options.trace = std::stoi(value) != 0;
    else if (key == "--spans") options.spans_path = value;
    else if (key == "--source-id") options.source_id = value;
    else return false;
  }
  return argc % 2 == 1 && find_workload(options.workload) != nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    if (!parse(argc, argv, options)) {
      std::cerr << "usage: perfbench --workload fanout|churn|scale100k --seed N "
                   "--seconds S --trace 0|1 [--spans FILE] [--source-id ID]\n";
      return 2;
    }
    const WorkloadSpec& spec = *find_workload(options.workload);
    print_fingerprint(options);
    return options.trace ? run_traced(spec, options) : run_timed(spec, options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
