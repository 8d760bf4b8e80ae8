// Measurement plumbing for the benchmark: host-time spans recorded around
// the benchmark's own calls into each layer, the metric list printed as the
// result line, and process memory readings.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Host seconds on the steady clock.
[[nodiscard]] double now_s();

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
};

/// Spans kept in memory and written out once the benchmark ends.
class SpanRecorder {
 public:
  /// Opens a span starting now; returns its index.
  int open(std::string name, int parent = -1);
  void close(int id);
  /// Appends an already-measured span; returns its index.
  int add(Span span);

  /// The span's duration minus the part of its interval its direct
  /// children cover (overlapping children counted once).
  [[nodiscard]] double self_time(int id) const;
  /// {"spans":[{"name":..,"start":..,"end":..,"parent":..,"self":..},..]},
  /// times relative to the earliest span start.
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<Span> spans_;
};

/// Length of the union of [start, end) intervals clipped to [lo, hi).
[[nodiscard]] double covered_length(std::vector<std::pair<double, double>> intervals,
                                    double lo, double hi);

/// Metric names are [A-Za-z0-9_.-]+.
[[nodiscard]] bool valid_metric_name(std::string_view name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
/// Throws std::invalid_argument on an invalid or repeated metric name.
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed, const std::vector<Metric>& metrics);

/// Median (mean of the middle two for an even count); 0 for an empty list.
[[nodiscard]] double median(std::vector<double> values);

/// This process's resident set and its high-water mark, in MiB, from
/// /proc/self/status (0 where unavailable).
struct MemSample {
  double rss_mb = 0.0;
  double hwm_mb = 0.0;
};
[[nodiscard]] MemSample read_mem();

}  // namespace perfbench
