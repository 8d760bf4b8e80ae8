#include "spans.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <set>
#include <stdexcept>
#include <utility>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::open(std::string name, int parent) {
  const double t = now_s();
  return add({std::move(name), t, t, parent});
}

void SpanRecorder::close(int id) { spans_.at(static_cast<std::size_t>(id)).end = now_s(); }

int SpanRecorder::add(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

double SpanRecorder::self_time(int id) const {
  const Span& s = spans_.at(static_cast<std::size_t>(id));
  std::vector<std::pair<double, double>> children;
  for (const Span& child : spans_)
    if (child.parent == id) children.emplace_back(child.start, child.end);
  return (s.end - s.start) - covered_length(std::move(children), s.start, s.end);
}

double covered_length(std::vector<std::pair<double, double>> intervals, double lo,
                      double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = lo;  // everything below `reach` is already counted
  for (const auto& [start, end] : intervals) {
    const double from = std::max(start, reach);
    const double to = std::min(end, hi);
    if (to > from) {
      covered += to - from;
      reach = to;
    }
  }
  return covered;
}

namespace {

std::string number(double value) {
  if (!std::isfinite(value)) throw std::invalid_argument("non-finite metric value");
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  if (ec != std::errc()) throw std::invalid_argument("unprintable metric value");
  return {buf, end};
}

std::string quoted(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string SpanRecorder::to_json() const {
  double origin = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (i == 0 || spans_[i].start < origin) origin = spans_[i].start;
  std::string json = "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) json += ",";
    json += "{\"name\":" + quoted(s.name) + ",\"start\":" + number(s.start - origin) +
            ",\"end\":" + number(s.end - origin) + ",\"parent\":" +
            std::to_string(s.parent) +
            ",\"self\":" + number(self_time(static_cast<int>(i))) + "}";
  }
  return json + "]}";
}

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
           c == '_' || c == '.' || c == '-';
  });
}

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::set<std::string_view> seen;
  std::string json = std::string("{\"correct\":") + (correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!valid_metric_name(m.name) || !seen.insert(m.name).second)
      throw std::invalid_argument("bad or repeated metric name: " + m.name);
    if (i > 0) json += ",";
    json += quoted(m.name) + ":{\"value\":" + number(m.value) +
            ",\"unit\":" + quoted(m.unit) + "}";
  }
  return json + "}}";
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

MemSample read_mem() {
  MemSample sample;
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    double kb = 0.0;
    if (key == "VmRSS:" && status >> kb) sample.rss_mb = kb / 1024.0;
    if (key == "VmHWM:" && status >> kb) sample.hwm_mb = kb / 1024.0;
  }
  return sample;
}

}  // namespace perfbench
