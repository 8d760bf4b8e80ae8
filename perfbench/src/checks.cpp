#include "checks.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

namespace perfbench {

namespace {

constexpr std::size_t kMaxMessages = 8;

void note(CheckReport& report, std::string message) {
  if (report.messages.size() < kMaxMessages) report.messages.push_back(std::move(message));
}

std::string tuple_text(const Delivery& d) {
  return "(peer " + std::to_string(d.peer) + ", group " + std::to_string(d.group) +
         ", seq " + std::to_string(d.seq) + ")";
}

bool tuple_less(const Delivery& a, const Delivery& b) {
  return std::tie(a.peer, a.group, a.seq) < std::tie(b.peer, b.group, b.seq);
}

bool tuple_equal(const Delivery& a, const Delivery& b) {
  return a.peer == b.peer && a.group == b.group && a.seq == b.seq;
}

}  // namespace

std::uint64_t delivery_digest(std::vector<Delivery> deliveries) {
  std::sort(deliveries.begin(), deliveries.end(), tuple_less);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const Delivery& d : deliveries) {
    mix(d.peer);
    mix(d.group);
    mix(d.seq);
  }
  return hash;
}

CheckReport check_deliveries(const std::vector<Delivery>& deliveries,
                             const std::map<GroupId, std::uint64_t>& accepted,
                             bool in_order, std::uint64_t pre_window) {
  CheckReport report;
  report.digest = delivery_digest(deliveries);

  std::vector<Delivery> sorted = deliveries;
  std::sort(sorted.begin(), sorted.end(), tuple_less);
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (tuple_equal(sorted[i - 1], sorted[i])) {
      ++report.duplicates;
      note(report, "duplicate delivery " + tuple_text(sorted[i]));
    }
  }

  // Density: the distinct delivered seqs of each group are exactly
  // {0, ..., accepted - 1}; a group that accepted publishes but delivered
  // nothing is all holes.
  std::map<GroupId, std::vector<std::uint64_t>> seqs;
  for (const auto& [group, count] : accepted)
    if (count > 0) seqs[group];
  for (const Delivery& d : deliveries) seqs[d.group].push_back(d.seq);
  for (auto& [group, list] : seqs) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    const auto it = accepted.find(group);
    const std::uint64_t limit = it == accepted.end() ? 0 : it->second;
    const auto below = static_cast<std::uint64_t>(
        std::lower_bound(list.begin(), list.end(), limit) - list.begin());
    if (below != limit) {
      report.holes += limit - below;
      note(report, "group " + std::to_string(group) + " delivered " + std::to_string(below) +
                       " of its " + std::to_string(limit) + " accepted seqs");
    }
    if (below != list.size()) {
      report.beyond_accepted += list.size() - below;
      note(report, "group " + std::to_string(group) + " delivered seq " +
                       std::to_string(list.back()) + " but accepted only " +
                       std::to_string(limit) + " publishes");
    }
  }

  if (in_order) {
    std::vector<std::string> late;  // reported only when unaccounted
    std::map<std::pair<PeerId, GroupId>, std::uint64_t> last;
    for (const Delivery& d : deliveries) {
      const auto [it, fresh] = last.try_emplace({d.peer, d.group}, d.seq);
      if (fresh) continue;
      if (d.seq < it->second) {
        ++report.out_of_order;
        if (late.size() < kMaxMessages)
          late.push_back("out-of-order release " + tuple_text(d) + " after seq " +
                         std::to_string(it->second));
      } else {
        it->second = d.seq;
      }
    }
    if (report.out_of_order > pre_window) {
      report.unaccounted_out_of_order = report.out_of_order - pre_window;
      note(report, std::to_string(report.out_of_order) + " out-of-order releases but only " +
                       std::to_string(pre_window) + " pre-window releases");
      for (std::string& message : late) note(report, std::move(message));
    }
  }
  return report;
}

std::uint64_t matched_deliveries(const std::vector<Membership>& memberships,
                                 const std::vector<Delivery>& deliveries, double settle) {
  std::map<std::pair<PeerId, GroupId>, std::vector<double>> times;
  for (const Delivery& d : deliveries) times[{d.peer, d.group}].push_back(d.time);
  for (auto& [key, list] : times) std::sort(list.begin(), list.end());
  std::uint64_t matched = 0;
  for (const Membership& m : memberships) {
    const auto it = times.find({m.peer, m.group});
    if (it == times.end()) continue;
    const std::vector<double>& list = it->second;
    const auto from = std::lower_bound(list.begin(), list.end(), m.start);
    const auto to = std::lower_bound(list.begin(), list.end(), m.end + settle);
    const auto landed = static_cast<std::uint64_t>(to - from);
    matched += std::min(landed, m.requested);
  }
  return matched;
}

}  // namespace perfbench
