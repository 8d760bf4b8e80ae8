// Output checks for one benchmark repetition: the delivered tuples the
// delivery probe saw, checked against the pub/sub contract.
//
//  * no (peer, group, seq) is delivered twice (QoS >= 1);
//  * each group's delivered seqs are dense over its accepted publishes:
//    exactly {0, ..., accepted - 1}, so a wave that reaches no subscriber
//    (the last one included) is a hole;
//  * at QoS 2 each subscriber's seqs of a group are released in increasing
//    order.
//
// The sorted delivered-tuple digest pins determinism: repetitions of one
// seed must reproduce it (and the simulator's event count) exactly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {

/// One application-level delivery, in probe order.
struct Delivery {
  PeerId peer = 0;
  GroupId group = 0;
  std::uint64_t seq = 0;
  double time = 0.0;  ///< simulated release time
};

struct CheckReport {
  std::uint64_t duplicates = 0;       ///< repeated (peer, group, seq)
  std::uint64_t holes = 0;            ///< accepted seqs no subscriber received
  std::uint64_t beyond_accepted = 0;  ///< delivered seqs that were never accepted
  std::uint64_t out_of_order = 0;     ///< QoS 2 releases below an earlier one
  /// Out-of-order releases beyond the pre-window releases the program
  /// counted (GroupStats::pre_window_deliveries, its documented exception).
  std::uint64_t unaccounted_out_of_order = 0;
  std::uint64_t digest = 0;           ///< FNV-1a over the sorted tuples
  std::vector<std::string> messages;  ///< first few violations, human-readable

  [[nodiscard]] std::uint64_t violations() const noexcept {
    return duplicates + holes + beyond_accepted + unaccounted_out_of_order;
  }
};

/// Checks `deliveries` (probe order). `accepted[g]` is group g's accepted
/// publish count (GroupStats::publishes); `in_order` enables the QoS 2
/// release-order check, which tolerates up to `pre_window` out-of-order
/// releases: QoS 2 orders releases from a subscriber's window head onward,
/// and releases a wave older than the head out of band (pubsub.hpp).
[[nodiscard]] CheckReport check_deliveries(const std::vector<Delivery>& deliveries,
                                           const std::map<GroupId, std::uint64_t>& accepted,
                                           bool in_order, std::uint64_t pre_window);

/// Deliveries that answer a request: per membership, the deliveries to its
/// (peer, group) released in [start, end + settle), capped at the
/// membership's requested count, so a delivery the schedule did not ask
/// for (a subscribe still settling, an unsubscribe in flight) cannot mask
/// a missing one. Memberships of one (peer, group) must be at least
/// `settle` apart.
[[nodiscard]] std::uint64_t matched_deliveries(const std::vector<Membership>& memberships,
                                               const std::vector<Delivery>& deliveries,
                                               double settle);

/// FNV-1a 64 over the (peer, group, seq) tuples in sorted order.
[[nodiscard]] std::uint64_t delivery_digest(std::vector<Delivery> deliveries);

}  // namespace perfbench
