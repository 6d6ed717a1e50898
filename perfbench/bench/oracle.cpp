#include "oracle.h"

#include <algorithm>
#include <map>

#include "netbase/rng.h"

namespace perfbench {
namespace {

using reuse::net::Ipv4Address;
using reuse::net::Ipv4Prefix;

/// Sorted, merged [first, last] address ranges of a prefix list.
class RangeSet {
 public:
  explicit RangeSet(const std::vector<Ipv4Prefix>& prefixes) {
    for (const Ipv4Prefix& prefix : prefixes) {
      ranges_.emplace_back(prefix.first_address().value(),
                           prefix.last_address().value());
    }
    std::sort(ranges_.begin(), ranges_.end());
    std::vector<std::pair<std::uint32_t, std::uint32_t>> merged;
    for (const auto& range : ranges_) {
      if (!merged.empty() && range.first <= merged.back().second) {
        merged.back().second = std::max(merged.back().second, range.second);
      } else {
        merged.push_back(range);
      }
    }
    ranges_ = std::move(merged);
  }

  [[nodiscard]] bool contains(std::uint32_t address) const {
    auto it = std::upper_bound(
        ranges_.begin(), ranges_.end(), address,
        [](std::uint32_t a, const std::pair<std::uint32_t, std::uint32_t>& r) {
          return a < r.first;
        });
    if (it == ranges_.begin()) return false;
    --it;
    return address <= it->second;
  }

 private:
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges_;
};

std::size_t distinct(std::vector<std::uint32_t> values) {
  std::sort(values.begin(), values.end());
  return static_cast<std::size_t>(
      std::unique(values.begin(), values.end()) - values.begin());
}

}  // namespace

void Checks::expect(bool condition, const std::string& what) {
  if (!condition) failures_.push_back(what);
}

std::uint32_t VerdictOracle::expected_bits(std::uint32_t address) const {
  std::uint32_t bits = 0;
  if (listed.contains(address)) bits |= reuse::serve::kVerdictListed;
  if (nated.contains(address)) bits |= reuse::serve::kVerdictNated;
  if (dynamic24.contains(address >> 8)) bits |= reuse::serve::kVerdictDynamic;
  return bits;
}

std::uint64_t wrong_answers(std::span<const std::uint32_t> verdicts,
                            std::span<const std::uint8_t> expected) {
  std::uint64_t wrong = verdicts.size() == expected.size() ? 0 : 1;
  const std::size_t n = std::min(verdicts.size(), expected.size());
  for (std::size_t i = 0; i < n; ++i) {
    wrong += (verdicts[i] & kReuseBits) != expected[i] ? 1 : 0;
  }
  return wrong;
}

void add_slash24_keys(const std::vector<Ipv4Prefix>& prefixes,
                      std::unordered_set<std::uint32_t>* keys) {
  for (const Ipv4Prefix& prefix : prefixes) {
    const std::uint32_t first = prefix.first_address().value() >> 8;
    const std::uint32_t last = prefix.last_address().value() >> 8;
    for (std::uint64_t key = first; key <= last; ++key) {
      keys->insert(static_cast<std::uint32_t>(key));
    }
  }
}

VerdictOracle oracle_from_products(
    const reuse::blocklist::SnapshotStore& store,
    const std::unordered_set<Ipv4Address>& nated,
    const reuse::net::PrefixSet& dynamic) {
  VerdictOracle oracle;
  store.for_each_listing([&](reuse::blocklist::ListId, Ipv4Address address,
                             const reuse::net::IntervalSet&) {
    oracle.listed.insert(address.value());
  });
  for (const Ipv4Address address : nated) oracle.nated.insert(address.value());
  add_slash24_keys(dynamic.to_vector(), &oracle.dynamic24);
  return oracle;
}

void check_snapshot(const reuse::serve::CompiledSnapshot& snapshot,
                    const VerdictOracle& oracle, std::uint64_t seed,
                    std::size_t clean_samples, Checks* checks) {
  std::size_t wrong = 0;
  const auto check = [&](std::uint32_t address) {
    const std::uint32_t bits =
        snapshot.verdict(Ipv4Address(address)).bits & kReuseBits;
    if (bits != oracle.expected_bits(address)) ++wrong;
  };
  for (const std::uint32_t address : oracle.listed) check(address);
  for (const std::uint32_t address : oracle.nated) check(address);
  reuse::net::Rng rng(seed ^ 0x5ca1ab1eULL);
  for (const std::uint32_t key : oracle.dynamic24) {
    check((key << 8) | static_cast<std::uint32_t>(rng.uniform(256)));
  }
  checks->expect(wrong == 0, "snapshot: " + std::to_string(wrong) +
                                 " addresses answer other bits than the oracle");

  std::size_t clean = 0, not_clear = 0;
  while (clean < clean_samples) {
    const auto address = static_cast<std::uint32_t>(rng.uniform(1ULL << 32));
    if (oracle.expected_bits(address) != 0) continue;
    ++clean;
    if (snapshot.verdict(Ipv4Address(address)).bits != 0) ++not_clear;
  }
  checks->expect(not_clear == 0,
                 "snapshot: " + std::to_string(not_clear) +
                     " clean sample addresses are not all-clear");
}

void check_impact(const reuse::analysis::ReuseImpact& impact,
                  std::size_t reused_list_size,
                  const reuse::blocklist::SnapshotStore& store,
                  const std::unordered_set<Ipv4Address>& nated,
                  const reuse::net::PrefixSet& dynamic, Checks* checks) {
  const RangeSet dynamic_ranges(dynamic.to_vector());
  std::size_t total = 0, nated_listings = 0, dynamic_listings = 0;
  std::vector<std::uint32_t> nated_addresses, dynamic_addresses;
  std::map<reuse::blocklist::ListId, std::size_t> per_list_total;
  store.for_each_listing([&](reuse::blocklist::ListId list,
                             Ipv4Address address,
                             const reuse::net::IntervalSet&) {
    ++total;
    ++per_list_total[list];
    if (nated.contains(address)) {
      ++nated_listings;
      nated_addresses.push_back(address.value());
    }
    if (dynamic_ranges.contains(address.value())) {
      ++dynamic_listings;
      dynamic_addresses.push_back(address.value());
    }
  });
  std::size_t reused = 0;
  for (const Ipv4Address address : store.sorted_addresses()) {
    if (nated.contains(address) || dynamic_ranges.contains(address.value())) {
      ++reused;
    }
  }

  checks->expect(impact.total_listings == total, "impact: total listings");
  checks->expect(impact.nated_listings == nated_listings,
                 "impact: NATed listings");
  checks->expect(impact.dynamic_listings == dynamic_listings,
                 "impact: dynamic listings");
  checks->expect(
      impact.nated_blocklisted_addresses == distinct(nated_addresses),
      "impact: distinct NATed blocklisted addresses");
  checks->expect(
      impact.dynamic_blocklisted_addresses == distinct(dynamic_addresses),
      "impact: distinct dynamic blocklisted addresses");
  std::size_t per_list_mismatch = 0;
  for (const reuse::analysis::ListReuseCounts& counts : impact.per_list) {
    const auto it = per_list_total.find(counts.list);
    const std::size_t expected = it == per_list_total.end() ? 0 : it->second;
    if (counts.total_addresses != expected) ++per_list_mismatch;
  }
  checks->expect(per_list_mismatch == 0, "impact: per-list totals");
  checks->expect(reused_list_size == reused, "reused-address list size");
}

void check_same_fingerprint(std::uint64_t actual, std::uint64_t expected,
                            const std::string& what, Checks* checks) {
  checks->expect(actual == expected, what);
}

Precision nat_precision(const reuse::inet::World& world,
                        const std::unordered_set<Ipv4Address>& nated) {
  Precision precision;
  for (const Ipv4Address address : nated) {
    ++precision.detected;
    if (world.is_shared_address(address)) ++precision.correct;
  }
  return precision;
}

Precision dynamic_precision(const reuse::inet::World& world,
                            const reuse::net::PrefixSet& detected) {
  std::unordered_set<std::uint32_t> truth, found;
  add_slash24_keys(world.dynamic_prefixes().to_vector(), &truth);
  add_slash24_keys(detected.to_vector(), &found);
  Precision precision;
  for (const std::uint32_t key : found) {
    ++precision.detected;
    if (truth.contains(key)) ++precision.correct;
  }
  return precision;
}

void check_funnel(const reuse::dynadetect::PipelineResult& p, Checks* checks) {
  checks->expect(p.probes_multi_as + p.probes_single_as == p.probes_total &&
                     p.probes_with_changes <= p.probes_single_as &&
                     p.probes_above_knee <= p.probes_with_changes &&
                     p.probes_daily <= p.probes_above_knee &&
                     p.qualifying_probes.size() == p.probes_daily &&
                     p.qualifying_addresses <= p.single_as_addresses,
                 "detection funnel is not monotone");
}

}  // namespace perfbench
