// Correctness oracles kept apart from the program: they recount from plain
// hash sets and sorted ranges instead of calling the program's joins, so a
// fault in a join, the snapshot compiler or the server cannot hide behind
// the same code computing the expected answer.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/impact.h"
#include "blocklist/store.h"
#include "dynadetect/pipeline.h"
#include "internet/world.h"
#include "netbase/ipv4.h"
#include "netbase/prefix_trie.h"
#include "serve/snapshot.h"

namespace perfbench {

/// Collects failed checks; a run is correct iff none failed.
class Checks {
 public:
  void expect(bool condition, const std::string& what);
  [[nodiscard]] bool ok() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::vector<std::string> failures_;
};

/// Low verdict bits (listed | NATed | dynamic) every served address must
/// carry, from three hash sets.
struct VerdictOracle {
  std::unordered_set<std::uint32_t> listed;
  std::unordered_set<std::uint32_t> nated;
  /// /24 keys (address >> 8) overlapping a dynamic pool.
  std::unordered_set<std::uint32_t> dynamic24;

  [[nodiscard]] std::uint32_t expected_bits(std::uint32_t address) const;
};

/// The low three bits of a verdict word: the part the oracle decides.
inline constexpr std::uint32_t kReuseBits = reuse::serve::kVerdictListed |
                                            reuse::serve::kVerdictNated |
                                            reuse::serve::kVerdictDynamic;

/// Answer words whose oracle bits differ from `expected`, position by
/// position (the serve-side comparison).
[[nodiscard]] std::uint64_t wrong_answers(
    std::span<const std::uint32_t> verdicts,
    std::span<const std::uint8_t> expected);

/// /24 keys covered by `prefixes` (a shorter prefix covers many, a longer
/// one its covering block).
void add_slash24_keys(const std::vector<reuse::net::Ipv4Prefix>& prefixes,
                      std::unordered_set<std::uint32_t>* keys);

[[nodiscard]] VerdictOracle oracle_from_products(
    const reuse::blocklist::SnapshotStore& store,
    const std::unordered_set<reuse::net::Ipv4Address>& nated,
    const reuse::net::PrefixSet& dynamic);

/// Every listed, NATed and dynamic-/24 address the oracle knows answers
/// with the oracle's bits, and `clean_samples` seeded addresses in none of
/// them answer all-clear.
void check_snapshot(const reuse::serve::CompiledSnapshot& snapshot,
                    const VerdictOracle& oracle, std::uint64_t seed,
                    std::size_t clean_samples, Checks* checks);

/// Impact counts and the reused-list size recounted from the store's
/// listings, the NATed set and the dynamic prefixes (exact prefix ranges,
/// as the paper's join uses them).
void check_impact(const reuse::analysis::ReuseImpact& impact,
                  std::size_t reused_list_size,
                  const reuse::blocklist::SnapshotStore& store,
                  const std::unordered_set<reuse::net::Ipv4Address>& nated,
                  const reuse::net::PrefixSet& dynamic, Checks* checks);

/// Two fingerprints that must agree (resumed vs fresh products, delta-
/// applied vs compiled snapshot, staged vs Scenario products).
void check_same_fingerprint(std::uint64_t actual, std::uint64_t expected,
                            const std::string& what, Checks* checks);

/// Detector precision against the simulator's ground truth.
struct Precision {
  std::size_t detected = 0;
  std::size_t correct = 0;
  [[nodiscard]] double value() const {
    return detected == 0 ? 1.0 : static_cast<double>(correct) / detected;
  }
};
[[nodiscard]] Precision nat_precision(
    const reuse::inet::World& world,
    const std::unordered_set<reuse::net::Ipv4Address>& nated);
[[nodiscard]] Precision dynamic_precision(const reuse::inet::World& world,
                                          const reuse::net::PrefixSet& detected);

/// Bounds the README states for the detectors.
inline constexpr double kMinNatPrecision = 0.95;
inline constexpr double kMinDynamicPrecision = 0.90;

/// The detection funnel only ever narrows.
void check_funnel(const reuse::dynadetect::PipelineResult& pipeline,
                  Checks* checks);

}  // namespace perfbench
