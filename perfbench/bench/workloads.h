// The workloads. Each run is one operator cycle over its own input: rounds
// of a whole study that ends in a compiled snapshot, each followed by its
// share of a chain of refresh steps that reload a LookupServer and by a
// slice of single-thread engine passes; then the front end's closed and
// open loops against that server for what is left of --seconds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct RunOutput {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< failed correctness checks
};

[[nodiscard]] bool known_workload(const std::string& name);

/// Runs `options.workload`; `process_start` anchors setup_s.
[[nodiscard]] RunOutput run_workload(const Options& options,
                                     Clock::time_point process_start);

/// Corrupts one output per check (a flipped verdict bit, a dropped NATed
/// address, a wrong fingerprint) and confirms each check fails on it while
/// passing on the intact output. Returns the number of checks that did
/// not behave; prints one line per case.
[[nodiscard]] int run_self_test(const Options& options);

}  // namespace perfbench
