// perfbench — drives one named workload through the program's public
// functions, checks its outputs against independent oracles, and prints
// one JSON result line (see ../README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--spawned-at-ns T]
//   perfbench --self-test [--seed N]
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

bool parse(int argc, char** argv, perfbench::Options* options,
           bool* self_test) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      *self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options->workload = value;
    } else if (arg == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || options->seconds <= 0) return false;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (arg == "--work-dir") {
      options->work_dir = value;
    } else if (arg == "--spawned-at-ns") {
      options->spawned_at_ns = std::strtoll(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else {
      return false;
    }
  }
  return *self_test || perfbench::known_workload(options->workload);
}

void print_result(const perfbench::RunOutput& out) {
  std::string json = "{\"correct\": ";
  json += out.failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  char value[64];
  for (const auto& [name, measured] : out.metrics.values()) {
    std::snprintf(value, sizeof(value), "%.17g", measured.first);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + measured.second + "\"}";
    first = false;
  }
  json += "}}";
  std::cout << json << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = perfbench::Clock::now();
  perfbench::Options options;
  options.nproc = usable_cpus();
  options.work_dir = ".perfbench/work";
  bool self_test = false;
  if (!parse(argc, argv, &options, &self_test)) {
    std::cerr << "usage: perfbench --workload study|refresh "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n"
                 "       perfbench --self-test [--seed N]\n";
    return 2;
  }
  try {
    if (self_test) return perfbench::run_self_test(options) == 0 ? 0 : 1;
    std::filesystem::create_directories(options.work_dir);
    // Set-up is timed from the spawn of this process when the launcher
    // passes it (the same monotonic clock), else from main().
    const auto setup_origin =
        options.spawned_at_ns > 0
            ? perfbench::Clock::time_point(
                  std::chrono::nanoseconds(options.spawned_at_ns))
            : process_start;
    const perfbench::RunOutput out =
        perfbench::run_workload(options, setup_origin);
    for (const std::string& failure : out.failures) {
      std::cerr << "check failed: " << failure << '\n';
    }
    print_result(out);
    return out.failures.empty() ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
}
