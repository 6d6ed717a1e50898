// The serving side of a run: the seeded query pool, the single-thread
// engine passes behind lookup_qps, a LookupServer over the run's snapshot,
// and the front-end phases against it (closed-loop saturation, open loop
// at a fixed rate).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "internet/world.h"
#include "oracle.h"
#include "serve/lookup.h"
#include "serve/server.h"

namespace perfbench {

/// Queries generated before timing, each with the bits the oracle expects.
struct QueryPool {
  std::vector<std::uint32_t> addresses;
  std::vector<std::uint8_t> expected;
};

/// One connection per simulated subscriber, drawn uniformly from
/// `world`'s users: a static or NATed user connects from its fixed public
/// address, a dynamic one from a random address of its pool's /24s. So the
/// listed, NATed, dynamic and clean shares are the world's, not chosen
/// here. `count` is rounded down to a whole number of `frame` addresses.
[[nodiscard]] QueryPool make_queries(const reuse::inet::World& world,
                                     const VerdictOracle& oracle,
                                     std::uint64_t seed, std::size_t count,
                                     std::size_t frame);

/// Shares of a pool's queries by the oracle's bits (a query may be both
/// listed and NATed, so they need not sum to 1 with `clean`).
struct QueryMix {
  double listed = 0, nated = 0, dynamic = 0, clean = 0;
};
[[nodiscard]] QueryMix mix_of(const QueryPool& queries);

/// lookup_qps: passes of LookupEngine::verdict_batch on one thread, 1,024
/// queries a call, over the whole pool, against an engine of its own that
/// serves `snapshot`. Slices of passes are spread over the run.
class EnginePasses {
 public:
  EnginePasses(std::shared_ptr<const reuse::serve::CompiledSnapshot> snapshot,
               const QueryPool& queries);

  /// Passes for `seconds` (at least one); the first slice first checks
  /// every answer against the oracle once.
  void run_slice(double seconds);

  [[nodiscard]] std::uint64_t passes() const { return pass_seconds_.size(); }
  [[nodiscard]] std::uint64_t wrong_bits() const { return wrong_; }
  /// Verdicts per second of the fastest pass: a pass on one thread only
  /// ever gets slower from the host.
  [[nodiscard]] double lookup_qps() const;
  [[nodiscard]] double batch_ns() const;
  /// Nanoseconds per LookupEngine::verdict call, the fastest of five
  /// passes over the same queries (traced runs).
  [[nodiscard]] double single_ns() const;

 private:
  reuse::serve::LookupEngine engine_;
  std::vector<reuse::net::Ipv4Address> queries_;
  const std::vector<std::uint8_t>& expected_;
  std::vector<double> pass_seconds_;
  std::uint64_t wrong_ = 0;
  bool checked_ = false;
};

/// One engine and the server in front of it, alive from the refresh phase
/// (which reloads it) through the serve phases.
class Serving {
 public:
  Serving(std::shared_ptr<const reuse::serve::CompiledSnapshot> initial,
          int workers);
  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;

  [[nodiscard]] reuse::serve::LookupEngine& engine() { return engine_; }
  [[nodiscard]] reuse::serve::LookupServer& server() { return *server_; }

  /// Sends `addresses` (at most one frame) through a fresh client and
  /// returns the verdict words, empty on a transport or SHED failure.
  [[nodiscard]] std::vector<std::uint32_t> ask(
      const std::vector<std::uint32_t>& addresses);

 private:
  reuse::serve::LookupEngine engine_;
  std::unique_ptr<reuse::serve::LookupServer> server_;
};

struct ServePlan {
  int closed_clients = 1;
  int open_clients = 1;
  /// Addresses per request frame.
  std::size_t frame = 64;
  /// Closed-loop in-flight frames per client (below the server's queue).
  std::size_t window = 8;
  /// Fixed open-loop offered load, addresses per second, all clients.
  double open_rate = 100000.0;
  double closed_seconds = 1.0;
  double open_seconds = 1.0;
  /// A re-saved copy of the served artifact, hot-reloaded mid open loop.
  std::string reload_copy;
};

/// The front end's figures: layer metrics, measured in every run.
struct FrontEndResult {
  double serve_qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double encode_ns = 0.0;  ///< traced runs only
  double decode_ns = 0.0;  ///< traced runs only
  double generator_late_us = 0.0;
  std::uint64_t served = 0;  ///< open-loop frames served
  std::uint64_t shed = 0;    ///< open-loop frames shed
  // Ledger. Front-end frames are not operations of the run: a host stall
  // of over a second sheds them by deadline now and then (serve.shed).
  std::uint64_t unanswered = 0;  ///< frames sent that got no answer
  std::uint64_t wrong_bits = 0;  ///< answers differing from the oracle
  bool reload_ok = false;
};

/// Runs the closed loop and the open loop against `serving` with
/// `queries`, taking turns in slices. `trace` adds the codec timing.
[[nodiscard]] FrontEndResult run_front_end(Serving& serving,
                                           const QueryPool& queries,
                                           const ServePlan& plan, bool trace);

}  // namespace perfbench
