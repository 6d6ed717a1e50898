#include "serving.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <span>
#include <thread>

#include "netbase/rng.h"
#include "serve/client.h"
#include "serve/frame.h"

namespace perfbench {
namespace {

using reuse::net::Ipv4Address;
using reuse::serve::LookupClient;
using reuse::serve::ResponseFrame;
using reuse::serve::ResponseStatus;
using reuse::serve::Verdict;

/// Client-side per-frame codec cost: request encode and response decode.
void time_codec(const QueryPool& queries, std::size_t frame, double* encode_ns,
                double* decode_ns) {
  constexpr int kIterations = 20000;
  const std::span<const std::uint32_t> addresses(queries.addresses.data(),
                                                 frame);
  std::size_t bytes = 0;
  auto start = Clock::now();
  for (int i = 0; i < kIterations; ++i) {
    bytes += reuse::serve::encode_request(static_cast<std::uint64_t>(i),
                                          addresses)
                 .size();
  }
  *encode_ns = 1e9 * seconds_since(start) / kIterations;
  const std::string response = reuse::serve::encode_response(
      7, ResponseStatus::kOk, addresses);
  reuse::serve::ResponseDecoder decoder;
  start = Clock::now();
  for (int i = 0; i < kIterations; ++i) {
    decoder.feed(response);
    bytes += decoder.next()->verdicts.size();
  }
  *decode_ns = 1e9 * seconds_since(start) / kIterations;
  keep_observable(bytes);
}

/// Open-loop latency is taken per window of scheduled send times; a
/// window's p99 needs at least ten requests beyond it.
constexpr double kLatencyWindowSeconds = 0.25;
constexpr std::size_t kMinWindowRequests = 1000;

struct ClientTally {
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t shed = 0;
  std::uint64_t wrong = 0;
};

/// Closed loop at saturation for `seconds`: each client keeps `window`
/// frames in flight and sends the next one as each answer arrives. Appends
/// the answered-address rate of every 100 ms to `rates`.
void run_closed_loop(Serving& serving, const QueryPool& queries,
                     const ServePlan& plan, double seconds, ClientTally* total,
                     std::vector<double>* rates) {
  const std::size_t frames_in_pool = queries.addresses.size() / plan.frame;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> answered{0};
  std::vector<ClientTally> tallies(static_cast<std::size_t>(plan.closed_clients));
  std::vector<std::thread> clients;
  for (int c = 0; c < plan.closed_clients; ++c) {
    clients.emplace_back([&, c] {
      ClientTally& tally = tallies[static_cast<std::size_t>(c)];
      LookupClient client(serving.server().connect_client());
      if (!client.valid()) return;
      std::uint64_t next = static_cast<std::uint64_t>(c) * frames_in_pool /
                           static_cast<std::uint64_t>(plan.closed_clients);
      const auto send = [&] {
        const std::uint64_t f = next++ % frames_in_pool;
        if (client.send_batch(f, std::span(queries.addresses)
                                     .subspan(f * plan.frame, plan.frame))) {
          ++tally.sent;
        }
      };
      for (std::size_t i = 0; i < plan.window; ++i) send();
      std::uint64_t in_flight = tally.sent;
      while (in_flight > 0) {
        const std::optional<ResponseFrame> response = client.read_response();
        if (!response) break;
        --in_flight;
        if (response->status != ResponseStatus::kOk) {
          ++tally.shed;
        } else {
          ++tally.answered;
          tally.wrong += wrong_answers(
              response->verdicts,
              std::span(queries.expected)
                  .subspan(response->request_id * plan.frame, plan.frame));
          answered.fetch_add(plan.frame, std::memory_order_relaxed);
        }
        if (!stop.load(std::memory_order_relaxed)) {
          const std::uint64_t before = tally.sent;
          send();
          in_flight += tally.sent - before;
        }
      }
      client.shutdown_write();
    });
  }
  const auto start = Clock::now();
  std::uint64_t last = answered.load();
  auto last_at = Clock::now();
  while (seconds_since(start) < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const std::uint64_t now_count = answered.load();
    const auto now = Clock::now();
    rates->push_back(static_cast<double>(now_count - last) /
                    std::chrono::duration<double>(now - last_at).count());
    last = now_count;
    last_at = now;
  }
  stop.store(true);
  for (std::thread& thread : clients) thread.join();
  for (const ClientTally& tally : tallies) {
    total->sent += tally.sent;
    total->answered += tally.answered;
    total->shed += tally.shed;
    total->wrong += tally.wrong;
  }
}

/// Latency figures of the open loop, per window of scheduled send times.
struct OpenLoopFigures {
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  std::vector<double> late_us;
  std::uint64_t served = 0;  ///< frames, on the server's ledger
  std::uint64_t shed = 0;
  bool reload_ok = true;
};

/// One slice of the open loop at the plan's fixed rate, `seconds` long,
/// sending the pool's frames from `first_frame` on. A sender thread per
/// client sends frame k at its due time; the client thread reads answers
/// and times each from that due time, so a stalled sender's wait counts.
/// With `reload`, one hot reload of a re-saved copy of the served artifact
/// runs midway, beside the readers; the verdicts must not change.
void run_open_loop(Serving& serving, const QueryPool& queries,
                   const ServePlan& plan, double seconds,
                   std::uint64_t first_frame, bool reload, ClientTally* total,
                   OpenLoopFigures* figures) {
  const std::size_t frames_in_pool = queries.addresses.size() / plan.frame;
  const double per_client_rate = plan.open_rate / plan.open_clients;
  const auto interval = std::chrono::duration<double>(
      static_cast<double>(plan.frame) / per_client_rate);
  const auto frames = static_cast<std::uint64_t>(
      seconds * per_client_rate / static_cast<double>(plan.frame));
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto due = [&](int c, std::uint64_t k) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       interval * (static_cast<double>(k) +
                                    static_cast<double>(c) / plan.open_clients));
  };

  const reuse::serve::ServerStats before = serving.server().stats();
  std::mutex merge;
  std::vector<std::pair<double, double>> latency_us;  // (due s, latency us)
  std::vector<ClientTally> tallies(static_cast<std::size_t>(plan.open_clients));
  std::vector<std::thread> clients;
  for (int c = 0; c < plan.open_clients; ++c) {
    clients.emplace_back([&, c] {
      ClientTally& tally = tallies[static_cast<std::size_t>(c)];
      LookupClient client(serving.server().connect_client());
      if (!client.valid()) return;
      std::vector<double> late(frames, 0.0);
      std::vector<std::pair<double, double>> latency;
      latency.reserve(frames);
      const std::uint64_t first =
          first_frame + static_cast<std::uint64_t>(c) * frames;
      std::atomic<std::uint64_t> sent{0};
      std::thread sender([&] {
        for (std::uint64_t k = 0; k < frames; ++k) {
          std::this_thread::sleep_until(due(c, k));
          late[k] = std::chrono::duration<double, std::micro>(Clock::now() -
                                                              due(c, k))
                        .count();
          const std::uint64_t f = (first + k) % frames_in_pool;
          if (!client.send_batch(k, std::span(queries.addresses)
                                        .subspan(f * plan.frame, plan.frame))) {
            break;
          }
          sent.fetch_add(1, std::memory_order_release);
        }
        client.shutdown_write();
      });
      std::uint64_t received = 0;
      while (received < frames) {
        const std::optional<ResponseFrame> response = client.read_response();
        if (!response) break;
        ++received;
        const std::uint64_t k = response->request_id;
        const auto due_at = due(c, k);
        latency.emplace_back(
            std::chrono::duration<double>(due_at - start).count(),
            std::chrono::duration<double, std::micro>(Clock::now() - due_at)
                .count());
        if (response->status != ResponseStatus::kOk) {
          ++tally.shed;
          continue;
        }
        ++tally.answered;
        const std::uint64_t f = (first + k) % frames_in_pool;
        tally.wrong += wrong_answers(
            response->verdicts,
            std::span(queries.expected).subspan(f * plan.frame, plan.frame));
      }
      sender.join();
      tally.sent = sent.load(std::memory_order_acquire);
      const std::lock_guard<std::mutex> lock(merge);
      latency_us.insert(latency_us.end(), latency.begin(), latency.end());
      figures->late_us.insert(figures->late_us.end(), late.begin(), late.end());
    });
  }
  if (reload) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds / 2)));
    figures->reload_ok = serving.server().reload(plan.reload_copy);
  }
  for (std::thread& thread : clients) thread.join();
  const reuse::serve::ServerStats after = serving.server().stats();
  figures->served += after.served - before.served;
  figures->shed += after.shed_total() - before.shed_total();
  for (const ClientTally& tally : tallies) {
    total->sent += tally.sent;
    total->answered += tally.answered;
    total->shed += tally.shed;
    total->wrong += tally.wrong;
  }
  std::vector<std::vector<double>> windows;
  for (const auto& [due_s, latency] : latency_us) {
    const auto w = static_cast<std::size_t>(due_s / kLatencyWindowSeconds);
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(latency);
  }
  for (const std::vector<double>& window : windows) {
    if (window.size() < kMinWindowRequests) continue;  // a cut-off tail
    figures->p50_us.push_back(percentile(window, 0.50));
    figures->p99_us.push_back(percentile(window, 0.99));
  }
}

}  // namespace

QueryPool make_queries(const reuse::inet::World& world,
                       const VerdictOracle& oracle, std::uint64_t seed,
                       std::size_t count, std::size_t frame) {
  const std::vector<reuse::inet::User>& users = world.users();
  reuse::net::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  QueryPool pool;
  count -= count % frame;
  pool.addresses.reserve(count);
  pool.expected.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const reuse::inet::User& user = users[rng.uniform(users.size())];
    std::uint32_t address = user.fixed_address.value();
    if (user.attachment == reuse::inet::AttachmentKind::kDynamic) {
      const auto& prefixes = world.pool(user.pool_index).prefixes;
      const reuse::net::Ipv4Prefix prefix =
          prefixes[rng.uniform(prefixes.size())];
      address = prefix.network().value() +
                static_cast<std::uint32_t>(
                    rng.uniform(std::uint64_t{1} << (32 - prefix.length())));
    }
    pool.addresses.push_back(address);
    pool.expected.push_back(
        static_cast<std::uint8_t>(oracle.expected_bits(address)));
  }
  return pool;
}

QueryMix mix_of(const QueryPool& queries) {
  QueryMix mix;
  for (const std::uint8_t bits : queries.expected) {
    mix.listed += (bits & reuse::serve::kVerdictListed) ? 1 : 0;
    mix.nated += (bits & reuse::serve::kVerdictNated) ? 1 : 0;
    mix.dynamic += (bits & reuse::serve::kVerdictDynamic) ? 1 : 0;
    mix.clean += bits == 0 ? 1 : 0;
  }
  const auto n = static_cast<double>(std::max<std::size_t>(1, queries.expected.size()));
  mix.listed /= n;
  mix.nated /= n;
  mix.dynamic /= n;
  mix.clean /= n;
  return mix;
}

EnginePasses::EnginePasses(
    std::shared_ptr<const reuse::serve::CompiledSnapshot> snapshot,
    const QueryPool& queries)
    : expected_(queries.expected) {
  engine_.publish(std::move(snapshot));
  queries_.reserve(queries.addresses.size());
  for (const std::uint32_t a : queries.addresses) queries_.emplace_back(a);
}

void EnginePasses::run_slice(double seconds) {
  constexpr std::size_t kChunk = 1024;
  std::vector<Verdict> out(queries_.size());
  const auto pass = [&] {
    for (std::size_t offset = 0; offset < queries_.size(); offset += kChunk) {
      const std::size_t n = std::min(kChunk, queries_.size() - offset);
      engine_.verdict_batch(std::span(queries_).subspan(offset, n),
                            std::span(out).subspan(offset, n));
    }
  };
  if (!checked_) {
    pass();  // warm the index, then check every answer once
    for (std::size_t i = 0; i < queries_.size(); ++i) {
      wrong_ += (out[i].bits & kReuseBits) != expected_[i] ? 1 : 0;
    }
    checked_ = true;
  }
  const auto start = Clock::now();
  do {
    const auto pass_start = Clock::now();
    pass();
    pass_seconds_.push_back(seconds_since(pass_start));
  } while (seconds_since(start) < seconds);
}

double EnginePasses::lookup_qps() const {
  return static_cast<double>(queries_.size()) /
         *std::min_element(pass_seconds_.begin(), pass_seconds_.end());
}

double EnginePasses::batch_ns() const {
  return 1e9 / lookup_qps();
}

double EnginePasses::single_ns() const {
  std::vector<double> rounds;
  std::uint32_t sink = 0;
  for (int round = 0; round < 5; ++round) {
    const auto start = Clock::now();
    for (const Ipv4Address address : queries_) {
      sink += engine_.verdict(address).bits;
    }
    rounds.push_back(seconds_since(start));
  }
  keep_observable(sink);
  return 1e9 * *std::min_element(rounds.begin(), rounds.end()) /
         static_cast<double>(queries_.size());
}

Serving::Serving(std::shared_ptr<const reuse::serve::CompiledSnapshot> initial,
                 int workers) {
  engine_.publish(std::move(initial));
  reuse::serve::ServerConfig config;
  config.workers = std::max(1, workers);
  // Room for a 160 ms stall at the open-loop rate before anything is shed:
  // the benchmark measures latency, and a shed frame is a failed operation.
  config.max_queue = 1024;
  server_ = std::make_unique<reuse::serve::LookupServer>(engine_, config);
}

std::vector<std::uint32_t> Serving::ask(
    const std::vector<std::uint32_t>& addresses) {
  LookupClient client(server_->connect_client());
  if (!client.valid() || !client.send_batch(1, addresses)) return {};
  const std::optional<ResponseFrame> response = client.read_response();
  if (!response || response->status != ResponseStatus::kOk) return {};
  return response->verdicts;
}

FrontEndResult run_front_end(Serving& serving, const QueryPool& queries,
                             const ServePlan& plan, bool trace) {
  FrontEndResult result;
  // The two loops take turns in slices, so each samples the host over the
  // whole stretch rather than one second of it. The hot reload runs
  // midway through the middle open-loop slice, which is midway through
  // the open loop.
  constexpr int kSlices = 5;
  const std::uint64_t open_frames_per_slice = static_cast<std::uint64_t>(
      plan.open_seconds / kSlices * plan.open_rate /
      static_cast<double>(plan.frame));
  std::vector<double> rates;
  ClientTally closed, open;
  OpenLoopFigures latency;
  for (int slice = 0; slice < kSlices; ++slice) {
    run_closed_loop(serving, queries, plan, plan.closed_seconds / kSlices,
                    &closed, &rates);
    run_open_loop(serving, queries, plan, plan.open_seconds / kSlices,
                  static_cast<std::uint64_t>(slice) * open_frames_per_slice,
                  slice == kSlices / 2, &open, &latency);
  }
  result.serve_qps = median(rates);
  result.p50_us = median(latency.p50_us);
  result.p99_us = median(latency.p99_us);
  result.generator_late_us = percentile(latency.late_us, 0.99);
  result.reload_ok = latency.reload_ok;
  if (trace) time_codec(queries, plan.frame, &result.encode_ns, &result.decode_ns);
  result.served = latency.served;
  result.shed = latency.shed;
  for (const ClientTally* tally : {&closed, &open}) {
    result.unanswered += tally->sent - tally->answered - tally->shed;
    result.wrong_bits += tally->wrong;
  }
  return result;
}

}  // namespace perfbench
