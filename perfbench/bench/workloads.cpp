#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>

#include "analysis/cache.h"
#include "analysis/greylist.h"
#include "analysis/impact.h"
#include "analysis/scenario.h"
#include "blocklist/catalogue.h"
#include "blocklist/ecosystem.h"
#include "internet/abuse.h"
#include "oracle.h"
#include "serve/snapshot.h"
#include "serving.h"
#include "simnet/faults.h"

namespace perfbench {
namespace {

namespace analysis = reuse::analysis;
namespace serve = reuse::serve;
using reuse::net::Ipv4Address;
using SnapshotPtr = std::shared_ptr<const serve::CompiledSnapshot>;

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"study", "refresh"};
  return names;
}

/// Queries generated before the serve phases (a whole number of frames).
constexpr std::size_t kQueryPool = std::size_t{1} << 20;

struct Plan {
  analysis::ScenarioConfig base;
  /// Study rounds; each is followed by its share of the refresh chain and
  /// a slice of engine passes, so every phase samples the host over the
  /// whole run.
  int rounds = 3;
  int steps_per_round = 1;
  int step_days = 1;
  /// Engine passes over the run, all slices together.
  double engine_seconds = 1.0;
  /// The front end takes what is left of --seconds, at least this.
  double min_front_end_seconds = 4.0;
  ServePlan serve;
  int server_workers = 1;

  [[nodiscard]] int refresh_steps() const { return rounds * steps_per_round; }
};

std::int64_t span_end_seconds(const analysis::ScenarioConfig& config) {
  std::int64_t end = 0;
  for (const auto& period : config.ecosystem.periods) {
    end = std::max(end, period.end.seconds());
  }
  return end;
}

Plan make_plan(const Options& options) {
  Plan plan;
  analysis::ScenarioConfig& c = plan.base;
  // The simulated world keeps each preset's own default seed: a different
  // world seed changes the world's size (300 ASes with Pareto-distributed
  // prefixes ranged from 140 to 300 MB peak RSS over five seeds), which
  // would swamp any change being measured. --seed drives the generated
  // inputs instead: every query pool and the checks' samples.
  if (options.workload == "study") {
    // The reuse_study CLI's default scale and seed, census on.
    const std::uint64_t seed = 7;
    c.seed = seed;
    c.world = reuse::inet::test_world_config(seed);
    c.world.as_count = 300;
    c.crawl_days = 3;
    c.fleet.probe_count = 2000;
    c.run_census = true;
    plan.rounds = 3;
    plan.steps_per_round = 1;
    plan.step_days = 1;
  } else {
    // Ecosystem-dominated: one long collection period, a one-day crawl and
    // no census, refreshed by a chain of weekly steps (bench_incremental's
    // shape and seed). A study here is half as long as the `study`
    // workload's and a step a sixth, so more of each steady their medians.
    const std::uint64_t seed = 11;
    c.seed = seed;
    c.world = reuse::inet::test_world_config(seed);
    c.world.as_count = 300;
    c.crawl_days = 1;
    c.fleet.probe_count = 800;
    c.run_census = false;
    c.ecosystem.periods = {reuse::net::TimeWindow{
        reuse::net::SimTime(0), reuse::net::SimTime(240 * 86400)}};
    plan.rounds = 4;
    plan.steps_per_round = 2;
    plan.step_days = 7;
  }
  // A traced run makes one study round and the whole chain after it.
  if (options.trace) {
    plan.steps_per_round *= plan.rounds;
    plan.rounds = 1;
  }
  // Fixed offered load, far below saturation, so parent and change see
  // the same open loop.
  plan.serve.open_rate = 400000.0;
  plan.engine_seconds = 0.1 * options.seconds;
  c.jobs = options.nproc;
  c.finalize();
  c.horizon_days = static_cast<int>(span_end_seconds(c) / 86400) +
                   plan.refresh_steps() * plan.step_days;

  // Threads never exceed nproc: half serve, the rest are clients; an
  // open-loop client is two threads (sender and reader).
  plan.server_workers = std::max(1, options.nproc / 2);
  plan.serve.closed_clients = std::max(1, options.nproc - plan.server_workers);
  plan.serve.open_clients = std::max(1, plan.serve.closed_clients / 2);
  return plan;
}

/// Non-owning view of one set of scenario products, whichever way they
/// were made (Scenario, stage by stage, or resumed from a cache).
struct View {
  const reuse::inet::World* world = nullptr;
  const std::vector<reuse::blocklist::BlocklistInfo>* catalogue = nullptr;
  const reuse::blocklist::EcosystemResult* ecosystem = nullptr;
  const reuse::blocklist::EcosystemCarry* carry = nullptr;
  const analysis::CrawlOutput* crawl = nullptr;
  const reuse::atlas::AtlasFleet* fleet = nullptr;
  const reuse::dynadetect::PipelineResult* pipeline = nullptr;
  const reuse::census::CensusResult* census = nullptr;
  reuse::sim::FaultStats injected;
};

template <typename S>
View view_of(const S& s) {
  View v;
  v.world = &s.world;
  v.catalogue = &s.catalogue;
  v.ecosystem = &s.ecosystem;
  v.crawl = &s.crawl;
  v.fleet = &s.fleet;
  v.pipeline = &s.pipeline;
  v.census = &s.census;
  return v;
}

std::uint64_t fingerprint_of(const View& v) {
  return analysis::products_fingerprint(*v.crawl, *v.ecosystem, *v.fleet,
                                        *v.pipeline, *v.census);
}

/// The study path rebuilt stage by stage through the modules' public calls,
/// each call a span; the products equal a Scenario run of the same config.
struct StagedStudy {
  std::unique_ptr<reuse::sim::FaultInjector> injector;
  std::optional<reuse::inet::World> world;
  std::vector<reuse::blocklist::BlocklistInfo> catalogue;
  reuse::blocklist::EcosystemCarry carry;
  reuse::blocklist::EcosystemResult ecosystem;
  analysis::CrawlOutput crawl;
  std::optional<reuse::atlas::AtlasFleet> fleet;
  reuse::dynadetect::PipelineResult pipeline;
  reuse::census::CensusResult census;
  std::uint64_t abuse_events = 0;
};

void run_staged(const analysis::ScenarioConfig& config, Tracer& tracer,
                StagedStudy* s) {
  namespace sim = reuse::sim;
  s->injector = std::make_unique<sim::FaultInjector>(config.faults);
  sim::FaultInjector* faults = s->injector.get();
  const std::unique_ptr<reuse::net::ThreadPool> pool =
      analysis::make_scenario_pool(config.jobs);
  s->world.emplace(tracer.span(
      "internet.world", [&] { return reuse::inet::World(config.world); }));
  const reuse::inet::World& world = *s->world;
  s->catalogue = tracer.span("blocklist.catalogue", [&] {
    return reuse::blocklist::build_catalogue(config.seed ^ 0xca7aULL);
  });
  s->ecosystem = tracer.span("blocklist.ecosystem", [&] {
    sim::StageGuard guard(faults, sim::FaultStage::kEcosystem);
    reuse::blocklist::EcosystemSimulator simulator(
        s->catalogue, config.ecosystem, faults, pool.get());
    const reuse::inet::AbuseGenConfig abuse =
        analysis::scenario_abuse_config(world, config);
    // The stream span's self time is abuse generation; ingestion is its
    // child.
    tracer.span("internet.abuse_stream", [&] {
      reuse::inet::stream_abuse_range(
          world, abuse, /*chunk_days=*/32, abuse.window.begin.seconds(),
          span_end_seconds(config),
          [&](std::span<const reuse::inet::AbuseEvent> chunk) {
            s->abuse_events += chunk.size();
            tracer.span("blocklist.ingest", [&] { simulator.ingest(chunk); });
          });
    });
    return tracer.span("blocklist.finish",
                       [&] { return simulator.finish(&s->carry); });
  });
  s->crawl = tracer.span("crawler.crawl", [&] {
    sim::StageGuard guard(faults, sim::FaultStage::kCrawl);
    return analysis::run_scenario_crawl(world, s->ecosystem.store, config,
                                        faults, pool.get(), nullptr);
  });
  s->fleet.emplace(tracer.span("atlas.fleet", [&] {
    sim::StageGuard guard(faults, sim::FaultStage::kFleet);
    return reuse::atlas::AtlasFleet(world, config.fleet, faults, pool.get());
  }));
  s->pipeline = tracer.span("dynadetect.pipeline", [&] {
    return reuse::dynadetect::run_pipeline(s->fleet->compressed_log(),
                                           config.pipeline, pool.get());
  });
  s->census = tracer.span("census.census", [&] {
    return config.run_census
               ? reuse::census::run_census(world, config.census, {},
                                           pool.get())
               : reuse::census::CensusResult{};
  });
}

SnapshotPtr compile(const reuse::blocklist::SnapshotStore& store,
                    const std::unordered_set<Ipv4Address>& nated,
                    const reuse::net::PrefixSet& dynamic,
                    const std::vector<reuse::blocklist::BlocklistInfo>& catalogue,
                    reuse::net::ThreadPool* pool) {
  return std::make_shared<const serve::CompiledSnapshot>(
      serve::SnapshotBuilder()
          .with_store(store)
          .with_nated(nated)
          .with_dynamic(dynamic)
          .with_catalogue(catalogue)
          .build(pool));
}

/// After a reload, the server must answer the next snapshot's verdicts for
/// the addresses whose verdict the step changed.
void check_reloaded(Serving& serving, const serve::CompiledSnapshot& prev,
                    const serve::CompiledSnapshot& next, Checks* checks) {
  std::vector<std::uint32_t> probe;
  const std::vector<Ipv4Address> entries = next.entries_matching(0);
  for (const Ipv4Address address : entries) {
    if (prev.verdict(address) != next.verdict(address)) {
      probe.push_back(address.value());
      if (probe.size() == serve::kMaxFrameAddresses) break;
    }
  }
  for (std::size_t i = 0; probe.empty() && i < entries.size() && i < 64; ++i) {
    probe.push_back(entries[i].value());
  }
  const std::vector<std::uint32_t> answers = serving.ask(probe);
  bool ok = answers.size() == probe.size();
  for (std::size_t i = 0; ok && i < probe.size(); ++i) {
    ok = answers[i] == next.verdict(Ipv4Address(probe[i])).bits;
  }
  checks->expect(ok, "refresh: the server does not answer the new verdicts");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double file_bytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size);
}

/// Layer figures gathered along the run (traced mode).
struct LayerCounts {
  double abuse_events = 0, listings = 0, messages = 0, nated = 0;
  double log_records = 0, log_runs = 0, qualifying_probes = 0;
  double probes_sent = 0, cache_bytes = 0, delta_upserts = 0;
  double snapshot_entries = 0, snapshot_bytes = 0;
};

void set_layer_metrics(const Tracer& t, const LayerCounts& n,
                       const EnginePasses& engine, const FrontEndResult& f,
                       const Plan& plan, Metrics* m) {
  const auto mean_ms = [&](std::string_view name) {
    int calls = 0;
    for (const Tracer::Span& span : t.spans()) calls += span.name == name;
    return calls == 0 ? 0.0 : t.total_ms(name) / calls;
  };
  // Abuse generation (the internet layer) runs inside the ecosystem span,
  // feeding the ingest calls nested in it: its self time is the internet
  // layer's, the rest of the ecosystem span the blocklist layer's.
  const char* abuse = "internet.abuse_stream";
  m->set("internet.world_ms", t.total_ms("internet.world"), "ms");
  m->set("internet.abuse_ms", t.self_ms(abuse), "ms");
  m->set("internet.abuse_events", n.abuse_events, "count");
  m->set("blocklist.ecosystem_ms",
         t.total_ms("blocklist.ecosystem") - t.self_ms(abuse), "ms");
  m->set("blocklist.ecosystem_cpu_ms",
         t.cpu_ms("blocklist.ecosystem") - t.self_cpu_ms(abuse), "ms");
  m->set("blocklist.listings", n.listings, "count");
  m->set("crawler.crawl_ms", t.total_ms("crawler.crawl"), "ms");
  m->set("crawler.crawl_cpu_ms", t.cpu_ms("crawler.crawl"), "ms");
  m->set("crawler.messages", n.messages, "count");
  m->set("crawler.nated", n.nated, "count");
  m->set("atlas.fleet_ms", t.total_ms("atlas.fleet"), "ms");
  m->set("atlas.log_records", n.log_records, "count");
  m->set("atlas.log_runs", n.log_runs, "count");
  m->set("dynadetect.pipeline_ms", t.total_ms("dynadetect.pipeline"), "ms");
  m->set("dynadetect.qualifying_probes", n.qualifying_probes, "count");
  m->set("census.census_ms", t.total_ms("census.census"), "ms");
  m->set("census.census_cpu_ms", t.cpu_ms("census.census"), "ms");
  m->set("census.probes_sent", n.probes_sent, "count");
  m->set("analysis.impact_ms", t.total_ms("analysis.impact"), "ms");
  m->set("analysis.cache_save_ms", t.total_ms("analysis.cache_save"), "ms");
  m->set("analysis.cache_load_ms", t.total_ms("analysis.cache_load"), "ms");
  m->set("analysis.cache_bytes", n.cache_bytes, "bytes");
  m->set("analysis.resume_ms", mean_ms("analysis.resume"), "ms");
  m->set("analysis.resume_cpu_ms",
         t.cpu_ms("analysis.resume") / plan.refresh_steps(), "ms");
  m->set("serve.compile_ms", mean_ms("serve.compile"), "ms");
  m->set("serve.snapshot_entries", n.snapshot_entries, "count");
  m->set("serve.snapshot_bytes", n.snapshot_bytes, "bytes");
  m->set("serve.diff_ms", mean_ms("serve.diff"), "ms");
  m->set("serve.delta_upserts", n.delta_upserts, "count");
  m->set("serve.reload_ms", mean_ms("serve.reload"), "ms");
  m->set("serve.engine_batch_ns", engine.batch_ns(), "ns");
  m->set("serve.engine_single_ns", engine.single_ns(), "ns");
  m->set("serve.encode_ns", f.encode_ns, "ns");
  m->set("serve.decode_ns", f.decode_ns, "ns");
  // Median latency minus what the engine and the codecs (both ends encode
  // and decode once) account for: transport plus queue wait.
  const auto frame = static_cast<double>(plan.serve.frame);
  m->set("serve.residual_us",
         f.p50_us -
             (frame * engine.batch_ns() + 2 * (f.encode_ns + f.decode_ns)) / 1e3,
         "us");
  m->set("serve.qps", f.serve_qps, "addresses/s");
  m->set("serve.p50_us", f.p50_us, "us");
  m->set("serve.p99_us", f.p99_us, "us");
  m->set("serve.generator_late_us", f.generator_late_us, "us");
  m->set("serve.served", static_cast<double>(f.served), "count");
  m->set("serve.shed", static_cast<double>(f.shed), "count");
}

/// One study's products, whichever way they were made.
struct Study {
  std::optional<analysis::Scenario> scenario;
  std::unique_ptr<StagedStudy> staged;
  View view;
  SnapshotPtr snapshot;
  analysis::ReuseImpact impact;
  std::size_t reused_size = 0;
};

/// config -> products -> impact join -> reused list -> compiled snapshot.
/// A traced study is rebuilt stage by stage, each call a span.
void run_study(const analysis::ScenarioConfig& config, Tracer& tracer,
               reuse::net::ThreadPool* pool, Study* study) {
  View& v = study->view;
  if (tracer.enabled()) {
    study->staged = std::make_unique<StagedStudy>();
    StagedStudy& staged = *study->staged;
    run_staged(config, tracer, &staged);
    v.world = &*staged.world;
    v.catalogue = &staged.catalogue;
    v.ecosystem = &staged.ecosystem;
    v.carry = &staged.carry;
    v.crawl = &staged.crawl;
    v.fleet = &*staged.fleet;
    v.pipeline = &staged.pipeline;
    v.census = &staged.census;
    v.injected = staged.injector->stats();
  } else {
    study->scenario.emplace(config);
    v = view_of(*study->scenario);
    v.carry = study->scenario->ecosystem_carry.get();
    v.injected = study->scenario->injector->stats();
  }
  study->impact = tracer.span("analysis.impact", [&] {
    return analysis::compute_reuse_impact(
        v.ecosystem->store, *v.catalogue, v.crawl->nated_set,
        v.pipeline->dynamic_prefixes, pool);
  });
  study->reused_size = tracer.span("analysis.reused_list", [&] {
    return analysis::build_reused_address_list(v.ecosystem->store,
                                               v.crawl->nated_set,
                                               v.pipeline->dynamic_prefixes)
        .size();
  });
  study->snapshot = tracer.span("serve.compile", [&] {
    return compile(v.ecosystem->store, v.crawl->nated_set,
                   v.pipeline->dynamic_prefixes, *v.catalogue, pool);
  });
}

/// The study checks: impact and reused-list recount, detection funnel,
/// detector precision against the world's truth, compiled verdicts.
void check_study(const Study& study, std::uint64_t seed, Checks* checks) {
  const View& v = study.view;
  check_impact(study.impact, study.reused_size, v.ecosystem->store,
               v.crawl->nated_set, v.pipeline->dynamic_prefixes, checks);
  check_funnel(*v.pipeline, checks);
  const Precision nat = nat_precision(*v.world, v.crawl->nated_set);
  const Precision dyn =
      dynamic_precision(*v.world, v.pipeline->dynamic_prefixes);
  checks->expect(nat.value() >= kMinNatPrecision,
                 "NAT detector precision " + std::to_string(nat.value()));
  checks->expect(dyn.value() >= kMinDynamicPrecision,
                 "dynamic detector precision " + std::to_string(dyn.value()));
  std::cerr << "detector precision: NAT " << nat.correct << "/" << nat.detected
            << ", dynamic /24s " << dyn.correct << "/" << dyn.detected << '\n';
  check_snapshot(*study.snapshot,
                 oracle_from_products(v.ecosystem->store, v.crawl->nated_set,
                                      v.pipeline->dynamic_prefixes),
                 seed, 100000, checks);
}

void print_seconds(const char* what, const std::vector<double>& values) {
  std::cerr << what << " (s):";
  for (const double value : values) std::cerr << ' ' << value;
  std::cerr << '\n';
}

}  // namespace

bool known_workload(const std::string& name) {
  const auto& names = workload_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

RunOutput run_workload(const Options& options,
                       Clock::time_point process_start) {
  RunOutput out;
  Checks checks;
  Tracer tracer(options.trace, process_start);
  Plan plan = make_plan(options);
  const std::string dir = options.work_dir + "/";
  const auto cache_path = [&](int step) {
    return dir + "scenario-" + std::to_string(step) + ".cache";
  };
  const std::string delta_path = dir + "refresh.delta";
  plan.serve.reload_copy = dir + "served-copy.snapshot";
  const std::unique_ptr<reuse::net::ThreadPool> pool =
      analysis::make_scenario_pool(options.nproc);
  LayerCounts counts;

  // ---- set-up: the inputs and oracles made before timing. A fresh run of
  // the config the refresh chain ends at gives the products fingerprint
  // and the snapshot the resumed chain must reach, the verdict oracle
  // every answer is checked against, and the seeded query pool drawn from
  // its world's users.
  std::uint64_t fresh_fingerprint = 0;
  VerdictOracle oracle;
  SnapshotPtr final_snapshot;
  QueryPool queries;
  {
    const analysis::Scenario fresh(analysis::extend_scenario_days(
        plan.base, plan.refresh_steps() * plan.step_days));
    fresh_fingerprint = fingerprint_of(view_of(fresh));
    oracle = oracle_from_products(fresh.ecosystem.store, fresh.crawl.nated_set,
                                  fresh.pipeline.dynamic_prefixes);
    final_snapshot = compile(fresh.ecosystem.store, fresh.crawl.nated_set,
                             fresh.pipeline.dynamic_prefixes, fresh.catalogue,
                             pool.get());
    queries = make_queries(fresh.world, oracle, options.seed, kQueryPool,
                           plan.serve.frame);
  }
  EnginePasses engine(final_snapshot, queries);
  const double setup_s = seconds_since(process_start);
  const QueryMix mix = mix_of(queries);
  std::cerr << "query mix: listed " << mix.listed << ", NATed " << mix.nated
            << ", dynamic /24 " << mix.dynamic << ", clean " << mix.clean
            << '\n';

  // ---- the timed cycle. Each round: a whole study (timed), its share of
  // the refresh chain (each step timed), and a slice of engine passes.
  // The first round's study is checked, saved as the chain's base cache
  // and served.
  const auto cycle_start = Clock::now();
  std::unique_ptr<Serving> serving;
  SnapshotPtr served;
  std::uint64_t resumed_fingerprint = 0;
  std::vector<double> study_seconds, step_seconds;
  std::uint64_t staged_fingerprint = 0;
  const auto refresh_step = [&](int step) {
    const auto step_start = Clock::now();
    const analysis::EvolvedScenario last = tracer.span("analysis.resume", [&] {
      return analysis::evolve_scenario_cached(
          analysis::extend_scenario_days(plan.base, step * plan.step_days),
          plan.step_days, cache_path(step), cache_path(step + 1));
    });
    const bool resumed = last.path == analysis::EvolvePath::kResumed;
    const View evolved = view_of(last.scenario);
    const SnapshotPtr next = tracer.span("serve.compile", [&] {
      return compile(evolved.ecosystem->store, evolved.crawl->nated_set,
                     evolved.pipeline->dynamic_prefixes, *evolved.catalogue,
                     pool.get());
    });
    const serve::SnapshotDelta delta = tracer.span("serve.diff", [&] {
      return serve::SnapshotBuilder::diff(*served, *next);
    });
    const bool saved =
        tracer.span("serve.delta_save", [&] { return delta.save(delta_path); });
    const bool reloaded = tracer.span(
        "serve.reload", [&] { return serving->server().reload(delta_path); });
    step_seconds.push_back(seconds_since(step_start));

    resumed_fingerprint = fingerprint_of(evolved);
    out.failed += (resumed && saved && reloaded) ? 0 : 1;
    check_same_fingerprint(serving->engine().snapshot()->fingerprint(),
                           next->fingerprint(),
                           "refresh: the delta-applied snapshot differs from "
                           "the compiled one",
                           &checks);
    check_reloaded(*serving, *served, *next, &checks);
    counts.delta_upserts += static_cast<double>(delta.upsert_count());
    served = next;
  };
  // An engine slice follows every study and every refresh step.
  const double engine_slice_seconds =
      plan.engine_seconds / (plan.rounds + plan.refresh_steps());
  for (int round = 0; round < plan.rounds; ++round) {
    {
      Study study;
      const auto study_start = Clock::now();
      run_study(plan.base, tracer, pool.get(), &study);
      study_seconds.push_back(seconds_since(study_start));
      if (round == 0) {
        const View& v = study.view;
        check_study(study, options.seed, &checks);
        const bool saved = tracer.span("analysis.cache_save", [&] {
          return analysis::save_scenario_cache(cache_path(0), plan.base,
                                               *v.crawl, *v.ecosystem,
                                               v.injected, v.carry, v.fleet);
        });
        checks.expect(saved, "base cache could not be saved");
        if (tracer.enabled()) {
          const bool loaded = tracer.span("analysis.cache_load", [&] {
            return analysis::load_scenario_cache(cache_path(0), plan.base)
                .has_value();
          });
          checks.expect(loaded, "base cache could not be loaded");
          counts.cache_bytes = file_bytes(cache_path(0));
          counts.abuse_events = static_cast<double>(study.staged->abuse_events);
          counts.listings =
              static_cast<double>(v.ecosystem->store.listing_count());
          counts.messages = static_cast<double>(v.crawl->stats.get_nodes_sent +
                                                v.crawl->stats.pings_sent);
          counts.nated = static_cast<double>(v.crawl->nated.size());
          counts.log_records =
              static_cast<double>(v.fleet->compressed_log().record_count());
          counts.log_runs =
              static_cast<double>(v.fleet->compressed_log().run_count());
          counts.qualifying_probes =
              static_cast<double>(v.pipeline->qualifying_probes.size());
          counts.probes_sent = static_cast<double>(v.census->probes_sent);
          staged_fingerprint = fingerprint_of(v);
        }
        served = study.snapshot;
        serving = std::make_unique<Serving>(served, plan.server_workers);
      }
    }
    engine.run_slice(engine_slice_seconds);
    for (int k = 0; k < plan.steps_per_round; ++k) {
      refresh_step(round * plan.steps_per_round + k);
      engine.run_slice(engine_slice_seconds);
    }
  }
  const double study_s = median(study_seconds);
  const double refresh_s = median(step_seconds);
  print_seconds("study rounds", study_seconds);
  print_seconds("refresh steps", step_seconds);
  check_same_fingerprint(resumed_fingerprint, fresh_fingerprint,
                         "refresh: resumed products differ from a fresh run",
                         &checks);
  check_same_fingerprint(served->fingerprint(), final_snapshot->fingerprint(),
                         "refresh: the served snapshot differs from a fresh "
                         "run's",
                         &checks);
  checks.expect(engine.wrong_bits() == 0,
                "engine: " + std::to_string(engine.wrong_bits()) +
                    " verdicts differ from the generator's oracle");

  // ---- the front end, for what is left of --seconds: closed-loop
  // saturation and an open loop at a fixed rate, against the server.
  check_snapshot(*served, oracle, options.seed, 20000, &checks);
  checks.expect(served->save(plan.serve.reload_copy),
                "the served snapshot could not be re-saved");
  counts.snapshot_entries = static_cast<double>(served->entry_count());
  counts.snapshot_bytes = file_bytes(plan.serve.reload_copy);
  const double front_end_seconds =
      std::max(plan.min_front_end_seconds,
               options.seconds - seconds_since(cycle_start));
  plan.serve.closed_seconds = front_end_seconds / 3;
  plan.serve.open_seconds = front_end_seconds * 2 / 3;
  const FrontEndResult front =
      run_front_end(*serving, queries, plan.serve, options.trace);
  const double rss_mb = peak_rss_mb();
  checks.expect(front.wrong_bits == 0,
                "serve: " + std::to_string(front.wrong_bits) +
                    " answers differ from the generator's oracle");
  checks.expect(front.unanswered == 0,
                "serve: " + std::to_string(front.unanswered) +
                    " frames got no answer");
  checks.expect(front.reload_ok, "serve: the mid-run hot reload failed");
  checks.expect(
      serving->engine().snapshot()->fingerprint() == served->fingerprint(),
      "serve: the hot reload changed the served snapshot");
  checks.expect(serving->server().stats().reconciles(),
                "serve: served + shed + rejected != submitted");
  serving->server().drain();
  std::cerr << "cycle " << seconds_since(cycle_start) << " s (front end "
            << front_end_seconds << " s)\n";

  if (tracer.enabled()) {
    const analysis::Scenario untraced(plan.base);
    check_same_fingerprint(staged_fingerprint,
                           fingerprint_of(view_of(untraced)),
                           "trace: stage-by-stage products differ from the "
                           "Scenario run",
                           &checks);
  }

  out.attempted =
      static_cast<std::uint64_t>(plan.rounds + plan.refresh_steps()) +
      engine.passes();
  if (options.trace) {
    set_layer_metrics(tracer, counts, engine, front, plan, &out.metrics);
    const std::filesystem::path traces =
        std::filesystem::path(options.work_dir).parent_path() / "traces";
    std::filesystem::create_directories(traces);
    const std::string trace_path =
        (traces / ("trace-" + options.workload + "-" +
                   std::to_string(options.seed) + ".json"))
            .string();
    checks.expect(tracer.write_chrome_json(trace_path),
                  "trace file could not be written");
    std::cerr << "trace written to " << trace_path << '\n';
  } else {
    out.metrics.set("setup_s", setup_s, "s");
    out.metrics.set("study_s", study_s, "s");
    out.metrics.set("peak_rss_mb", rss_mb, "MB");
    out.metrics.set("refresh_s", refresh_s, "s");
    out.metrics.set("lookup_qps", engine.lookup_qps(), "verdicts/s");
  }
  out.failures = checks.failures();
  return out;
}

int run_self_test(const Options& options) {
  analysis::ScenarioConfig config = analysis::test_scenario_config(options.seed);
  config.jobs = options.nproc;
  const analysis::Scenario scenario(config);
  const View v = view_of(scenario);
  const std::unique_ptr<reuse::net::ThreadPool> pool =
      analysis::make_scenario_pool(options.nproc);
  const auto& store = v.ecosystem->store;
  const auto& nated = v.crawl->nated_set;
  const auto& dynamic = v.pipeline->dynamic_prefixes;
  const SnapshotPtr snapshot =
      compile(store, nated, dynamic, *v.catalogue, pool.get());
  const VerdictOracle oracle = oracle_from_products(store, nated, dynamic);

  int misbehaving = 0;
  const auto report = [&](const char* name, const Checks& intact,
                          const Checks& corrupted) {
    const bool good = intact.ok() && !corrupted.ok();
    std::cerr << "self-test " << name << ": intact "
              << (intact.ok() ? "passes" : "FAILS") << ", corrupted "
              << (corrupted.ok() ? "PASSES" : "is caught") << '\n';
    misbehaving += good ? 0 : 1;
  };

  // A served answer with one verdict bit flipped.
  {
    const QueryPool queries =
        make_queries(*v.world, oracle, options.seed, 4096, 64);
    serve::LookupEngine engine;
    engine.publish(snapshot);
    std::vector<Ipv4Address> addresses(queries.addresses.begin(),
                                       queries.addresses.end());
    std::vector<serve::Verdict> verdicts(addresses.size());
    engine.verdict_batch(addresses, verdicts);
    std::vector<std::uint32_t> words;
    for (const serve::Verdict verdict : verdicts) words.push_back(verdict.bits);
    Checks intact, corrupted;
    intact.expect(wrong_answers(words, queries.expected) == 0, "answers");
    words[words.size() / 2] ^= serve::kVerdictListed;
    corrupted.expect(wrong_answers(words, queries.expected) == 0, "answers");
    report("flipped verdict bit", intact, corrupted);
  }

  // One NATed, listed address dropped from the detector output.
  {
    std::unordered_set<Ipv4Address> dropped = nated;
    for (const Ipv4Address address : nated) {
      if (store.contains_address(address)) {
        dropped.erase(address);
        break;
      }
    }
    const auto impact_of = [&](const std::unordered_set<Ipv4Address>& set) {
      return analysis::compute_reuse_impact(store, *v.catalogue, set, dynamic,
                                            pool.get());
    };
    const std::size_t reused =
        analysis::build_reused_address_list(store, nated, dynamic).size();
    Checks intact, corrupted;
    check_impact(impact_of(nated), reused, store, nated, dynamic, &intact);
    check_impact(impact_of(dropped), reused, store, nated, dynamic, &corrupted);
    report("dropped NATed address (impact)", intact, corrupted);

    Checks intact_snapshot, corrupted_snapshot;
    check_snapshot(*snapshot, oracle, options.seed, 1000, &intact_snapshot);
    check_snapshot(*compile(store, dropped, dynamic, *v.catalogue, pool.get()),
                   oracle, options.seed, 1000, &corrupted_snapshot);
    report("dropped NATed address (snapshot)", intact_snapshot,
           corrupted_snapshot);
  }

  // A wrong products fingerprint.
  {
    const std::uint64_t fingerprint = fingerprint_of(v);
    Checks intact, corrupted;
    check_same_fingerprint(fingerprint, fingerprint_of(v), "products", &intact);
    check_same_fingerprint(fingerprint ^ 1, fingerprint_of(v), "products",
                           &corrupted);
    report("wrong fingerprint", intact, corrupted);
  }
  return misbehaving;
}

}  // namespace perfbench
