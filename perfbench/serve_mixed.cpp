// serve_mixed: an in-process serve::Server on a real unix socket, with a
// disk cache and default options, driven by 3 persistent client
// connections in a closed loop (each sends its next request only after
// the previous reply, as `scpgc client` callers do).
//
// The request stream is bench_serve_load's: per 20 requests a client
// sends 16 cache-hot mult8 sweeps (4 points, 6 cycles, jobs 2, over a hot
// set of 4 seeds warmed during set-up), 2 pings and 1 lint, and in the
// slot bench_serve_load gives to `stats`, 1 cold sweep (an unseen seed,
// which simulates, stores and appends to the disk cache).  Hot sweeps
// exercise the served read path (parse, apply, extract, cache hit,
// render, socket); cold sweeps share its cache and batcher, so a
// read-path gain that slows the write path shows up.
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "engine/cache.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "serve/client.hpp"
#include "serve/exec.hpp"
#include "serve/server.hpp"
#include "sim/compiled/program.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace scpg;

namespace {

constexpr int kClients = 3;
constexpr int kHotSeeds = 4;
constexpr int kColdChecks = 4;

struct Served {
  std::unique_ptr<Library> lib;
  std::unique_ptr<serve::Server> server;
};

campaign::CampaignSpec sweep_spec(const Args& a) {
  campaign::CampaignSpec spec;
  spec.netlist_path = a.out_dir + "/mult8.v";
  spec.points = 4;
  spec.cycles = 6;
  spec.backend = sim::Backend::Auto;
  return spec;
}

serve::Request sweep_request(const campaign::CampaignSpec& spec,
                             std::uint64_t seed) {
  serve::Request rq;
  rq.op = serve::Op::Sweep;
  rq.sweep.spec = spec;
  rq.sweep.spec.seed = seed;
  rq.sweep.jobs = 2;
  return rq;
}

std::uint64_t hot_seed(const Args& a, int k) {
  return derive_seed(a.seed, 2, std::uint64_t(k));
}

std::uint64_t cold_seed(const Args& a, std::uint64_t k) {
  return derive_seed(a.seed, 3, k);
}

Served start_server(const Args& a, int rep) {
  Served s;
  s.lib = std::make_unique<Library>(Library::scpg90());
  const campaign::CampaignSpec spec = sweep_spec(a);
  write_multiplier(*s.lib, 8, spec.netlist_path);
  serve::ServerOptions opt;
  opt.socket_path = a.out_dir + "/serve-" + std::to_string(rep) + ".sock";
  opt.cache_path = a.out_dir + "/serve-" + std::to_string(rep) + ".cache";
  ::unlink(opt.socket_path.c_str());
  ::unlink(opt.cache_path.c_str());
  s.server = std::make_unique<serve::Server>(*s.lib, opt);
  (void)s.server->start();
  // The server shares this process's compiled program cache.
  const campaign::CampaignPlan plan = campaign::build_campaign(*s.lib, spec);
  (void)sim::compiled::get_program(*plan.original);
  (void)sim::compiled::get_program(*plan.gated);
  serve::Client warm(opt.socket_path);
  for (int k = 0; k < kHotSeeds; ++k)
    if (!warm.call(sweep_request(spec, hot_seed(a, k))).status.ok)
      throw Error("serve_mixed: warming the hot set failed");
  return s;
}

enum Kind { kHot, kCold, kLint, kPing, kKinds };
constexpr const char* kSpan[kKinds] = {"serve.hot_sweep", "serve.cold_sweep",
                                       "serve.lint", "serve.ping"};

Kind kind_of(int i) {
  const int slot = i % 20;
  if (slot < 16) return kHot;
  if (slot < 18) return kPing;
  if (slot < 19) return kCold;
  return kLint;
}

/// Latencies of one client, by request kind and by whether tracing was
/// on when the request was sent.
struct Lat {
  std::vector<double> ms[kKinds][2];
};

} // namespace

void run_serve_mixed(const Args& a, Result& r) {
  install_timed_gate(true);
  std::vector<Served> setups;
  int rep = 0;
  const double setup_s =
      time_setups([&] { setups.push_back(start_server(a, rep++)); }, r);
  for (std::size_t i = 0; i + 1 < setups.size(); ++i) setups[i].server->stop();
  const Library& lib = *setups.back().lib;
  serve::Server& server = *setups.back().server;
  const std::string sock = server.socket_path();
  const campaign::CampaignSpec spec = sweep_spec(a);

  // Reference bodies: the direct `--json` renderings of the same requests.
  std::map<std::uint64_t, std::string> hot_body;
  for (int k = 0; k < kHotSeeds; ++k) {
    engine::ResultCache own;
    hot_body[hot_seed(a, k)] =
        serve::exec_sweep(lib, sweep_request(spec, hot_seed(a, k)).sweep, &own)
            .body;
  }
  serve::Request lint;
  lint.op = serve::Op::Lint;
  lint.lint.netlist_path = spec.netlist_path;
  const serve::ExecResult lint_ref = serve::exec_lint(lib, lint.lint);
  serve::Request ping;
  ping.op = serve::Op::Ping;

  std::atomic<std::uint64_t> next_cold{0};
  std::atomic<bool> stop{false};
  std::mutex cold_m;
  std::map<std::uint64_t, std::string> cold_bodies; // cold index -> body
  std::vector<Lat> lat(kClients);
  std::vector<std::thread> clients;
  // Traced runs count the daemon's cache hits with the library's own
  // engine counters.
  if (a.trace) {
    obs::reset();
    obs::configure(true, false);
  }
  const auto t0 = Clock::now();
  const auto client_loop = [&](int c) {
    serve::Client client(sock);
    for (int i = 0; !stop.load(); ++i) {
      const Kind kind = kind_of(i);
      serve::Request rq;
      std::uint64_t cold_k = 0;
      switch (kind) {
        case kHot: rq = sweep_request(spec, hot_seed(a, (i + c) % kHotSeeds)); break;
        case kCold:
          cold_k = next_cold.fetch_add(1);
          rq = sweep_request(spec, cold_seed(a, cold_k));
          break;
        case kLint: rq = lint; break;
        default: rq = ping; break;
      }
      Tracer::set_iteration(i);
      const bool traced = Tracer::get().on();
      const auto ts = Clock::now();
      serve::Response resp;
      {
        const Scope s(kSpan[kind]);
        resp = client.call(rq);
      }
      lat[std::size_t(c)].ms[kind][traced].push_back(seconds_since(ts) * 1e3);
      r.checks.attempt();
      if (!r.checks.expect(resp.status.ok && resp.status.exit_code == 0,
                           std::string(kSpan[kind]) + " request failed: " +
                               resp.status.error))
        continue;
      if (kind == kHot)
        r.checks.expect(resp.body == hot_body.at(rq.sweep.spec.seed),
                        "served hot sweep body differs from exec_sweep");
      else if (kind == kLint)
        r.checks.expect(resp.body == lint_ref.body,
                        "served lint body differs from exec_lint");
      else if (kind == kCold) {
        const std::lock_guard lock(cold_m);
        cold_bodies[cold_k] = std::move(resp.body);
      }
    }
  };
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      try {
        client_loop(c);
      } catch (const std::exception& e) {
        r.checks.attempt();
        r.checks.expect(false, std::string("client connection: ") + e.what());
      }
    });
  // Traced runs toggle tracing in quarter-second blocks, so traced and
  // untraced requests interleave within one process.
  while (seconds_since(t0) < a.seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(a.trace ? 250 : 20));
    if (a.trace) Tracer::get().enable(!Tracer::get().on());
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();
  const double wall = seconds_since(t0);
  Tracer::get().enable(false);
  Tracer::set_iteration(-1);
  if (a.trace) {
    std::uint64_t points = 0, hits = 0;
    for (const auto& c : obs::Registry::global().snapshot().counters) {
      if (c.name == "engine.points") points = c.value;
      if (c.name == "engine.cache_hits") hits = c.value;
    }
    obs::reset();
    report_cache_hits(hits, points, r);
  }

  serve::Request stats;
  stats.op = serve::Op::Stats;
  const serve::Response st = serve::call_once(sock, stats);
  server.stop();

  // Cold bodies: the grid's rows, finite positive powers, and (for the
  // first few unseen seeds) byte-identity with exec_sweep.
  std::vector<std::string> digest_parts;
  for (const auto& [k, body] : cold_bodies) {
    r.checks.attempt();
    (void)check_sweep_body(body, spec.points, r.checks);
    if (k >= kColdChecks) continue;
    engine::ResultCache own;
    const std::string direct =
        serve::exec_sweep(lib, sweep_request(spec, cold_seed(a, k)).sweep, &own)
            .body;
    r.checks.attempt();
    r.checks.expect(body == direct,
                    "served cold sweep body differs from exec_sweep");
    digest_parts.push_back(direct);
  }
  for (const auto& [seed, body] : hot_body) digest_parts.push_back(body);
  digest_parts.push_back(lint_ref.body);
  r.output_digest = digest_of(digest_parts);

  // A sampled sweep renders the same rows at jobs 1 and N.
  {
    serve::Request rq = sweep_request(spec, hot_seed(a, 0));
    rq.sweep.jobs = a.jobs;
    engine::ResultCache own;
    r.checks.attempt();
    r.checks.expect(without_jobs(serve::exec_sweep(lib, rq.sweep, &own).body) ==
                        without_jobs(hot_body.at(hot_seed(a, 0))),
                    "sweep body differs between jobs 1 and " +
                        std::to_string(a.jobs));
  }

  Lat all;
  for (const Lat& l : lat)
    for (int k = 0; k < kKinds; ++k)
      for (int t = 0; t < 2; ++t)
        all.ms[k][t].insert(all.ms[k][t].end(), l.ms[k][t].begin(),
                            l.ms[k][t].end());
  std::size_t total = 0;
  for (int k = 0; k < kKinds; ++k) total += all.ms[k][0].size() + all.ms[k][1].size();
  const std::vector<double>& hot = all.ms[kHot][0];
  const double hot_p50 = median(hot);

  r.e2e["ops_per_s"] = {double(total) / wall, "1/s"};
  r.e2e["op_p50_ms"] = {hot_p50, "ms"};
  r.e2e["setup_s"] = {setup_s, "s"};
  char line[240];
  std::snprintf(line, sizeof line,
                "serve_req_per_s %.2f  serve_hot_p50_ms %.4f  "
                "serve_cold_p50_ms %.4f  (%d closed-loop clients, %zu "
                "requests: hot %zu, cold %zu, lint %zu, ping %zu)",
                double(total) / wall, hot_p50, median(all.ms[kCold][0]),
                kClients, total, hot.size(), all.ms[kCold][0].size(),
                all.ms[kLint][0].size(), all.ms[kPing][0].size());
  r.report.emplace_back(line);
  std::snprintf(line, sizeof line, "serve.batch_size %.4f  lint_p50_ms %.4f  "
                "ping_p50_ms %.4f",
                batch_size(st.body), median(all.ms[kLint][0]),
                median(all.ms[kPing][0]));
  r.report.emplace_back(line);
  // p99 only with at least ten samples beyond it.
  if (hot.size() >= 1000)
    std::snprintf(line, sizeof line, "serve_hot_p99_ms %.4f  (%zu samples)",
                  percentile(hot, 0.99), hot.size());
  else
    std::snprintf(line, sizeof line,
                  "serve_hot_p99_ms n/a  (%zu samples; p99 needs 1000)",
                  hot.size());
  r.report.emplace_back(line);

  if (a.trace) {
    r.layer["serve.batch_size"] = {batch_size(st.body), "count"};
    r.layer["obs.trace_overhead_pct"] = {
        100.0 * (median(all.ms[kHot][1]) / hot_p50 - 1.0), "%"};
  }

  // Estimator agreement on the served design's fixed ungated rows.
  campaign::CampaignSpec fixed = spec;
  fixed.seed = 1;
  const campaign::CampaignPlan plan =
      campaign::build_campaign(lib, fixed, a.jobs);
  report_backend_rows({run_backend_rows(case_from_plan(plan, "mult8"), a.jobs,
                                        r.checks)},
                      r);
  if (a.trace) {
    // The daemon's own rows are not visible from a client: its engine
    // counts come from a direct run of the served grid.
    RowCounts counts;
    engine::ResultCache own;
    counts.run(*campaign::build_campaign(lib, fixed, a.jobs, &own).experiment);
    counts.report(r);
    Tracer::get().enable(true);
    probe_layers(lib, spec, a, false, r);
    Tracer::get().enable(false);
  }
}

} // namespace perfbench
