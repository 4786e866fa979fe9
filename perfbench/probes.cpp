#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "engine/cache.hpp"
#include "gen/mult16.hpp"
#include "lint/lint.hpp"
#include "netlist/verilog.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "policy/policy.hpp"
#include "scpg/model.hpp"
#include "serve/client.hpp"
#include "serve/exec.hpp"
#include "serve/server.hpp"
#include "sim/compiled/program.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace scpg;

void install_timed_gate(bool lint) {
  if (lint) lint::install_engine_gate();
  const engine::DesignGate inner = engine::design_gate();
  engine::set_design_gate(
      [inner](const Netlist& nl, const engine::GateContext& ctx) {
        const Scope s("lint.gate");
        inner(nl, ctx);
      });
}

void write_multiplier(const Library& lib, int bits, const std::string& path) {
  std::ofstream os(path);
  write_verilog(gen::make_multiplier(lib, bits), os);
}

// --- result-row accounting ---------------------------------------------------

void RowCounts::run(const engine::Experiment& exp) {
  obs::reset();
  obs::configure(false, true);
  const engine::SweepResult res = exp.run();
  std::ostringstream os;
  obs::write_trace_json(os, "perfbench");
  obs::reset();
  for (const engine::PointResult& row : res) {
    ++rows;
    if (row.backend == sim::Backend::Compiled) ++compiled;
  }
  // The engine reports its execution units on its engine.sweep span.
  const json::Value trace = json::parse(os.str());
  const json::Value* events = trace.get("traceEvents");
  if (events == nullptr) return;
  for (const json::Value& e : events->arr) {
    const json::Value* name = e.get("name");
    const json::Value* args = e.get("args");
    const json::Value* n = args ? args->get("units") : nullptr;
    if (name != nullptr && name->str == "engine.sweep" && n != nullptr)
      units += std::uint64_t(n->num);
  }
}

void RowCounts::report(Result& r) const {
  const double n = double(std::max<std::uint64_t>(rows, 1));
  r.layer["engine.rows"] = {double(rows), "count"};
  r.layer["engine.compiled_share"] = {double(compiled) / n, "ratio"};
  // Rows off the compiled kernel run one per unit; the rest are lanes.
  const std::uint64_t compiled_units = units - std::min(units, rows - compiled);
  r.layer["engine.lanes_per_unit"] = {
      compiled_units == 0 ? 0.0 : double(compiled) / double(compiled_units),
      "count"};
}

void report_cache_hits(std::uint64_t hits, std::uint64_t rows, Result& r) {
  const double ratio =
      double(hits) / double(std::max<std::uint64_t>(rows, 1));
  r.layer["engine.cache_hit_ratio"] = {ratio, "ratio"};
  char line[120];
  std::snprintf(line, sizeof line,
                "engine.cache_hit_ratio %.4f  (%llu hits of %llu rows)", ratio,
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(rows));
  r.report.emplace_back(line);
}

// --- output checks -----------------------------------------------------------

namespace {

bool finite_positive(double v) { return std::isfinite(v) && v > 0; }

} // namespace

std::size_t check_sweep_body(const std::string& body, int points,
                             Checks& checks) {
  json::Value v;
  try {
    v = json::parse(body);
  } catch (const std::exception& e) {
    checks.expect(false, std::string("sweep body does not parse: ") + e.what());
    return 0;
  }
  const json::Value* payload = v.get("payload");
  const json::Value* rows = payload ? payload->get("rows") : nullptr;
  if (!checks.expect(rows != nullptr && rows->is(json::Value::Type::Array),
                     "sweep body has no payload.rows array"))
    return 0;
  if (!checks.expect(rows->arr.size() == std::size_t(points),
                     "sweep row count " + std::to_string(rows->arr.size()) +
                         " != grid size " + std::to_string(points)))
    return 0;
  std::size_t measured = 0;
  for (const json::Value& row : rows->arr) {
    const json::Value* n = row.get("measured_none_uw");
    const json::Value* g = row.get("measured_scpg50_uw");
    if (!checks.expect(n != nullptr && n->is(json::Value::Type::Number) &&
                           finite_positive(n->num),
                       "ungated row power not finite and positive"))
      return 0;
    ++measured;
    if (g == nullptr || g->is(json::Value::Type::Null)) continue;
    if (!checks.expect(g->is(json::Value::Type::Number) &&
                           finite_positive(g->num),
                       "gated row power not finite and positive"))
      return 0;
    ++measured;
  }
  return measured;
}

void check_rows(const engine::SweepResult& res, std::size_t expect,
                std::string_view what, Checks& checks) {
  // One failure at most per call: the caller made one attempt.
  if (!checks.expect(res.size() == expect,
                     std::string(what) + ": row count " +
                         std::to_string(res.size()) + " != expected " +
                         std::to_string(expect)))
    return;
  for (const engine::PointResult& row : res)
    if (!checks.expect(finite_positive(row.avg_power.v),
                       std::string(what) + ": power of row " + row.point.tag +
                           " not finite and positive"))
      return;
}

std::string without_jobs(std::string body) {
  const std::string key = "\"jobs\": ";
  const std::size_t at = body.find(key);
  if (at == std::string::npos) return body;
  const std::size_t from = at + key.size();
  std::size_t to = from;
  while (to < body.size() && body[to] >= '0' && body[to] <= '9') ++to;
  return body.replace(from, to - from, "1");
}

std::string rows_text(const engine::SweepResult& res) {
  std::string s;
  char buf[160];
  for (const engine::PointResult& row : res) {
    std::snprintf(buf, sizeof buf, "%s %a %a %d\n", row.point.tag.c_str(),
                  row.avg_power.v, row.energy_per_cycle.v, row.cycles);
    s += buf;
  }
  return s;
}

// --- single-backend row re-runs ----------------------------------------------

GridCase case_from_plan(const campaign::CampaignPlan& plan,
                        const std::string& name) {
  const campaign::CampaignSpec spec = plan.spec;
  const SimConfig cfg = plan.experiment->spec().base_sim();
  const Netlist* original = plan.original.get();
  const Netlist* gated = plan.gated.get();
  GridCase c;
  c.name = name;
  c.fixture = [=] {
    engine::SweepSpec s;
    s.design(*original, "original").design(*gated, "gated");
    s.base_sim(cfg)
        .cycles(spec.cycles)
        .clock_port(spec.clock_port)
        .policy(spec.policy)
        .stimulus(campaign::random_stimulus(spec.activity, spec.clock_port));
    return s;
  };
  c.rows = plan.points();
  c.cycles_per_row = spec.cycles + 4; // SweepSpec's default warm-up
  return c;
}

namespace {

struct Timed {
  engine::SweepResult res;
  double seconds{0};
};

Timed run_rows(const GridCase& c, const std::vector<engine::OperatingPoint>& pts,
               sim::Backend b, int jobs, int seeds) {
  engine::ResultCache cold;
  engine::SweepSpec s = c.fixture();
  s.backend(b).jobs(jobs).cache(&cold);
  for (const engine::OperatingPoint& p0 : pts)
    for (int k = 0; k < seeds; ++k) {
      engine::OperatingPoint p = p0;
      p.seed = std::uint64_t(k + 1);
      p.tag += "#" + std::to_string(k);
      s.point(p);
    }
  const auto t0 = Clock::now();
  Timed t{engine::Experiment(std::move(s)).run(), 0};
  t.seconds = seconds_since(t0);
  return t;
}

} // namespace

BackendRows run_backend_rows(const GridCase& c, int jobs, Checks& checks) {
  std::vector<engine::OperatingPoint> ungated, gated;
  for (const engine::OperatingPoint& p : c.rows)
    (p.design == 0 || p.override_gating ? ungated : gated).push_back(p);
  // A few gated rows are enough for a per-row event cost.
  if (gated.size() > 4) gated.resize(4);

  BackendRows out;
  const Timed ev = run_rows(c, ungated, sim::Backend::Event, jobs, 1);
  const Timed co = run_rows(c, ungated, sim::Backend::Compiled, jobs, 1);
  checks.attempt(2);
  check_rows(ev.res, ungated.size(), c.name + " event rows", checks);
  check_rows(co.res, ungated.size(), c.name + " compiled rows", checks);
  for (std::size_t i = 0; i < ev.res.size() && i < co.res.size(); ++i) {
    const double e = ev.res[i].avg_power.v;
    const double d = std::abs(co.res[i].avg_power.v - e) / e;
    out.gap_pct = std::max(out.gap_pct, 100.0 * d);
  }
  const double nu = double(std::max<std::size_t>(ungated.size(), 1));
  out.event_ungated_row_ms = ev.seconds * 1e3 / nu;
  out.compiled_row_ms = co.seconds * 1e3 / nu;
  if (!gated.empty()) {
    const Timed eg = run_rows(c, gated, sim::Backend::Event, jobs, 1);
    checks.attempt();
    check_rows(eg.res, gated.size(), c.name + " gated event rows", checks);
    out.event_gated_row_ms = eg.seconds * 1e3 / double(gated.size());
  }
  const Timed packed = run_rows(c, ungated, sim::Backend::Compiled, jobs, 64);
  checks.attempt();
  check_rows(packed.res, ungated.size() * 64, c.name + " packed rows", checks);
  out.lane_cycles_per_s = double(packed.res.size()) * c.cycles_per_row /
                          std::max(packed.seconds, 1e-9);
  return out;
}

void report_backend_rows(const std::vector<BackendRows>& rows, Result& r) {
  BackendRows sum;
  double gap = 0;
  for (const BackendRows& b : rows) {
    gap = std::max(gap, b.gap_pct);
    sum.compiled_row_ms += b.compiled_row_ms;
    sum.event_ungated_row_ms += b.event_ungated_row_ms;
    sum.event_gated_row_ms += b.event_gated_row_ms;
    sum.lane_cycles_per_s += b.lane_cycles_per_s;
  }
  const double n = double(std::max<std::size_t>(rows.size(), 1));
  r.layer["backend_gap_pct"] = {gap, "%"};
  r.layer["sim.compiled.row_ms"] = {sum.compiled_row_ms / n, "ms"};
  r.layer["sim.compiled.lane_cycles_per_s"] = {sum.lane_cycles_per_s / n,
                                               "1/s"};
  r.layer["sim.event.row_ms_ungated"] = {sum.event_ungated_row_ms / n, "ms"};
  r.layer["sim.event.row_ms_gated"] = {sum.event_gated_row_ms / n, "ms"};
  char line[160];
  std::snprintf(line, sizeof line,
                "backend_gap_pct %.4f %%  (max |compiled - event| / event, "
                "fixed ungated rows)",
                gap);
  r.report.emplace_back(line);
}

// --- layer probes ------------------------------------------------------------

double batch_size(const std::string& stats_body) {
  const json::Value v = json::parse(stats_body);
  const json::Value* p = v.get("payload");
  const json::Value* batches = p ? p->get("batches") : nullptr;
  const json::Value* batched = p ? p->get("batched_requests") : nullptr;
  if (batches == nullptr || batched == nullptr || batches->num <= 0) return 0;
  return batched->num / batches->num;
}

namespace {

constexpr int kProbeReps = 5;

Netlist read_file(const std::string& path, const Library& lib) {
  std::ifstream in(path);
  return read_verilog(in, lib, {}, path);
}

void probe_server(const Library& lib, const campaign::CampaignSpec& spec,
                  const Args& a, Result& r) {
  serve::ServerOptions opt;
  opt.socket_path = a.out_dir + "/probe.sock";
  ::unlink(opt.socket_path.c_str());
  serve::Server server(lib, opt);
  (void)server.start();
  serve::Request ping;
  ping.op = serve::Op::Ping;
  {
    serve::Client c(opt.socket_path);
    for (int i = 0; i < 50; ++i) {
      const Scope s("serve.ping");
      r.checks.attempt();
      r.checks.expect(c.call(ping).status.ok, "probe ping failed");
    }
  }
  // Two clients' sweeps differing only in seed, sent together, coalesce
  // into one batch when they meet in the batch window.
  std::vector<std::thread> ts;
  for (int k = 0; k < 2; ++k)
    ts.emplace_back([&, k] {
      serve::Request rq;
      rq.op = serve::Op::Sweep;
      rq.sweep.spec = spec;
      rq.sweep.spec.seed = 1000 + std::uint64_t(k);
      r.checks.attempt();
      r.checks.expect(serve::call_once(opt.socket_path, rq).status.ok,
                      "probe sweep failed");
    });
  for (std::thread& t : ts) t.join();
  serve::Request stats;
  stats.op = serve::Op::Stats;
  const serve::Response st = serve::call_once(opt.socket_path, stats);
  server.stop();
  r.layer["serve.batch_size"] = {batch_size(st.body), "count"};
}

} // namespace

void probe_layers(const Library& lib, campaign::CampaignSpec spec,
                  const Args& a, bool with_server, Result& r) {
  const power::Policy* pol = power::find_policy(spec.policy);
  power::PolicyOptions popt;
  popt.clock_port = spec.clock_port;
  const Corner corner{Voltage{spec.vdd}, spec.temp_c};
  SimConfig cfg;
  cfg.corner = corner;
  double find_s = 0, finds = 0;
  for (int k = 0; k < kProbeReps; ++k) {
    const Scope probe("probe");
    Netlist nl = [&] {
      const Scope s("netlist.read_verilog");
      return read_file(spec.netlist_path, lib);
    }();
    {
      const Scope s("policy.apply");
      (void)pol->apply(nl, popt);
    }
    {
      const Scope s("sta.model_extract");
      (void)ScpgPowerModel::extract(
          nl, cfg, campaign::estimate_dynamic_energy(nl, corner, spec.activity));
    }
    engine::design_gate()(nl, {"gated", spec.clock_port, spec.policy});
    {
      // A library instance the program cache has never seen, so this is
      // the first get_program of the design: a real levelization.
      // Libraries stay alive for the process: the cache is keyed by
      // address, and a freed address reused would read as a hit.
      static std::vector<std::unique_ptr<Library>> fresh_libs;
      fresh_libs.push_back(std::make_unique<Library>(Library::scpg90()));
      const Netlist copy = read_file(spec.netlist_path, *fresh_libs.back());
      const Scope s("sim.compiled.levelize");
      (void)sim::compiled::get_program(copy);
    }
    engine::ResultCache cache;
    serve::SweepRequest rq{spec, a.jobs};
    const campaign::CampaignPlan plan = [&] {
      const Scope s("campaign.build");
      return campaign::build_campaign(lib, spec, a.jobs, &cache);
    }();
    const engine::SweepResult res = plan.experiment->run();
    {
      const Scope s("serve.render");
      (void)serve::render_sweep_body(
          plan, rq, [&](const std::string& tag) { return res.find(tag); });
    }
    // ResultCache::find over every stored key (hits) and as many misses.
    const auto entries = cache.entries_mru();
    const auto t0 = Clock::now();
    std::size_t found = 0;
    for (int rep = 0; rep < 50; ++rep)
      for (const auto& [key, m] : entries) {
        found += cache.find(key).has_value();
        found += cache.find({key.lo ^ 1, key.hi}).has_value();
      }
    find_s += seconds_since(t0);
    finds += 100.0 * double(entries.size());
    r.checks.attempt();
    r.checks.expect(found == 50 * entries.size(),
                    "ResultCache::find missed a stored key");
  }
  r.layer["engine.cache_find_us"] = {find_s * 1e6 / std::max(finds, 1.0), "us"};
  if (with_server) probe_server(lib, spec, a, r);
}

} // namespace perfbench
