// paper_repro: the T1, T2, F6 and F8 results as the bench binaries
// compute them (bench_table1_multiplier, bench_table2_cortexm0,
// bench_fig6_multiplier, bench_fig8_cortexm0) through the bench/common.hpp
// fixtures, on the default event backend, with a cold result cache on
// every iteration.  Set-up is the fixtures' make_mult_setup() and
// make_cpu_setup() (build, transform, calibrate, extract); F8 reuses the
// multiplier set-up instead of rebuilding it.
//
// The operating points are the paper's, each with one seed, so there is
// no lane packing and no Verilog parse: compiled-kernel and plan-cache
// work should read "no change" here, event-simulator and model-extraction
// work should show.
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common.hpp"
#include "engine/cache.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace scpg;
using namespace scpg::benchx;

namespace {

// The paper's published savings (Tables I and II), SCPG@50 and SCPG-Max,
// as bench_table1_multiplier / bench_table2_cortexm0 list them.
constexpr double kT1Freqs[] = {0.01, 0.1, 1.0, 2.0, 5.0, 8.0, 10.0, 14.3};
constexpr double kT1Paper50[] = {39.9, 38.8, 29.0, 20.1, 9.1, 6.4, 5.2, 3.3};
constexpr double kT1PaperMax[] = {80.2, 78.5, 63.4, 48.8, 19.8, 9.3, 6.8, 3.3};
constexpr double kT2Freqs[] = {0.01, 0.1, 1.0, 2.0, 5.0, 10.0};
constexpr double kT2Paper50[] = {28.1, 26.7, 13.0, 1.3, -2.7, -12.0};
constexpr double kT2PaperMax[] = {57.1, 55.3, 38.1, 20.8, 1.9, -11.0};

struct Setups {
  MultSetup mult;
  CpuSetup cpu;
};

struct Outputs {
  std::vector<TableRow> t1, t2;
  std::vector<std::string> text; ///< bit-exact results, for the digest
  std::size_t rows{0};           ///< engine rows measured
  std::size_t hits{0};           ///< rows the cold cache already held
};

std::string table_text(const std::vector<TableRow>& rows) {
  std::string s;
  char buf[160];
  for (const TableRow& r : rows) {
    std::snprintf(buf, sizeof buf, "%a %a %a %a %a\n", r.f.v, r.p_none.v,
                  r.p_50.v, r.p_max.v, r.duty_max);
    s += buf;
  }
  return s;
}

std::size_t table_rows(const std::vector<TableRow>& rows) {
  std::size_t n = 0;
  for (const TableRow& r : rows) n += r.scpgmax_feasible ? 3 : 2;
  return n;
}

void check_table(const std::vector<TableRow>& rows, std::size_t expect,
                 std::string_view what, Checks& checks) {
  // One attempt, so one failure at most: stop at the first.
  checks.attempt();
  if (!checks.expect(rows.size() == expect, std::string(what) + ": row count"))
    return;
  for (const TableRow& r : rows)
    if (!checks.expect(std::isfinite(r.p_none.v) && r.p_none.v > 0 &&
                           std::isfinite(r.p_50.v) && r.p_50.v > 0 &&
                           std::isfinite(r.p_max.v) && r.p_max.v > 0,
                       std::string(what) + ": power not finite and positive"))
      return;
}

/// The model curves a figure bench draws (pure closed-form evaluations).
std::string curves(const ScpgPowerModel& original, const ScpgPowerModel& gated,
                   double f_hi_mhz) {
  double acc = 0;
  for (double fm = 0.05; fm <= f_hi_mhz; fm += 0.05) {
    const Frequency f{fm * 1e6};
    acc += original.average_power_ungated(f).v;
    acc += gated.average_power(PolicyMode::Scpg50, f).v;
    acc += gated.average_power(PolicyMode::ScpgMax, f).v;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a\n", acc);
  return buf;
}

engine::SweepResult run_sweep(engine::SweepSpec spec, engine::ResultCache& c,
                              int jobs, std::size_t expect,
                              std::string_view what, Outputs& out,
                              Checks& checks) {
  spec.jobs(jobs).cache(&c);
  engine::SweepResult res = [&] {
    const Scope s("engine.run");
    return engine::Experiment(std::move(spec)).run();
  }();
  checks.attempt();
  check_rows(res, expect, what, checks);
  out.rows += res.size();
  out.text.push_back(rows_text(res));
  return res;
}

Outputs regenerate(const Setups& s, int jobs, Checks& checks) {
  // One cold cache per result, as each bench binary is its own process
  // (T1 and F6 share anchor points).
  Outputs out;
  engine::ResultCache cold[4];
  {
    const Scope sp("paper.T1");
    const Scope run("engine.run");
    out.t1 = measure_rows(s.mult.original, s.mult.gated, s.mult.model_gated,
                          mult_spec(s.mult.cfg).cache(&cold[0]), kT1Freqs, jobs);
  }
  check_table(out.t1, std::size(kT1Freqs), "T1", checks);
  out.rows += table_rows(out.t1);
  out.text.push_back(table_text(out.t1));
  {
    const Scope sp("paper.T2");
    const Scope run("engine.run");
    out.t2 = measure_rows(s.cpu.original.netlist, s.cpu.gated.netlist,
                          s.cpu.model_gated, cpu_spec(s.cpu.cfg).cache(&cold[1]),
                          kT2Freqs, jobs);
  }
  check_table(out.t2, std::size(kT2Freqs), "T2", checks);
  out.rows += table_rows(out.t2);
  out.text.push_back(table_text(out.t2));
  {
    const Scope sp("paper.F6");
    out.text.push_back(curves(s.mult.model_original, s.mult.model_gated, 15.0));
    const Frequency conv = policy_convergence_frequency(
        s.mult.model_gated, PolicyMode::Scpg50, 100.0_kHz, 40.0_MHz);
    out.text.push_back(std::to_string(conv.v));
    std::vector<Frequency> fs;
    for (double fm : {0.01, 0.1, 1.0, 5.0, 10.0, 14.3})
      fs.push_back(Frequency{fm * 1e6});
    engine::SweepSpec spec = mult_spec(s.mult.cfg);
    spec.design(s.mult.original).design(s.mult.gated).frequencies(fs);
    (void)run_sweep(std::move(spec), cold[2], jobs, 2 * fs.size(), "F6 anchors",
                    out, checks);
  }
  {
    const Scope sp("paper.F8");
    out.text.push_back(curves(s.cpu.model_original, s.cpu.model_gated, 10.0));
    const Frequency conv_cpu = policy_convergence_frequency(
        s.cpu.model_gated, PolicyMode::Scpg50, 50.0_kHz, 20.0_MHz);
    const Frequency conv_mult = policy_convergence_frequency(
        s.mult.model_gated, PolicyMode::Scpg50, 50.0_kHz, 40.0_MHz);
    out.text.push_back(std::to_string(conv_cpu.v) + " " +
                       std::to_string(conv_mult.v));
    double lo = 1.0, hi = 10.0;
    for (int i = 0; i < 5; ++i) {
      const double mid = 0.5 * (lo + hi);
      engine::SweepSpec probe = cpu_spec(s.cpu.cfg);
      probe.design(s.cpu.original.netlist)
          .design(s.cpu.gated.netlist)
          .frequency(Frequency{mid * 1e6});
      const engine::SweepResult r =
          run_sweep(std::move(probe), cold[3], jobs, 2, "F8 probe", out,
                    checks);
      (r[1].avg_power.v < r[0].avg_power.v ? lo : hi) = mid;
    }
    std::vector<Frequency> fs;
    for (double fm : {0.01, 0.1, 1.0, 5.0, 10.0})
      fs.push_back(Frequency{fm * 1e6});
    engine::SweepSpec spec = cpu_spec(s.cpu.cfg);
    spec.design(s.cpu.original.netlist)
        .design(s.cpu.gated.netlist)
        .frequencies(fs);
    (void)run_sweep(std::move(spec), cold[3], jobs, 2 * fs.size(), "F8 anchors",
                    out, checks);
  }
  // Every row is a distinct point, so a cold cache stores each one once
  // and a row that stored nothing was a hit.
  std::size_t stored = 0;
  for (const engine::ResultCache& c : cold) stored += c.size();
  out.hits = out.rows - std::min(out.rows, stored);
  return out;
}

double paper_err_pp(const Outputs& o) {
  double sum = 0;
  int n = 0;
  for (std::size_t i = 0; i < o.t1.size(); ++i) {
    sum += std::abs(o.t1[i].saving_50() - kT1Paper50[i]);
    sum += std::abs(o.t1[i].saving_max() - kT1PaperMax[i]);
    n += 2;
  }
  for (std::size_t i = 0; i < o.t2.size(); ++i) {
    sum += std::abs(o.t2[i].saving_50() - kT2Paper50[i]);
    sum += std::abs(o.t2[i].saving_max() - kT2PaperMax[i]);
    n += 2;
  }
  return sum / double(n);
}

/// The "none" and SCPG@50 rows of a table, as a backend re-run case.
GridCase table_rows_case(std::string name, std::function<engine::SweepSpec()> fixture,
                   std::span<const double> freqs_mhz, Corner corner,
                   int cycles) {
  GridCase c;
  c.name = std::move(name);
  c.fixture = std::move(fixture);
  for (std::size_t i = 0; i < freqs_mhz.size(); ++i) {
    engine::OperatingPoint p;
    p.f = Frequency{freqs_mhz[i] * 1e6};
    p.corner = corner;
    p.tag = "none:" + std::to_string(i);
    c.rows.push_back(p);
    p.design = 1;
    p.tag = "50:" + std::to_string(i);
    c.rows.push_back(p);
  }
  c.cycles_per_row = cycles + 4;
  return c;
}

} // namespace

void run_paper_repro(const Args& a, Result& r) {
  install_timed_gate(false);
  // The bench fixtures calibrate through the process-global cache, so it
  // is emptied before every set-up to keep each one cold.
  std::vector<std::unique_ptr<Setups>> setups;
  const double setup_s = time_setups([&] {
    engine::ResultCache::global().clear();
    setups.push_back(std::make_unique<Setups>(
        Setups{make_mult_setup(), make_cpu_setup()}));
  }, r);
  const Setups& s = *setups.back();

  const Outputs ref = regenerate(s, a.jobs, r.checks);
  r.output_digest = digest_of(ref.text);

  std::vector<double> iter_ms[2];
  std::size_t rows = 0, hits = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < 3 || seconds_since(t0) < a.seconds; ++i) {
    const bool traced = a.trace && i % 2 == 1;
    Tracer::get().enable(traced);
    Tracer::set_iteration(i);
    const auto ti = Clock::now();
    const Outputs o = regenerate(s, a.jobs, r.checks);
    iter_ms[traced].push_back(seconds_since(ti) * 1e3);
    Tracer::get().enable(false);
    rows += o.rows;
    hits += o.hits;
    r.checks.attempt();
    r.checks.expect(o.text == ref.text,
                    "paper results differ between regenerations");
  }
  Tracer::set_iteration(-1);
  const double wall = seconds_since(t0);

  const Outputs serial = regenerate(s, 1, r.checks);
  r.checks.attempt();
  r.checks.expect(serial.text == ref.text,
                  "paper results differ between jobs 1 and " +
                      std::to_string(a.jobs));

  report_backend_rows(
      {run_backend_rows(table_rows_case("T1", [&] {
                          engine::SweepSpec sp = mult_spec(s.mult.cfg);
                          sp.design(s.mult.original).design(s.mult.gated);
                          return sp;
                        }, kT1Freqs, s.mult.cfg.corner, 24),
                        a.jobs, r.checks),
       run_backend_rows(table_rows_case("T2", [&] {
                          engine::SweepSpec sp = cpu_spec(s.cpu.cfg);
                          sp.design(s.cpu.original.netlist)
                              .design(s.cpu.gated.netlist);
                          return sp;
                        }, kT2Freqs, s.cpu.cfg.corner, 40),
                        a.jobs, r.checks)},
      r);

  const double wall_ms = median(iter_ms[0]);
  r.e2e["ops_per_s"] = {double(rows) / wall, "1/s"};
  r.e2e["op_p50_ms"] = {wall_ms, "ms"};
  r.e2e["setup_s"] = {setup_s, "s"};
  char line[200];
  std::snprintf(line, sizeof line,
                "paper_wall_s %.4f  paper_err_pp %.4f  (%zu regenerations, "
                "%zu rows, jobs %d)",
                wall_ms * 1e-3, paper_err_pp(ref),
                iter_ms[0].size() + iter_ms[1].size(), rows, a.jobs);
  r.report.emplace_back(line);
  report_cache_hits(hits, rows, r);

  if (a.trace) {
    // Fixture rows all run on the event backend, one unit each.
    RowCounts counts;
    counts.rows = counts.units = rows;
    counts.report(r);
    r.layer["obs.trace_overhead_pct"] = {
        100.0 * (median(iter_ms[1]) / wall_ms - 1.0), "%"};
    // Layers off this workload's path are timed on its multiplier.
    campaign::CampaignSpec spec;
    spec.netlist_path = a.out_dir + "/mult16.v";
    write_multiplier(bench_lib(), 16, spec.netlist_path);
    Tracer::get().enable(true);
    probe_layers(bench_lib(), spec, a, true, r);
    Tracer::get().enable(false);
  }
}

} // namespace perfbench
