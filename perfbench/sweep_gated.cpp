// sweep_gated: repeated cold-cache `scpgc sweep --backend auto` grids with
// the gated rows included, each iteration with a fresh seed.
//
//   * mult16 goes through serve::exec_sweep from Verilog, exactly as
//     `scpgc sweep --json` does, traced or not.
//   * SCM0 is built in memory with cpu::make_scm0, released from reset by
//     the bench fixture, and its grid comes from append_campaign_grid.
//
// Ungated rows resolve to the compiled kernel and gated rows to the
// event simulator, so this workload moves with anything in src/sim.
#include <cstdio>
#include <memory>

#include "common.hpp"
#include "cpu/assembler.hpp"
#include "cpu/core.hpp"
#include "cpu/workloads.hpp"
#include "engine/cache.hpp"
#include "policy/policy.hpp"
#include "scpg/model.hpp"
#include "serve/exec.hpp"
#include "sim/compiled/program.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace scpg;

namespace {

/// Everything one set-up builds.  Kept alive for the whole run: the
/// compiled program cache is keyed by library address.
struct State {
  std::unique_ptr<Library> lib;
  campaign::CampaignSpec mult;
  campaign::CampaignSpec scm;
  std::unique_ptr<cpu::Scm0> scm_original;
  std::unique_ptr<cpu::Scm0> scm_gated;
  std::unique_ptr<ScpgPowerModel> scm_model;
  SimConfig scm_cfg;
  std::size_t scm_rows{0}; ///< rows append_campaign_grid yields
  double program_fill_ms{0};
};

std::unique_ptr<State> set_up(const Args& a) {
  auto s = std::make_unique<State>();
  s->lib = std::make_unique<Library>(Library::scpg90());
  const Library& lib = *s->lib;

  s->mult.netlist_path = a.out_dir + "/mult16.v";
  s->mult.backend = sim::Backend::Auto;
  write_multiplier(lib, 16, s->mult.netlist_path);

  const auto image = cpu::assemble(cpu::workloads::dhrystone_like(5));
  s->scm_original = std::make_unique<cpu::Scm0>(cpu::make_scm0(lib, image));
  s->scm_gated = std::make_unique<cpu::Scm0>(cpu::make_scm0(lib, image));
  s->scm = s->mult;
  s->scm.netlist_path.clear();
  power::PolicyOptions popt;
  popt.clock_port = s->scm.clock_port;
  popt.header_drive = cpu::scm0_scpg_options().header_drive;
  (void)power::find_policy(s->scm.policy)->apply(s->scm_gated->netlist, popt);
  const Corner corner{Voltage{s->scm.vdd}, s->scm.temp_c};
  s->scm_cfg = cpu::scm0_sim_config(corner);
  s->scm_model = std::make_unique<ScpgPowerModel>(ScpgPowerModel::extract(
      s->scm_gated->netlist, s->scm_cfg,
      campaign::estimate_dynamic_energy(s->scm_gated->netlist, corner,
                                        s->scm.activity)));

  // Fill the process-wide compiled program cache for every design the
  // timed sweeps touch, so no iteration pays a levelization.
  const campaign::CampaignPlan plan =
      campaign::build_campaign(lib, s->mult, a.jobs);
  const auto t0 = Clock::now();
  for (const Netlist* nl : {plan.original.get(), plan.gated.get(),
                            &s->scm_original->netlist, &s->scm_gated->netlist})
    (void)sim::compiled::get_program(*nl);
  s->program_fill_ms = seconds_since(t0) * 1e3;
  return s;
}

engine::SweepSpec scm_fixture(const State& s) {
  engine::SweepSpec sw;
  sw.design(s.scm_original->netlist, "original")
      .design(s.scm_gated->netlist, "gated");
  sw.base_sim(s.scm_cfg)
      .cycles(s.scm.cycles)
      .clock_port(s.scm.clock_port)
      .policy(s.scm.policy)
      .setup(benchx::cpu_setup());
  return sw;
}

/// The SCM0 grid of `seed`, as append_campaign_grid builds it.
engine::SweepSpec scm_grid(const State& s, std::uint64_t seed) {
  engine::SweepSpec sw = scm_fixture(s);
  sw.backend(sim::Backend::Auto);
  campaign::append_campaign_grid(sw, s.scm, *s.scm_model, false, seed, "");
  return sw;
}

struct Iteration {
  double mult_s{0}, scm_s{0};
  std::size_t mult_rows{0}, scm_rows{0};
  std::size_t hits{0}; ///< rows the iteration's cold caches already held
  std::string mult_body;
  std::string scm_text;
};

Iteration run_iteration(const State& s, std::uint64_t seed, int jobs,
                        Checks& checks) {
  Iteration it;
  {
    const Scope span("sweep.mult16");
    engine::ResultCache cold;
    serve::SweepRequest rq{s.mult, jobs};
    rq.spec.seed = seed;
    const auto t0 = Clock::now();
    it.mult_body = serve::exec_sweep(*s.lib, rq, &cold).body;
    it.mult_s = seconds_since(t0);
    checks.attempt();
    it.mult_rows = check_sweep_body(it.mult_body, s.mult.points, checks);
    // Every row is a distinct point, so a row that stored nothing was a hit.
    it.hits += it.mult_rows - std::min(it.mult_rows, cold.size());
  }
  {
    const Scope span("sweep.scm0");
    engine::ResultCache cold;
    const auto t0 = Clock::now();
    engine::SweepSpec sw = scm_grid(s, seed);
    sw.jobs(jobs).cache(&cold);
    const engine::SweepResult res = [&] {
      const Scope sp("engine.run");
      return engine::Experiment(std::move(sw)).run();
    }();
    it.scm_s = seconds_since(t0);
    checks.attempt();
    check_rows(res, s.scm_rows, "scm0 sweep", checks);
    it.scm_rows = res.size();
    for (const engine::PointResult& row : res) it.hits += row.cache_hit;
    it.scm_text = rows_text(res);
  }
  return it;
}

} // namespace

void run_sweep_gated(const Args& a, Result& r) {
  install_timed_gate(true);
  std::vector<std::unique_ptr<State>> setups;
  const double setup_s =
      time_setups([&] { setups.push_back(set_up(a)); }, r);
  State& s = *setups.back();
  // The grid size is the model's, fixed per design.
  s.scm_rows = scm_grid(s, 0).expand().size();

  // Warm-up on a fixed seed (thread pool, scratch arenas): its outputs
  // are the run's digest and the reference for the jobs check.
  const Iteration ref = run_iteration(s, 1, a.jobs, r.checks);
  r.output_digest = digest_of({ref.mult_body, ref.scm_text});

  std::vector<double> iter_ms[2];
  double mult_s = 0, scm_s = 0;
  std::size_t mult_rows = 0, scm_rows = 0, hits = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < 3 || seconds_since(t0) < a.seconds; ++i) {
    // Traced runs alternate traced and untraced iterations, so the
    // tracing overhead is measured within one process.
    const bool traced = a.trace && i % 2 == 1;
    Tracer::get().enable(traced);
    Tracer::set_iteration(i);
    const Iteration it = run_iteration(
        s, derive_seed(a.seed, 1, std::uint64_t(i)), a.jobs, r.checks);
    Tracer::get().enable(false);
    iter_ms[traced].push_back((it.mult_s + it.scm_s) * 1e3);
    mult_s += it.mult_s;
    scm_s += it.scm_s;
    mult_rows += it.mult_rows;
    scm_rows += it.scm_rows;
    hits += it.hits;
  }
  Tracer::set_iteration(-1);
  const double wall = seconds_since(t0);

  // Rows are bit-identical at any job count.
  const Iteration serial = run_iteration(s, 1, 1, r.checks);
  r.checks.attempt();
  r.checks.expect(without_jobs(serial.mult_body) == without_jobs(ref.mult_body),
                  "mult16 sweep body differs between jobs 1 and " +
                      std::to_string(a.jobs));
  r.checks.attempt();
  r.checks.expect(serial.scm_text == ref.scm_text,
                  "scm0 rows differ between jobs 1 and " +
                      std::to_string(a.jobs));

  // Estimator agreement on fixed ungated rows, and per-row backend costs.
  campaign::CampaignSpec fixed = s.mult;
  fixed.seed = 1;
  const campaign::CampaignPlan plan =
      campaign::build_campaign(*s.lib, fixed, a.jobs);
  GridCase scm_case;
  scm_case.name = "scm0";
  scm_case.fixture = [&s] { return scm_fixture(s); };
  scm_case.rows = scm_grid(s, 1).expand();
  scm_case.cycles_per_row = s.scm.cycles + 4;
  report_backend_rows({run_backend_rows(case_from_plan(plan, "mult16"), a.jobs,
                                        r.checks),
                       run_backend_rows(scm_case, a.jobs, r.checks)},
                      r);

  const std::size_t rows = mult_rows + scm_rows;
  r.e2e["ops_per_s"] = {double(rows) / wall, "1/s"};
  r.e2e["op_p50_ms"] = {median(iter_ms[0]), "ms"};
  r.e2e["setup_s"] = {setup_s, "s"};
  char line[200];
  std::snprintf(line, sizeof line,
                "sweep_mult16_rows_per_s %.2f  sweep_scm0_rows_per_s %.2f  "
                "(%zu iterations, %zu rows, jobs %d)",
                double(mult_rows) / mult_s, double(scm_rows) / scm_s,
                iter_ms[0].size() + iter_ms[1].size(), rows, a.jobs);
  r.report.emplace_back(line);
  std::snprintf(line, sizeof line, "setup.program_fill_ms %.3f",
                s.program_fill_ms);
  r.report.emplace_back(line);
  report_cache_hits(hits, rows, r);

  if (a.trace) {
    // Engine rows of the fixed grids, from one direct run of each.
    RowCounts counts;
    engine::ResultCache own;
    counts.run(*campaign::build_campaign(*s.lib, fixed, a.jobs, &own).experiment);
    engine::SweepSpec sw = scm_grid(s, 1);
    sw.jobs(a.jobs).cache(&own);
    counts.run(engine::Experiment(std::move(sw)));
    counts.report(r);
    r.layer["obs.trace_overhead_pct"] = {
        100.0 * (median(iter_ms[1]) / median(iter_ms[0]) - 1.0), "%"};
    Tracer::get().enable(true);
    probe_layers(*s.lib, s.mult, a, true, r);
    Tracer::get().enable(false);
  }
}

} // namespace perfbench
