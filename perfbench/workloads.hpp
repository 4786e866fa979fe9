// The three workloads and the helpers they share: the layer probes,
// single-backend row re-runs, result-row accounting and output checks.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "engine/sweep.hpp"
#include "harness.hpp"
#include "tech/library.hpp"

namespace perfbench {

namespace campaign = scpg::campaign;
namespace engine = scpg::engine;

void run_sweep_gated(const Args& a, Result& r);
void run_paper_repro(const Args& a, Result& r);
void run_serve_mixed(const Args& a, Result& r);

/// Installs the engine's design gate wrapped so every call records a
/// "lint.gate" span: with `lint`, the linter the way scpgc installs it
/// (lint::install_engine_gate()); without, the default Netlist::check()
/// gate the bench binaries run under.
void install_timed_gate(bool lint);

/// Writes the n-bit multiplier as structural Verilog to `path`.
void write_multiplier(const scpg::Library& lib, int bits,
                      const std::string& path);

// --- result-row accounting ---------------------------------------------------

/// engine.* counts over the rows of Experiment::run results.
struct RowCounts {
  std::uint64_t rows{0};
  std::uint64_t compiled{0};
  std::uint64_t units{0}; ///< execution units, as the engine reports them

  /// Runs `exp` once with the library's own tracing on and adds its rows,
  /// its compiled rows and the units its engine.sweep span reports.
  void run(const engine::Experiment& exp);
  /// Adds engine.rows / compiled_share / lanes_per_unit.
  void report(Result& r) const;
};

/// Adds engine.cache_hit_ratio (result rows served from the cache) and
/// its report line.
void report_cache_hits(std::uint64_t hits, std::uint64_t rows, Result& r);

// --- output checks -----------------------------------------------------------

/// A `scpgc sweep --json` body: the row count matches the grid and every
/// measured power is finite and positive.  Returns the measured-row count
/// (ungated rows plus gated rows present), 0 when the body fails.
std::size_t check_sweep_body(const std::string& body, int points,
                             Checks& checks);

/// Every row's power is finite and positive, and the count is `expect`.
void check_rows(const engine::SweepResult& res, std::size_t expect,
                std::string_view what, Checks& checks);

/// `body` with its `"jobs": <n>` payload field rewritten to 1, so bodies
/// rendered at different job counts compare byte for byte.
[[nodiscard]] std::string without_jobs(std::string body);

/// Bit-exact text of every row's measurement, for digests and equality.
[[nodiscard]] std::string rows_text(const engine::SweepResult& res);

// --- single-backend row re-runs ----------------------------------------------

/// One design's grid, rebuildable on any backend: `fixture` returns a
/// SweepSpec holding the designs and shared fixture (no points, backend,
/// cache or jobs); `rows` are the grid's points.
struct GridCase {
  std::string name;
  std::function<engine::SweepSpec()> fixture;
  std::vector<engine::OperatingPoint> rows;
  int cycles_per_row{0}; ///< warm-up plus measured cycles
};

/// The ungated/gated rows of a canonical campaign plan as a GridCase
/// (the plan must outlive the case).
[[nodiscard]] GridCase case_from_plan(const campaign::CampaignPlan& plan,
                                      const std::string& name);

/// Re-runs a case's ungated rows on the event and compiled backends and
/// its gated rows on the event backend (fixed seed, cold caches), and
/// packs the ungated rows 64 seeds per unit on the compiled kernel.
struct BackendRows {
  double gap_pct{0};           ///< max |compiled - event| / event power
  double compiled_row_ms{0};
  double event_ungated_row_ms{0};
  double event_gated_row_ms{0};
  double lane_cycles_per_s{0};  ///< compiled, 64 lanes per unit
};
[[nodiscard]] BackendRows run_backend_rows(const GridCase& c, int jobs,
                                           Checks& checks);

/// Folds several cases' BackendRows into the per-layer sim.* metrics and
/// backend_gap_pct (reported on every run).
void report_backend_rows(const std::vector<BackendRows>& rows, Result& r);

// --- layer probes ------------------------------------------------------------

/// Requests per coalesced batch from a serve `stats` op body.
[[nodiscard]] double batch_size(const std::string& stats_body);

/// Times each public layer call on `spec`'s netlist file, five times,
/// under the layer's span: read_verilog, Policy::apply, model extract,
/// the installed lint gate, build_campaign, first get_program with a
/// fresh library (levelize), render_sweep_body and ResultCache::find.
/// With `with_server`, also starts a Server and times pings and a
/// coalesced pair of sweeps (serve.batch_size).
void probe_layers(const scpg::Library& lib, campaign::CampaignSpec spec,
                  const Args& a, bool with_server, Result& r);

} // namespace perfbench
