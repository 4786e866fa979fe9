// Shared harness of the perf benchmark: run arguments, the result record
// every workload fills, output checks, timing helpers and the span
// recorder used by traced runs.
//
// Spans are recorded by the benchmark's own code around calls into the
// library's public layers (the library is not instrumented for this).
// They are kept in memory and written as one JSON file when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  std::string out_dir; ///< scratch files (netlists, sockets, caches, spans)
  int jobs{1};         ///< engine parallelism, fixed to the host's cores
};

/// One metric as printed: a value and its unit.
struct Metric {
  double value{0};
  std::string unit;
};

/// Counts attempted operations and failed output checks.
class Checks {
public:
  void attempt(std::uint64_t n = 1);
  /// Records a failure (printed to stderr) when `ok` is false.
  bool expect(bool ok, std::string_view what);
  [[nodiscard]] std::uint64_t attempted() const;
  [[nodiscard]] std::uint64_t failed() const;

private:
  mutable std::mutex m_;
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
};

/// What a workload run reports.  `e2e` carries the end-to-end metrics
/// (untraced runs), `layer` the per-layer metrics (traced runs); `report`
/// lines are printed above the final JSON line in either mode.
struct Result {
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::vector<std::string> report;
  std::string output_digest;
  Checks checks;
};

// --- timing helpers ----------------------------------------------------------

/// Set-ups per run; setup_s is their median.  Each takes tens of ms, so
/// a median of this many holds still across runs on a shared host.
inline constexpr int kSetupReps = 15;

/// Runs the set-up `fn` kSetupReps times and returns the median wall time
/// in seconds (setup_s), with a report line of its spread.  Work moved
/// into set-up shows here.
double time_setups(const std::function<void()>& fn, Result& r);

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1].
[[nodiscard]] double percentile(std::vector<double> v, double q);

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Seed for item `i` of stream `stream` of a run seeded `seed`.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream, std::uint64_t i);

/// Hex FNV-1a digest over a list of strings (order-sensitive).
[[nodiscard]] std::string digest_of(const std::vector<std::string>& parts);

// --- tracing -----------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  int parent{-1}; ///< index of the enclosing span on the same thread
  int iter{-1};   ///< workload iteration, -1 outside the timed loop
};

/// Process-wide span store.  Disabled, a Scope costs one relaxed load.
class Tracer {
public:
  static Tracer& get();

  void enable(bool on);
  [[nodiscard]] bool on() const;

  /// Iteration id stamped on spans opened by the calling thread.
  static void set_iteration(int iter);

  [[nodiscard]] int open(std::string_view name);
  void close(int id);

  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::size_t size() const;
  /// Drops every span recorded after the first `n`.
  void truncate(std::size_t n);
  void write_json(const std::string& path) const;

private:
  std::int64_t now_ns() const;

  mutable std::mutex m_;
  std::vector<Span> spans_;
  Clock::time_point epoch_{Clock::now()};
};

/// RAII span; inert while the tracer is disabled.
class Scope {
public:
  explicit Scope(std::string_view name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

private:
  int id_{-1};
};

/// Per-name span statistics from the recorded spans: calls, median
/// duration and self time (duration minus time covered by child spans).
struct LayerStat {
  std::uint64_t calls{0};
  double median_ms{0};
  double self_ms_total{0};
  double total_ms{0};
};
[[nodiscard]] std::map<std::string, LayerStat> layer_stats(
    const std::vector<Span>& spans);

/// Median cost of an empty Scope, in microseconds (the reference the
/// layer numbers are corrected by).
[[nodiscard]] double null_span_us();

/// Adds the per-layer metrics derived from the recorded spans, minus the
/// null-span reference, plus the self-time report table, and writes the
/// spans to <out_dir>/spans-<workload>-<seed>.json.
void finish_trace(const Args& a, Result& r);

} // namespace perfbench
