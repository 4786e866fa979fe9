#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "util/hash.hpp"
#include "util/json.hpp"

namespace perfbench {

// --- checks ------------------------------------------------------------------

void Checks::attempt(std::uint64_t n) {
  const std::lock_guard lock(m_);
  attempted_ += n;
}

bool Checks::expect(bool ok, std::string_view what) {
  if (ok) return true;
  const std::lock_guard lock(m_);
  ++failed_;
  std::cerr << "perfbench: check failed: " << what << "\n";
  return false;
}

std::uint64_t Checks::attempted() const {
  const std::lock_guard lock(m_);
  return attempted_;
}

std::uint64_t Checks::failed() const {
  const std::lock_guard lock(m_);
  return failed_;
}

// --- timing helpers ----------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = std::size_t(q * double(v.size()));
  return v[std::min(v.size() - 1, rank)];
}

double time_setups(const std::function<void()>& fn, Result& r) {
  std::vector<double> t;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0));
  }
  const double med = median(t);
  char line[160];
  std::snprintf(line, sizeof line,
                "setup_s %.6f  (median of %d set-ups, min %.6f, max %.6f)",
                med, kSetupReps, *std::min_element(t.begin(), t.end()),
                *std::max_element(t.begin(), t.end()));
  r.report.emplace_back(line);
  return med;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0; // Linux reports KiB
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t i) {
  scpg::Fnv1a h;
  h.mix(seed);
  h.mix(stream);
  h.mix(i);
  return h.digest();
}

std::string digest_of(const std::vector<std::string>& parts) {
  scpg::Fnv1a h;
  for (const std::string& p : parts) h.mix(std::string_view(p));
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h.digest()));
  return buf;
}

// --- tracing -----------------------------------------------------------------

namespace {

std::atomic<bool> g_trace_on{false};
thread_local std::vector<int> t_stack;
thread_local int t_iter = -1;

} // namespace

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

void Tracer::enable(bool on) { g_trace_on.store(on, std::memory_order_relaxed); }

bool Tracer::on() const { return g_trace_on.load(std::memory_order_relaxed); }

void Tracer::set_iteration(int iter) { t_iter = iter; }

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int Tracer::open(std::string_view name) {
  Span s;
  s.name = std::string(name);
  s.parent = t_stack.empty() ? -1 : t_stack.back();
  s.iter = t_iter;
  int id = 0;
  {
    const std::lock_guard lock(m_);
    id = int(spans_.size());
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
  }
  t_stack.push_back(id);
  return id;
}

void Tracer::close(int id) {
  const std::int64_t end = now_ns();
  if (!t_stack.empty() && t_stack.back() == id) t_stack.pop_back();
  const std::lock_guard lock(m_);
  spans_[std::size_t(id)].end_ns = end;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard lock(m_);
  return spans_;
}

std::size_t Tracer::size() const {
  const std::lock_guard lock(m_);
  return spans_.size();
}

void Tracer::truncate(std::size_t n) {
  const std::lock_guard lock(m_);
  if (n < spans_.size()) spans_.resize(n);
}

void Tracer::write_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream os(path);
  os << "{\"spans\": [";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::string name;
    scpg::json::append_quoted(name, s.name);
    os << (i == 0 ? "\n" : ",\n") << "{\"id\": " << i << ", \"name\": " << name
       << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
       << ", \"parent\": " << s.parent << ", \"iter\": " << s.iter << "}";
  }
  os << "\n]}\n";
}

Scope::Scope(std::string_view name) {
  if (Tracer::get().on()) id_ = Tracer::get().open(name);
}

Scope::~Scope() {
  if (id_ >= 0) Tracer::get().close(id_);
}

std::map<std::string, LayerStat> layer_stats(const std::vector<Span>& spans) {
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0)
      child_ms[std::size_t(s.parent)] += double(s.end_ns - s.start_ns) * 1e-6;
  std::map<std::string, std::vector<double>> durations;
  std::map<std::string, LayerStat> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double ms = double(s.end_ns - s.start_ns) * 1e-6;
    durations[s.name].push_back(ms);
    LayerStat& st = out[s.name];
    ++st.calls;
    st.total_ms += ms;
    st.self_ms_total += ms - child_ms[i];
  }
  for (auto& [name, st] : out) st.median_ms = median(durations[name]);
  return out;
}

double null_span_us() {
  Tracer& t = Tracer::get();
  const bool was_on = t.on();
  const std::size_t before = t.size();
  t.enable(true);
  std::vector<double> per_batch;
  constexpr int kBatch = 1000;
  for (int b = 0; b < 9; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kBatch; ++i) {
      const Scope s("null");
    }
    per_batch.push_back(seconds_since(t0) * 1e6 / kBatch);
  }
  // The reference spans are not part of the run's trace.
  t.truncate(before);
  t.enable(was_on);
  return median(std::move(per_batch));
}

void finish_trace(const Args& a, Result& r) {
  // Layer spans whose median per-call duration is a per-layer metric.
  static const std::pair<const char*, const char*> kTimed[] = {
      {"netlist.read_verilog", "netlist.read_verilog_ms"},
      {"policy.apply", "policy.apply_ms"},
      {"sta.model_extract", "sta.model_extract_ms"},
      {"lint.gate", "lint.gate_ms"},
      {"campaign.build", "campaign.build_ms"},
      {"sim.compiled.levelize", "sim.compiled.levelize_ms"},
      {"serve.render", "serve.render_ms"},
      {"serve.ping", "serve.ping_rtt_ms"},
  };
  const std::vector<Span> spans = Tracer::get().spans();
  const std::string path = a.out_dir + "/spans-" + a.workload + "-" +
                           std::to_string(a.seed) + ".json";
  Tracer::get().write_json(path);
  const double null_us = null_span_us();
  r.layer["obs.null_span_us"] = {null_us, "us"};
  const std::map<std::string, LayerStat> stats = layer_stats(spans);
  for (const auto& [span, metric] : kTimed) {
    const auto it = stats.find(span);
    const double ms = it == stats.end() ? 0.0 : it->second.median_ms;
    r.layer[metric] = {std::max(0.0, ms - null_us * 1e-3), "ms"};
  }
  r.report.push_back("trace: " + std::to_string(spans.size()) +
                     " spans written to " + path);
  r.report.push_back("trace: layer self time (null span " +
                     std::to_string(null_us) + " us subtracted per call)");
  for (const auto& [name, st] : stats) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "  %-28s calls=%-6llu median_ms=%-10.4f self_ms=%-10.3f "
                  "total_ms=%.3f",
                  name.c_str(), static_cast<unsigned long long>(st.calls),
                  st.median_ms - null_us * 1e-3,
                  st.self_ms_total - double(st.calls) * null_us * 1e-3,
                  st.total_ms);
    r.report.emplace_back(line);
  }
}

} // namespace perfbench
