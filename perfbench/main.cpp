// perfbench: the repository's perf benchmark (see NOTES.md).
//
//   perfbench --workload <sweep_gated|paper_repro|serve_mixed> --seed <n>
//             --seconds <s> --trace <0|1> --out-dir <dir>
//
// Prints a machine fingerprint and a human-readable report, then as its
// last line one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics untraced, the per-layer metrics traced.  Exits 1
// when an output check failed, 2 on bad arguments or a run error.
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "harness.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

void print_metrics(const std::map<std::string, Metric>& m) {
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<sweep_gated|paper_repro|serve_mixed> --seed <n> --seconds "
               "<s> --trace <0|1> --out-dir <dir>\n",
               why);
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out-dir") a.out_dir = v;
    else return usage(("unknown option " + k).c_str());
  }
  if (argc % 2 != 1) return usage("options take one value each");
  if (a.out_dir.empty()) return usage("--out-dir is required");
  if (a.seconds <= 0) return usage("--seconds must be positive");
  const auto run = a.workload == "sweep_gated"   ? run_sweep_gated
                   : a.workload == "paper_repro" ? run_paper_repro
                   : a.workload == "serve_mixed" ? run_serve_mixed
                                                 : nullptr;
  if (run == nullptr) return usage("unknown --workload");
  ::mkdir(a.out_dir.c_str(), 0755);

  // Engine parallelism is fixed, never above the host's cores, and pinned
  // for the fixtures that ask for default_jobs().
  const int nproc = int(std::max(1u, std::thread::hardware_concurrency()));
  a.jobs = std::min(4, nproc);
  ::setenv("SCPG_JOBS", std::to_string(a.jobs).c_str(), 1);
  ::unsetenv("SCPG_BACKEND");

  std::printf("fingerprint: nproc=%d cpu=\"%s\" compiler=\"g++ %s\" "
              "build_type=%s SCPG_OBS=%s jobs=%d\n",
              nproc, cpu_model().c_str(), __VERSION__, PERFBENCH_BUILD_TYPE,
              PERFBENCH_OBS ? "ON" : "OFF", a.jobs);
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, int(a.trace));
  std::fflush(stdout);

  Result r;
  try {
    run(a, r);
    if (a.trace) finish_trace(a, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", a.workload.c_str(),
                 e.what());
    return 2;
  }
  r.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  const std::uint64_t attempted = std::max<std::uint64_t>(r.checks.attempted(), 1);
  const std::uint64_t failed = r.checks.failed();
  r.layer["fail_ratio"] = {double(failed) / double(attempted), "ratio"};

  for (const std::string& line : r.report) std::printf("%s\n", line.c_str());
  std::printf("output_digest %s\n", r.output_digest.c_str());
  std::printf("fail_ratio %.6f  (%llu failed of %llu attempted)\n",
              double(failed) / double(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  const auto& shown = a.trace ? r.layer : r.e2e;
  for (const auto& [name, m] : shown)
    std::printf("metric %-34s %.6g %s\n", name.c_str(), m.value,
                m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  print_metrics(shown);
  std::printf("}}\n");
  return failed == 0 ? 0 : 1;
}
