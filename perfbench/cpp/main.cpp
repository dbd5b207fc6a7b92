//===-- perfbench/cpp/main.cpp - Benchmark program entry point ------------===//
//
// perfbench --workload NAME --seed N --seconds S --trace 0|1
//           [--out-dir DIR] [--smoke]
//
// Runs one workload and prints, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The line
// before it records the result set's workload, seed and environment.
// A traced run also writes its spans to DIR/trace-NAME-seedN.json.
// Exits 1 when any operation failed its check, 2 on a usage error.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"
#include "Workloads.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <vector>

using namespace perfbench;

namespace {

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

/// Printed by every untraced run, in this order.
const MetricSpec EndToEnd[] = {
    {"time_to_solution_s", "s"}, {"makespan_ratio", "ratio"},
    {"setup_s", "s"},            {"correct_ratio", "ratio"},
    {"peak_rss_mib", "MiB"},
};

/// Printed by every traced run; a layer a workload does not exercise
/// reads 0.
const MetricSpec PerLayer[] = {
    {"core.campaign_ms", "ms"},
    {"core.campaign_points", "count"},
    {"core.static_solve_us", "us"},
    {"core.cold_solve_geometric_us", "us"},
    {"core.cold_solve_numerical_us", "us"},
    {"core.inverse_cache_hit_ratio", "ratio"},
    {"core.inverse_cache_lookups", "count"},
    {"engine.load_ms", "ms"},
    {"engine.refresh_us", "us"},
    {"engine.warm_solve_render_us", "us"},
    {"engine.emit_us", "us"},
    {"engine.reload_ms", "ms"},
    {"engine.reloads", "count"},
    {"engine.server_cache_hit_ratio", "ratio"},
    {"engine.server_coalesced_ratio", "ratio"},
    {"engine.server_resolve_p50_us", "us"},
    {"engine.server_shed", "count"},
    {"engine.serve_requests_per_s", "1/s"},
    {"engine.serve_latency_p50_us", "us"},
    {"engine.serve_latency_p90_us", "us"},
    {"engine.serve_latency_p99_us", "us"},
    {"engine.churn_requests_per_s", "1/s"},
    {"engine.churn_latency_p90_us", "us"},
    {"apps.execute_s", "s"},
    {"apps.layout_us", "us"},
    {"apps.virtual_makespan_s", "s"},
    {"apps.virtual_max_idle_s", "s"},
    {"apps.jacobi_solve_s", "s"},
    {"apps.jacobi_makespan_ratio", "ratio"},
    {"apps.iterations", "count"},
    {"apps.sweep_busy_s", "s"},
    {"apps.cpu_s", "s"},
    {"blas.gemm_busy_s", "s"},
    {"blas.gemm_flops", "flop"},
    {"blas.gemm_gflops", "GFLOP/s"},
    {"blas.serial_baseline_s", "s"},
    {"mpp.messages", "count"},
    {"mpp.bytes_logical", "bytes"},
    {"mpp.bytes_copied", "bytes"},
    {"mpp.channels_created", "count"},
    {"mpp.overhead_us_per_message", "us"},
    {"mpp.barrier_us", "us"},
    {"mpp.allgather_us", "us"},
    {"dist.redistribute_bytes", "bytes"},
    {"equalize.triggers", "count"},
    {"equalize.vetoes", "count"},
    {"equalize.rebalances", "count"},
    {"share.core_pct", "%"},
    {"share.engine_pct", "%"},
    {"share.apps_pct", "%"},
    {"share.blas_pct", "%"},
    {"share.mpp_pct", "%"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "matmul-static|matmul-numerical --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--smoke]\n",
               Why);
  return 2;
}

/// Shares of the traced operations' wall time per layer: the self time of
/// the spans around each layer's calls over the summed duration of the
/// operations they serve. Root spans are the benchmark's own ("bench.*")
/// and carry an operation's whole duration; the traced operations are the
/// workload's solves and the serve-repeat probe's requests.
void addSpanShares(const Tracer &T, RunResult &R) {
  const std::vector<Span> &Spans = T.spans();
  std::vector<double> SelfTime = T.selfTimes();
  std::map<std::string, double> RootTime;
  std::map<std::string, std::map<std::string, double>> SelfByRoot;
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.OpId < 0)
      continue;
    std::size_t Root = I;
    while (Spans[Root].Parent >= 0)
      Root = static_cast<std::size_t>(Spans[Root].Parent);
    if (Spans[Root].Name.rfind("bench.", 0) != 0)
      continue;
    if (Root == I)
      RootTime[S.Name] += S.duration();
    else
      SelfByRoot[S.Name.substr(0, S.Name.find('.'))][Spans[Root].Name] +=
          SelfTime[I];
  }
  for (const char *Layer : {"core", "engine", "apps"}) {
    double Self = 0.0, OpTime = 0.0;
    for (const auto &[Root, Time] : SelfByRoot[Layer]) {
      Self += Time;
      OpTime += RootTime[Root];
    }
    R.add(std::string("share.") + Layer + "_pct",
          OpTime > 0.0 ? 100.0 * Self / OpTime : 0.0, "%");
  }
  R.add("trace.spans", static_cast<double>(Spans.size()), "count");
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Key = Argv[I];
    if (Key == "--smoke") {
      A.Smoke = true;
      continue;
    }
    if (I + 1 >= Argc)
      return usage(("missing value for " + Key).c_str());
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Key == "--workload") {
      A.Workload = Value;
      HaveWorkload = true;
    } else if (Key == "--seed") {
      A.Seed = std::strtoull(Value.c_str(), &End, 10);
      HaveSeed = End && *End == '\0' && !Value.empty();
    } else if (Key == "--seconds") {
      A.Seconds = std::strtod(Value.c_str(), &End);
      HaveSeconds = End && *End == '\0' && A.Seconds > 0.0;
    } else if (Key == "--trace") {
      HaveTrace = Value == "0" || Value == "1";
      A.Trace = Value == "1";
    } else if (Key == "--out-dir") {
      A.OutDir = Value;
    } else {
      return usage(("unknown option " + Key).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--workload, --seed, --seconds and --trace are required");

  using RunFn = RunResult (*)(const Args &, Tracer &);
  const std::map<std::string, RunFn> Workloads = {
      {"matmul-static", runMatmulStatic},
      {"matmul-numerical", runMatmulNumerical},
  };
  auto It = Workloads.find(A.Workload);
  if (It == Workloads.end())
    return usage(("unknown workload " + A.Workload).c_str());

  std::error_code Ec;
  std::filesystem::create_directories(A.OutDir, Ec);
  Tracer T(A.Trace);
  RunResult R = It->second(A, T);
  if (A.Trace) {
    addSpanShares(T, R);
    std::string Path = A.OutDir + "/trace-" + A.Workload + "-seed" +
                       std::to_string(A.Seed) + ".json";
    if (T.writeChromeJson(Path))
      R.note("trace: " + std::to_string(T.spans().size()) + " spans in " +
             Path);
    else
      R.note("warning: could not write " + Path);
  }

  std::map<std::string, double> Values;
  for (const Metric &M : R.Metrics)
    Values.emplace(M.Name, M.Value); // First value of a name wins.
  bool Complete = true;
  std::string Json;
  for (const MetricSpec &S : A.Trace ? std::span<const MetricSpec>(PerLayer)
                                     : std::span<const MetricSpec>(EndToEnd)) {
    auto V = Values.find(S.Name);
    double X = V == Values.end() ? 0.0 : V->second;
    if (!std::isfinite(X) || (!A.Trace && (V == Values.end() || X == 0.0))) {
      R.note(std::string("error: end-to-end metric ") + S.Name +
             " is missing, zero or not finite");
      Complete = false;
      X = std::isfinite(X) ? X : 0.0;
    }
    Json += std::string(Json.empty() ? "" : ", ") + "\"" + S.Name +
            "\": {\"value\": " + fmt(X) + ", \"unit\": \"" + S.Unit + "\"}";
  }

  bool Correct = Complete && R.Attempted > 0 && R.Failed == 0;
  for (const std::string &Line : R.Notes)
    std::printf("# %s\n", Line.c_str());
  std::printf("{\"result_set\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %s, \"trace\": %d, \"smoke\": %s, \"env\": %s}}\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              fmt(A.Seconds).c_str(), A.Trace ? 1 : 0,
              A.Smoke ? "true" : "false", environmentJson().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              Correct ? "true" : "false", R.Attempted, R.Failed, Json.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
