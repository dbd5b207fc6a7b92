//===-- perfbench/cpp/Probes.cpp - Shared metrics and layer probes --------===//

#include "Stats.h"
#include "Workloads.h"

#include "engine/Session.h"
#include "mpp/Comm.h"
#include "mpp/Runtime.h"

#include <array>
#include <span>
#include <string>

using namespace perfbench;
using namespace fupermod;

CollectiveCost perfbench::probeCollectives(int P, std::size_t FragmentDoubles,
                                           int Reps) {
  std::vector<double> Barrier, Allgather;
  for (int Round = 0; Round < 3; ++Round) {
    double BarrierSeconds = 0.0, AllgatherSeconds = 0.0;
    runSpmd(P, [&](Comm &C) {
      std::vector<double> Fragment(FragmentDoubles, C.rank());
      C.barrier();
      double T0 = now();
      for (int I = 0; I < Reps; ++I)
        C.barrier();
      double T1 = now();
      for (int I = 0; I < Reps; ++I)
        (void)C.allgatherv(std::span<const double>(Fragment));
      C.barrier();
      if (C.rank() == 0) {
        BarrierSeconds = T1 - T0;
        AllgatherSeconds = now() - T1;
      }
    });
    Barrier.push_back(BarrierSeconds / Reps);
    Allgather.push_back(AllgatherSeconds / Reps);
  }
  return {median(Barrier) * 1e6, median(Allgather) * 1e6};
}

InverseCacheCounts perfbench::inverseCacheCounts(engine::Session &S) {
  InverseCacheCounts C;
  for (int Rank = 0; Rank < S.rankCount(); ++Rank) {
    C.Hits += static_cast<double>(S.model(Rank)->cacheHits());
    C.Lookups += static_cast<double>(S.model(Rank)->cacheLookups());
  }
  return C;
}

void perfbench::addInverseCache(RunResult &R, const InverseCacheCounts &C) {
  R.add("core.inverse_cache_hit_ratio",
        C.Lookups > 0 ? C.Hits / C.Lookups : 0.0, "ratio");
  R.add("core.inverse_cache_lookups", C.Lookups, "count");
}

double SplitLatencies::overheadPct() const {
  double U = median(Untraced);
  return U > 0.0 ? 100.0 * (median(Traced) - U) / U : 0.0;
}

void perfbench::addEndToEnd(RunResult &R, const std::vector<double> &Latency,
                            double MakespanRatio,
                            const std::vector<double> &SetupTimes,
                            double PeakRssMib) {
  R.add("time_to_solution_s", median(Latency), "s");
  R.add("makespan_ratio", MakespanRatio, "ratio");
  R.add("setup_s", median(SetupTimes), "s");
  R.add("correct_ratio",
        R.Attempted ? static_cast<double>(R.Attempted - R.Failed) /
                          static_cast<double>(R.Attempted)
                    : 0.0,
        "ratio");
  R.add("peak_rss_mib", PeakRssMib, "MiB");

  auto Summary = [](const std::vector<double> &V) {
    std::array<double, 3> Q = quartiles(V);
    return std::to_string(V.size()) + " samples, quartiles " +
           fmt(Q[0], 4) + " / " + fmt(Q[1], 4) + " / " + fmt(Q[2], 4) + " s";
  };
  std::string P90 =
      percentileReportable(90.0, Latency.size())
          ? fmt(percentile(Latency, 90.0), 4) + " s"
          : "not reported (fewer than " +
                std::to_string(MinTailSamples) + " samples beyond it)";
  R.note("time_to_solution_s: " + Summary(Latency) + "; p90 " + P90);
  R.note("setup_s: " + Summary(SetupTimes));
}
