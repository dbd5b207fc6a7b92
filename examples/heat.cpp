//===-- examples/heat.cpp - self-balancing heat simulation ----------------===//
//
// The application class the paper's introduction motivates (computer
// simulations / CFD): an explicit 2D heat stencil whose band distribution
// rebalances itself at runtime, with halo exchange between neighbouring
// devices. Demonstrates the dynamic load balancer on a point-to-point
// communication pattern, gated by the platform's `equalize threshold`
// policy (the rebalance threshold of paper ref [6]).
//
//===----------------------------------------------------------------------===//

#include "apps/Stencil.h"
#include "core/Metrics.h"
#include "support/Table.h"

#include <iostream>

using namespace fupermod;

int main() {
  std::cout << "Self-balancing 2D heat simulation\n"
            << "=================================\n\n";

  Cluster Cl = makeHclLikeCluster(false);
  Cl.NoiseSigma = 0.01;
  // The `.cluster` line `equalize threshold threshold 0.10`: rebalance
  // only when the imbalance rises 10% above what balancing achieved.
  Cl.Equalize.Policy = "threshold";
  Cl.Equalize.TriggerThreshold = 0.10;

  StencilOptions O;
  O.Rows = 122; // 120 interior rows over 6 devices.
  O.Cols = 96;
  O.Iterations = 25;
  O.Balance = true;

  std::cout << "grid " << O.Rows << "x" << O.Cols << " on " << Cl.size()
            << " heterogeneous devices; rebalance threshold "
            << Cl.Equalize.TriggerThreshold << "\n\n";

  StencilReport R = runStencil(Cl, O);

  Table T({"iter", "rows(slowest)", "rows(fastest)", "imbalance"});
  for (std::size_t It = 0; It < R.Iterations.size(); It += 4) {
    const StencilIteration &Iter = R.Iterations[It];
    T.addRow({Table::num(static_cast<long long>(It + 1)),
              Table::num(Iter.Rows.back()), Table::num(Iter.Rows.front()),
              Table::num(imbalance(Iter.ComputeTimes), 3)});
  }
  T.print(std::cout);

  std::cout << "\nmakespan: " << R.Makespan << " s; halo rows sent: "
            << R.HaloRowsSent << "; balancer ran in " << R.Rebalances
            << "/" << O.Iterations << " iterations\n"
            << "verification |parallel - serial|_max = " << R.MaxError
            << "\n";

  StencilOptions Off = O;
  Off.Balance = false;
  StencilReport Plain = runStencil(Cl, Off);
  std::cout << "static-even makespan for comparison: " << Plain.Makespan
            << " s\n";
  return R.MaxError < 1e-9 ? 0 : 1;
}
