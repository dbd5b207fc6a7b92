//===-- tests/PartitionedVectorTest.cpp - distributed container -----------===//
//
// The halo contract of the container, checked byte-for-byte against a
// serial reference: for every width and process count — including
// partitions with zero-unit (degraded, excluded) ranks and segments
// smaller than the halo width — each rank's above/below buffers must
// hold exactly the in-domain neighbour units, with out-of-domain units
// boundary-filled. Plus the overlapped-exchange stress that doubles as
// the ThreadSanitizer workload for the dist layer.
//
//===----------------------------------------------------------------------===//

#include "dist/PartitionedVector.h"
#include "mpp/Runtime.h"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

using namespace fupermod;
using namespace fupermod::dist;

namespace {

/// Deterministic in-domain contents of element \p Elem of unit \p Unit.
double unitValue(std::int64_t Unit, std::int64_t Elem) {
  std::uint64_t Z = static_cast<std::uint64_t>(Unit) * 0x9e3779b97f4a7c15ull +
                    static_cast<std::uint64_t>(Elem) + 1;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  return static_cast<double>(Z >> 11) * (1.0 / 9007199254740992.0);
}

/// Boundary value of out-of-domain unit \p Unit (distinct from any
/// in-domain value).
double boundaryValue(std::int64_t Unit, std::int64_t Elem) {
  return -1000.0 - static_cast<double>(Unit) -
         0.001 * static_cast<double>(Elem);
}

Dist distOf(std::span<const std::int64_t> Units) {
  Dist D;
  for (std::int64_t U : Units) {
    Part P;
    P.Units = U;
    D.Parts.push_back(P);
    D.Total += U;
  }
  return D;
}

void fillUnits(PartitionedVector<double> &V) {
  V.generate([](std::int64_t Unit, std::span<double> Out) {
    for (std::size_t E = 0; E < Out.size(); ++E)
      Out[E] = unitValue(Unit, static_cast<std::int64_t>(E));
  });
}

/// What unit \p Unit must contain when seen through a halo under the
/// serial reference: its generated value in the domain, the boundary
/// fill outside.
double expectedAt(std::int64_t Unit, std::int64_t Elem, std::int64_t DomLo,
                  std::int64_t DomHi) {
  return (Unit >= DomLo && Unit < DomHi) ? unitValue(Unit, Elem)
                                         : boundaryValue(Unit, Elem);
}

/// Exhaustive halo check of one partition at one width.
void checkHalos(std::span<const std::int64_t> Units, std::int64_t Width,
                std::int64_t EPU, std::int64_t Base) {
  Dist D = distOf(Units);
  int P = static_cast<int>(Units.size());
  SpmdResult R = runSpmd(P, [&](Comm &C) {
    PartitionedVector<double> V(C, D, EPU, Base);
    fillUnits(V);
    V.exchangeHalos(Width, [](std::int64_t Unit, std::span<double> Out) {
      for (std::size_t E = 0; E < Out.size(); ++E)
        Out[E] = boundaryValue(Unit, static_cast<std::int64_t>(E));
    });

    if (V.units() == 0) {
      // A rank with no units exchanges nothing and exposes empty halos.
      EXPECT_TRUE(V.haloAbove().empty());
      EXPECT_TRUE(V.haloBelow().empty());
      return;
    }
    std::span<const double> Above = V.haloAbove();
    std::span<const double> Below = V.haloBelow();
    ASSERT_EQ(Above.size(), static_cast<std::size_t>(Width * EPU));
    ASSERT_EQ(Below.size(), static_cast<std::size_t>(Width * EPU));
    for (std::int64_t W = 0; W < Width; ++W)
      for (std::int64_t E = 0; E < EPU; ++E) {
        std::int64_t AUnit = V.start() - Width + W;
        ASSERT_EQ(Above[static_cast<std::size_t>(W * EPU + E)],
                  expectedAt(AUnit, E, V.domainLo(), V.domainHi()))
            << "above unit " << AUnit << " elem " << E;
        std::int64_t BUnit = V.end() + W;
        ASSERT_EQ(Below[static_cast<std::size_t>(W * EPU + E)],
                  expectedAt(BUnit, E, V.domainLo(), V.domainHi()))
            << "below unit " << BUnit << " elem " << E;
      }

    // unitOrHalo spans the whole window [start - Width, end + Width).
    for (std::int64_t U = V.start() - Width; U < V.end() + Width; ++U) {
      std::span<const double> Row = V.unitOrHalo(U);
      ASSERT_EQ(Row.size(), static_cast<std::size_t>(EPU));
      for (std::int64_t E = 0; E < EPU; ++E)
        ASSERT_EQ(Row[static_cast<std::size_t>(E)],
                  expectedAt(U, E, V.domainLo(), V.domainHi()));
    }
  });
  ASSERT_TRUE(R.allOk());
  // The halo path stages into adopted payloads and assembles from shared
  // ones: the comm layer must copy nothing.
  EXPECT_EQ(R.Comm.BytesCopied, 0u);
  EXPECT_EQ(R.Comm.HaloBytes, R.Comm.BytesLogical);
}

} // namespace

TEST(PartitionedVector, GeometryAndAccess) {
  std::vector<std::int64_t> Units = {3, 0, 2};
  Dist D = distOf(Units);
  SpmdResult R = runSpmd(3, [&](Comm &C) {
    PartitionedVector<double> V(C, D, 4, /*Base=*/10);
    EXPECT_EQ(V.domainLo(), 10);
    EXPECT_EQ(V.domainHi(), 15);
    EXPECT_EQ(V.elemsPerUnit(), 4);
    switch (C.rank()) {
    case 0:
      EXPECT_EQ(V.start(), 10);
      EXPECT_EQ(V.end(), 13);
      break;
    case 1:
      EXPECT_EQ(V.units(), 0);
      break;
    case 2:
      EXPECT_EQ(V.start(), 13);
      EXPECT_EQ(V.end(), 15);
      break;
    }
    EXPECT_EQ(V.ownerOf(10), 0);
    EXPECT_EQ(V.ownerOf(12), 0);
    EXPECT_EQ(V.ownerOf(13), 2);
    EXPECT_EQ(V.ownerOf(15), -1);
    EXPECT_EQ(V.ownerOf(9), -1);

    fillUnits(V);
    for (std::int64_t U = V.start(); U < V.end(); ++U)
      EXPECT_EQ(V.unit(U)[0], unitValue(U, 0));
    EXPECT_EQ(V.local().size(), static_cast<std::size_t>(V.units() * 4));
  });
  ASSERT_TRUE(R.allOk());
}

TEST(PartitionedVector, HaloExactnessAcrossWidthsAndGroupSizes) {
  // The issue's matrix: widths {1,2,3} at P in {1,2,3,5,8}, partitions
  // both even and lopsided.
  for (int P : {1, 2, 3, 5, 8})
    for (std::int64_t Width : {1, 2, 3}) {
      std::vector<std::int64_t> Even;
      for (int Q = 0; Q < P; ++Q)
        Even.push_back(4 + (Q % 2));
      SCOPED_TRACE("P=" + std::to_string(P) + " W=" + std::to_string(Width));
      checkHalos(Even, Width, /*EPU=*/3, /*Base=*/0);
      checkHalos(Even, Width, /*EPU=*/1, /*Base=*/1);
    }
}

TEST(PartitionedVector, HaloSpansTinyAndZeroUnitSegments) {
  // Degraded-rank shapes: zero-unit ranks inside the rank order and
  // one-unit segments narrower than the halo width, so a window crosses
  // several owners and skips excluded ranks.
  std::vector<std::vector<std::int64_t>> Shapes = {
      {0, 5, 0, 5, 0},    // excluded ranks at the edges and middle
      {1, 1, 1, 1, 1},    // every segment thinner than width 3
      {2, 0, 1, 0, 7},    // mixed: holes between tiny and large segments
      {0, 0, 6, 0, 0},    // a single surviving rank
  };
  for (const auto &Shape : Shapes)
    for (std::int64_t Width : {1, 2, 3}) {
      SCOPED_TRACE("W=" + std::to_string(Width));
      checkHalos(Shape, Width, /*EPU=*/2, /*Base=*/0);
    }
}

TEST(PartitionedVector, RedistributePreservesContentAndCounts) {
  std::vector<std::int64_t> OldUnits = {6, 2, 4};
  std::vector<std::int64_t> NewUnits = {2, 8, 2};
  Dist OldD = distOf(OldUnits);
  Dist NewD = distOf(NewUnits);
  SpmdResult R = runSpmd(3, [&](Comm &C) {
    PartitionedVector<double> V(C, OldD, 3);
    fillUnits(V);
    EXPECT_EQ(V.redistributeCount(), 0u);
    V.redistribute(NewD);
    EXPECT_EQ(V.redistributeCount(), 1u);
    for (std::int64_t U = V.start(); U < V.end(); ++U)
      for (std::int64_t E = 0; E < 3; ++E)
        EXPECT_EQ(V.unit(U)[static_cast<std::size_t>(E)], unitValue(U, E));
    // Redistributing to the same partition again moves nothing.
    RedistributeStats S = V.redistribute(NewD);
    EXPECT_EQ(S.UnitsSent, 0);
    EXPECT_EQ(S.UnitsReceived, 0);
    EXPECT_EQ(S.UnitsKept, V.units());
  });
  ASSERT_TRUE(R.allOk());
}

TEST(PartitionedVectorStress, OverlappedHalosUnderRepartitionChurn) {
  // The TSan workload: every iteration starts a halo exchange, mutates
  // the local segment while the receives are still in flight (legal: the
  // sends stage their bytes up front), completes the exchange, verifies
  // it, and then migrates the whole container to a new partition. Run
  // under -DFUPERMOD_SANITIZE=thread this exercises every cross-thread
  // handoff of the dist layer.
  const int P = 5;
  const std::int64_t N = 24;
  const std::int64_t EPU = 3;
  // A deterministic partition schedule, shared by all ranks; includes
  // zero-unit and single-unit segments.
  std::vector<std::vector<std::int64_t>> Schedule = {
      {5, 5, 5, 5, 4}, {1, 9, 0, 10, 4}, {0, 0, 24, 0, 0},
      {8, 1, 6, 1, 8}, {24, 0, 0, 0, 0}, {4, 5, 6, 5, 4},
  };
  // Every partition covers the same N-unit domain.
  for (const std::vector<std::int64_t> &Units : Schedule)
    ASSERT_EQ(std::accumulate(Units.begin(), Units.end(), std::int64_t{0}),
              N);
  SpmdResult R = runSpmd(P, [&](Comm &C) {
    PartitionedVector<double> V(C, distOf(Schedule.front()), EPU);
    fillUnits(V);
    for (int It = 0; It < 48; ++It) {
      std::int64_t Width = 1 + It % 3;
      HaloExchange Ex =
          V.startHaloExchange(Width, [](std::int64_t Unit,
                                        std::span<double> Out) {
            for (std::size_t E = 0; E < Out.size(); ++E)
              Out[E] = boundaryValue(Unit, static_cast<std::int64_t>(E));
          });
      // Overlapped "kernel": rewrite the local segment while the
      // exchange is pending (same values, so later checks stay valid —
      // but a leaked reference into the send path would race here).
      fillUnits(V);
      Ex.wait();
      for (std::int64_t U = V.start() - Width; U < V.end() + Width; ++U) {
        if (V.units() == 0)
          break;
        std::span<const double> Row = V.unitOrHalo(U);
        for (std::int64_t E = 0; E < EPU; ++E)
          ASSERT_EQ(Row[static_cast<std::size_t>(E)],
                    expectedAt(U, E, V.domainLo(), V.domainHi()));
      }
      V.redistribute(
          distOf(Schedule[static_cast<std::size_t>(It + 1) %
                          Schedule.size()]));
      for (std::int64_t U = V.start(); U < V.end(); ++U)
        for (std::int64_t E = 0; E < EPU; ++E)
          ASSERT_EQ(V.unit(U)[static_cast<std::size_t>(E)],
                    unitValue(U, E));
    }
  });
  ASSERT_TRUE(R.allOk());
  EXPECT_EQ(R.Comm.BytesCopied, 0u);
  EXPECT_GT(R.Comm.HaloBytes, 0u);
  EXPECT_GT(R.Comm.RedistributeBytes, 0u);
}
