//===-- dist/PartitionedVector.h - Partitioner-aware container --*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The distributed container layer: a 1-D array of computation units
/// distributed over the ranks of a Comm by a core::Dist, following the
/// distributed-ranges `distributed_vector` + `span_halo` design. Each
/// rank holds the contiguous segment its partition assigns (ElemsPerUnit
/// elements of T per unit), and the container provides the two data
/// movements every model-driven workload needs:
///
///  - exchangeHalos(width): each rank obtains the `width` units adjacent
///    to its segment, through receives posted up front so the transfer
///    can overlap the interior kernel loop (startHaloExchange / wait);
///  - redistribute(newDist): the interval-overlap transfer plan — every
///    rank keeps its old∩new range in place and ships only the deltas,
///    provably the fewest bytes any redistribution between two
///    contiguous partitions can move. Sends are Payload subviews of the
///    frozen old segment: the comm layer copies nothing.
///
/// Apps built on the container shrink to their kernel loop: Jacobi and
/// the stencil construct one PartitionedVector, iterate, and let
/// engine::BalancedLoop::redistributeIfChanged() migrate the data when
/// the balancer repartitions.
///
/// The type-erased core (PartitionedStorage, byte-level) carries all
/// logic; PartitionedVector<T> is a thin typed facade over it.
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_DIST_PARTITIONEDVECTOR_H
#define FUPERMOD_DIST_PARTITIONEDVECTOR_H

#include "core/Partition.h"
#include "dist/HaloExchange.h"
#include "dist/Redistribute.h"
#include "mpp/Comm.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

namespace fupermod {
namespace dist {

/// Byte-level partitioned segment storage plus the halo/redistribute
/// orchestration. One instance per rank (SPMD-replicated construction).
class PartitionedStorage {
public:
  /// Builds rank C.rank()'s segment of \p D (unit \p U occupies global
  /// positions [Base + prefix(U))..). \p TagBase reserves three message
  /// tags (above-halo, below-halo, redistribute); give containers
  /// sharing one Comm distinct bases.
  PartitionedStorage(Comm C, const Dist &D, std::size_t BytesPerUnit,
                     std::int64_t Base = 0, int TagBase = DefaultTagBase);

  static constexpr int DefaultTagBase = 1 << 24;

  // --- geometry ----------------------------------------------------
  int rank() const { return C.rank(); }
  int ranks() const { return static_cast<int>(Starts.size()) - 1; }
  std::size_t bytesPerUnit() const { return BytesPerUnit; }
  /// Global units owned by this rank: [start(), end()).
  std::int64_t start() const {
    return Starts[static_cast<std::size_t>(C.rank())];
  }
  std::int64_t end() const {
    return Starts[static_cast<std::size_t>(C.rank()) + 1];
  }
  std::int64_t units() const { return end() - start(); }
  /// The whole domain: [domainLo(), domainHi()).
  std::int64_t domainLo() const { return Starts.front(); }
  std::int64_t domainHi() const { return Starts.back(); }
  const std::vector<std::int64_t> &starts() const { return Starts; }
  /// Rank owning global \p Unit (-1 outside the domain).
  int ownerOf(std::int64_t Unit) const {
    return ownerOfUnit(Starts, Unit);
  }

  // --- storage access ----------------------------------------------
  std::span<std::byte> localBytes() { return {Local.data(), Local.size()}; }
  std::span<const std::byte> localBytes() const {
    return {Local.data(), Local.size()};
  }
  /// Bytes of owned unit \p Unit (global index).
  std::span<std::byte> unitBytes(std::int64_t Unit);
  std::span<const std::byte> unitBytes(std::int64_t Unit) const;
  /// Replaces the local segment (sizes must match) — the kernel
  /// double-buffer handoff.
  void assignLocalBytes(std::vector<std::byte> Bytes);

  // --- halo exchange -----------------------------------------------
  /// Posts receives, fills boundary units, performs the sends, and
  /// returns the in-flight exchange; compute until wait() overlaps the
  /// transfer. Halo buffers then cover [start()-Width, start()) and
  /// [end(), end()+Width).
  HaloExchange startHaloExchange(std::int64_t Width,
                                 const BoundaryFillFn &Boundary = {});
  /// startHaloExchange + wait — the blocking convenience.
  void exchangeHalos(std::int64_t Width,
                     const BoundaryFillFn &Boundary = {});
  std::span<const std::byte> aboveBytes() const {
    return {Above.data(), Above.size()};
  }
  std::span<const std::byte> belowBytes() const {
    return {Below.data(), Below.size()};
  }
  /// Width of the last (or in-flight) halo exchange.
  std::int64_t haloWidth() const { return HaloW; }
  /// Messages sent by this rank's halo exchanges so far.
  std::int64_t haloPiecesSent() const { return HaloPieces; }

  // --- redistribution ----------------------------------------------
  /// Migrates the segment to \p NewDist with the minimal-move
  /// interval-overlap plan (collective). Halo buffers are invalidated.
  RedistributeStats redistribute(const Dist &NewDist);
  /// Times redistribute() ran (the engine tripwire counter).
  std::uint64_t redistributeCount() const { return RedistCount; }
  /// Units this rank sent + received over all redistributions.
  std::int64_t unitsTransferred() const { return UnitsMoved; }

  /// The BalancedLoop sync cursor: the loop's dist epoch this container
  /// last redistributed to (see BalancedLoop::redistributeIfChanged).
  std::uint64_t syncedEpoch() const { return SyncedEpoch; }
  void setSyncedEpoch(std::uint64_t E) { SyncedEpoch = E; }

private:
  Comm C;
  std::size_t BytesPerUnit;
  int TagBase;
  std::vector<std::int64_t> Starts;
  std::vector<std::byte> Local;
  std::vector<std::byte> Above, Below;
  std::int64_t HaloW = 0;
  std::int64_t HaloPieces = 0;
  std::uint64_t RedistCount = 0;
  std::int64_t UnitsMoved = 0;
  std::uint64_t SyncedEpoch = 0;
};

/// The typed facade: a distributed vector of T with ElemsPerUnit
/// elements per computation unit (e.g. one grid row of Cols cells, or
/// one matrix row plus its right-hand-side entry).
template <typename T> class PartitionedVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "PartitionedVector elements move as raw bytes");

public:
  /// Per-unit generator/boundary callback: fills the ElemsPerUnit
  /// elements of global unit \p Unit.
  using UnitFn = std::function<void(std::int64_t Unit, std::span<T> Out)>;

  PartitionedVector(Comm C, const Dist &D, std::int64_t ElemsPerUnit,
                    std::int64_t Base = 0,
                    int TagBase = PartitionedStorage::DefaultTagBase)
      : S(std::move(C), D,
          static_cast<std::size_t>(ElemsPerUnit) * sizeof(T), Base,
          TagBase),
        EPU(ElemsPerUnit) {}

  // --- geometry ----------------------------------------------------
  int rank() const { return S.rank(); }
  int ranks() const { return S.ranks(); }
  std::int64_t elemsPerUnit() const { return EPU; }
  std::int64_t start() const { return S.start(); }
  std::int64_t end() const { return S.end(); }
  std::int64_t units() const { return S.units(); }
  std::int64_t domainLo() const { return S.domainLo(); }
  std::int64_t domainHi() const { return S.domainHi(); }
  const std::vector<std::int64_t> &starts() const { return S.starts(); }
  int ownerOf(std::int64_t Unit) const { return S.ownerOf(Unit); }

  // --- element access ----------------------------------------------
  std::span<T> local() { return typed(S.localBytes()); }
  std::span<const T> local() const { return typed(S.localBytes()); }
  /// Elements of owned unit \p Unit (global index).
  std::span<T> unit(std::int64_t Unit) { return typed(S.unitBytes(Unit)); }
  std::span<const T> unit(std::int64_t Unit) const {
    return typed(S.unitBytes(Unit));
  }
  /// Elements of \p Unit whether owned or inside the current halo — the
  /// kernel's one accessor for neighbour units.
  std::span<const T> unitOrHalo(std::int64_t Unit) const {
    if (Unit >= S.start() && Unit < S.end())
      return unit(Unit);
    std::span<const T> A = haloAbove();
    std::int64_t W = S.haloWidth();
    if (Unit >= S.start() - W && Unit < S.start())
      return A.subspan(
          static_cast<std::size_t>((Unit - (S.start() - W)) * EPU),
          static_cast<std::size_t>(EPU));
    std::span<const T> B = haloBelow();
    assert(Unit >= S.end() && Unit < S.end() + W && "unit outside halo");
    return B.subspan(static_cast<std::size_t>((Unit - S.end()) * EPU),
                     static_cast<std::size_t>(EPU));
  }

  /// Fills every owned unit via \p Fn (initial data generation).
  void generate(const UnitFn &Fn) {
    for (std::int64_t U = start(); U < end(); ++U)
      Fn(U, unit(U));
  }

  /// Replaces the local elements (sizes must match) — the kernel
  /// double-buffer handoff.
  void assignLocal(std::vector<T> Elems) {
    std::vector<std::byte> Bytes(Elems.size() * sizeof(T));
    std::memcpy(Bytes.data(), Elems.data(), Bytes.size());
    S.assignLocalBytes(std::move(Bytes));
  }

  // --- halo exchange -----------------------------------------------
  HaloExchange startHaloExchange(std::int64_t Width,
                                 const UnitFn &Boundary = {}) {
    return S.startHaloExchange(Width, wrapBoundary(Boundary));
  }
  void exchangeHalos(std::int64_t Width, const UnitFn &Boundary = {}) {
    S.exchangeHalos(Width, wrapBoundary(Boundary));
  }
  /// Halo contents after a completed exchange: Width units each,
  /// covering [start()-Width, start()) and [end(), end()+Width).
  std::span<const T> haloAbove() const { return typed(S.aboveBytes()); }
  std::span<const T> haloBelow() const { return typed(S.belowBytes()); }
  std::int64_t haloWidth() const { return S.haloWidth(); }
  std::int64_t haloPiecesSent() const { return S.haloPiecesSent(); }

  // --- redistribution ----------------------------------------------
  RedistributeStats redistribute(const Dist &NewDist) {
    return S.redistribute(NewDist);
  }
  std::uint64_t redistributeCount() const { return S.redistributeCount(); }
  std::int64_t unitsTransferred() const { return S.unitsTransferred(); }
  std::uint64_t syncedEpoch() const { return S.syncedEpoch(); }
  void setSyncedEpoch(std::uint64_t E) { S.setSyncedEpoch(E); }

private:
  static std::span<T> typed(std::span<std::byte> B) {
    return {reinterpret_cast<T *>(B.data()), B.size() / sizeof(T)};
  }
  static std::span<const T> typed(std::span<const std::byte> B) {
    return {reinterpret_cast<const T *>(B.data()), B.size() / sizeof(T)};
  }
  BoundaryFillFn wrapBoundary(const UnitFn &Fn) {
    if (!Fn)
      return {};
    return [Fn](std::int64_t Unit, std::span<std::byte> Out) {
      Fn(Unit, {reinterpret_cast<T *>(Out.data()), Out.size() / sizeof(T)});
    };
  }

  PartitionedStorage S;
  std::int64_t EPU;
};

} // namespace dist
} // namespace fupermod

#endif // FUPERMOD_DIST_PARTITIONEDVECTOR_H
