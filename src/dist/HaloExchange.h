//===-- dist/HaloExchange.h - Overlappable halo exchange --------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The halo protocol behind PartitionedVector::exchangeHalos(): every
/// rank owning units [S, E) of a contiguous 1-D partition obtains the
/// \c Width units above ([S - Width, S)) and below ([E, E + Width)) its
/// range. Because partitions can carry tiny or zero-unit segments (a
/// degraded rank is excluded with zero units), a halo window may span
/// several owners — the plan is built generically from interval overlaps,
/// one message per (peer, side) with a non-empty overlap.
///
/// Receives are nonblocking (Comm::irecv), posted before the sends, so
/// the transfer overlaps whatever the caller computes between
/// startHaloExchange() and HaloExchange::wait() — typically the interior
/// kernel loop, which needs no halo data. Sends stage the boundary units
/// into an adopted payload (classified TrafficClass::Halo), so the comm
/// layer copies nothing.
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_DIST_HALOEXCHANGE_H
#define FUPERMOD_DIST_HALOEXCHANGE_H

#include "dist/Redistribute.h"
#include "mpp/Comm.h"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace fupermod {
namespace dist {

/// One rank's halo traffic for a given width: what it contributes to its
/// peers' halos and which pieces fill its own. Pieces are ordered by
/// ascending peer; Side refers to the *receiver's* buffer the piece
/// lands in.
struct HaloPlan {
  enum class Side { Above, Below };
  struct Piece {
    int Peer = -1;
    Interval Range;
    Side Dst = Side::Above;
  };
  /// Overlaps of my range with each peer's halo windows (what I send).
  std::vector<Piece> Sends;
  /// Overlaps of each peer's range with my two windows (what I receive);
  /// above pieces first, then below, each by ascending peer.
  std::vector<Piece> Recvs;
  /// My full windows, unclamped: [S - Width, S) and [E, E + Width).
  /// Units outside the partition domain are boundary-filled, not
  /// received. Both empty for a rank with no units.
  Interval AboveWindow;
  Interval BelowWindow;
  /// The receivable (in-domain) parts of the windows; the receive pieces
  /// cover them exactly. The window remainder is physical boundary.
  Interval AboveInDomain;
  Interval BelowInDomain;
};

/// Builds rank \p Me's halo plan for \p Width units per side under the
/// prefix-start array \p Starts. A rank with no units exchanges nothing.
HaloPlan buildHaloPlan(std::span<const std::int64_t> Starts, int Me,
                       std::int64_t Width);

/// Fills out-of-domain halo units (the physical boundary). Called once
/// per unit with the destination bytes of that unit; absent callbacks
/// zero-fill.
using BoundaryFillFn =
    std::function<void(std::int64_t Unit, std::span<std::byte> Out)>;

/// A halo exchange in flight: the sends have been performed and the
/// receives posted. wait() completes the receives (advancing the virtual
/// clock to the message arrivals) and assembles the above/below buffers.
/// Compute performed between start and wait() overlaps the transfer.
/// Destroying a still-pending exchange drains the posted receives
/// without assembling (so no message is forfeited), swallowing poison
/// errors.
class HaloExchange {
public:
  HaloExchange() = default;
  HaloExchange(HaloExchange &&) = default;
  HaloExchange &operator=(HaloExchange &&Other);
  HaloExchange(const HaloExchange &) = delete;
  HaloExchange &operator=(const HaloExchange &) = delete;
  ~HaloExchange();

  /// True while receives are outstanding.
  bool pending() const { return !Pending.empty(); }

  /// Messages this exchange sent (one per peer/side overlap).
  std::int64_t piecesSent() const { return PiecesSent; }

  /// Completes all posted receives in posting order and copies each
  /// payload into its halo-buffer slot.
  void wait();

private:
  friend HaloExchange startHaloExchange(Comm &, const HaloPlan &,
                                        std::size_t, std::int64_t,
                                        std::span<const std::byte>,
                                        std::span<std::byte>,
                                        std::span<std::byte>,
                                        const BoundaryFillFn &, int);

  struct PendingPiece {
    RecvRequest Req;
    std::span<std::byte> Dst;
  };
  std::vector<PendingPiece> Pending;
  std::int64_t PiecesSent = 0;
};

/// Executes the send half of \p Plan and posts its receives, collectively
/// on \p C. \p Local views the rank's units starting at global unit
/// \p LocalStart (each \p BytesPerUnit bytes); \p Above / \p Below are
/// the halo destinations covering the plan's windows. Out-of-domain
/// window units are filled via \p Boundary immediately. Above-destined
/// messages use \p TagBase, below-destined \p TagBase + 1.
HaloExchange startHaloExchange(Comm &C, const HaloPlan &Plan,
                               std::size_t BytesPerUnit,
                               std::int64_t LocalStart,
                               std::span<const std::byte> Local,
                               std::span<std::byte> Above,
                               std::span<std::byte> Below,
                               const BoundaryFillFn &Boundary, int TagBase);

} // namespace dist
} // namespace fupermod

#endif // FUPERMOD_DIST_HALOEXCHANGE_H
