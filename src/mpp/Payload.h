//===-- mpp/Payload.h - Shared immutable message payloads -------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reference-counted immutable payloads for the mpp runtime. A collective
/// fan-out (broadcast, pivot distribution) enqueues one Payload N times
/// instead of deep-copying the buffer per receiver, so an N-rank broadcast
/// physically copies O(size) bytes instead of O(N * size).
///
/// Ownership rules:
///  - A Payload is immutable after construction; every holder sees the
///    same bytes forever. Mutating the buffer a Payload was adopted from
///    (after adoption) is undefined behaviour.
///  - adopt()/adoptBytes() take ownership of an existing vector or array
///    with no copy; copyOf() pays the one deep copy a zero-copy fan-out
///    needs.
///  - subview() shares the owner and narrows the window: forwarding a
///    slice of a received buffer (binomial scatter) costs no copy.
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_MPP_PAYLOAD_H
#define FUPERMOD_MPP_PAYLOAD_H

#include <cassert>
#include <cstddef>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace fupermod {

/// Immutable, reference-counted byte buffer passed between ranks.
class Payload {
public:
  Payload() = default;

  /// Deep-copies \p Data into a fresh shared buffer.
  static Payload copyOf(std::span<const std::byte> Data);

  /// Takes ownership of \p Bytes without copying.
  static Payload adoptBytes(std::vector<std::byte> Bytes);

  /// Takes ownership of a typed vector without copying; the payload views
  /// its storage as bytes.
  template <typename T> static Payload adopt(std::vector<T> Data) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto Owner = std::make_shared<const std::vector<T>>(std::move(Data));
    Payload P;
    P.Bytes = std::as_bytes(std::span<const T>(*Owner));
    P.Owner = std::move(Owner);
    return P;
  }

  /// Takes ownership of the \p Count elements of \p Data without copying,
  /// so storage from std::make_unique_for_overwrite is never initialised
  /// twice: the caller writes it once, then adopts it.
  template <typename T>
  static Payload adopt(std::unique_ptr<T[]> Data, std::size_t Count) {
    static_assert(std::is_trivially_copyable_v<T>);
    Payload P;
    P.Bytes = std::as_bytes(std::span<const T>(Data.get(), Count));
    P.Owner = std::shared_ptr<const T[]>(std::move(Data));
    return P;
  }

  /// The viewed bytes (empty for a default-constructed payload).
  std::span<const std::byte> bytes() const { return Bytes; }
  std::size_t size() const { return Bytes.size(); }
  bool empty() const { return Bytes.empty(); }

  /// True when other Payload instances (or in-flight messages) share the
  /// underlying buffer.
  bool sharedBuffer() const { return Owner.use_count() > 1; }

  /// A payload sharing this one's owner but viewing only
  /// [\p Offset, \p Offset + \p Len). No bytes are copied.
  Payload subview(std::size_t Offset, std::size_t Len) const {
    assert(Offset + Len <= Bytes.size() && "subview out of range");
    Payload P;
    P.Owner = Owner;
    P.Bytes = Bytes.subspan(Offset, Len);
    return P;
  }

  /// Views the payload as \p T elements. The size must be a whole number
  /// of elements and the buffer suitably aligned — true by construction
  /// for adopt<T>() payloads and for heap buffers of fundamental types.
  template <typename T> std::span<const T> as() const {
    static_assert(std::is_trivially_copyable_v<T>);
    assert(Bytes.size() % sizeof(T) == 0 && "payload size not a multiple");
    assert(reinterpret_cast<std::uintptr_t>(Bytes.data()) % alignof(T) ==
               0 &&
           "payload misaligned for element type");
    return std::span<const T>(reinterpret_cast<const T *>(Bytes.data()),
                              Bytes.size() / sizeof(T));
  }

  /// Deep copy into a typed vector (the materialisation copy a mutable
  /// consumer pays).
  template <typename T> std::vector<T> toVector() const {
    static_assert(std::is_trivially_copyable_v<T>);
    assert(Bytes.size() % sizeof(T) == 0 && "payload size not a multiple");
    std::vector<T> Out(Bytes.size() / sizeof(T));
    if (!Out.empty())
      std::memcpy(Out.data(), Bytes.data(), Bytes.size());
    return Out;
  }

private:
  std::shared_ptr<const void> Owner;
  std::span<const std::byte> Bytes;
};

} // namespace fupermod

#endif // FUPERMOD_MPP_PAYLOAD_H
