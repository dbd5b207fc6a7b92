//===-- support/Hash.h - FNV-1a content digests -----------------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The FNV-1a 64 digests behind the pinned result hashes, the bench
/// tripwires and the serve path's model-file fingerprints. fnv1a() is the
/// one byte-serial FNV-1a; fnv1aStriped() spreads the same step over
/// eight independent chains for digests of large buffers, and
/// Fnv1aStriped computes that digest over bytes that arrive in pieces.
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_SUPPORT_HASH_H
#define FUPERMOD_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>
#include <span>

namespace fupermod {

/// The FNV-1a 64 offset basis: the digest of no bytes.
inline constexpr std::uint64_t Fnv1aBasis = 0xcbf29ce484222325ull;

/// Byte-wise FNV-1a 64 of \p Data, continuing from \p Hash: each byte is
/// xored into the low byte of the state, which is then multiplied by the
/// FNV prime. fnv1a(B, fnv1a(A)) equals fnv1a of A followed by B.
std::uint64_t fnv1a(std::span<const std::byte> Data,
                    std::uint64_t Hash = Fnv1aBasis);

/// The striped FNV-1a 64 of a byte stream, taken in pieces: after any
/// sequence of update() calls, digest() equals fnv1aStriped() of the
/// pieces' concatenation, wherever the pieces were split.
class Fnv1aStriped {
public:
  /// Feeds \p Data, the next bytes of the stream.
  void update(std::span<const std::byte> Data);

  /// The digest of every byte fed so far; feeding may continue after it.
  std::uint64_t digest() const;

private:
  static constexpr std::size_t Lanes = 8;
  /// Lane J is the fnv1a() chain of stream bytes J, J + 8, J + 16, ...
  std::uint64_t Lane[Lanes] = {Fnv1aBasis, Fnv1aBasis, Fnv1aBasis,
                               Fnv1aBasis, Fnv1aBasis, Fnv1aBasis,
                               Fnv1aBasis, Fnv1aBasis};
  /// Bytes fed so far: the next one goes to lane Fed % 8.
  std::size_t Fed = 0;
};

/// Striped FNV-1a 64 of \p Data, defined as:
///   - byte i of \p Data feeds lane i % 8, so for a length n the last
///     n % 8 bytes go to lanes 0 to n % 8 - 1;
///   - each of the eight lanes is an fnv1a() chain that starts at the
///     offset basis and takes its bytes in order;
///   - the result is fnv1a() over the 64 bytes of the eight lane values
///     as stored in memory, lane 0 first.
/// Every byte goes through fnv1a()'s xor-then-multiply step, so a change
/// in any one byte changes its lane; the eight chains are independent, so
/// their multiplies overlap and a large buffer hashes several times
/// faster than with fnv1a(). It is a different function from fnv1a():
/// the two give different values for the same bytes. It is one
/// Fnv1aStriped update() followed by digest().
std::uint64_t fnv1aStriped(std::span<const std::byte> Data);

} // namespace fupermod

#endif // FUPERMOD_SUPPORT_HASH_H
