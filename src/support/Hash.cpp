//===-- support/Hash.cpp - FNV-1a content digests -------------------------===//

#include "support/Hash.h"

using namespace fupermod;

namespace {

constexpr std::uint64_t Fnv1aPrime = 0x100000001b3ull;
constexpr std::size_t Lanes = 8;

} // namespace

std::uint64_t fupermod::fnv1a(std::span<const std::byte> Data,
                              std::uint64_t Hash) {
  for (std::byte Byte : Data) {
    Hash ^= static_cast<std::uint64_t>(Byte);
    Hash *= Fnv1aPrime;
  }
  return Hash;
}

std::uint64_t fupermod::fnv1aStriped(std::span<const std::byte> Data) {
  std::uint64_t Lane[Lanes];
  for (std::uint64_t &L : Lane)
    L = Fnv1aBasis;
  std::size_t Whole = Data.size() - Data.size() % Lanes;
  // The unrolled lane loop keeps the eight chains in registers, so their
  // multiplies overlap instead of waiting on one another.
  for (std::size_t I = 0; I < Whole; I += Lanes) {
#pragma GCC unroll 8
    for (std::size_t J = 0; J < Lanes; ++J) {
      Lane[J] ^= static_cast<std::uint64_t>(Data[I + J]);
      Lane[J] *= Fnv1aPrime;
    }
  }
  for (std::size_t J = 0; Whole + J < Data.size(); ++J) {
    Lane[J] ^= static_cast<std::uint64_t>(Data[Whole + J]);
    Lane[J] *= Fnv1aPrime;
  }
  return fnv1a(std::as_bytes(std::span<const std::uint64_t>(Lane)));
}
