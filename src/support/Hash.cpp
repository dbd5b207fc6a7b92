//===-- support/Hash.cpp - FNV-1a content digests -------------------------===//

#include "support/Hash.h"

#include <algorithm>

using namespace fupermod;

namespace {

constexpr std::uint64_t Fnv1aPrime = 0x100000001b3ull;

void step(std::uint64_t &Hash, std::byte Byte) {
  Hash ^= static_cast<std::uint64_t>(Byte);
  Hash *= Fnv1aPrime;
}

} // namespace

std::uint64_t fupermod::fnv1a(std::span<const std::byte> Data,
                              std::uint64_t Hash) {
  for (std::byte Byte : Data)
    step(Hash, Byte);
  return Hash;
}

void Fnv1aStriped::update(std::span<const std::byte> Data) {
  // The bytes that finish a stripe an earlier piece began.
  const std::size_t Head =
      std::min(Data.size(), (Lanes - Fed % Lanes) % Lanes);
  for (std::size_t I = 0; I < Head; ++I)
    step(Lane[(Fed + I) % Lanes], Data[I]);
  // Whole stripes, on a local copy of the lanes: the bytes may alias the
  // members, which would cost a load and a store per step. The unrolled
  // lane loop keeps the eight chains in registers, so their multiplies
  // overlap instead of waiting on one another.
  const std::size_t Whole = Head + (Data.size() - Head) / Lanes * Lanes;
  std::uint64_t L[Lanes];
  std::copy_n(Lane, Lanes, L);
  for (std::size_t I = Head; I < Whole; I += Lanes) {
#pragma GCC unroll 8
    for (std::size_t J = 0; J < Lanes; ++J)
      step(L[J], Data[I + J]);
  }
  std::copy_n(L, Lanes, Lane);
  for (std::size_t I = Whole; I < Data.size(); ++I)
    step(Lane[(Fed + I) % Lanes], Data[I]);
  Fed += Data.size();
}

std::uint64_t Fnv1aStriped::digest() const {
  return fnv1a(std::as_bytes(std::span<const std::uint64_t>(Lane)));
}

std::uint64_t fupermod::fnv1aStriped(std::span<const std::byte> Data) {
  Fnv1aStriped State;
  State.update(Data);
  return State.digest();
}
