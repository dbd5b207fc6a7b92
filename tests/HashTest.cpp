//===-- tests/HashTest.cpp - support/Hash tests ---------------------------===//
//
// fnv1a() is pinned to the published FNV-1a 64 test vectors, and
// fnv1aStriped() to its definition: a reference built from eight byte
// streams and fnv1a() alone, compared bit for bit at every length that
// exercises the tail and on a large buffer. The streaming Fnv1aStriped
// must give the same digest wherever its input is cut into pieces, so it
// is fed every two- and three-way split of short buffers and a large
// buffer cut at pseudo-random offsets. The sensitivity cases are
// the changes a result digest must see: any single bit, the signs of two
// doubles (which cancel in a word-wise FNV, where a flip in bit 63 never
// leaves bit 63), and two values trading places.
//
//===----------------------------------------------------------------------===//

#include "support/Hash.h"

#include "blas/Gemm.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

using namespace fupermod;

namespace {

std::span<const std::byte> bytesOf(std::string_view S) {
  return std::as_bytes(std::span<const char>(S.data(), S.size()));
}

std::span<const std::byte> bytesOf(const std::vector<double> &V) {
  return std::as_bytes(std::span<const double>(V));
}

/// fnv1aStriped() as its definition reads: eight byte streams, one
/// fnv1a() each, folded by fnv1a() over the lane values in lane order.
std::uint64_t stripedReference(std::span<const std::byte> Data) {
  std::array<std::vector<std::byte>, 8> Streams;
  for (std::size_t I = 0; I < Data.size(); ++I)
    Streams[I % 8].push_back(Data[I]);
  std::array<std::uint64_t, 8> Lanes;
  for (std::size_t L = 0; L < 8; ++L)
    Lanes[L] = fnv1a(Streams[L]);
  return fnv1a(std::as_bytes(std::span<const std::uint64_t>(Lanes)));
}

/// \p Count bytes of deterministic content.
std::vector<std::byte> deterministicBytes(std::size_t Count,
                                          std::uint64_t Seed) {
  std::vector<double> Values((Count + 7) / 8);
  fillDeterministic(Values, Seed);
  std::span<const std::byte> All = bytesOf(Values);
  return std::vector<std::byte>(All.begin(), All.begin() + Count);
}

/// Fnv1aStriped's digest of \p Data fed in pieces that end at the
/// ascending offsets \p Cuts, the last piece running to the end.
std::uint64_t streamed(std::span<const std::byte> Data,
                       const std::vector<std::size_t> &Cuts) {
  Fnv1aStriped State;
  std::size_t From = 0;
  for (std::size_t Cut : Cuts) {
    State.update(Data.subspan(From, Cut - From));
    From = Cut;
  }
  State.update(Data.subspan(From));
  return State.digest();
}

/// The sensitivity buffer: 4 KiB of doubles.
std::vector<double> sensitivityBuffer() {
  std::vector<double> Values(4096 / sizeof(double));
  fillDeterministic(Values, 21);
  return Values;
}

} // namespace

TEST(Fnv1a, PublishedVectors) {
  EXPECT_EQ(fnv1a(bytesOf("")), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a(bytesOf("a")), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a(bytesOf("foobar")), 0x85944171f73967e8ull);
  EXPECT_EQ(Fnv1aBasis, 0xcbf29ce484222325ull);
}

TEST(Fnv1a, ContinuingEqualsHashingTheConcatenation) {
  std::vector<std::byte> Data = deterministicBytes(10000, 3);
  std::span<const std::byte> All(Data);
  for (std::size_t Cut : {std::size_t{0}, std::size_t{1}, std::size_t{4096},
                          std::size_t{9999}, std::size_t{10000}})
    EXPECT_EQ(fnv1a(All.subspan(Cut), fnv1a(All.first(Cut))), fnv1a(All))
        << "cut at " << Cut;
}

TEST(Fnv1aStriped, MatchesDefinitionAtEveryTailLength) {
  std::vector<std::byte> Data = deterministicBytes(70, 5);
  for (std::size_t N = 0; N <= Data.size(); ++N) {
    std::span<const std::byte> Prefix(Data.data(), N);
    EXPECT_EQ(fnv1aStriped(Prefix), stripedReference(Prefix))
        << "length " << N;
  }
}

TEST(Fnv1aStriped, MatchesDefinitionOnALargeOddBuffer) {
  std::vector<std::byte> Data = deterministicBytes((1u << 20) + 5, 7);
  EXPECT_EQ(fnv1aStriped(Data), stripedReference(Data));
}

TEST(Fnv1aStriped, StreamMatchesEveryTwoWaySplit) {
  std::vector<std::byte> Data = deterministicBytes(67, 9);
  for (std::size_t N = 0; N <= Data.size(); ++N) {
    std::span<const std::byte> Prefix(Data.data(), N);
    const std::uint64_t Whole = fnv1aStriped(Prefix);
    ASSERT_EQ(Whole, stripedReference(Prefix)) << "length " << N;
    for (std::size_t Cut = 0; Cut <= N; ++Cut)
      EXPECT_EQ(streamed(Prefix, {Cut}), Whole)
          << "length " << N << ", cut at " << Cut;
  }
}

TEST(Fnv1aStriped, StreamMatchesEveryThreeWaySplit) {
  // Every pair of cuts, so pieces are empty at the start, in the middle
  // and at the end, and most lengths are not a multiple of 8 bytes.
  std::vector<std::byte> Data = deterministicBytes(67, 11);
  const std::uint64_t Whole = stripedReference(Data);
  ASSERT_EQ(fnv1aStriped(Data), Whole);
  for (std::size_t First = 0; First <= Data.size(); ++First)
    for (std::size_t Second = First; Second <= Data.size(); ++Second)
      EXPECT_EQ(streamed(Data, {First, Second}), Whole)
          << "cuts at " << First << " and " << Second;
}

TEST(Fnv1aStriped, StreamMatchesALargeBufferCutAtRandomOffsets) {
  std::vector<std::byte> Data = deterministicBytes(1u << 20, 13);
  const std::uint64_t Whole = fnv1aStriped(Data);
  ASSERT_EQ(Whole, stripedReference(Data));
  SplitMix64 Rng(17);
  for (int Trial = 0; Trial < 8; ++Trial) {
    std::vector<std::size_t> Cuts;
    for (int I = 0; I < 1 + 8 * Trial; ++I)
      Cuts.push_back(static_cast<std::size_t>(Rng.next() % (Data.size() + 1)));
    std::sort(Cuts.begin(), Cuts.end());
    EXPECT_EQ(streamed(Data, Cuts), Whole) << "trial " << Trial;
  }
}

TEST(Fnv1aStriped, EverySingleBitFlipChangesTheDigest) {
  std::vector<double> Values = sensitivityBuffer();
  const std::uint64_t Base = fnv1aStriped(bytesOf(Values));
  auto *Bytes = reinterpret_cast<unsigned char *>(Values.data());
  const std::size_t Bits = Values.size() * sizeof(double) * 8;
  ASSERT_EQ(Bits, 32768u);
  std::size_t Unseen = 0;
  for (std::size_t Bit = 0; Bit < Bits; ++Bit) {
    auto Mask = static_cast<unsigned char>(1u << (Bit % 8));
    Bytes[Bit / 8] ^= Mask;
    if (fnv1aStriped(bytesOf(Values)) == Base)
      ++Unseen;
    Bytes[Bit / 8] ^= Mask;
  }
  EXPECT_EQ(Unseen, 0u) << "single-bit flips the digest missed";
}

TEST(Fnv1aStriped, NegatingAnyTwoValuesChangesTheDigest) {
  std::vector<double> Values = sensitivityBuffer();
  const std::uint64_t Base = fnv1aStriped(bytesOf(Values));
  std::size_t Unseen = 0;
  for (std::size_t I = 0; I < 64; ++I)
    for (std::size_t J = I + 1; J < 64; ++J) {
      Values[I] = -Values[I];
      Values[J] = -Values[J];
      if (fnv1aStriped(bytesOf(Values)) == Base)
        ++Unseen;
      Values[I] = -Values[I];
      Values[J] = -Values[J];
    }
  EXPECT_EQ(Unseen, 0u) << "sign-flip pairs the digest missed";
}

TEST(Fnv1aStriped, SwappingAdjacentValuesChangesTheDigest) {
  std::vector<double> Values = sensitivityBuffer();
  const std::uint64_t Base = fnv1aStriped(bytesOf(Values));
  for (std::size_t I = 0; I + 1 < Values.size(); ++I) {
    ASSERT_NE(Values[I], Values[I + 1]);
    std::swap(Values[I], Values[I + 1]);
    EXPECT_NE(fnv1aStriped(bytesOf(Values)), Base) << "swap at " << I;
    std::swap(Values[I], Values[I + 1]);
  }
}
