//===-- tests/OptionsTest.cpp - CLI parser tests --------------------------===//

#include "support/Options.h"

#include <gtest/gtest.h>

using namespace fupermod;

namespace {

Options parse(std::initializer_list<const char *> Args) {
  std::vector<const char *> Argv(Args.begin(), Args.end());
  return Options(static_cast<int>(Argv.size()), Argv.data());
}

} // namespace

TEST(Options, KeyValuePairs) {
  Options O = parse({"prog", "--kind", "akima", "--total", "500"});
  EXPECT_EQ(O.program(), "prog");
  EXPECT_TRUE(O.has("kind"));
  EXPECT_EQ(O.get("kind"), "akima");
  EXPECT_EQ(O.getInt("total", 0), 500);
}

TEST(Options, EqualsSyntax) {
  Options O = parse({"prog", "--min=1.5", "--name=foo"});
  EXPECT_DOUBLE_EQ(O.getDouble("min", 0.0), 1.5);
  EXPECT_EQ(O.get("name"), "foo");
}

TEST(Options, BareFlags) {
  Options O = parse({"prog", "--verbose", "--out", "--x", "1"});
  EXPECT_TRUE(O.has("verbose"));
  EXPECT_EQ(O.get("verbose", "def"), "");
  // A flag followed by another flag captures no value.
  EXPECT_EQ(O.get("out"), "");
  EXPECT_EQ(O.getInt("x", 0), 1);
}

TEST(Options, PositionalArguments) {
  Options O = parse({"prog", "a.fpm", "--total", "10", "b.fpm"});
  ASSERT_EQ(O.positional().size(), 2u);
  EXPECT_EQ(O.positional()[0], "a.fpm");
  EXPECT_EQ(O.positional()[1], "b.fpm");
}

TEST(Options, DefaultsWhenAbsent) {
  Options O = parse({"prog"});
  EXPECT_FALSE(O.has("kind"));
  EXPECT_EQ(O.get("kind", "piecewise"), "piecewise");
  EXPECT_DOUBLE_EQ(O.getDouble("eps", 0.05), 0.05);
  EXPECT_EQ(O.getInt("n", 7), 7);
}

TEST(Options, MalformedNumbersFallBack) {
  Options O = parse({"prog", "--n", "12x", "--d", "abc"});
  EXPECT_EQ(O.getInt("n", -1), -1);
  EXPECT_DOUBLE_EQ(O.getDouble("d", 2.5), 2.5);
}

TEST(Options, LastOccurrenceWins) {
  Options O = parse({"prog", "--k", "1", "--k", "2"});
  EXPECT_EQ(O.getInt("k", 0), 2);
}

TEST(Options, CheckedAccessorsAcceptNumbersAndDefaults) {
  Options O = parse({"prog", "--n", "12", "--d", "1.5"});
  Result<std::int64_t> N = O.checkedInt("n", -1);
  ASSERT_TRUE(N.ok());
  EXPECT_EQ(N.value(), 12);
  Result<double> D = O.checkedDouble("d", 0.0);
  ASSERT_TRUE(D.ok());
  EXPECT_DOUBLE_EQ(D.value(), 1.5);
  // Absent keys still yield the default, like the lenient accessors.
  Result<std::int64_t> Absent = O.checkedInt("m", 7);
  ASSERT_TRUE(Absent.ok());
  EXPECT_EQ(Absent.value(), 7);
}

TEST(Options, CheckedAccessorsRejectMalformedValues) {
  Options O = parse({"prog", "--n", "12x", "--d", "abc", "--e="});
  Result<std::int64_t> N = O.checkedInt("n", -1);
  ASSERT_FALSE(N.ok());
  EXPECT_EQ(N.error(), "option --n: expected an integer, got '12x'");
  Result<double> D = O.checkedDouble("d", 2.5);
  ASSERT_FALSE(D.ok());
  EXPECT_EQ(D.error(), "option --d: expected a number, got 'abc'");
  Result<std::int64_t> E = O.checkedInt("e", 0);
  ASSERT_FALSE(E.ok());
  EXPECT_EQ(E.error(), "option --e requires an integer value");
  // strtoll saturates out-of-range text; that must not pass as INT64_MAX.
  Options Big = parse({"prog", "--total", "99999999999999999999"});
  Result<std::int64_t> T = Big.checkedInt("total", 0);
  ASSERT_FALSE(T.ok());
  EXPECT_EQ(T.error(), "option --total: integer out of range, got "
                       "'99999999999999999999'");
  // strtod parses these in full, but no option takes a non-finite value;
  // 1e999 overflows to infinity.
  for (const char *NonFinite : {"nan", "inf", "1e999"}) {
    Options F = parse({"prog", "--max", NonFinite});
    Result<double> Max = F.checkedDouble("max", 1.0);
    EXPECT_FALSE(Max.ok()) << NonFinite;
    EXPECT_EQ(Max.error(), std::string("option --max: expected a finite "
                                       "number, got '") +
                               NonFinite + "'");
  }
}

TEST(Options, RangedCheckedIntNamesTheViolatedBound) {
  Options O = parse({"prog", "--jobs", "0", "--queue", "-1", "--reps", "2",
                     "--points", "4294967297", "--n", "ten"});
  EXPECT_EQ(O.checkedInt("jobs", 1, 1, 8).error(), "--jobs must be positive");
  EXPECT_EQ(O.checkedInt("queue", 1, 0, 8).error(),
            "--queue must be non-negative");
  EXPECT_EQ(O.checkedInt("reps", 3, 3, 8).error(),
            "--reps must be at least 3");
  EXPECT_EQ(O.checkedInt("points", 1, 1, 2147483647).error(),
            "--points must be at most 2147483647");
  // A malformed value keeps its own diagnostic.
  EXPECT_EQ(O.checkedInt("n", 1, 1, 8).error(),
            "option --n: expected an integer, got 'ten'");
  // The bounds are inclusive, and an absent key yields the default.
  EXPECT_EQ(O.checkedInt("reps", 3, 2, 2).value(), 2);
  EXPECT_EQ(O.checkedInt("absent", 5, 1, 8).value(), 5);
}

TEST(Options, UnknownKeysFindsMistypedFlags) {
  Options O = parse({"prog", "--total", "5", "--exlpain", "--stats"});
  std::vector<std::string> Unknown =
      O.unknownKeys({"total", "explain", "stats"});
  ASSERT_EQ(Unknown.size(), 1u);
  EXPECT_EQ(Unknown[0], "exlpain");
  EXPECT_TRUE(O.unknownKeys({"total", "exlpain", "stats"}).empty());
}
