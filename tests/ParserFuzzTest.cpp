//===-- tests/ParserFuzzTest.cpp - seeded mutation test of served parsers -===//
//
// The partition server hot-reloads model files and reads request lines
// from clients, and the builder reads cluster descriptions, so the
// parsers behind them must survive hostile input. A fixed-seed mutator
// derives inputs from a corpus of valid ones — writeModel output for
// every model kind, a writeDist block, a batch of serve request lines
// and examples/sample.cluster — by byte flips, truncation, duplicated
// and deleted lines, digit runs, numbers replaced by boundary integers,
// and inserted '-', '#' and huge exponents. A second mutator derives
// command lines from the builder and partitioner invocations of the
// EngineSmoke and ToolsWorkflow scripts by dropped and duplicated
// tokens, stray '--', '=' joins and splits, boundary integers and
// non-finite numbers.
//
// The invariants:
//
//   * readModel / readDist: an input either parses, and write -> read
//     -> write is then a fixed point, or it fails with a non-empty
//     diagnostic;
//   * parseServeLine: a line yields a request (a positive total or a
//     reload), nothing (blank or comment-only), or a `request line N:`
//     error;
//   * parseCluster: an input yields a cluster, or nothing with a
//     non-empty diagnostic (there is no cluster writer to round-trip);
//   * Options: for every key given and every key the tools know, each
//     checked accessor yields a value (the default when the key is
//     absent, within range for the ranged checkedInt, finite for
//     checkedDouble) or a diagnostic naming the key;
//   * nothing throws. A crash ends the binary; the ASan+UBSan build
//     runs this test too, so memory errors and undefined behaviour fail
//     it as well.
//
// Every failure names the mutation recipe and the input that caused it.
//
//===----------------------------------------------------------------------===//

#include "core/ModelIO.h"
#include "engine/Serve.h"
#include "sim/ClusterIO.h"
#include "support/Options.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <exception>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

using namespace fupermod;

namespace {

/// Mutants derived from each corpus entry.
constexpr int MutantsPerInput = 2000;

/// Derives hostile inputs from valid ones. Each mutant applies one to
/// three mutations and records them in a human-readable recipe.
class Mutator {
public:
  explicit Mutator(std::uint64_t Seed) : Rng(Seed) {}

  std::string mutate(std::string Text, std::string &Recipe) {
    Recipe.clear();
    int Count = 1 + static_cast<int>(below(3));
    for (int I = 0; I < Count; ++I)
      mutateOnce(Text, Recipe);
    return Text;
  }

private:
  std::size_t below(std::size_t N) {
    return N == 0 ? 0 : static_cast<std::size_t>(Rng.next() % N);
  }

  /// An insertion point: half the time the start or end of a token
  /// (where a '-', digits or an exponent change a number), otherwise
  /// any byte position.
  std::size_t insertionPoint(const std::string &Text) {
    if (Text.empty() || below(2) == 0)
      return below(Text.size() + 1);
    std::vector<std::size_t> Edges;
    for (std::size_t I = 0; I <= Text.size(); ++I) {
      bool In = I < Text.size() && !std::isspace(
                                       static_cast<unsigned char>(Text[I]));
      bool Before = I > 0 && !std::isspace(
                                 static_cast<unsigned char>(Text[I - 1]));
      if (In != Before)
        Edges.push_back(I);
    }
    return Edges.empty() ? below(Text.size() + 1) : Edges[below(Edges.size())];
  }

  /// The lines of \p Text; joining them with '\n' gives Text back (a
  /// final newline leaves an empty last element).
  static std::vector<std::string> splitLines(const std::string &Text) {
    std::vector<std::string> Lines(1);
    for (char C : Text) {
      if (C == '\n')
        Lines.emplace_back();
      else
        Lines.back() += C;
    }
    return Lines;
  }

  static std::string joinLines(const std::vector<std::string> &Lines) {
    std::string Out;
    for (std::size_t I = 0; I < Lines.size(); ++I)
      Out += (I ? "\n" : "") + Lines[I];
    return Out;
  }

  /// Start and length of every whitespace-delimited token that starts
  /// with a digit.
  static std::vector<std::pair<std::size_t, std::size_t>>
  numberTokens(const std::string &Text) {
    std::vector<std::pair<std::size_t, std::size_t>> Out;
    std::size_t I = 0;
    while (I < Text.size()) {
      while (I < Text.size() &&
             std::isspace(static_cast<unsigned char>(Text[I])))
        ++I;
      std::size_t Start = I;
      while (I < Text.size() &&
             !std::isspace(static_cast<unsigned char>(Text[I])))
        ++I;
      if (I > Start && std::isdigit(static_cast<unsigned char>(Text[Start])))
        Out.emplace_back(Start, I - Start);
    }
    return Out;
  }

  void insert(std::string &Text, const std::string &What,
              std::string &Recipe, const char *Name) {
    std::size_t At = insertionPoint(Text);
    Text.insert(At, What);
    Recipe += std::string(Name) + " '" + What + "' at " +
              std::to_string(At) + "; ";
  }

  void mutateOnce(std::string &Text, std::string &Recipe) {
    switch (below(9)) {
    case 0: { // Byte flip.
      if (Text.empty())
        return;
      std::size_t At = below(Text.size());
      Text[At] = static_cast<char>(Text[At] ^ (1 << below(8)));
      Recipe += "flip byte " + std::to_string(At) + "; ";
      return;
    }
    case 1: { // Truncation.
      std::size_t At = below(Text.size() + 1);
      Text.resize(At);
      Recipe += "truncate at " + std::to_string(At) + "; ";
      return;
    }
    case 2: { // Duplicated line.
      std::vector<std::string> Lines = splitLines(Text);
      std::size_t L = below(Lines.size());
      Lines.insert(Lines.begin() + static_cast<std::ptrdiff_t>(L), Lines[L]);
      Text = joinLines(Lines);
      Recipe += "duplicate line " + std::to_string(L + 1) + "; ";
      return;
    }
    case 3: { // Deleted line.
      std::vector<std::string> Lines = splitLines(Text);
      std::size_t L = below(Lines.size());
      Lines.erase(Lines.begin() + static_cast<std::ptrdiff_t>(L));
      Text = joinLines(Lines);
      Recipe += "delete line " + std::to_string(L + 1) + "; ";
      return;
    }
    case 4: { // Digit run.
      std::string Digits;
      for (std::size_t N = 1 + below(20); N > 0; --N)
        Digits += static_cast<char>('0' + below(10));
      insert(Text, Digits, Recipe, "digits");
      return;
    }
    case 5:
      insert(Text, "-", Recipe, "insert");
      return;
    case 6:
      insert(Text, "#", Recipe, "insert");
      return;
    case 7: { // A number replaced by a boundary integer.
      static const char *const Boundaries[] = {
          "-1", "2147483647", "4294967297", "99999999999999999999"};
      std::vector<std::pair<std::size_t, std::size_t>> Numbers =
          numberTokens(Text);
      if (Numbers.empty())
        return;
      auto [At, Len] = Numbers[below(Numbers.size())];
      const char *What = Boundaries[below(4)];
      Text.replace(At, Len, What);
      Recipe += "number at " + std::to_string(At) + " -> '" + What + "'; ";
      return;
    }
    default: {
      static const char *const Exponents[] = {"e999", "e-999", "e308",
                                              "e-320", "E+400"};
      insert(Text, Exponents[below(5)], Recipe, "exponent");
      return;
    }
    }
  }

  SplitMix64 Rng;
};

Point makePoint(double Units, double Time, int Reps, double Ci) {
  Point P;
  P.Units = Units;
  P.Time = Time;
  P.Reps = Reps;
  P.ConfidenceInterval = Ci;
  return P;
}

/// writeModel output for every model kind: a few points, decayed weights
/// (the optional fifth column) and a feasibility limit.
std::vector<std::string> modelCorpus() {
  std::vector<std::string> Out;
  for (const char *Kind : {"cpm", "piecewise", "akima", "linear"}) {
    std::unique_ptr<Model> M = makeModel(Kind);
    M->update(makePoint(100.0, 0.125, 3, 0.002));
    M->update(makePoint(250.0, 0.3125, 5, 0.004));
    M->update(makePoint(600.0, 0.8, 4, 0.01));
    M->update(makePoint(1000.0, 1.375, 6, 0.02));
    M->decayWeights(0.75);
    M->update(makePoint(1500.0, 2.25, 3, 0.03));
    Point Fail = makePoint(4096.0, 0.0, 0, 0.0);
    Fail.Time = std::numeric_limits<double>::infinity();
    M->update(Fail);
    std::ostringstream OS;
    writeModel(OS, *M);
    Out.push_back(OS.str());
  }
  return Out;
}

std::string writeDistText() {
  Dist D = Dist::even(1000, 4);
  for (std::size_t I = 0; I < D.Parts.size(); ++I)
    D.Parts[I].PredictedTime = 0.25 * static_cast<double>(I + 1);
  std::ostringstream OS;
  writeDist(OS, D);
  return OS.str();
}

std::string describe(const std::string &Recipe, const std::string &Text) {
  return "mutation: " + Recipe + "\ninput:\n" + Text;
}

/// The readModel invariant for one input. Returns false on a violation
/// (after recording it), so the caller can stop at the first one.
bool checkModel(const std::string &Text, const std::string &Recipe) {
  try {
    std::istringstream IS(Text);
    std::string Err;
    std::unique_ptr<Model> M = readModel(IS, &Err);
    if (!M) {
      EXPECT_FALSE(Err.empty()) << describe(Recipe, Text);
      return !Err.empty();
    }
    std::ostringstream First;
    writeModel(First, *M);
    std::istringstream Again(First.str());
    std::unique_ptr<Model> Back = readModel(Again, &Err);
    if (!Back) {
      ADD_FAILURE() << "rewritten model does not parse: " << Err << "\n"
                    << First.str() << describe(Recipe, Text);
      return false;
    }
    std::ostringstream Second;
    writeModel(Second, *Back);
    EXPECT_EQ(First.str(), Second.str()) << describe(Recipe, Text);
    return First.str() == Second.str();
  } catch (const std::exception &E) {
    ADD_FAILURE() << "readModel threw " << E.what() << "\n"
                  << describe(Recipe, Text);
    return false;
  }
}

bool checkDist(const std::string &Text, const std::string &Recipe) {
  try {
    std::istringstream IS(Text);
    Dist D;
    std::string Err;
    if (!readDist(IS, D, &Err)) {
      EXPECT_FALSE(Err.empty()) << describe(Recipe, Text);
      return !Err.empty();
    }
    std::ostringstream First;
    writeDist(First, D);
    std::istringstream Again(First.str());
    Dist Back;
    if (!readDist(Again, Back, &Err)) {
      ADD_FAILURE() << "rewritten distribution does not parse: " << Err
                    << "\n" << First.str() << describe(Recipe, Text);
      return false;
    }
    std::ostringstream Second;
    writeDist(Second, Back);
    EXPECT_EQ(First.str(), Second.str()) << describe(Recipe, Text);
    return First.str() == Second.str();
  } catch (const std::exception &E) {
    ADD_FAILURE() << "readDist threw " << E.what() << "\n"
                  << describe(Recipe, Text);
    return false;
  }
}

/// The parseServeLine invariant over every line of a mutated batch.
bool checkServeBatch(const std::string &Text, const std::string &Recipe) {
  std::istringstream IS(Text);
  std::string Line;
  std::size_t LineNo = 0;
  while (std::getline(IS, Line)) {
    ++LineNo;
    try {
      engine::ServeRequest Req;
      if (!engine::parseServeLine(Line, LineNo, Req))
        continue; // Blank or comment-only.
      std::string Prefix = "request line " + std::to_string(LineNo) + ":";
      bool Ok = Req.ParseError.empty()
                    ? Req.Reload || Req.Total > 0
                    : Req.ParseError.rfind(Prefix, 0) == 0;
      EXPECT_TRUE(Ok) << "line '" << Line << "' gave total " << Req.Total
                      << ", error '" << Req.ParseError << "'\n"
                      << describe(Recipe, Text);
      if (!Ok)
        return false;
    } catch (const std::exception &E) {
      ADD_FAILURE() << "parseServeLine threw " << E.what() << " on '"
                    << Line << "'\n" << describe(Recipe, Text);
      return false;
    }
  }
  return true;
}

/// The parseCluster invariant for one input.
bool checkCluster(const std::string &Text, const std::string &Recipe) {
  try {
    std::istringstream IS(Text);
    std::string Err;
    if (parseCluster(IS, &Err))
      return true;
    EXPECT_FALSE(Err.empty()) << describe(Recipe, Text);
    return !Err.empty();
  } catch (const std::exception &E) {
    ADD_FAILURE() << "parseCluster threw " << E.what() << "\n"
                  << describe(Recipe, Text);
    return false;
  }
}

/// Runs \p Check over the unmutated input and MutantsPerInput mutants.
template <class CheckFn>
int fuzz(const std::string &Seed, std::uint64_t RngSeed, CheckFn Check) {
  EXPECT_TRUE(Check(Seed, std::string("none")));
  Mutator Mut(RngSeed);
  int Parsed = 0;
  std::string Recipe;
  for (int I = 0; I < MutantsPerInput; ++I) {
    std::string Text = Mut.mutate(Seed, Recipe);
    if (!Check(Text, Recipe))
      return -1; // One reported failure per corpus entry is enough.
    ++Parsed;
  }
  return Parsed;
}

/// A tool invocation: its arguments after argv[0] and the keys the tool
/// declares as boolean flags.
struct CommandLine {
  std::vector<std::string> Args;
  std::vector<std::string> Flags;
};

/// The builder and partitioner invocations of EngineSmoke and
/// ToolsWorkflow, with the scripts' work-directory paths shortened.
std::vector<CommandLine> optionsCorpus() {
  const std::vector<std::string> Builder = {"micro"};
  const std::vector<std::string> Partitioner = {"explain", "allow-degraded",
                                                "stats"};
  return {
      {{"--source", "two-device", "--rank", "0", "--kind", "piecewise",
        "--min", "100", "--max", "4000", "--points", "12", "--output",
        "dev0.fpm"},
       Builder},
      {{"--source", "two-device", "--rank", "all", "--jobs", "2", "--kind",
        "piecewise", "--min", "100", "--max", "4000", "--points", "12",
        "--output", "all.fpm"},
       Builder},
      {{"--source", "sample.cluster", "--rank", "4", "--min", "500", "--max",
        "10000", "--points", "6", "--output", "gpu.fpm"},
       Builder},
      {{"--source", "two-device", "--reps-min", "3", "--reps-max", "2",
        "--time-limit", "-1", "--rel-err", "0", "--noise", "-1", "--threads",
        "4294967297", "--output", "rejected.fpm"},
       Builder},
      {{"--total", "3000", "--algorithm", "geometric", "--output",
        "dist_geometric.txt", "dev0.fpm", "dev1.fpm"},
       Partitioner},
      {{"--serve", "requests.txt", "--allow-degraded", "dev0.fpm",
        "missing.fpm"},
       Partitioner},
      {{"--serve", "requests.txt", "--workers", "2", "--queue", "8",
        "--deadline-ms", "18446744073710", "dev0.fpm", "dev1.fpm"},
       Partitioner},
      {{"--total", "2000", "--stats", "dev0.fpm", "dev1.fpm"}, Partitioner},
      {{"--total", "100", "--imbalance-threshold", "nan", "--exlpain",
        "dev0.fpm"},
       Partitioner},
  };
}

/// Every key builder and partitioner accept.
const std::vector<std::string> &toolKeys() {
  static const std::vector<std::string> Keys = {
      // builder
      "source", "kind", "rank", "min", "max", "points", "jobs", "output",
      "reps-min", "reps-max", "rel-err", "time-limit", "threads", "noise",
      "micro",
      // partitioner
      "total", "algorithm", "explain", "allow-degraded", "stats", "serve",
      "workers", "queue", "deadline-ms"};
  return Keys;
}

/// Derives hostile command lines from valid ones: one to three token
/// mutations each, recorded in a human-readable recipe.
class ArgsMutator {
public:
  explicit ArgsMutator(std::uint64_t Seed) : Rng(Seed) {}

  std::vector<std::string> mutate(std::vector<std::string> Args,
                                  std::string &Recipe) {
    Recipe.clear();
    int Count = 1 + static_cast<int>(below(3));
    for (int I = 0; I < Count; ++I)
      mutateOnce(Args, Recipe);
    return Args;
  }

private:
  std::size_t below(std::size_t N) {
    return N == 0 ? 0 : static_cast<std::size_t>(Rng.next() % N);
  }

  static bool isKey(const std::string &Token) {
    return Token.rfind("--", 0) == 0;
  }

  /// Replaces a random non-key token (a value or positional) by one of
  /// \p Values.
  void replaceValue(std::vector<std::string> &Args,
                    const std::vector<const char *> &Values,
                    std::string &Recipe) {
    std::vector<std::size_t> At;
    for (std::size_t I = 0; I < Args.size(); ++I)
      if (!isKey(Args[I]))
        At.push_back(I);
    if (At.empty())
      return;
    std::size_t I = At[below(At.size())];
    Args[I] = Values[below(Values.size())];
    Recipe += "token " + std::to_string(I) + " -> '" + Args[I] + "'; ";
  }

  void mutateOnce(std::vector<std::string> &Args, std::string &Recipe) {
    switch (below(7)) {
    case 0: { // Dropped token.
      if (Args.empty())
        return;
      std::size_t I = below(Args.size());
      Recipe += "drop token " + std::to_string(I) + "; ";
      Args.erase(Args.begin() + static_cast<std::ptrdiff_t>(I));
      return;
    }
    case 1: { // Duplicated token.
      if (Args.empty())
        return;
      std::size_t I = below(Args.size());
      Args.insert(Args.begin() + static_cast<std::ptrdiff_t>(I), Args[I]);
      Recipe += "duplicate token " + std::to_string(I) + "; ";
      return;
    }
    case 2: { // Stray "--".
      std::size_t I = below(Args.size() + 1);
      Args.insert(Args.begin() + static_cast<std::ptrdiff_t>(I), "--");
      Recipe += "insert '--' at " + std::to_string(I) + "; ";
      return;
    }
    case 3: { // "--key value" joined into "--key=value".
      std::vector<std::size_t> At;
      for (std::size_t I = 0; I + 1 < Args.size(); ++I)
        if (isKey(Args[I]) && !isKey(Args[I + 1]))
          At.push_back(I);
      if (At.empty())
        return;
      std::size_t I = At[below(At.size())];
      Args[I] += "=" + Args[I + 1];
      Args.erase(Args.begin() + static_cast<std::ptrdiff_t>(I + 1));
      Recipe += "join tokens " + std::to_string(I) + " with '='; ";
      return;
    }
    case 4: { // A token split at an '=' inserted anywhere in it.
      if (Args.empty())
        return;
      std::size_t I = below(Args.size());
      std::size_t Cut = below(Args[I].size() + 1);
      Args[I].insert(Cut, "=");
      Recipe += "insert '=' into token " + std::to_string(I) + " at " +
                std::to_string(Cut) + "; ";
      return;
    }
    case 5:
      replaceValue(Args,
                   {"-1", "0", "2147483647", "2147483648", "4294967297",
                    "9223372036854775807", "9223372036854775808",
                    "-9223372036854775809", "99999999999999999999"},
                   Recipe);
      return;
    default:
      replaceValue(Args,
                   {"nan", "NaN", "inf", "-inf", "1e999", "-1e999", "1e-999",
                    "0x1p2000"},
                   Recipe);
      return;
    }
  }

  SplitMix64 Rng;
};

std::string describeArgs(const std::string &Recipe,
                         const std::vector<std::string> &Args) {
  std::string Line;
  for (const std::string &A : Args)
    Line += " '" + A + "'";
  return "mutation: " + Recipe + "\nargs:" + Line;
}

/// The Options invariant for one command line.
bool checkOptions(const std::vector<std::string> &Args,
                  const std::vector<std::string> &Flags,
                  const std::string &Recipe) {
  try {
    std::vector<const char *> Argv = {"tool"};
    for (const std::string &A : Args)
      Argv.push_back(A.c_str());
    Options Opts(static_cast<int>(Argv.size()), Argv.data(), Flags);
    std::vector<std::string> Keys = Opts.unknownKeys({});
    Keys.insert(Keys.end(), toolKeys().begin(), toolKeys().end());
    constexpr std::int64_t IntMax = std::numeric_limits<int>::max();
    for (const std::string &Key : Keys) {
      const bool Given = Opts.has(Key);
      auto Why = [&](const char *Accessor, const std::string &Err) {
        return std::string(Accessor) + "(" + Key + ") gave '" + Err +
               "'\n" + describeArgs(Recipe, Args);
      };
      auto NamesKey = [&](const std::string &Err) {
        return Err.find("--" + Key) != std::string::npos;
      };
      Result<std::int64_t> I = Opts.checkedInt(Key, 7);
      bool Ok = I ? Given || I.value() == 7 : NamesKey(I.error());
      EXPECT_TRUE(Ok) << Why("checkedInt", I.error());
      Result<std::int64_t> Ranged = Opts.checkedInt(Key, 1, 1, IntMax);
      bool RangedOk = Ranged ? Ranged.value() >= 1 && Ranged.value() <= IntMax
                             : NamesKey(Ranged.error());
      EXPECT_TRUE(RangedOk) << Why("ranged checkedInt", Ranged.error());
      Result<double> D = Opts.checkedDouble(Key, 0.5);
      bool DoubleOk =
          D ? std::isfinite(D.value()) && (Given || D.value() == 0.5)
            : NamesKey(D.error());
      EXPECT_TRUE(DoubleOk) << Why("checkedDouble", D.error());
      if (!Ok || !RangedOk || !DoubleOk)
        return false;
    }
    return true;
  } catch (const std::exception &E) {
    ADD_FAILURE() << "Options threw " << E.what() << "\n"
                  << describeArgs(Recipe, Args);
    return false;
  }
}

} // namespace

TEST(ParserFuzz, ReadModelParsesAndRoundTripsOrFailsCleanly) {
  std::uint64_t RngSeed = 0x5eed0001;
  for (const std::string &Text : modelCorpus())
    EXPECT_EQ(fuzz(Text, RngSeed++, checkModel), MutantsPerInput) << Text;
}

TEST(ParserFuzz, ReadDistParsesAndRoundTripsOrFailsCleanly) {
  EXPECT_EQ(fuzz(writeDistText(), 0x5eed0100, checkDist), MutantsPerInput);
}

TEST(ParserFuzz, ServeLinesYieldARequestOrALineNumberedError) {
  const std::string Batch = "# serve batch\n"
                            "3000\n"
                            "1000 numerical\n"
                            "reload\n"
                            "500 constant # trailing comment\n"
                            "   42   \n"
                            "\n"
                            "250000 geometric\n";
  EXPECT_EQ(fuzz(Batch, 0x5eed0200, checkServeBatch), MutantsPerInput);
}

TEST(ParserFuzz, ParseClusterYieldsAClusterOrADiagnostic) {
  std::ifstream IS(FUPERMOD_SOURCE_DIR "/examples/sample.cluster");
  ASSERT_TRUE(IS);
  std::ostringstream Sample;
  Sample << IS.rdbuf();
  EXPECT_EQ(fuzz(Sample.str(), 0x5eed0300, checkCluster), MutantsPerInput);
}

TEST(ParserFuzz, CheckedOptionsYieldAValueOrANamedDiagnostic) {
  std::uint64_t RngSeed = 0x5eed0400;
  for (const CommandLine &Cmd : optionsCorpus()) {
    ASSERT_TRUE(checkOptions(Cmd.Args, Cmd.Flags, "none"));
    ArgsMutator Mut(RngSeed++);
    std::string Recipe;
    for (int I = 0; I < MutantsPerInput; ++I)
      if (!checkOptions(Mut.mutate(Cmd.Args, Recipe), Cmd.Flags, Recipe))
        break; // One reported failure per corpus entry is enough.
  }
}
