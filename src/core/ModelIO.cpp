//===-- core/ModelIO.cpp - Model persistence ------------------------------===//

#include "core/ModelIO.h"

#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>

using namespace fupermod;

namespace {

std::unique_ptr<Model> readFailed(std::string *Err, const std::string &Why) {
  if (Err)
    *Err = Why;
  return nullptr;
}

/// Reads the next whitespace-separated token of \p LS into \p Out. The
/// whole token must convert: "12abc", a lone "-" and an out-of-range
/// "1e999" fail instead of leaving a partial, zeroed or clamped value.
template <class T> bool readToken(std::istream &LS, T &Out) {
  if (!(LS >> Out))
    return false;
  int Next = LS.peek();
  return Next == std::char_traits<char>::eof() || std::isspace(Next);
}

/// True when \p LS holds no further token.
bool atLineEnd(std::istream &LS) { return (LS >> std::ws).eof(); }

/// Reads a header's element count ("points N", "parts N"): one
/// non-negative integer and nothing after it. The count only bounds the
/// lines read next; nothing is sized from it, so a hostile count can
/// cost at most a truncation error.
bool readCount(std::istream &LS, std::size_t &Count) {
  long long N = 0;
  if (!readToken(LS, N) || N < 0 || !atLineEnd(LS))
    return false;
  Count = static_cast<std::size_t>(N);
  return true;
}

std::string lineError(std::size_t LineNo, const std::string &Why) {
  return "line " + std::to_string(LineNo) + ": " + Why;
}

} // namespace

bool fupermod::writeModel(std::ostream &OS, const Model &M) {
  OS.precision(17);
  OS << "# fupermod model\n";
  OS << "kind " << M.kind() << '\n';
  if (std::isfinite(M.feasibleLimit()))
    OS << "limit " << M.feasibleLimit() << '\n';
  OS << "points " << M.points().size() << '\n';
  const std::vector<double> &Weights = M.weights();
  for (std::size_t I = 0; I < M.points().size(); ++I) {
    const Point &P = M.points()[I];
    OS << P.Units << ' ' << P.Time << ' ' << P.Reps << ' '
       << P.ConfidenceInterval;
    // The weight column is emitted only when staleness decay (or a
    // merge) moved the weight off its initial value, so undecayed models
    // keep the historical four-column rows bit for bit.
    if (I < Weights.size() && Weights[I] != static_cast<double>(P.Reps))
      OS << ' ' << Weights[I];
    OS << '\n';
  }
  return static_cast<bool>(OS);
}

std::unique_ptr<Model> fupermod::readModel(std::istream &IS,
                                           std::string *Err) {
  std::string Line;
  std::string Kind;
  std::size_t Count = 0;
  bool HaveKind = false, HavePoints = false;
  double Limit = std::numeric_limits<double>::infinity();
  std::size_t LineNo = 0;

  while (std::getline(IS, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    std::string Key;
    LS >> Key;
    if (Key == "kind") {
      if (!(LS >> Kind) || !atLineEnd(LS))
        return readFailed(Err, lineError(LineNo, "malformed kind (expected "
                                                 "'kind <name>')"));
      HaveKind = true;
    } else if (Key == "limit") {
      if (!readToken(LS, Limit) || Limit <= 0.0 || !atLineEnd(LS))
        return readFailed(Err, lineError(LineNo, "malformed limit (expected "
                                                 "'limit <positive size>')"));
    } else if (Key == "points") {
      if (!readCount(LS, Count))
        return readFailed(Err, lineError(LineNo, "malformed point count "
                                                 "(expected 'points <N>', "
                                                 "N >= 0)"));
      HavePoints = true;
      break;
    } else {
      return readFailed(Err, lineError(LineNo, "unknown key '" + Key + "'"));
    }
  }
  if (!HaveKind)
    return readFailed(Err, "missing 'kind' header");
  if (!HavePoints)
    return readFailed(Err, "missing 'points' header");

  std::string KindErr;
  std::unique_ptr<Model> M = makeModel(Kind, &KindErr);
  if (!M)
    return readFailed(Err, KindErr);
  const std::string MalformedPoint =
      "malformed point (expected 'units time reps ci [weight]')";
  std::vector<Point> Points;
  std::vector<double> Weights;
  for (std::size_t I = 0; I < Count; ++I) {
    if (!std::getline(IS, Line))
      return readFailed(Err, "truncated: expected " + std::to_string(Count) +
                                 " points, got " + std::to_string(I));
    ++LineNo;
    std::istringstream LS(Line);
    Point P;
    if (!readToken(LS, P.Units) || !readToken(LS, P.Time) ||
        !readToken(LS, P.Reps) || !readToken(LS, P.ConfidenceInterval))
      return readFailed(Err, lineError(LineNo, MalformedPoint));
    if (P.Units <= 0.0 || P.Time <= 0.0 || P.Reps <= 0)
      return readFailed(Err, lineError(LineNo, "non-positive units, time, "
                                               "or reps"));
    double W = static_cast<double>(P.Reps);
    if (!atLineEnd(LS) && (!readToken(LS, W) || !atLineEnd(LS)))
      return readFailed(Err, lineError(LineNo, MalformedPoint));
    if (W <= 0.0)
      return readFailed(Err, lineError(LineNo, "non-positive point weight"));
    // writeModel saves distinct sizes in ascending order. update() would
    // merge a repeated size or sort an out-of-order one away from its
    // saved weight.
    if (!Points.empty() && (P.Units <= Points.back().Units ||
                            Model::sameSize(Points.back().Units, P.Units)))
      return readFailed(Err, lineError(LineNo, "point sizes must be "
                                               "distinct and ascending"));
    Points.push_back(P);
    Weights.push_back(W);
  }
  if (std::isfinite(Limit)) {
    Point Fail;
    Fail.Units = Limit;
    Fail.Reps = 0;
    Fail.Time = std::numeric_limits<double>::infinity();
    Points.push_back(Fail);
  }
  M->updateAll(Points);
  // The points were stored one-to-one, so the saved weights map straight
  // onto them.
  M->setWeights(Weights);
  if (Err)
    Err->clear();
  return M;
}

bool fupermod::saveModel(const std::string &Path, const Model &M) {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  return writeModel(OS, M);
}

std::unique_ptr<Model> fupermod::loadModel(const std::string &Path,
                                           std::string *Err) {
  std::ifstream IS(Path);
  if (!IS)
    return readFailed(Err, Path + ": cannot open file");
  std::string ReadErr;
  std::unique_ptr<Model> M = readModel(IS, &ReadErr);
  if (!M)
    return readFailed(Err, Path + ": " + ReadErr);
  if (Err)
    Err->clear();
  return M;
}

bool fupermod::writeDist(std::ostream &OS, const Dist &D) {
  OS << "# fupermod dist\n";
  OS << "total " << D.Total << '\n';
  OS << "parts " << D.Parts.size() << '\n';
  OS.precision(17);
  for (std::size_t I = 0; I < D.Parts.size(); ++I)
    OS << I << ' ' << D.Parts[I].Units << ' ' << D.Parts[I].PredictedTime
       << '\n';
  return static_cast<bool>(OS);
}

bool fupermod::readDist(std::istream &IS, Dist &Out, std::string *Err) {
  auto Failed = [&](const std::string &Why) {
    if (Err)
      *Err = Why;
    return false;
  };
  std::string Line;
  Out = Dist();
  std::size_t Count = 0;
  bool HaveTotal = false, HaveParts = false;
  std::size_t LineNo = 0;
  while (std::getline(IS, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    std::string Key;
    LS >> Key;
    if (Key == "total") {
      if (!readToken(LS, Out.Total) || !atLineEnd(LS))
        return Failed(lineError(LineNo, "malformed total (expected "
                                        "'total <N>')"));
      HaveTotal = true;
    } else if (Key == "parts") {
      if (!readCount(LS, Count))
        return Failed(lineError(LineNo, "malformed part count (expected "
                                        "'parts <N>', N >= 0)"));
      HaveParts = true;
      break;
    } else {
      return Failed(lineError(LineNo, "unknown key '" + Key + "'"));
    }
  }
  if (!HaveTotal)
    return Failed("missing 'total' header");
  if (!HaveParts)
    return Failed("missing 'parts' header");
  for (std::size_t I = 0; I < Count; ++I) {
    if (!std::getline(IS, Line))
      return Failed("truncated: expected " + std::to_string(Count) +
                    " parts, got " + std::to_string(I));
    ++LineNo;
    std::istringstream LS(Line);
    long long Rank = 0;
    Part P;
    if (!readToken(LS, Rank) || !readToken(LS, P.Units) ||
        !readToken(LS, P.PredictedTime) || !atLineEnd(LS))
      return Failed(lineError(LineNo, "malformed part (expected 'rank "
                                      "units predicted_time')"));
    if (Rank < 0 || static_cast<std::size_t>(Rank) != I)
      return Failed(lineError(LineNo, "expected rank " + std::to_string(I) +
                                          ", got " + std::to_string(Rank)));
    Out.Parts.push_back(P);
  }
  if (Err)
    Err->clear();
  return true;
}
