//===-- perfbench/cpp/Trace.cpp - In-memory span recorder -----------------===//

#include "Trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

using namespace perfbench;

double perfbench::now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::begin(const char *Name, std::int64_t OpId) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = Name;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.OpId = OpId;
  S.Start = now();
  Spans.push_back(std::move(S));
  int Id = static_cast<int>(Spans.size()) - 1;
  Open.push_back(Id);
  return Id;
}

void Tracer::end(int Id) {
  if (Id < 0)
    return;
  Spans[static_cast<std::size_t>(Id)].End = now();
  // Spans close innermost first; tolerate a misordered close by removing
  // the span wherever it sits.
  auto It = std::find(Open.rbegin(), Open.rend(), Id);
  if (It != Open.rend())
    Open.erase(std::next(It).base());
}

int Tracer::record(Span S) {
  Spans.push_back(std::move(S));
  return static_cast<int>(Spans.size()) - 1;
}

namespace {

/// Duration of \p P minus the union of \p Children's intervals, each
/// clipped to \p P.
double uncovered(const Span &P, const std::vector<const Span *> &Children) {
  std::vector<std::pair<double, double>> Covered;
  for (const Span *C : Children)
    Covered.emplace_back(std::max(C->Start, P.Start), std::min(C->End, P.End));
  std::sort(Covered.begin(), Covered.end());
  double Union = 0.0;
  double Reach = P.Start;
  for (auto [Lo, Hi] : Covered) {
    Lo = std::max(Lo, Reach);
    if (Hi > Lo) {
      Union += Hi - Lo;
      Reach = Hi;
    }
  }
  return P.duration() - Union;
}

} // namespace

std::vector<double> Tracer::durations(const std::string &Name) const {
  std::vector<double> Out;
  for (const Span &S : Spans)
    if (S.Name == Name && S.End >= S.Start)
      Out.push_back(S.duration());
  return Out;
}

std::vector<double> Tracer::selfTimes() const {
  std::vector<std::vector<const Span *>> Children(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Children[static_cast<std::size_t>(S.Parent)].push_back(&S);
  std::vector<double> Out;
  for (std::size_t I = 0; I < Spans.size(); ++I)
    Out.push_back(uncovered(Spans[I], Children[I]));
  return Out;
}

bool Tracer::writeChromeJson(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  double Origin = Spans.empty() ? 0.0 : Spans.front().Start;
  std::fprintf(F, "{\"traceEvents\": [\n");
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                 "\"args\": {\"id\": %zu, \"parent\": %d, \"op\": %lld}}%s\n",
                 S.Name.c_str(), S.Name.substr(0, S.Name.find('.')).c_str(),
                 (S.Start - Origin) * 1e6, S.duration() * 1e6, I, S.Parent,
                 static_cast<long long>(S.OpId),
                 I + 1 < Spans.size() ? "," : "");
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}
