//===-- support/Options.cpp - Tiny command-line parser --------------------===//

#include "support/Options.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

using namespace fupermod;

Options::Options(int Argc, const char *const *Argv)
    : Options(Argc, Argv, {}) {}

Options::Options(int Argc, const char *const *Argv,
                 const std::vector<std::string> &Flags) {
  if (Argc > 0)
    Program = Argv[0];
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--", 0) != 0) {
      Positional.push_back(Arg);
      continue;
    }
    std::string Key = Arg.substr(2);
    std::string Value;
    // `--key=value`, or `--key value` (next token not starting with --)
    // unless the key is a declared boolean flag.
    std::size_t Eq = Key.find('=');
    if (Eq != std::string::npos) {
      Value = Key.substr(Eq + 1);
      Key = Key.substr(0, Eq);
    } else if (std::find(Flags.begin(), Flags.end(), Key) == Flags.end() &&
               I + 1 < Argc &&
               std::string(Argv[I + 1]).rfind("--", 0) != 0) {
      Value = Argv[++I];
    }
    Values[Key] = Value;
  }
}

bool Options::has(const std::string &Key) const {
  return Values.count(Key) > 0;
}

std::string Options::get(const std::string &Key,
                         const std::string &Default) const {
  auto It = Values.find(Key);
  return It == Values.end() ? Default : It->second;
}

double Options::getDouble(const std::string &Key, double Default) const {
  auto It = Values.find(Key);
  if (It == Values.end() || It->second.empty())
    return Default;
  char *End = nullptr;
  double V = std::strtod(It->second.c_str(), &End);
  return End && *End == '\0' ? V : Default;
}

std::int64_t Options::getInt(const std::string &Key,
                             std::int64_t Default) const {
  auto It = Values.find(Key);
  if (It == Values.end() || It->second.empty())
    return Default;
  char *End = nullptr;
  long long V = std::strtoll(It->second.c_str(), &End, 10);
  return End && *End == '\0' ? static_cast<std::int64_t>(V) : Default;
}

Result<std::int64_t> Options::checkedInt(const std::string &Key,
                                         std::int64_t Default) const {
  using R = Result<std::int64_t>;
  auto It = Values.find(Key);
  if (It == Values.end())
    return Default;
  if (It->second.empty())
    return R::failure("option --" + Key + " requires an integer value");
  char *End = nullptr;
  errno = 0;
  long long V = std::strtoll(It->second.c_str(), &End, 10);
  if (!End || *End != '\0')
    return R::failure("option --" + Key + ": expected an integer, got '" +
                      It->second + "'");
  if (errno == ERANGE)
    return R::failure("option --" + Key + ": integer out of range, got '" +
                      It->second + "'");
  return static_cast<std::int64_t>(V);
}

Result<double> Options::checkedDouble(const std::string &Key,
                                      double Default) const {
  using R = Result<double>;
  auto It = Values.find(Key);
  if (It == Values.end())
    return Default;
  if (It->second.empty())
    return R::failure("option --" + Key + " requires a numeric value");
  char *End = nullptr;
  double V = std::strtod(It->second.c_str(), &End);
  if (!End || *End != '\0')
    return R::failure("option --" + Key + ": expected a number, got '" +
                      It->second + "'");
  return V;
}

std::vector<std::string>
Options::unknownKeys(const std::vector<std::string> &Known) const {
  std::vector<std::string> Out;
  for (const auto &[Key, Value] : Values)
    if (std::find(Known.begin(), Known.end(), Key) == Known.end())
      Out.push_back(Key);
  return Out;
}
