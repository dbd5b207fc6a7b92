//===-- support/Options.h - Tiny command-line parser ------------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal `--key value` / `--flag` command-line parsing for the tools
/// (builder, partitioner). Unknown arguments are collected so tools can
/// report them.
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_SUPPORT_OPTIONS_H
#define FUPERMOD_SUPPORT_OPTIONS_H

#include "support/Result.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fupermod {

/// Parsed command line: `--key value` pairs, bare `--flag`s (value ""),
/// and positional arguments.
class Options {
public:
  Options(int Argc, const char *const *Argv);

  /// Like the plain constructor, but keys listed in \p Flags are boolean:
  /// they never consume the following token as a value, so a flag can
  /// directly precede a positional argument (`--stats model0.fpm`).
  Options(int Argc, const char *const *Argv,
          const std::vector<std::string> &Flags);

  /// True when `--key` appeared (with or without a value).
  bool has(const std::string &Key) const;

  /// Value of `--key`, or \p Default when absent.
  std::string get(const std::string &Key,
                  const std::string &Default = "") const;

  /// Numeric accessors; fall back to \p Default when absent or
  /// unparseable.
  double getDouble(const std::string &Key, double Default) const;
  std::int64_t getInt(const std::string &Key, std::int64_t Default) const;

  /// Strict numeric accessors: an absent key yields \p Default, but a
  /// value that is present and not fully numeric (or, for checkedInt,
  /// outside the int64 range) is an error naming the option and the
  /// offending text — the tools print it verbatim and exit nonzero
  /// instead of silently running with the default.
  Result<std::int64_t> checkedInt(const std::string &Key,
                                  std::int64_t Default) const;
  Result<double> checkedDouble(const std::string &Key, double Default) const;

  /// `--key`s that appeared on the command line but are not in \p Known
  /// (so tools can reject mistyped flags instead of ignoring them).
  std::vector<std::string>
  unknownKeys(const std::vector<std::string> &Known) const;

  /// Arguments that did not start with `--`.
  const std::vector<std::string> &positional() const { return Positional; }

  /// Program name (argv[0]).
  const std::string &program() const { return Program; }

private:
  std::string Program;
  std::map<std::string, std::string> Values;
  std::vector<std::string> Positional;
};

} // namespace fupermod

#endif // FUPERMOD_SUPPORT_OPTIONS_H
