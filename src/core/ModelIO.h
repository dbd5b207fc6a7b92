//===-- core/ModelIO.h - Model persistence ----------------------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Text-format persistence for performance models and distributions. The
/// original FuPerMod ships `builder` and `partitioner` command-line tools
/// that communicate through model data files: the models are built once
/// (expensively) and reused by many application runs (paper Section 4.3).
/// The format is line-oriented and human-readable:
///
///   # fupermod model
///   kind <cpm|piecewise|akima>
///   points <N>
///   <units> <time> <reps> <ci> [weight]
///   ...
///
/// The point sizes are distinct and ascending, as the writer emits them.
/// The optional trailing weight column records a point's staleness-decayed
/// merge weight when it no longer equals the repetition count, so a
/// reloaded model merges future measurements exactly like the in-memory
/// model it was saved from. Files without the column (the historical
/// format) read back with weight = reps, which is the undecayed state.
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_CORE_MODELIO_H
#define FUPERMOD_CORE_MODELIO_H

#include "core/Model.h"
#include "core/Partition.h"

#include <iosfwd>
#include <memory>
#include <string>

namespace fupermod {

/// Writes \p M (kind, feasibility limit, experimental points and their
/// merge weights) to \p OS. Returns false on stream failure.
bool writeModel(std::ostream &OS, const Model &M);

/// Reads a model written by writeModel(). Returns null on malformed
/// input; when \p Err is non-null it then receives a diagnostic naming
/// the offending line. Every header value and point field must convert
/// in full, and the `points` count only bounds the lines read, so a
/// hostile file fails with a diagnostic instead of throwing.
std::unique_ptr<Model> readModel(std::istream &IS,
                                 std::string *Err = nullptr);

/// Writes \p M to \p Path (overwrites). Returns false on I/O failure.
bool saveModel(const std::string &Path, const Model &M);

/// Reads a model from \p Path. Returns null when the file is missing or
/// malformed; when \p Err is non-null it then receives a diagnostic
/// prefixed with the path, distinguishing an unreadable file from a
/// parse error.
std::unique_ptr<Model> loadModel(const std::string &Path,
                                 std::string *Err = nullptr);

/// Writes a distribution as lines of "rank units predicted_time".
bool writeDist(std::ostream &OS, const Dist &D);

/// Reads a distribution written by writeDist(). Returns false on
/// malformed input; when \p Err is non-null it then receives a
/// diagnostic, naming the offending line where there is one.
bool readDist(std::istream &IS, Dist &Out, std::string *Err = nullptr);

} // namespace fupermod

#endif // FUPERMOD_CORE_MODELIO_H
