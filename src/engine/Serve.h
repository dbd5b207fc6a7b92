//===-- engine/Serve.h - Batch and streaming request serving ----*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Partition serving for `partitioner --serve`: one long-lived Session
/// loads the models once and answers many (total, algorithm) requests,
/// amortising the model loads/refits and replaying the memoized reply of
/// a repeat request. Model files that change on disk between requests
/// are hot-reloaded ((mtime, size, content-hash) fingerprint).
///
/// Request format, one request per line:
///
///   # comments and blank lines are ignored
///   3000               # partition 3000 units with the default algorithm
///   5000 numerical     # ... with an explicit algorithm
///   reload             # force a model refresh now
///
/// A malformed line does not abort the batch: it is skipped and recorded
/// as a per-request error (`# error: request line N: ...` in the output)
/// while every well-formed request is still answered.
///
/// Two serving modes share the grammar:
///
///  - serveRequests(): the sequential batch mode (one request at a time
///    from a parsed file);
///  - serveStream(): the concurrent transport — reads requests from a
///    stream (stdin, a pipe/FIFO, a socket fd wrapped in a stream),
///    submits them to an engine::Server, and writes the responses back
///    in request order, so external clients can drive the server through
///    a plain pipe while N workers do the work.
///
/// Both modes answer through Session::partitionRendered(), so a repeat
/// request with unchanged models is a replay of the session's memoized
/// reply in either mode.
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_ENGINE_SERVE_H
#define FUPERMOD_ENGINE_SERVE_H

#include "engine/Session.h"

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace fupermod {
namespace engine {

class Server;

/// One parsed request line.
struct ServeRequest {
  /// Units to partition (partition requests only).
  std::int64_t Total = 0;
  /// Algorithm name; empty = the session default.
  std::string Algorithm;
  /// True for an explicit "reload" line.
  bool Reload = false;
  /// 1-based line number the request came from (0 for requests built
  /// programmatically).
  std::size_t LineNo = 0;
  /// Non-empty when the line was malformed: the full line-numbered
  /// diagnostic. Such a request is never solved — serving records it as
  /// a per-request error and moves on.
  std::string ParseError;
};

/// Parses one request line (comment stripping included). Returns false
/// when the line holds no request (blank/comment-only); a malformed line
/// returns true with Out.ParseError set.
bool parseServeLine(const std::string &Line, std::size_t LineNo,
                    ServeRequest &Out);

/// Parses a request file. Malformed lines are kept as error records
/// (skip-and-record) rather than failing the batch; algorithm names are
/// validated later, per request, so one typo never invalidates the
/// others. The Result is failed only when the stream itself is broken.
Result<std::vector<ServeRequest>> parseServeRequests(std::istream &IS);

/// Tally of one serving run.
struct ServeStats {
  /// Partition requests answered successfully.
  int Answered = 0;
  /// Partition requests that failed (error reported inline); includes
  /// the malformed lines.
  int Failed = 0;
  /// Of Failed: malformed request lines (skip-and-record).
  int Malformed = 0;
  /// Requests the server shed with a structured rejection (streaming
  /// mode only).
  int Rejected = 0;
  /// Models hot-reloaded over the run (automatic + explicit).
  int Reloaded = 0;
};

/// Answers every request on \p S sequentially, writing one
/// one-shot-compatible partition block per request to \p OS. File-backed
/// models are refreshed before every request; session warnings are
/// drained as "# warning:" lines; a failed or malformed request prints
/// "# error:" and serving continues.
ServeStats serveRequests(Session &S, std::span<const ServeRequest> Requests,
                         std::ostream &OS);

/// The concurrent transport: reads request lines from \p IS as they
/// arrive, submits them to \p Srv, and writes responses to \p OS in
/// request order (an emitter thread blocks on the oldest in-flight
/// response while newer ones solve behind it, so a pipe client still
/// sees answers promptly and in order). "reload" lines trigger
/// Server::reload(); rejections are written as "# rejected:" records.
/// Returns when \p IS hits EOF and every response has been written.
ServeStats serveStream(Server &Srv, std::istream &IS, std::ostream &OS);

} // namespace engine
} // namespace fupermod

#endif // FUPERMOD_ENGINE_SERVE_H
