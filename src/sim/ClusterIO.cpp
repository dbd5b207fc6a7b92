//===-- sim/ClusterIO.cpp - Cluster description files ---------------------===//

#include "sim/ClusterIO.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

using namespace fupermod;

namespace {

bool fail(std::string *Error, const std::string &Reason) {
  if (Error)
    *Error = Reason;
  return false;
}

/// Parses one `device <node> <form> <name> ...` line; appends to \p Out.
bool parseDevice(std::istringstream &LS, Cluster &Out, std::string *Error) {
  int Node = -1;
  std::string Form, Name;
  if (!(LS >> Node >> Form >> Name) || Node < 0)
    return fail(Error, "malformed device line");

  if (Form == "constant") {
    double Speed = 0.0;
    if (!(LS >> Speed) || Speed <= 0.0)
      return fail(Error, "constant device needs a positive speed");
    Out.Devices.push_back(makeConstantProfile(Name, Speed));
  } else if (Form == "cpu" || Form == "contended") {
    double Peak, Ramp, Cliff, Width, Drop;
    if (!(LS >> Peak >> Ramp >> Cliff >> Width >> Drop) || Peak <= 0.0 ||
        Cliff <= 0.0 || Width <= 0.0 || Drop < 0.0 || Drop >= 1.0)
      return fail(Error, "malformed cpu device parameters");
    DeviceProfile P = makeCpuProfile(Name, Peak, Ramp, Cliff, Width, Drop);
    if (Form == "contended") {
      int Peers = 0;
      double Alpha = 0.0;
      if (!(LS >> Peers >> Alpha) || Peers < 0 || Alpha < 0.0)
        return fail(Error, "malformed contention parameters");
      P = withContention(P, Peers, Alpha);
    }
    Out.Devices.push_back(std::move(P));
  } else if (Form == "gpu") {
    double Peak, Staging, MemLimit, Ooc;
    if (!(LS >> Peak >> Staging >> MemLimit >> Ooc) || Peak <= 0.0 ||
        Staging < 0.0 || MemLimit <= 0.0 || Ooc < 0.0 || Ooc > 1.0)
      return fail(Error, "malformed gpu device parameters");
    Out.Devices.push_back(makeGpuProfile(Name, Peak, Staging, MemLimit,
                                         Ooc));
  } else {
    return fail(Error, "unknown device form '" + Form + "'");
  }
  Out.NodeOfRank.push_back(Node);
  return true;
}

/// A parsed fault line, attached once every device is known.
using PendingFault = std::pair<int, FaultEvent>;

/// Parses one `fault <rank> <kind> ...` line; appends to \p Faults. The
/// caller checks the rank against the devices before attaching it:
/// Cluster::addFault sizes its table by the rank.
bool parseFault(std::istringstream &LS, std::vector<PendingFault> &Faults,
                std::string *Error) {
  int Rank = -1;
  std::string Kind;
  if (!(LS >> Rank >> Kind) || Rank < 0)
    return fail(Error, "malformed fault line");

  FaultEvent E;
  if (Kind == "spike") {
    int AfterCalls = 0, Period = 0;
    double Factor = 0.0;
    if (!(LS >> AfterCalls >> Factor) || AfterCalls < 0 || Factor <= 0.0)
      return fail(Error, "spike fault needs <after_calls> <factor>");
    if (!(LS >> Period))
      Period = 0; // The period is optional.
    if (Period < 0)
      return fail(Error, "spike period must be non-negative");
    E = FaultPlan::spike(AfterCalls, Factor, Period);
  } else if (Kind == "slowdown") {
    double AfterBusy = 0.0, Factor = 0.0;
    if (!(LS >> AfterBusy >> Factor) || AfterBusy < 0.0 || Factor <= 0.0)
      return fail(Error, "slowdown fault needs <after_busy_s> <factor>");
    E = FaultPlan::slowdown(AfterBusy, Factor);
  } else if (Kind == "hang") {
    int AfterCalls = 0;
    double Seconds = 0.0;
    if (!(LS >> AfterCalls >> Seconds) || AfterCalls < 0 || Seconds < 0.0)
      return fail(Error, "hang fault needs <after_calls> <hang_seconds>");
    E = FaultPlan::hang(AfterCalls, Seconds);
  } else if (Kind == "fail") {
    int AfterCalls = 0;
    if (!(LS >> AfterCalls) || AfterCalls < 0)
      return fail(Error, "fail fault needs <after_calls>");
    E = FaultPlan::fail(AfterCalls);
  } else {
    return fail(Error, "unknown fault kind '" + Kind + "'");
  }
  Faults.emplace_back(Rank, E);
  return true;
}

/// Stores an integral equalize knob in [Min, INT_MAX]. The range check
/// precedes the cast, which is undefined for values an int cannot hold.
bool intKnob(const std::string &Key, double Value, int Min, int &Slot,
             std::string *Error) {
  const int Max = std::numeric_limits<int>::max();
  if (!(Value >= Min && Value <= Max) || std::trunc(Value) != Value)
    return fail(Error, "equalize " + Key + " must be an integer in [" +
                           std::to_string(Min) + ", " +
                           std::to_string(Max) + "]");
  Slot = static_cast<int>(Value);
  return true;
}

/// Parses one `equalize <policy> [knob value]...` line into
/// \p Out.Equalize. Knob ranges are checked here (the parser is the
/// tools' first validation line); the policy name resolves against the
/// equalizer registry later, at session creation.
bool parseEqualize(std::istringstream &LS, Cluster &Out, std::string *Error) {
  EqualizeSpec &E = Out.Equalize;
  if (!E.Policy.empty())
    return fail(Error, "duplicate equalize line");
  if (!(LS >> E.Policy))
    return fail(Error, "equalize line needs a policy name");

  std::string Key;
  while (LS >> Key) {
    double Value = 0.0;
    if (!(LS >> Value))
      return fail(Error, "equalize knob '" + Key + "' needs a value");
    if (Key == "threshold") {
      if (Value < 0.0)
        return fail(Error, "equalize threshold must be non-negative");
      E.TriggerThreshold = Value;
    } else if (Key == "clear") {
      if (Value < 0.0)
        return fail(Error, "equalize clear threshold must be non-negative");
      E.ClearThreshold = Value;
    } else if (Key == "cooldown") {
      if (!intKnob(Key, Value, 0, E.Cooldown, Error))
        return false;
    } else if (Key == "breaches") {
      if (!intKnob(Key, Value, 1, E.MinBreaches, Error))
        return false;
    } else if (Key == "alpha") {
      if (!(Value > 0.0) || Value > 1.0)
        return fail(Error, "equalize alpha must be in (0, 1]");
      E.EwmaAlpha = Value;
    } else if (Key == "period") {
      if (!intKnob(Key, Value, 1, E.Period, Error))
        return false;
    } else if (Key == "horizon") {
      if (!intKnob(Key, Value, 0, E.HorizonRounds, Error))
        return false;
    } else {
      return fail(Error, "unknown equalize knob '" + Key + "'");
    }
  }
  return true;
}

} // namespace

std::optional<Cluster> fupermod::parseCluster(std::istream &IS,
                                              std::string *Error) {
  Cluster Out;
  Out.Devices.clear();
  Out.NodeOfRank.clear();
  std::vector<PendingFault> Faults;
  std::string Line;
  while (std::getline(IS, Line)) {
    std::size_t Hash = Line.find('#');
    if (Hash != std::string::npos)
      Line.resize(Hash);
    std::istringstream LS(Line);
    std::string Key;
    if (!(LS >> Key))
      continue; // Blank or comment-only line.
    if (Key == "noise") {
      if (!(LS >> Out.NoiseSigma) || Out.NoiseSigma < 0.0) {
        fail(Error, "malformed noise line");
        return std::nullopt;
      }
    } else if (Key == "seed") {
      if (!(LS >> Out.Seed)) {
        fail(Error, "malformed seed line");
        return std::nullopt;
      }
    } else if (Key == "intra" || Key == "inter") {
      double Latency = 0.0, Bandwidth = 0.0;
      if (!(LS >> Latency >> Bandwidth) || Latency < 0.0 ||
          Bandwidth <= 0.0) {
        fail(Error, "malformed link line");
        return std::nullopt;
      }
      LinkCost &Link = Key == "intra" ? Out.Intra : Out.Inter;
      Link.Latency = Latency;
      Link.BytePeriod = 1.0 / Bandwidth;
    } else if (Key == "node") {
      int Node = -1;
      double Latency = 0.0, Bandwidth = 0.0;
      if (!(LS >> Node >> Latency >> Bandwidth) || Node < 0 ||
          Latency < 0.0 || Bandwidth <= 0.0) {
        fail(Error, "malformed node line");
        return std::nullopt;
      }
      if (!Out.NodeIntra.emplace(Node, LinkCost{Latency, 1.0 / Bandwidth})
               .second) {
        fail(Error, "duplicate node line for node " + std::to_string(Node));
        return std::nullopt;
      }
    } else if (Key == "device") {
      if (!parseDevice(LS, Out, Error))
        return std::nullopt;
    } else if (Key == "fault") {
      if (!parseFault(LS, Faults, Error))
        return std::nullopt;
    } else if (Key == "equalize") {
      if (!parseEqualize(LS, Out, Error))
        return std::nullopt;
    } else {
      fail(Error, "unknown key '" + Key + "'");
      return std::nullopt;
    }
  }
  if (Out.Devices.empty()) {
    fail(Error, "cluster has no devices");
    return std::nullopt;
  }
  for (const auto &[Rank, E] : Faults) {
    if (static_cast<std::size_t>(Rank) >= Out.Devices.size()) {
      fail(Error, "fault line references a rank with no device");
      return std::nullopt;
    }
    Out.addFault(Rank, E);
  }
  for (const auto &[Node, Link] : Out.NodeIntra) {
    (void)Link;
    bool Known = false;
    for (int N : Out.NodeOfRank)
      Known = Known || N == Node;
    if (!Known) {
      fail(Error, "node line for node " + std::to_string(Node) +
                      " which has no devices");
      return std::nullopt;
    }
  }
  return Out;
}

std::optional<Cluster> fupermod::loadCluster(const std::string &Path,
                                             std::string *Error) {
  std::ifstream IS(Path);
  if (!IS) {
    fail(Error, "cannot open '" + Path + "'");
    return std::nullopt;
  }
  return parseCluster(IS, Error);
}

std::optional<Cluster> fupermod::resolveCluster(const std::string &Spec,
                                                std::string *Error) {
  if (Spec == "two-device")
    return makeTwoDeviceCluster();
  if (Spec == "hcl")
    return makeHclLikeCluster(true);
  if (Spec == "hcl-nogpu")
    return makeHclLikeCluster(false);
  if (Spec.rfind("uniform", 0) == 0 && Spec.size() > 7) {
    int P = std::atoi(Spec.c_str() + 7);
    if (P > 0)
      return makeUniformCluster(P, 100.0);
  }
  return loadCluster(Spec, Error);
}
