//===-- sim/Cluster.h - Simulated heterogeneous clusters --------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cluster descriptions: a set of simulated devices (one per rank), their
/// node placement, and link costs. Presets model the kind of dedicated
/// heterogeneous platforms the paper targets (hierarchies of uniprocessors,
/// multicores and GPU-accelerated nodes on Grid'5000 / the UCD HCL
/// cluster).
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_SIM_CLUSTER_H
#define FUPERMOD_SIM_CLUSTER_H

#include "mpp/CostModel.h"
#include "sim/SimDevice.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace fupermod {

/// Equalization knobs carried by a cluster description's `equalize`
/// line. The sim layer cannot depend on the equalize subsystem, so the
/// spec is plain data; equalize::configFromSpec() converts it into an
/// EqualizeConfig, and the policy name is validated there against the
/// equalizer registry (the parser only checks ranges).
struct EqualizeSpec {
  /// Policy name ("off", "every", "threshold", "arbitrated"); empty =
  /// no `equalize` line (apps then balance every round).
  std::string Policy;
  /// Trigger when the windowed imbalance exceeds this.
  double TriggerThreshold = 0.25;
  /// Hysteresis re-arm level (clamped to at most TriggerThreshold).
  double ClearThreshold = 0.1;
  /// Rounds after a trigger during which no new trigger fires.
  int Cooldown = 0;
  /// Consecutive breach rounds required before a trigger.
  int MinBreaches = 1;
  /// EWMA weight of the newest sample, in (0, 1].
  double EwmaAlpha = 1.0;
  /// Cadence of the every-K policy.
  int Period = 1;
  /// Benefit horizon (rounds) of the cost-arbitrated policy.
  int HorizonRounds = 10;
};

/// A simulated platform: one device per rank plus communication topology.
struct Cluster {
  /// Ground-truth device profile of each rank.
  std::vector<DeviceProfile> Devices;
  /// Node id of each rank (ranks on a node share the fast link).
  std::vector<int> NodeOfRank;
  /// Shared-memory link between ranks on the same node.
  LinkCost Intra{/*Latency=*/1e-6, /*BytePeriod=*/1.0 / 8e9};
  /// Network link between nodes.
  LinkCost Inter{/*Latency=*/5e-5, /*BytePeriod=*/1.0 / 1e9};
  /// Per-node overrides of the intra-node link (`.cluster` `node` lines);
  /// nodes not listed here use Intra.
  std::map<int, LinkCost> NodeIntra;
  /// Relative measurement noise of every device.
  double NoiseSigma = 0.02;
  /// Base RNG seed; rank r's device uses Seed + r.
  std::uint64_t Seed = 42;
  /// Per-rank fault schedules; may be shorter than Devices (trailing
  /// ranks then have no faults). Attached by makeDevice.
  std::vector<FaultPlan> Faults;
  /// Equalization knobs from the description's `equalize` line (empty
  /// Policy when absent). Engine sessions adopt them when their own
  /// config leaves the policy unset.
  EqualizeSpec Equalize;

  /// Number of ranks.
  int size() const { return static_cast<int>(Devices.size()); }

  /// Cost model for the mpp runtime.
  std::shared_ptr<const CostModel> makeCostModel() const;

  /// Instantiates a noisy SimDevice per rank (deterministic per seed).
  std::vector<SimDevice> makeDevices() const;

  /// The device for one rank, with its fault plan (if any) attached.
  SimDevice makeDevice(int Rank) const;

  /// Appends \p E to rank \p Rank's fault schedule.
  void addFault(int Rank, FaultEvent E);
};

/// Two devices with very different speed functions; used for the Fig. 3
/// partial-FPM construction experiment.
Cluster makeTwoDeviceCluster();

/// A heterogeneous node mix reminiscent of the UCD HCL cluster: fast and
/// slow CPU cores (with different cache cliffs), a contended multicore
/// pair, and a GPU with limited device memory. \p WithGpu controls the
/// accelerator's presence.
Cluster makeHclLikeCluster(bool WithGpu = true);

/// \p P identical constant-speed devices (homogeneous control case).
Cluster makeUniformCluster(int P, double UnitsPerSec);

/// \p P devices with deterministically varied speed functions — a mix of
/// constant and cpu-like profiles (peaks, cliffs and ramps drawn from a
/// SplitMix64 stream seeded with \p Variant). The scalable platform of
/// the build-throughput bench and the partitioner property tests: every
/// (P, Variant) pair names the same cluster forever.
Cluster makeHeterogeneousCluster(int P, std::uint64_t Variant = 1);

} // namespace fupermod

#endif // FUPERMOD_SIM_CLUSTER_H
