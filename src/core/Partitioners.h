//===-- core/Partitioners.h - Static partitioning algorithms ----*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three model-based static data partitioning algorithms of the paper
/// (Section 4.3):
///
///  - partitionConstant: divide in proportion to constant speeds (CPM);
///  - partitionGeometric: iterative bisection of the speed functions with
///    lines through the origin (piecewise FPMs with shape restrictions).
///    A line of slope k in the speed plane, s = k*x, cuts the speed
///    function of process i at the size x_i with x_i / t_i(x_i) = k*x_i,
///    i.e. t_i(x_i) = 1/k: all processes on one line finish at the same
///    time tau = 1/k. The algorithm therefore bisects on tau until
///    sum_i t_i^{-1}(tau) = D;
///  - partitionNumerical: damped Newton on the balance system
///    t_i(x_i) - t_p(x_p) = 0, sum x_i = D over Akima FPMs (continuous
///    derivative), with the geometric solution as the initial guess.
///
/// All algorithms produce integer unit counts summing exactly to D.
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_CORE_PARTITIONERS_H
#define FUPERMOD_CORE_PARTITIONERS_H

#include "core/Partition.h"

namespace fupermod {

/// CPM-based proportional partitioning. Constant speeds are evaluated at
/// the even share D/p (for true ConstantModels the evaluation point is
/// irrelevant).
bool partitionConstant(std::int64_t Total, std::span<Model *const> Models,
                       Dist &Out);

/// Geometric (line-through-origin bisection) partitioning for models with
/// monotone time functions.
bool partitionGeometric(std::int64_t Total, std::span<Model *const> Models,
                        Dist &Out);

/// Numerical partitioning: multidimensional Newton on smooth models;
/// falls back to the geometric solution if Newton stalls.
bool partitionNumerical(std::int64_t Total, std::span<Model *const> Models,
                        Dist &Out);

/// The partitioner registry ("constant", "geometric", "numerical");
/// additional algorithms can be registered by applications.
using PartitionerRegistry = Registry<Partitioner>;
PartitionerRegistry &partitionerRegistry();

/// Looks up a partitioner by name via partitionerRegistry(). Returns a
/// null Partitioner on unknown names; when \p Err is non-null it then
/// receives a diagnostic listing every registered algorithm.
Partitioner findPartitioner(const std::string &Name,
                            std::string *Err = nullptr);

} // namespace fupermod

#endif // FUPERMOD_CORE_PARTITIONERS_H
