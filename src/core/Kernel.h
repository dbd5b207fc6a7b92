//===-- core/Kernel.h - Computation kernel interface ------------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The computation-kernel abstraction (the paper's `fupermod_kernel`,
/// Section 4.1). An application provides a serial kernel that is
/// representative of one iteration of its computational core; the
/// framework benchmarks it to build performance models.
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_CORE_KERNEL_H
#define FUPERMOD_CORE_KERNEL_H

#include "support/Registry.h"

#include <cstdint>
#include <memory>

namespace fupermod {

/// A serial computation kernel parameterised by problem size in
/// computation units.
///
/// Lifecycle: initialize(d) once per size, execute() any number of times
/// (each call is one measurable run), finalize() to release resources.
/// The computation unit is defined by the application and must not vary
/// during execution (paper Section 3).
class Kernel {
public:
  virtual ~Kernel();

  /// Number of floating-point operations needed to compute \p Units
  /// computation units (the paper's `complexity`); converts speed from
  /// units/s to FLOPS.
  virtual double complexity(double Units) const = 0;

  /// Allocates and initialises the execution context for a problem of
  /// \p Units computation units, reproducing the memory footprint of the
  /// real application. Returns false if the size cannot be handled.
  virtual bool initialize(std::int64_t Units) = 0;

  /// Runs the kernel once on the context created by initialize().
  virtual void execute() = 0;

  /// Destroys the execution context.
  virtual void finalize() = 0;
};

/// Construction parameters shared by all registered kernels. A kernel
/// factory reads the fields it understands and ignores the rest, so one
/// configuration can be passed uniformly through the engine.
struct KernelConfig {
  /// Blocking factor b (side of one square block).
  std::size_t BlockSize = 16;
  /// Cache-tiled GEMM (optimised BLAS stand-in) over the naive one.
  bool UseBlockedGemm = true;
  /// Register-blocked, runtime-ISA-dispatched micro-kernel (tuned vendor
  /// BLAS stand-in); takes precedence over UseBlockedGemm. Results are
  /// bit-identical to the blocked kernel's (see blas/Gemm.h).
  bool UseMicroGemm = false;
  /// Intra-kernel threads (> 1 selects the multithreaded BLAS stand-in).
  unsigned Threads = 1;
};

/// The kernel registry ("gemm"); additional kernels can be registered by
/// applications. Each factory builds a fresh kernel from a KernelConfig.
using KernelRegistry =
    Registry<std::unique_ptr<Kernel>, const KernelConfig &>;
KernelRegistry &kernelRegistry();

/// Builds the kernel registered under \p Name via kernelRegistry().
/// Returns null on unknown names; when \p Err is non-null it then
/// receives a diagnostic listing every registered kernel.
std::unique_ptr<Kernel> makeKernel(const std::string &Name,
                                   const KernelConfig &Config,
                                   std::string *Err = nullptr);

} // namespace fupermod

#endif // FUPERMOD_CORE_KERNEL_H
