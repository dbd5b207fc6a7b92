//===-- perfbench/cpp/Common.cpp - Shared benchmark plumbing --------------===//

#include "Common.h"

#include "blas/Gemm.h"

#include <cpuid.h>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <sys/resource.h>
#include <unistd.h>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_NATIVE
#define PERFBENCH_NATIVE 0
#endif

using namespace perfbench;

std::uint64_t SeedStream::next() {
  std::uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

double SeedStream::uniform(double Lo, double Hi) {
  double U = static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
  return Lo + (Hi - Lo) * U;
}

bool Window::more(std::size_t Done) const {
  double Elapsed = now() - Start;
  return Elapsed < 4.0 * Seconds && (Elapsed < Seconds || Done < MinOps);
}

double perfbench::peakRssMib() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

double perfbench::cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) +
           1e-6 * static_cast<double>(T.tv_usec);
  };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

double perfbench::stealSeconds() {
  std::ifstream IS("/proc/stat");
  std::string Cpu;
  // user nice system idle iowait irq softirq steal
  unsigned long long Field[8] = {};
  if (!(IS >> Cpu) || Cpu != "cpu")
    return 0.0;
  for (unsigned long long &F : Field)
    IS >> F;
  return IS ? static_cast<double>(Field[7]) /
                  static_cast<double>(sysconf(_SC_CLK_TCK))
            : 0.0;
}

std::uint64_t perfbench::fnv1a(const void *Data, std::size_t Len,
                               std::uint64_t Hash) {
  const auto *P = static_cast<const unsigned char *>(Data);
  for (std::size_t I = 0; I < Len; ++I) {
    Hash ^= P[I];
    Hash *= 0x100000001b3ull;
  }
  return Hash;
}

namespace {

/// CPU brand string from CPUID leaves 0x80000002..4.
std::string cpuModel() {
  unsigned Regs[12] = {};
  for (unsigned Leaf = 0; Leaf < 3; ++Leaf)
    if (!__get_cpuid(0x80000002u + Leaf, &Regs[4 * Leaf], &Regs[4 * Leaf + 1],
                     &Regs[4 * Leaf + 2], &Regs[4 * Leaf + 3]))
      return "unknown";
  char Brand[49] = {};
  std::memcpy(Brand, Regs, 48);
  std::string S(Brand);
  std::size_t First = S.find_first_not_of(' ');
  return First == std::string::npos ? "unknown" : S.substr(First);
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out;
}

} // namespace

std::string perfbench::environmentJson() {
  std::ostringstream OS;
  OS << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN) << ", \"cpu\": \""
     << jsonEscape(cpuModel()) << "\", \"l2_bytes\": "
     << sysconf(_SC_LEVEL2_CACHE_SIZE)
     << ", \"l3_bytes\": " << sysconf(_SC_LEVEL3_CACHE_SIZE)
     << ", \"compiler\": \"g++ " << jsonEscape(__VERSION__)
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"fupermod_native\": " << (PERFBENCH_NATIVE ? "true" : "false")
     << ", \"gemm_isa\": \""
     << fupermod::gemmIsaName(fupermod::gemmMicroIsa()) << "\"}";
  return OS.str();
}

std::string perfbench::readFile(const std::string &Path) {
  std::ifstream IS(Path, std::ios::binary);
  std::ostringstream SS;
  SS << IS.rdbuf();
  return SS.str();
}

bool perfbench::writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  OS << Text;
  return static_cast<bool>(OS);
}

std::string perfbench::fmt(double V, int Digits) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*g", Digits, V);
  return Buf;
}
