// Environment stamp printed with every result, and the build check that
// refuses to report numbers from a debug or sanitizer build.
#ifndef FTS_PERFBENCH_ENVIRONMENT_H_
#define FTS_PERFBENCH_ENVIRONMENT_H_

#include <string>

namespace perfbench {

// Empty when this binary is an optimized, uninstrumented build; otherwise
// why its timings must not be reported.
std::string BuildRefusal();

// The stamp as a JSON object: nproc, L3 size, CPU SIMD features
// (AVX-512 flags), PMU availability, the JIT compiler's path and version,
// build type, and a digest of the calibrated cost profile. Call after the
// profile has been calibrated.
std::string EnvironmentJson();

// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

// Heap bytes the program holds right now (malloc'd and not freed,
// mmap'd chunks included), in MiB. Unlike the resident set it does not
// count free memory the allocator keeps.
double HeapInUseMb();

}  // namespace perfbench

#endif  // FTS_PERFBENCH_ENVIRONMENT_H_
