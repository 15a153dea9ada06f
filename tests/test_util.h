#ifndef FTS_TESTS_TEST_UTIL_H_
#define FTS_TESTS_TEST_UTIL_H_

// Shared helpers for the test suites. The one facility that matters for
// the randomized suites (property_test, differential_test): FTS_TEST_SEED.
// Every randomized failure message prints a replay command of the form
//
//   FTS_TEST_SEED=<seed> ./build/tests/<binary>
//
// and setting that variable makes the parameterized suites run *only* the
// named seed, so a fuzz failure reproduces in one process with one case.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fts/common/env.h"
#include "fts/common/string_util.h"
#include "fts/exec/parallel_scan.h"
#include "fts/scan/table_scan.h"

namespace fts::testing {

// Seed forced via FTS_TEST_SEED, if any. Unset (or negative) means "run
// the suite's normal seed range".
inline std::optional<uint64_t> SeedOverride() {
  const int64_t seed = GetEnvInt64("FTS_TEST_SEED", -1);
  if (seed < 0) return std::nullopt;
  return static_cast<uint64_t>(seed);
}

// The seeds a parameterized suite should instantiate: [lo, hi) normally,
// or just the FTS_TEST_SEED override when one is set.
inline std::vector<uint64_t> SeedRange(uint64_t lo, uint64_t hi) {
  if (const auto forced = SeedOverride()) return {*forced};
  std::vector<uint64_t> seeds;
  seeds.reserve(static_cast<size_t>(hi - lo));
  for (uint64_t seed = lo; seed < hi; ++seed) seeds.push_back(seed);
  return seeds;
}

// Replay hint appended to randomized-failure messages.
inline std::string ReplayCommand(const char* binary, uint64_t seed) {
  return StrFormat("replay: FTS_TEST_SEED=%llu ./build/tests/%s",
                   static_cast<unsigned long long>(seed), binary);
}

// Options that run a prepared scan the way a one-thread query with an
// explicit kJit engine does: the morsel driver inline on the caller, each
// chunk walking the degradation ladder down from JIT at `register_bits`.
// `cache` null = GlobalJitCache().
inline ParallelScanOptions JitScanOptions(int register_bits = 512,
                                          JitCache* cache = nullptr) {
  ParallelScanOptions options;
  options.requested = {ScanEngine::kJit, register_bits};
  options.threads = 1;
  options.cache = cache;
  return options;
}

// Prepare + one-thread JIT scan (see JitScanOptions).
inline StatusOr<TableMatches> JitScan(const TablePtr& table,
                                      const ScanSpec& spec,
                                      int register_bits = 512,
                                      JitCache* cache = nullptr,
                                      ExecutionReport* report = nullptr) {
  FTS_ASSIGN_OR_RETURN(const TableScanner scanner,
                       TableScanner::Prepare(table, spec));
  return ExecuteParallelScan(scanner, JitScanOptions(register_bits, cache),
                             report);
}

// Count-only twin of JitScan: JIT chunks compile count-only operators.
inline StatusOr<uint64_t> JitScanCount(const TablePtr& table,
                                       const ScanSpec& spec,
                                       int register_bits = 512,
                                       JitCache* cache = nullptr) {
  FTS_ASSIGN_OR_RETURN(const TableScanner scanner,
                       TableScanner::Prepare(table, spec));
  return ExecuteParallelScanCount(scanner,
                                  JitScanOptions(register_bits, cache));
}

}  // namespace fts::testing

#endif  // FTS_TESTS_TEST_UTIL_H_
