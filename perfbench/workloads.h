// Workload definitions of the end-to-end SQL benchmark: how each workload
// builds its table, which SQL it sends, and in what order. Everything is
// derived from the run's seed; the engine only ever sees the generated
// table and SQL text.
#ifndef FTS_PERFBENCH_WORKLOADS_H_
#define FTS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fts/common/random.h"
#include "fts/simd/scan_stage.h"
#include "fts/storage/compare_op.h"
#include "fts/storage/table.h"

namespace perfbench {

// Every workload registers its table under this name.
inline constexpr char kTableName[] = "t";

enum class WorkloadKind { kEqScan, kProject, kIngestCold };

struct WorkloadSpec {
  WorkloadKind kind;
  const char* name;
  size_t rows;
  // Scan threads; 0 = one per hardware thread.
  int threads;
  // Cold first queries per set-up rep. Each runs on a table object no
  // query has planned against yet; eq_scan_16m runs fewer, as its
  // statistics build takes seconds.
  int cold_per_rep;
};

// The workload named `name`, if it exists.
std::optional<WorkloadSpec> FindWorkload(std::string_view name);

// Derives an independent sub-seed (splitmix64 of seed ^ salt).
uint64_t SubSeed(uint64_t seed, uint64_t salt);

// A plain column whose element type the JIT compiles without demotion.
struct JitColumn {
  std::string name;
  fts::ScanElementType type;
  // Literals for fresh shapes are drawn from this open interval, which
  // lies strictly inside the column's values so zone maps can neither
  // prune a chunk nor drop the stage as a tautology.
  double literal_lo;
  double literal_hi;
};

// The workload's table and what the benchmark knows about it.
struct BuiltTable {
  fts::TablePtr table;
  // Columns a fresh JIT shape may use.
  std::vector<JitColumn> jit_columns;
  // Element bytes per row of each column, by name (predicate-column bytes
  // for the roofline ratio).
  std::vector<std::pair<std::string, size_t>> column_bytes;
};

// Builds the workload's table from `seed`: the same seed gives the same
// rows, encodings and chunking. eq_scan_16m uses MakeScanTable; the other
// workloads ingest row by row through TableBuilder::AppendRow + Build.
BuiltTable BuildTable(const WorkloadSpec& spec, uint64_t seed);

// The queries of a workload. `warm` are the timed queries; `cold` are
// first queries on a freshly ingested table (ingest_cold only; empty
// elsewhere, where set-up runs warm-pool queries as the cold ones).
struct QueryPools {
  std::vector<std::string> warm;
  std::vector<std::string> cold;
};
QueryPools MakeQueryPools(const WorkloadSpec& spec, uint64_t seed);

// Closed-loop op order: repeated seed-shuffled permutations of the pool,
// so every distinct query carries the same weight in every run.
class OpStream {
 public:
  OpStream(size_t pool_size, uint64_t seed);
  size_t Next();

 private:
  void Refill();

  fts::Xoshiro256 rng_;
  std::vector<size_t> order_;
  size_t cursor_ = 0;
};

// Enumerates JIT shapes — element types x comparison ops over a fixed
// stage count, each stage on a distinct JIT-eligible column — in seed
// order, and never yields two shapes with the same multiset of
// (type, op) stages. The JIT caches operators by that multiset (in
// whatever order the planner and cost model arrange it), so every
// yielded query compiles code this process has never compiled. Dies
// with a message instead of reusing a shape when the space runs out.
class ShapeGenerator {
 public:
  ShapeGenerator(std::vector<JitColumn> columns, size_t stages,
                 uint64_t seed);

  // SQL of the next fresh shape: COUNT(*) over the shape's conjunction.
  std::string Next();
  size_t remaining() const { return shapes_.size() - cursor_; }

 private:
  struct Stage {
    size_t column;
    fts::CompareOp op;
  };
  std::vector<JitColumn> columns_;
  std::vector<std::vector<Stage>> shapes_;
  size_t cursor_ = 0;
  fts::Xoshiro256 rng_;
};

}  // namespace perfbench

#endif  // FTS_PERFBENCH_WORKLOADS_H_
