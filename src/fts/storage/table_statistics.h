#ifndef FTS_STORAGE_TABLE_STATISTICS_H_
#define FTS_STORAGE_TABLE_STATISTICS_H_

#include <memory>
#include <vector>

#include "fts/storage/compare_op.h"
#include "fts/storage/table.h"
#include "fts/storage/value.h"
#include "fts/storage/zone_map.h"

namespace fts {

// One value that the sample saw often, with its sampled frequency.
struct CommonValue {
  double value = 0.0;
  double frequency = 0.0;
};

// Per-column summary statistics behind the single selectivity estimator
// that both the optimizer's predicate reordering (Section V: predicates
// are evaluated "in the most efficient order") and the scan's per-chunk
// re-ranking consult.
struct ColumnStatistics {
  // Union of the chunks' zone-map bounds, widened by the sampled values
  // of chunks without one. False when neither exists (e.g. all NaN).
  bool bounded = false;
  double min = 0.0;
  double max = 0.0;
  // Integral columns count (max - min + 1) values in a range.
  bool integral = true;
  // Estimated distinct values. Bounded by the chunks' dictionary code
  // spans when every chunk is dictionary-coded (exact for one chunk).
  double distinct_count = 1.0;
  // Most common sampled values, sorted by value, and their summed
  // frequency.
  std::vector<CommonValue> common_values;
  double common_frequency = 0.0;
  // Equi-depth quantiles of the sampled values (empty without any): how
  // much of the column a chunk's bounds hold.
  std::vector<double> quantiles;
};

// Statistics for every column of a table, built once when the table is
// constructed (TableBuilder::Build) from the chunks' zone maps plus one
// evenly strided sample of at most 64K rows.
class TableStatistics {
 public:
  static TableStatistics Compute(const Table& table);

  const ColumnStatistics& column(size_t index) const;
  size_t column_count() const { return columns_.size(); }
  uint64_t row_count() const { return row_count_; }

  // Estimated fraction of the rows under `zone` (one chunk's zone map for
  // this column; nullptr for the whole column's bounds) satisfying
  // (column `op` value), in [0, 1]. Ranges are prorated uniformly over the
  // bounds, so per-chunk estimates see skew. = and <> use the value's
  // sampled frequency (for a value the sample did not find common,
  // (1 - common frequency) / (remaining distinct values)), scaled up by
  // the share of the column's rows the zone's bounds hold.
  double EstimateSelectivity(size_t column_index, CompareOp op,
                             const Value& value, const ZoneMap* zone) const;

 private:
  std::vector<ColumnStatistics> columns_;
  uint64_t row_count_ = 0;
};

// Whole-table estimate for the planner: EstimateSelectivity over every
// chunk's zone map, weighted by the chunk's rows.
double EstimateTableSelectivity(const Table& table, size_t column_index,
                                CompareOp op, const Value& value);

// The statistics `table` was built with.
std::shared_ptr<const TableStatistics> GetCachedStatistics(
    const TablePtr& table);

}  // namespace fts

#endif  // FTS_STORAGE_TABLE_STATISTICS_H_
