#include "fts/storage/table_statistics.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "fts/common/macros.h"
#include "fts/storage/delta_column.h"

namespace fts {
namespace {

// Rows sampled per table, evenly strided over all of them.
constexpr uint64_t kSampleRows = uint64_t{1} << 16;
// Longest most-common-value list kept per column.
constexpr size_t kMaxCommonValues = 32;
// Equi-depth buckets of the per-column quantile sketch.
constexpr size_t kQuantileBuckets = 64;

// Appends rows first, first + stride, ... of `column` to `out`, read
// through the encoding's own accessor. Delta blocks are decoded once each
// instead of prefix-summing every sampled row from its block start.
void SampleColumn(const BaseColumn& column, size_t first, size_t stride,
                  std::vector<double>* out) {
  if (column.encoding() == ColumnEncoding::kDelta) {
    DispatchDataType(column.data_type(), [&](auto tag) {
      using T = decltype(tag);
      if constexpr (std::is_integral_v<T>) {
        const auto& delta = static_cast<const DeltaColumn<T>&>(column);
        std::vector<T> block(kDeltaBlockRows);
        size_t decoded = SIZE_MAX;
        for (size_t row = first; row < column.size(); row += stride) {
          const size_t index = row / kDeltaBlockRows;
          if (index != decoded) {
            delta.DecodeBlock(index, block.data());
            decoded = index;
          }
          out->push_back(
              static_cast<double>(block[row - index * kDeltaBlockRows]));
        }
      }
    });
    return;
  }
  for (size_t row = first; row < column.size(); row += stride) {
    out->push_back(ValueAs<double>(column.GetValue(row)));
  }
}

void Widen(ColumnStatistics* stats, double lo, double hi) {
  stats->min = stats->bounded ? std::min(stats->min, lo) : lo;
  stats->max = stats->bounded ? std::max(stats->max, hi) : hi;
  stats->bounded = true;
}

// Fills distinct_count and the most common values from the sampled rows
// (NaN included; sorted in place) of a column of `rows` rows.
void Summarize(std::vector<double>* sample_rows, uint64_t rows,
               ColumnStatistics* out) {
  std::vector<double>& sample = *sample_rows;
  const double sampled = static_cast<double>(sample.size());
  std::erase_if(sample, [](double v) { return std::isnan(v); });
  std::sort(sample.begin(), sample.end());
  if (!sample.empty()) {
    out->quantiles.resize(kQuantileBuckets + 1);
    for (size_t i = 0; i <= kQuantileBuckets; ++i) {
      out->quantiles[i] = sample[i * (sample.size() - 1) / kQuantileBuckets];
    }
  }
  // One pass over the runs of equal values: the distinct and singleton
  // counts, and a min-heap (by count) of the most common values, which
  // hold their counts in `frequency` until the end.
  double seen = 0.0;
  double singletons = 0.0;
  std::vector<CommonValue> common;
  const auto rarer = [](const CommonValue& a, const CommonValue& b) {
    return a.frequency > b.frequency;
  };
  for (size_t i = 0; i < sample.size();) {
    size_t j = i + 1;
    while (j < sample.size() && sample[j] == sample[i]) ++j;
    const double count = static_cast<double>(j - i);
    seen += 1.0;
    if (count == 1.0) singletons += 1.0;
    if (count >= 2.0 && (common.size() < kMaxCommonValues ||
                         count > common.front().frequency)) {
      if (common.size() == kMaxCommonValues) {
        std::pop_heap(common.begin(), common.end(), rarer);
        common.pop_back();
      }
      common.push_back({sample[i], count});
      std::push_heap(common.begin(), common.end(), rarer);
    }
    i = j;
  }
  // Haas and Stokes' Duj1 estimator, the one PostgreSQL's ANALYZE uses:
  // n*d / (n - f1 + f1*n/N) for d values seen, f1 of them once, in n
  // sampled of N rows. Exact when the sample is the whole column; a
  // column whose sampled values are all unique scales to N.
  const double n = static_cast<double>(sample.size());
  if (n > 0.0) {
    out->distinct_count =
        n * seen / (n - singletons + singletons * n / static_cast<double>(rows));
  }
  std::sort(common.begin(), common.end(),
            [](const CommonValue& a, const CommonValue& b) {
              return a.value < b.value;
            });
  for (CommonValue& value : common) {
    value.frequency /= sampled;
    out->common_frequency += value.frequency;
  }
  out->common_values = std::move(common);
}

// Estimated fraction of rows holding exactly `v`.
double EqualFrequency(const ColumnStatistics& stats, double v) {
  const auto it = std::lower_bound(
      stats.common_values.begin(), stats.common_values.end(), v,
      [](const CommonValue& c, double x) { return c.value < x; });
  if (it != stats.common_values.end() && it->value == v) {
    return it->frequency;
  }
  const double others =
      stats.distinct_count - static_cast<double>(stats.common_values.size());
  return others >= 1.0 ? std::max(0.0, 1.0 - stats.common_frequency) / others
                       : 0.0;
}

// Estimated fraction of the column's rows whose values lie in [lo, hi],
// interpolated between the sampled quantiles.
double FractionWithin(const ColumnStatistics& stats, double lo, double hi) {
  const std::vector<double>& q = stats.quantiles;
  if (q.empty()) return 1.0;
  // Share of rows below `x`, or at most `x` when `inclusive`.
  const auto rank = [&q](double x, bool inclusive) {
    const size_t i = static_cast<size_t>(
        (inclusive ? std::upper_bound(q.begin(), q.end(), x)
                   : std::lower_bound(q.begin(), q.end(), x)) -
        q.begin());
    if (i == 0) return 0.0;
    if (i == q.size()) return 1.0;
    const double within = (x - q[i - 1]) / (q[i] - q[i - 1]);
    return (static_cast<double>(i - 1) + within) /
           static_cast<double>(q.size() - 1);
  };
  return rank(hi, true) - rank(lo, false);
}

}  // namespace

TableStatistics TableStatistics::Compute(const Table& table) {
  TableStatistics stats;
  stats.row_count_ = table.row_count();
  stats.columns_.resize(table.column_count());
  const uint64_t rows = table.row_count();
  const size_t stride = static_cast<size_t>(
      std::max<uint64_t>(1, (rows + kSampleRows - 1) / kSampleRows));

  std::vector<double> sample;
  for (size_t c = 0; c < table.column_count(); ++c) {
    ColumnStatistics& out = stats.columns_[c];
    out.integral = !DataTypeIsFloat(table.column_definition(c).type);
    sample.clear();
    // Every chunk dictionary-coded: its distinct count lies between the
    // largest chunk's code span and the sum of all spans.
    bool coded = true;
    double span_max = 0.0;
    double span_sum = 0.0;
    uint64_t chunk_start = 0;
    for (ChunkId chunk_id = 0; chunk_id < table.chunk_count(); ++chunk_id) {
      const Chunk& chunk = table.chunk(chunk_id);
      const BaseColumn& column = chunk.column(c);
      const ZoneMap* zone = chunk.zone_map(c);
      const size_t sampled_before = sample.size();
      SampleColumn(column, (stride - chunk_start % stride) % stride, stride,
                   &sample);
      chunk_start += chunk.row_count();
      if (zone != nullptr) {
        Widen(&out, ValueAs<double>(zone->min), ValueAs<double>(zone->max));
      } else {
        for (size_t i = sampled_before; i < sample.size(); ++i) {
          if (!std::isnan(sample[i])) Widen(&out, sample[i], sample[i]);
        }
      }
      if (chunk.row_count() == 0) continue;
      if (zone != nullptr && zone->has_codes &&
          (column.encoding() == ColumnEncoding::kDictionary ||
           column.encoding() == ColumnEncoding::kBitPacked)) {
        const double span = zone->max_code - zone->min_code + 1.0;
        span_max = std::max(span_max, span);
        span_sum += span;
      } else {
        coded = false;
      }
    }
    Summarize(&sample, rows, &out);
    if (coded && span_max > 0.0) {
      out.distinct_count = std::clamp(out.distinct_count, span_max, span_sum);
    }
    out.distinct_count = std::clamp(out.distinct_count, 1.0,
                                    std::max(1.0, static_cast<double>(rows)));
  }
  return stats;
}

const ColumnStatistics& TableStatistics::column(size_t index) const {
  FTS_CHECK(index < columns_.size());
  return columns_[index];
}

double TableStatistics::EstimateSelectivity(size_t column_index, CompareOp op,
                                            const Value& value,
                                            const ZoneMap* zone) const {
  const ColumnStatistics& stats = column(column_index);
  if (row_count_ == 0) return 0.0;
  const double v = ValueAs<double>(value);
  // NaN compares false under every op but <>.
  if (std::isnan(v)) return op == CompareOp::kNe ? 1.0 : 0.0;
  const bool zoned = zone != nullptr && zone->valid;
  if (!zoned && !stats.bounded) return 0.5;  // No bounds: estimate nothing.
  const double lo = zoned ? ValueAs<double>(zone->min) : stats.min;
  const double hi = zoned ? ValueAs<double>(zone->max) : stats.max;
  double eq = 0.0;
  if (v >= lo && v <= hi) {
    // The value's frequency among the rows whose values the bounds hold:
    // a chunk of a clustered column covers a slice of the domain, where
    // each of its values is that much more common. The chunk's own rows
    // always lie inside its bounds.
    const double within =
        zoned ? std::max(FractionWithin(stats, lo, hi),
                         static_cast<double>(zone->row_count) /
                             static_cast<double>(row_count_))
              : 1.0;
    eq = lo == hi ? 1.0 : std::min(1.0, EqualFrequency(stats, v) / within);
  }
  // Fraction strictly below `v`, uniform over the bounds.
  double lt = 1.0;
  if (v <= lo) {
    lt = 0.0;
  } else if (v <= hi) {
    lt = (v - lo) / (hi - lo + (stats.integral ? 1.0 : 0.0));
  }
  switch (op) {
    case CompareOp::kEq:
      return eq;
    case CompareOp::kNe:
      return 1.0 - eq;
    case CompareOp::kLt:
      return lt;
    case CompareOp::kLe:
      return std::min(1.0, lt + eq);
    case CompareOp::kGt:
      return 1.0 - std::min(1.0, lt + eq);
    case CompareOp::kGe:
      return 1.0 - lt;
  }
  __builtin_unreachable();
}

double EstimateTableSelectivity(const Table& table, size_t column_index,
                                CompareOp op, const Value& value) {
  const TableStatistics& stats = *table.statistics();
  double matched = 0.0;
  for (ChunkId chunk_id = 0; chunk_id < table.chunk_count(); ++chunk_id) {
    const Chunk& chunk = table.chunk(chunk_id);
    matched += stats.EstimateSelectivity(column_index, op, value,
                                         chunk.zone_map(column_index)) *
               static_cast<double>(chunk.row_count());
  }
  return table.row_count() > 0
             ? matched / static_cast<double>(table.row_count())
             : 0.0;
}

std::shared_ptr<const TableStatistics> GetCachedStatistics(
    const TablePtr& table) {
  return table->statistics();
}

}  // namespace fts
