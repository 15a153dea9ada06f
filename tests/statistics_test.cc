#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "fts/common/random.h"
#include "fts/common/string_util.h"
#include "fts/scan/table_scan.h"
#include "fts/storage/data_generator.h"
#include "fts/storage/table_builder.h"
#include "fts/storage/table_statistics.h"
#include "fts/storage/value_column.h"

namespace fts {
namespace {

TablePtr MakeInt32Table(AlignedVector<int32_t> a, AlignedVector<int32_t> b,
                        bool dictionary = false) {
  TableBuilder builder({{"a", DataType::kInt32}, {"b", DataType::kInt32}});
  if (dictionary) {
    builder.SetDictionaryEncoded(0);
    builder.SetDictionaryEncoded(1);
    for (size_t i = 0; i < a.size(); ++i) {
      FTS_CHECK(builder.AppendRow({Value(a[i]), Value(b[i])}).ok());
    }
    return builder.Build();
  }
  std::vector<ColumnPtr> columns = {
      std::make_shared<ValueColumn<int32_t>>(std::move(a)),
      std::make_shared<ValueColumn<int32_t>>(std::move(b))};
  FTS_CHECK(builder.AddChunk(std::move(columns)).ok());
  return builder.Build();
}

// One double column, one chunk.
TablePtr MakeDoubleTable(AlignedVector<double> values) {
  TableBuilder builder({{"x", DataType::kFloat64}});
  std::vector<ColumnPtr> columns = {
      std::make_shared<ValueColumn<double>>(std::move(values))};
  FTS_CHECK(builder.AddChunk(std::move(columns)).ok());
  return builder.Build();
}

// Rows of column `column` equal to `value`, counted by the SISD reference.
uint64_t CountEqual(const TablePtr& table, const std::string& column,
                    const Value& value) {
  ScanSpec spec;
  spec.predicates = {{column, CompareOp::kEq, value}};
  const auto count = ExecuteScanCount(table, spec, ScanEngine::kSisdNoVec);
  FTS_CHECK(count.ok());
  return *count;
}

TEST(TableStatisticsTest, BuiltOnceWithTheTable) {
  const TablePtr table = MakeInt32Table({1, 2, 3}, {4, 5, 6});
  ASSERT_NE(table->statistics(), nullptr);
  EXPECT_EQ(GetCachedStatistics(table).get(), table->statistics().get());
  EXPECT_EQ(table->statistics()->row_count(), 3u);
}

TEST(TableStatisticsTest, MinMaxExact) {
  const TablePtr table =
      MakeInt32Table({5, -3, 9, 0}, {100, 100, 100, 100});
  const TableStatistics stats = TableStatistics::Compute(*table);
  EXPECT_DOUBLE_EQ(stats.column(0).min, -3.0);
  EXPECT_DOUBLE_EQ(stats.column(0).max, 9.0);
  EXPECT_DOUBLE_EQ(stats.column(1).min, 100.0);
  EXPECT_DOUBLE_EQ(stats.column(1).max, 100.0);
  EXPECT_EQ(stats.row_count(), 4u);
}

TEST(TableStatisticsTest, DictionaryDistinctExact) {
  const TablePtr table =
      MakeInt32Table({1, 2, 2, 3, 3, 3}, {7, 7, 7, 7, 7, 7},
                     /*dictionary=*/true);
  const TableStatistics stats = TableStatistics::Compute(*table);
  EXPECT_DOUBLE_EQ(stats.column(0).distinct_count, 3.0);
  EXPECT_DOUBLE_EQ(stats.column(1).distinct_count, 1.0);
}

TEST(TableStatisticsTest, SelectivityEquality) {
  // 100 distinct values uniformly: eq should estimate ~1%.
  Xoshiro256 rng(5);
  AlignedVector<int32_t> a = GenerateUniformColumn<int32_t>(10000, 0, 99, rng);
  const TablePtr table = MakeInt32Table(std::move(a),
                                        AlignedVector<int32_t>(10000, 1));
  const double sel =
      EstimateTableSelectivity(*table, 0, CompareOp::kEq, Value(50));
  EXPECT_GT(sel, 0.001);
  EXPECT_LT(sel, 0.05);
}

TEST(TableStatisticsTest, SelectivityRange) {
  AlignedVector<int32_t> a(1000);
  for (size_t i = 0; i < a.size(); ++i) a[i] = static_cast<int32_t>(i);
  const TablePtr table =
      MakeInt32Table(std::move(a), AlignedVector<int32_t>(1000, 1));
  const auto sel = [&](CompareOp op, int32_t v) {
    return EstimateTableSelectivity(*table, 0, op, Value(v));
  };
  EXPECT_NEAR(sel(CompareOp::kLt, 500), 0.5, 0.05);
  EXPECT_NEAR(sel(CompareOp::kGe, 900), 0.1, 0.05);
  // Out-of-range probes.
  EXPECT_DOUBLE_EQ(sel(CompareOp::kLt, -5), 0.0);
  EXPECT_DOUBLE_EQ(sel(CompareOp::kLt, 10000), 1.0);
  EXPECT_DOUBLE_EQ(sel(CompareOp::kEq, -5), 0.0);
  EXPECT_DOUBLE_EQ(sel(CompareOp::kNe, -5), 1.0);
}

TEST(TableStatisticsTest, EstimatesBounded) {
  Xoshiro256 rng(6);
  AlignedVector<int32_t> a = GenerateUniformColumn<int32_t>(5000, -50, 50, rng);
  const TablePtr table =
      MakeInt32Table(std::move(a), AlignedVector<int32_t>(5000, 1));
  for (const CompareOp op : kAllCompareOps) {
    for (const int32_t probe : {-100, -50, 0, 50, 100}) {
      const double sel = EstimateTableSelectivity(*table, 0, op, Value(probe));
      EXPECT_GE(sel, 0.0) << CompareOpToString(op) << " " << probe;
      EXPECT_LE(sel, 1.0) << CompareOpToString(op) << " " << probe;
    }
  }
}

// The planner's whole-table estimate weights each chunk's zone-bounded
// estimate by its rows, so clustered chunks the predicate cannot reach
// contribute nothing.
TEST(TableStatisticsTest, TableEstimateWeightsChunkZones) {
  TableBuilder builder({{"a", DataType::kInt32}}, /*target_chunk_size=*/100);
  for (int32_t v = 0; v < 100; ++v) {
    ASSERT_TRUE(builder.AppendRow({Value(v)}).ok());
  }
  for (int32_t v = 1000; v < 1100; ++v) {
    ASSERT_TRUE(builder.AppendRow({Value(v)}).ok());
  }
  const TablePtr table = builder.Build();
  ASSERT_EQ(table->chunk_count(), 2u);
  EXPECT_DOUBLE_EQ(
      EstimateTableSelectivity(*table, 0, CompareOp::kLt, Value(50)), 0.25);
  EXPECT_DOUBLE_EQ(
      EstimateTableSelectivity(*table, 0, CompareOp::kGe, Value(1050)), 0.25);
}

// RLE, FoR and delta chunks get real bounds, distinct counts and equality
// estimates: the sample reads every encoding through its own accessor.
TEST(TableStatisticsTest, CompressedEncodingsHaveRealStatistics) {
  constexpr size_t kRows = 200000;
  TableBuilder builder({{"grp", DataType::kInt32},
                        {"qty", DataType::kInt32},
                        {"id", DataType::kInt32}},
                       /*target_chunk_size=*/kRows / 2);
  builder.SetEncoding(0, ColumnEncoding::kRle);
  builder.SetEncoding(1, ColumnEncoding::kFor);
  builder.SetEncoding(2, ColumnEncoding::kDelta);
  Xoshiro256 rng(11);
  for (size_t i = 0; i < kRows; ++i) {
    const auto grp = static_cast<int32_t>(i / 800);  // 250 runs of 800.
    const auto qty =
        static_cast<int32_t>(1'000'000'000 + rng.NextBounded(10000));
    const auto id = static_cast<int32_t>(3 * i);
    ASSERT_TRUE(builder.AppendRow({Value(grp), Value(qty), Value(id)}).ok());
  }
  const TablePtr table = builder.Build();
  ASSERT_EQ(table->chunk_count(), 2u);
  ASSERT_EQ(table->chunk(0).column(0).encoding(), ColumnEncoding::kRle);
  ASSERT_EQ(table->chunk(0).column(1).encoding(), ColumnEncoding::kFor);
  ASSERT_EQ(table->chunk(0).column(2).encoding(), ColumnEncoding::kDelta);
  const TableStatistics& stats = *table->statistics();

  EXPECT_DOUBLE_EQ(stats.column(0).min, 0.0);
  EXPECT_DOUBLE_EQ(stats.column(0).max, 249.0);
  EXPECT_GE(stats.column(1).min, 1e9);
  EXPECT_LE(stats.column(1).max, 1e9 + 9999);
  EXPECT_GT(stats.column(1).max, stats.column(1).min);
  EXPECT_DOUBLE_EQ(stats.column(2).min, 0.0);
  EXPECT_DOUBLE_EQ(stats.column(2).max, 3.0 * (kRows - 1));

  const auto within_2x = [](double estimate, double truth) {
    return estimate >= truth / 2 && estimate <= truth * 2;
  };
  const double distinct_truth[] = {250.0, 10000.0, double{kRows}};
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_TRUE(within_2x(stats.column(c).distinct_count, distinct_truth[c]))
        << "column " << c << " distinct " << stats.column(c).distinct_count;
  }

  const struct {
    const char* column;
    size_t index;
    int32_t value;
  } probes[] = {{"grp", 0, 100},
                {"qty", 1, 1'000'000'005},
                {"id", 2, 3 * 12345}};
  for (const auto& probe : probes) {
    const double truth =
        static_cast<double>(CountEqual(table, probe.column, Value(probe.value))) /
        kRows;
    ASSERT_GT(truth, 0.0) << probe.column;
    const double estimate = EstimateTableSelectivity(
        *table, probe.index, CompareOp::kEq, Value(probe.value));
    EXPECT_TRUE(within_2x(estimate, truth))
        << probe.column << " = " << probe.value << ": estimate " << estimate
        << ", truth " << truth;
  }
}

// The paper's match-probability data: every cN = search_value estimate
// lands within 20 % of the column's true frequency of that value.
TEST(TableStatisticsTest, PaperEqualityWithinTwentyPercent) {
  ScanTableOptions options;
  options.rows = 1 << 20;
  options.selectivities = {0.1, 0.5, 0.5, 0.5};
  options.chunk_size = 1 << 18;
  options.seed = 17;
  const GeneratedScanTable generated = MakeScanTable(options);
  for (size_t p = 0; p < options.selectivities.size(); ++p) {
    const std::string column = StrFormat("c%zu", p);
    const Value value(generated.search_values[p]);
    const double truth =
        static_cast<double>(CountEqual(generated.table, column, value)) /
        static_cast<double>(options.rows);
    const double estimate =
        EstimateTableSelectivity(*generated.table, p, CompareOp::kEq, value);
    EXPECT_NEAR(estimate, truth, 0.2 * truth)
        << column << " = " << generated.search_values[p];
  }
}

// Boundary cases of the merged estimator against one chunk's zone: every
// op, out-of-range literals, floating-point `=`, and degenerate bounds.
TEST(TableStatisticsTest, ZoneEstimateEndpoints) {
  // Integral [0, 9], every value 100 times.
  AlignedVector<int32_t> a(1000);
  for (size_t i = 0; i < a.size(); ++i) a[i] = static_cast<int32_t>(i % 10);
  const TablePtr table =
      MakeInt32Table(std::move(a), AlignedVector<int32_t>(1000, 7));
  const TableStatistics& stats = *table->statistics();
  const ZoneMap* zone = table->chunk(0).zone_map(0);
  ASSERT_NE(zone, nullptr);
  const auto sel = [&](size_t column, CompareOp op, int32_t v) {
    return stats.EstimateSelectivity(
        column, op, Value(v), table->chunk(0).zone_map(column));
  };
  EXPECT_DOUBLE_EQ(sel(0, CompareOp::kEq, 4), 0.1);
  EXPECT_DOUBLE_EQ(sel(0, CompareOp::kNe, 4), 0.9);
  EXPECT_DOUBLE_EQ(sel(0, CompareOp::kLt, 5), 0.5);
  EXPECT_NEAR(sel(0, CompareOp::kLe, 9), 1.0, 1e-12);
  EXPECT_NEAR(sel(0, CompareOp::kGt, 9), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(sel(0, CompareOp::kGe, 0), 1.0);
  EXPECT_NEAR(sel(0, CompareOp::kGt, 4), 0.5, 1e-12);
  // Out-of-range literals decide the predicate outright.
  EXPECT_DOUBLE_EQ(sel(0, CompareOp::kEq, 100), 0.0);
  EXPECT_DOUBLE_EQ(sel(0, CompareOp::kNe, 100), 1.0);
  EXPECT_DOUBLE_EQ(sel(0, CompareOp::kLt, -5), 0.0);
  EXPECT_DOUBLE_EQ(sel(0, CompareOp::kLe, 100), 1.0);
  EXPECT_DOUBLE_EQ(sel(0, CompareOp::kGt, 100), 0.0);
  EXPECT_DOUBLE_EQ(sel(0, CompareOp::kGe, -5), 1.0);
  // Without a zone the column's own bounds stand in.
  EXPECT_DOUBLE_EQ(stats.EstimateSelectivity(0, CompareOp::kLt, Value(5),
                                             nullptr),
                   0.5);
  // Degenerate bounds (min == max): the zone decides every op.
  EXPECT_DOUBLE_EQ(sel(1, CompareOp::kEq, 7), 1.0);
  EXPECT_DOUBLE_EQ(sel(1, CompareOp::kNe, 7), 0.0);
  EXPECT_DOUBLE_EQ(sel(1, CompareOp::kLt, 7), 0.0);
  EXPECT_DOUBLE_EQ(sel(1, CompareOp::kLe, 7), 1.0);
  EXPECT_DOUBLE_EQ(sel(1, CompareOp::kGt, 7), 0.0);
  EXPECT_DOUBLE_EQ(sel(1, CompareOp::kGe, 7), 1.0);

  // Floating-point [0, 10]: {0, 2.5, 5, 7.5, 10}, 200 rows each. `=` uses
  // the sampled frequency (an absent value finds none), ranges prorate
  // without the integral +1.
  AlignedVector<double> x(1000);
  for (size_t i = 0; i < x.size(); ++i) x[i] = 2.5 * static_cast<double>(i % 5);
  const TablePtr floats = MakeDoubleTable(std::move(x));
  const TableStatistics& fstats = *floats->statistics();
  const ZoneMap* fzone = floats->chunk(0).zone_map(0);
  ASSERT_NE(fzone, nullptr);
  const auto fsel = [&](CompareOp op, double v) {
    return fstats.EstimateSelectivity(0, op, Value(v), fzone);
  };
  EXPECT_DOUBLE_EQ(fsel(CompareOp::kEq, 5.0), 0.2);
  EXPECT_DOUBLE_EQ(fsel(CompareOp::kEq, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(fsel(CompareOp::kLt, 2.5), 0.25);
  EXPECT_DOUBLE_EQ(fsel(CompareOp::kGe, 12.0), 0.0);
  // NaN compares false under every op but <>.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DOUBLE_EQ(fsel(CompareOp::kEq, nan), 0.0);
  EXPECT_DOUBLE_EQ(fsel(CompareOp::kLt, nan), 0.0);
  EXPECT_DOUBLE_EQ(fsel(CompareOp::kNe, nan), 1.0);

  // No bounds at all (every value NaN, so no zone map): estimate nothing.
  const TablePtr unbounded = MakeDoubleTable(AlignedVector<double>(10, nan));
  ASSERT_EQ(unbounded->chunk(0).zone_map(0), nullptr);
  for (const CompareOp op : kAllCompareOps) {
    EXPECT_DOUBLE_EQ(EstimateTableSelectivity(*unbounded, 0, op, Value(1.0)),
                     0.5)
        << CompareOpToString(op);
  }
  // An empty table matches nothing.
  const TablePtr empty = TableBuilder({{"a", DataType::kInt32}}).Build();
  EXPECT_DOUBLE_EQ(
      EstimateTableSelectivity(*empty, 0, CompareOp::kNe, Value(1)), 0.0);
}

}  // namespace
}  // namespace fts
