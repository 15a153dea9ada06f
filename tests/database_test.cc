#include <gtest/gtest.h>

#include "fts/common/cpu_info.h"
#include "fts/common/random.h"
#include "fts/db/database.h"
#include "fts/storage/data_generator.h"
#include "fts/storage/rle_column.h"
#include "fts/storage/table_builder.h"
#include "fts/storage/value_column.h"

namespace fts {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ScanTableOptions options;
    options.rows = 10000;
    options.selectivities = {0.1, 0.5};
    options.seed = 71;
    generated_ = MakeScanTable(options);
    ASSERT_TRUE(db_.RegisterTable("tbl", generated_.table).ok());
  }

  Database db_;
  GeneratedScanTable generated_;
};

TEST_F(DatabaseTest, RegisterAndDrop) {
  EXPECT_EQ(db_.TableNames(), std::vector<std::string>{"tbl"});
  EXPECT_TRUE(db_.GetTable("tbl").ok());
  EXPECT_EQ(db_.RegisterTable("tbl", generated_.table).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(db_.DropTable("tbl").ok());
  EXPECT_EQ(db_.DropTable("tbl").code(), StatusCode::kNotFound);
}

TEST_F(DatabaseTest, CountStarMatchesGroundTruth) {
  const auto result =
      db_.Query("SELECT COUNT(*) FROM tbl WHERE c0 = 5 AND c1 = 2");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result->count, generated_.stage_matches.back());
}

TEST_F(DatabaseTest, EveryEngineSameAnswer) {
  const std::string sql =
      "SELECT COUNT(*) FROM tbl WHERE c0 = 5 AND c1 = 2";
  const uint64_t expected = generated_.stage_matches.back();
  for (const ScanEngine engine :
       {ScanEngine::kSisdNoVec, ScanEngine::kSisdAutoVec,
        ScanEngine::kScalarFused, ScanEngine::kAvx2Fused128,
        ScanEngine::kAvx512Fused128, ScanEngine::kAvx512Fused256,
        ScanEngine::kAvx512Fused512, ScanEngine::kBlockwise}) {
    if (!ScanEngineAvailable(engine)) continue;
    Database::QueryOptions options;
    options.engine = engine;
    const auto result = db_.Query(sql, options);
    ASSERT_TRUE(result.ok())
        << ScanEngineToString(engine) << ": " << result.status().ToString();
    EXPECT_EQ(*result->count, expected) << ScanEngineToString(engine);
  }
}

TEST_F(DatabaseTest, JitEngineEndToEnd) {
  if (!GetCpuFeatures().HasFusedScanAvx512()) {
    GTEST_SKIP() << "AVX-512 not available";
  }
  Database::QueryOptions options;
  options.engine = ScanEngine::kJit;
  const auto result = db_.Query(
      "SELECT COUNT(*) FROM tbl WHERE c0 = 5 AND c1 = 2", options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result->count, generated_.stage_matches.back());
}

TEST_F(DatabaseTest, ProjectionReturnsMatchingRows) {
  const auto result =
      db_.Query("SELECT c0, c1 FROM tbl WHERE c0 = 5 AND c1 = 2");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->RowCountOut(), generated_.stage_matches.back());
  for (size_t r = 0; r < result->RowCountOut(); ++r) {
    EXPECT_EQ(ValueAs<int>(result->ValueAt(r, 0)), 5);
    EXPECT_EQ(ValueAs<int>(result->ValueAt(r, 1)), 2);
  }
}

TEST_F(DatabaseTest, UnknownTableAndColumn) {
  EXPECT_EQ(db_.Query("SELECT COUNT(*) FROM nope").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(
      db_.Query("SELECT COUNT(*) FROM tbl WHERE nope = 1").status().code(),
      StatusCode::kNotFound);
}

TEST_F(DatabaseTest, ParseErrorsPropagate) {
  EXPECT_EQ(db_.Query("SELEC COUNT(*) FROM tbl").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(DatabaseTest, ExplainShowsFusionDecision) {
  const std::string sql =
      "SELECT COUNT(*) FROM tbl WHERE c0 = 5 AND c1 = 2";
  const auto fused = db_.Explain(sql);
  ASSERT_TRUE(fused.ok());
  EXPECT_NE(fused->find("FusedScan"), std::string::npos);

  Database::QueryOptions options;
  options.engine = ScanEngine::kSisdNoVec;
  const auto sisd = db_.Explain(sql, options);
  ASSERT_TRUE(sisd.ok());
  EXPECT_EQ(sisd->find("FusedScan: "), std::string::npos);
}

TEST_F(DatabaseTest, OptimizerToggle) {
  Database::QueryOptions options;
  options.optimize = false;
  const auto result = db_.Query(
      "SELECT COUNT(*) FROM tbl WHERE c0 = 5 AND c1 = 2", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result->count, generated_.stage_matches.back());
}

TEST_F(DatabaseTest, BetweenQuery) {
  TableBuilder builder({{"v", DataType::kInt32}});
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(builder.AppendRow({Value(i)}).ok());
  }
  ASSERT_TRUE(db_.RegisterTable("r", builder.Build()).ok());
  const auto result =
      db_.Query("SELECT COUNT(*) FROM r WHERE v BETWEEN 10 AND 19");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result->count, 10u);
}

TEST_F(DatabaseTest, FloatColumnsWork) {
  TableBuilder builder({{"x", DataType::kFloat64}});
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(builder.AppendRow({Value(i / 2.0)}).ok());
  }
  ASSERT_TRUE(db_.RegisterTable("f", builder.Build()).ok());
  const auto result = db_.Query("SELECT COUNT(*) FROM f WHERE x < 2.5");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result->count, 5u);
}

TEST_F(DatabaseTest, QueryResultToStringRenders) {
  const auto result = db_.Query("SELECT COUNT(*) FROM tbl WHERE c0 = 5");
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->ToString().find("COUNT(*)"), std::string::npos);
}

// A one-thread JIT query runs through the morsel driver like any other:
// every runnable chunk is its own morsel and walks the degradation ladder
// on its own. The one chunk outside JIT coverage — an RLE predicate
// column next to a plain one, a mixed compressed/kernel chain — demotes
// alone to a static rung while the other chunks stay on the JIT, and the
// rows equal the SISD reference.
TEST(DatabaseJitMorselTest, OneThreadJitDemotesOnlyTheUncoveredChunk) {
  if (!GetCpuFeatures().HasFusedScanAvx512()) {
    GTEST_SKIP() << "AVX-512 not available";
  }
  constexpr size_t kChunks = 4;
  constexpr size_t kRowsPerChunk = 4099;  // Awkward: not a lane multiple.
  constexpr size_t kMixedChunk = 2;
  TableBuilder builder({{"c0", DataType::kInt32}, {"c1", DataType::kInt32}});
  Xoshiro256 rng(0x3C);
  for (size_t chunk = 0; chunk < kChunks; ++chunk) {
    AlignedVector<int32_t> c0, c1;
    for (size_t r = 0; r < kRowsPerChunk; ++r) {
      c0.push_back(static_cast<int32_t>(rng.NextBounded(8)));
      c1.push_back(static_cast<int32_t>(rng.NextBounded(4)));
    }
    ColumnPtr c0_column =
        chunk == kMixedChunk
            ? ColumnPtr(std::make_shared<RleColumn<int32_t>>(
                  RleColumn<int32_t>::FromValues(c0)))
            : ColumnPtr(std::make_shared<ValueColumn<int32_t>>(c0));
    ASSERT_TRUE(builder
                    .AddChunk({std::move(c0_column),
                               std::make_shared<ValueColumn<int32_t>>(c1)})
                    .ok());
  }
  Database db;
  ASSERT_TRUE(db.RegisterTable("t", builder.Build()).ok());
  const std::string sql = "SELECT c0, c1 FROM t WHERE c0 = 3 AND c1 = 1";

  Database::QueryOptions jit;
  jit.engine = ScanEngine::kJit;
  jit.threads = 1;
  const auto result = db.Query(sql, jit);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ExecutionReport& report = result->execution_report;
  EXPECT_EQ(report.worker_count, 1);
  EXPECT_EQ(report.morsel_count, kChunks);
  ASSERT_EQ(report.morsel_choices.size(), kChunks);
  for (size_t chunk = 0; chunk < kChunks; ++chunk) {
    const EngineChoice& choice = report.morsel_choices[chunk];
    if (chunk == kMixedChunk) {
      EXPECT_NE(choice.engine, ScanEngine::kJit) << report.ToString();
    } else {
      EXPECT_EQ(choice, (EngineChoice{ScanEngine::kJit, 512}))
          << "chunk " << chunk << ": " << report.ToString();
    }
  }
  EXPECT_TRUE(report.degraded) << report.ToString();

  Database::QueryOptions sisd;
  sisd.engine = ScanEngine::kSisdNoVec;
  const auto reference = db.Query(sql, sisd);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_GT(reference->matched_rows, 0u);
  ASSERT_EQ(result->RowCountOut(), reference->RowCountOut());
  for (size_t r = 0; r < reference->RowCountOut(); ++r) {
    for (size_t c = 0; c < 2; ++c) {
      ASSERT_EQ(result->ValueAt(r, c), reference->ValueAt(r, c))
          << "row " << r << " column " << c;
    }
  }
}

}  // namespace
}  // namespace fts
