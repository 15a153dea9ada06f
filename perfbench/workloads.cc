#include "workloads.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <set>
#include <utility>

#include "fts/common/macros.h"
#include "fts/common/string_util.h"
#include "fts/storage/data_generator.h"
#include "fts/storage/table_builder.h"

namespace perfbench {
namespace {

using fts::CompareOp;
using fts::DataType;
using fts::ScanElementType;
using fts::StrFormat;
using fts::Value;
using fts::Xoshiro256;

constexpr WorkloadSpec kWorkloads[] = {
    {WorkloadKind::kEqScan, "eq_scan_16m", size_t{16} << 20, 0, 2},
    {WorkloadKind::kProject, "project_2m", 2'000'000, 1, 3},
    {WorkloadKind::kIngestCold, "ingest_cold", 1'000'000, 0, 3},
};

// eq_scan_16m: fraction of all rows matching c0, then of the survivors
// matching each later column (MakeScanTable's Fig. 7 convention).
const std::vector<double> kEqSelectivities = {0.1, 0.5, 0.5, 0.5};
constexpr size_t kEqColumns = 4;

// The mixed tables chunk at 256K rows, so zone maps have chunks to prune
// and the morsel driver more than one morsel.
constexpr size_t kMixedChunkRows = size_t{1} << 18;

// One column of the mixed-encoding tables: its definition, encoding and
// value generator (row index, rng) -> value.
struct MixedColumn {
  const char* name;
  DataType type;
  fts::ColumnEncoding encoding;
  std::function<Value(uint64_t, Xoshiro256&)> generate;
};

// The mixed table: all six encodings and five element types. Clustered
// columns (id ascending, grp in runs) give zone maps chunks to prune.
// project_2m uses the first eight columns; ingest_cold adds three more
// plain columns so fresh JIT shapes can draw from six element types.
const std::vector<MixedColumn>& MixedColumns() {
  using fts::ColumnEncoding;
  static const std::vector<MixedColumn> columns = {
      {"id", DataType::kInt64, ColumnEncoding::kDelta,
       [](uint64_t i, Xoshiro256& rng) -> Value {
         return static_cast<int64_t>(i * 4 + rng.NextBounded(4));
       }},
      {"grp", DataType::kInt32, ColumnEncoding::kRle,
       [](uint64_t i, Xoshiro256&) -> Value {
         return static_cast<int32_t>(i / 4096);
       }},
      {"qty", DataType::kInt64, ColumnEncoding::kFor,
       [](uint64_t, Xoshiro256& rng) -> Value {
         return static_cast<int64_t>(1'000'000'000 + rng.NextBounded(65536));
       }},
      {"cat", DataType::kInt32, ColumnEncoding::kDictionary,
       [](uint64_t, Xoshiro256& rng) -> Value {
         return static_cast<int32_t>(rng.NextBounded(64));
       }},
      {"code", DataType::kUInt32, ColumnEncoding::kBitPacked,
       [](uint64_t, Xoshiro256& rng) -> Value {
         return static_cast<uint32_t>(rng.NextBounded(1024));
       }},
      {"val", DataType::kInt32, ColumnEncoding::kPlain,
       [](uint64_t, Xoshiro256& rng) -> Value {
         return static_cast<int32_t>(rng.NextBounded(1'000'000));
       }},
      {"price", DataType::kFloat64, ColumnEncoding::kPlain,
       [](uint64_t, Xoshiro256& rng) -> Value {
         return static_cast<double>(rng.NextBounded(100'000)) / 100.0;
       }},
      {"disc", DataType::kFloat32, ColumnEncoding::kPlain,
       [](uint64_t, Xoshiro256& rng) -> Value {
         return static_cast<float>(rng.NextBounded(1000)) / 1000.0f;
       }},
      {"big", DataType::kInt64, ColumnEncoding::kPlain,
       [](uint64_t, Xoshiro256& rng) -> Value {
         return static_cast<int64_t>(rng.NextInRange(-1'000'000'000'000,
                                                     1'000'000'000'000));
       }},
      {"ubig", DataType::kUInt64, ColumnEncoding::kPlain,
       [](uint64_t, Xoshiro256& rng) -> Value {
         return static_cast<uint64_t>(rng.Next() >> 1);
       }},
      {"cnt", DataType::kUInt32, ColumnEncoding::kPlain,
       [](uint64_t, Xoshiro256& rng) -> Value {
         return static_cast<uint32_t>(rng.NextBounded(1'000'000'000));
       }},
  };
  return columns;
}

// JIT-eligible plain columns of the mixed table (one per element type).
std::vector<JitColumn> MixedJitColumns(size_t column_count) {
  std::vector<JitColumn> all = {
      {"val", ScanElementType::kI32, 1000.0, 999000.0},
      {"price", ScanElementType::kF64, 1.0, 999.0},
      {"disc", ScanElementType::kF32, 0.01, 0.99},
      {"big", ScanElementType::kI64, -9e11, 9e11},
      {"ubig", ScanElementType::kU64, 1e17, 9e18},
      {"cnt", ScanElementType::kU32, 1e6, 9.99e8},
  };
  const auto& columns = MixedColumns();
  std::erase_if(all, [&](const JitColumn& jit) {
    for (size_t c = 0; c < column_count; ++c) {
      if (jit.name == columns[c].name) return false;
    }
    return true;
  });
  return all;
}

BuiltTable BuildMixedTable(size_t rows, size_t column_count,
                           size_t chunk_rows, uint64_t seed) {
  const auto& columns = MixedColumns();
  FTS_CHECK(column_count <= columns.size());
  std::vector<fts::ColumnDefinition> schema;
  BuiltTable built;
  for (size_t c = 0; c < column_count; ++c) {
    schema.push_back({columns[c].name, columns[c].type});
    built.column_bytes.emplace_back(columns[c].name,
                                    fts::DataTypeSize(columns[c].type));
  }
  fts::TableBuilder builder(schema, chunk_rows);
  for (size_t c = 0; c < column_count; ++c) {
    builder.SetEncoding(c, columns[c].encoding);
  }
  Xoshiro256 rng(seed);
  std::vector<Value> row(column_count);
  for (uint64_t i = 0; i < rows; ++i) {
    for (size_t c = 0; c < column_count; ++c) {
      row[c] = columns[c].generate(i, rng);
    }
    const fts::Status status = builder.AppendRow(row);
    FTS_CHECK_MSG(status.ok(), status.ToString().c_str());
  }
  built.table = builder.Build();
  built.jit_columns = MixedJitColumns(column_count);
  return built;
}

BuiltTable BuildEqScanTable(size_t rows, uint64_t seed) {
  fts::ScanTableOptions options;
  options.rows = rows;
  options.selectivities = kEqSelectivities;
  options.seed = seed;
  options.chunk_size = fts::kDefaultChunkSize;
  BuiltTable built;
  built.table = fts::MakeScanTable(options).table;
  for (size_t c = 0; c < kEqColumns; ++c) {
    const std::string name = StrFormat("c%zu", c);
    // Non-matching values are uniform in [1000, 2^30]; every column
    // also holds its small search value, so the interval is interior.
    built.jit_columns.push_back(
        {name, ScanElementType::kI32, 2000.0, double{1 << 29}});
    built.column_bytes.emplace_back(name, sizeof(int32_t));
  }
  return built;
}

template <typename T>
void Shuffle(std::vector<T>* items, Xoshiro256& rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng.NextBounded(i)]);
  }
}

std::string Join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

// Literal `nominal` moved by up to +-2 %, so every seed sends its own
// constants while the selectivity mix stays put.
int64_t Jitter(double nominal, Xoshiro256& rng) {
  return static_cast<int64_t>(nominal * (0.98 + 0.04 * rng.NextDouble()));
}

// The first `width` columns of `preference`, in seed order.
std::string ProjectionList(std::vector<std::string> preference, size_t width,
                           Xoshiro256& rng) {
  preference.resize(width);
  Shuffle(&preference, rng);
  return Join(preference, ", ");
}

// A WHERE clause from `predicates`, in seed order.
std::string Where(std::vector<std::string> predicates, Xoshiro256& rng) {
  Shuffle(&predicates, rng);
  return Join(predicates, " AND ");
}

QueryPools EqScanPools(Xoshiro256& rng) {
  // Search values MakeScanTable assigns to c0..c3.
  constexpr int kSearch[kEqColumns] = {5, 2, 7, 3};
  // Every column subset gets COUNT(*) and one of SUM/AVG/MIN, in rotation
  // from a seed offset, so all four aggregates appear in every pool.
  constexpr const char* kAggregates[] = {"SUM", "AVG", "MIN"};
  size_t rotation = rng.NextBounded(3);
  QueryPools pools;
  for (unsigned mask = 1; mask < (1u << kEqColumns); ++mask) {
    if (__builtin_popcount(mask) < 2) continue;
    std::vector<std::string> predicates;
    for (size_t c = 0; c < kEqColumns; ++c) {
      if ((mask >> c) & 1) {
        predicates.push_back(StrFormat("c%zu = %d", c, kSearch[c]));
      }
    }
    const std::string aggregate =
        StrFormat("%s(c%d)", kAggregates[rotation++ % 3],
                  static_cast<int>(rng.NextBounded(kEqColumns)));
    for (const std::string& item : {std::string("COUNT(*)"), aggregate}) {
      pools.warm.push_back(StrFormat("SELECT %s FROM t WHERE %s",
                                     item.c_str(),
                                     Where(predicates, rng).c_str()));
    }
  }
  return pools;
}

QueryPools ProjectPools(Xoshiro256& rng) {
  const std::vector<std::string> wide = {"val", "price", "id",  "cat",
                                         "code", "qty",  "grp", "disc"};
  QueryPools pools;
  auto add = [&](const std::string& select, const std::string& rest) {
    pools.warm.push_back(
        StrFormat("SELECT %s FROM t WHERE %s", select.c_str(), rest.c_str()));
  };
  for (int variant = 0; variant < 2; ++variant) {
    // Wide projections over a plain predicate, 1-50 % selectivity.
    for (const auto& [selectivity, width] :
         std::vector<std::pair<double, size_t>>{
             {0.01, 8}, {0.05, 8}, {0.2, 6}, {0.5, 4}}) {
      add(ProjectionList(wide, width, rng),
          StrFormat("val < %" PRId64, Jitter(selectivity * 1e6, rng)));
    }
    // Compressed-domain filters: bit-packed + dictionary, FoR + float.
    add(ProjectionList(wide, 6, rng),
        Where({StrFormat("code < %" PRId64, Jitter(0.05 * 1024, rng)),
               StrFormat("cat <> %d", static_cast<int>(rng.NextBounded(64)))},
              rng));
    add(ProjectionList(wide, 5, rng),
        Where({StrFormat("code < %" PRId64, Jitter(0.2 * 1024, rng)),
               StrFormat("cat <> %d", static_cast<int>(rng.NextBounded(64)))},
              rng));
    add(ProjectionList(wide, 7, rng),
        Where({StrFormat("qty < %" PRId64,
                         1'000'000'000 + Jitter(0.1 * 65536, rng)),
               "disc < 0.5"},
              rng));
    // Top-K.
    add(ProjectionList(wide, 5, rng),
        StrFormat("val < %" PRId64 " ORDER BY price DESC LIMIT 100",
                  Jitter(0.3 * 1e6, rng)));
    add(ProjectionList(wide, 4, rng),
        StrFormat("cat = %d ORDER BY id DESC LIMIT 50",
                  static_cast<int>(rng.NextBounded(64))));
    // Zone-prunable ranges on the clustered delta and RLE columns, each
    // inside one full chunk so every seed prunes the same chunk count.
    const int64_t chunk_row =
        static_cast<int64_t>(rng.NextBounded(7) * kMixedChunkRows);
    const int64_t id_lo =
        4 * (chunk_row + 1000 + static_cast<int64_t>(rng.NextBounded(150'000)));
    add(ProjectionList(wide, 6, rng),
        StrFormat("id BETWEEN %" PRId64 " AND %" PRId64, id_lo,
                  id_lo + 400'000));
    const int64_t grp_lo = chunk_row / 4096 +
                           static_cast<int64_t>(rng.NextBounded(44));
    add(ProjectionList(wide, 5, rng),
        Where({StrFormat("grp BETWEEN %" PRId64 " AND %" PRId64, grp_lo,
                         grp_lo + 20),
               StrFormat("val < %" PRId64, Jitter(0.5 * 1e6, rng))},
              rng));
  }
  return pools;
}

QueryPools IngestPools(Xoshiro256& rng) {
  QueryPools pools;
  auto query = [](const std::string& select, const std::string& rest) {
    return StrFormat("SELECT %s FROM t WHERE %s", select.c_str(),
                     rest.c_str());
  };
  // Inside one full chunk, like project_2m's ranges.
  const int64_t id_lo =
      4 * static_cast<int64_t>(rng.NextBounded(3) * kMixedChunkRows + 1000 +
                               rng.NextBounded(200'000));
  // Around the middle group, so `grp >= grp_lo` keeps about half the rows.
  const int64_t grp_lo = 120 + static_cast<int64_t>(rng.NextBounded(4));
  // An odd number of equally weighted queries keeps the median inside
  // one query's latencies instead of on the edge between two.
  pools.warm = {
      query("COUNT(*)",
            Where({StrFormat("val < %" PRId64, Jitter(0.3 * 1e6, rng)),
                   StrFormat("cat = %d", static_cast<int>(rng.NextBounded(64)))},
                  rng)),
      query("SUM(qty), MIN(price), MAX(big)",
            Where({StrFormat("code < %" PRId64, Jitter(0.4 * 1024, rng)),
                   StrFormat("grp >= %" PRId64, grp_lo)},
                  rng)),
      query("id, val, price, cat",
            Where({StrFormat("val < %" PRId64, Jitter(0.02 * 1e6, rng)),
                   "disc < 0.5"},
                  rng)),
      query("COUNT(*)", StrFormat("id BETWEEN %" PRId64 " AND %" PRId64,
                                  id_lo, id_lo + 200'000)),
      query("AVG(val), COUNT(*)",
            Where({StrFormat("cnt < %" PRId64, Jitter(0.5 * 1e9, rng)),
                   StrFormat("big > %" PRId64, Jitter(-5e11, rng))},
                  rng)),
      query("id, qty, code, price",
            StrFormat("grp BETWEEN %" PRId64 " AND %" PRId64
                      " ORDER BY price DESC LIMIT 20",
                      grp_lo, grp_lo + 5)),
      query("MAX(id), MIN(qty)",
            Where({StrFormat("cat = %d", static_cast<int>(rng.NextBounded(64))),
                   StrFormat("price < %" PRId64, Jitter(200.0, rng))},
                  rng)),
  };
  pools.cold = {
      query("COUNT(*)",
            Where({StrFormat("val < %" PRId64, Jitter(0.5 * 1e6, rng)),
                   StrFormat("cat = %d", static_cast<int>(rng.NextBounded(64))),
                   StrFormat("code < %" PRId64, Jitter(0.5 * 1024, rng))},
                  rng)),
      query("SUM(val), MAX(price)",
            Where({StrFormat("qty < %" PRId64,
                             1'000'000'000 + Jitter(0.5 * 65536, rng)),
                   StrFormat("big > %" PRId64, Jitter(0.0, rng))},
                  rng)),
  };
  return pools;
}

std::string FormatLiteral(const JitColumn& column, double value) {
  switch (column.type) {
    case ScanElementType::kU32:
    case ScanElementType::kU64:
      return StrFormat("%" PRIu64, static_cast<uint64_t>(value));
    case ScanElementType::kI32:
    case ScanElementType::kI64:
      return StrFormat("%" PRId64, static_cast<int64_t>(value));
    case ScanElementType::kF32:
      // Float literals must be exact in float32: a multiple of 1/64.
      return StrFormat("%.6f", std::round(value * 64.0) / 64.0);
    case ScanElementType::kF64:
      return StrFormat("%.2f", value);
  }
  __builtin_unreachable();
}

}  // namespace

std::optional<WorkloadSpec> FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return spec;
  }
  return std::nullopt;
}

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed ^ (salt * 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

BuiltTable BuildTable(const WorkloadSpec& spec, uint64_t seed) {
  switch (spec.kind) {
    case WorkloadKind::kEqScan:
      return BuildEqScanTable(spec.rows, seed);
    case WorkloadKind::kProject:
      return BuildMixedTable(spec.rows, 8, kMixedChunkRows, seed);
    case WorkloadKind::kIngestCold:
      return BuildMixedTable(spec.rows, MixedColumns().size(),
                             kMixedChunkRows, seed);
  }
  __builtin_unreachable();
}

QueryPools MakeQueryPools(const WorkloadSpec& spec, uint64_t seed) {
  Xoshiro256 rng(seed);
  switch (spec.kind) {
    case WorkloadKind::kEqScan:
      return EqScanPools(rng);
    case WorkloadKind::kProject:
      return ProjectPools(rng);
    case WorkloadKind::kIngestCold:
      return IngestPools(rng);
  }
  __builtin_unreachable();
}

OpStream::OpStream(size_t pool_size, uint64_t seed) : rng_(seed) {
  FTS_CHECK(pool_size > 0);
  order_.resize(pool_size);
  Refill();
}

void OpStream::Refill() {
  for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  Shuffle(&order_, rng_);
  cursor_ = 0;
}

size_t OpStream::Next() {
  if (cursor_ == order_.size()) Refill();
  return order_[cursor_++];
}

ShapeGenerator::ShapeGenerator(std::vector<JitColumn> columns, size_t stages,
                               uint64_t seed)
    : columns_(std::move(columns)), rng_(seed) {
  FTS_CHECK(stages >= 1 && stages <= columns_.size());
  std::set<std::vector<std::pair<ScanElementType, CompareOp>>> seen;
  // Every combination of `stages` distinct columns...
  std::vector<bool> pick(columns_.size(), false);
  std::fill(pick.begin(), pick.begin() + stages, true);
  do {
    std::vector<size_t> chosen;
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (pick[c]) chosen.push_back(c);
    }
    // ... times every comparator per stage.
    const size_t num_ops = std::size(fts::kAllCompareOps);
    size_t combos = 1;
    for (size_t s = 0; s < stages; ++s) combos *= num_ops;
    for (size_t code = 0; code < combos; ++code) {
      std::vector<Stage> shape;
      std::vector<std::pair<ScanElementType, CompareOp>> key;
      size_t rest = code;
      for (const size_t column : chosen) {
        const CompareOp op = fts::kAllCompareOps[rest % num_ops];
        rest /= num_ops;
        shape.push_back({column, op});
        key.emplace_back(columns_[column].type, op);
      }
      std::sort(key.begin(), key.end());
      if (seen.insert(std::move(key)).second) shapes_.push_back(shape);
    }
  } while (std::prev_permutation(pick.begin(), pick.end()));
  Shuffle(&shapes_, rng_);
}

std::string ShapeGenerator::Next() {
  if (cursor_ == shapes_.size()) {
    std::fprintf(stderr,
                 "perfbench: fresh JIT shape space exhausted after %zu "
                 "shapes; refusing to reuse one\n",
                 shapes_.size());
    std::exit(3);
  }
  std::vector<std::string> predicates;
  for (const Stage& stage : shapes_[cursor_++]) {
    const JitColumn& column = columns_[stage.column];
    const double value =
        column.literal_lo +
        (column.literal_hi - column.literal_lo) * rng_.NextDouble();
    predicates.push_back(StrFormat("%s %s %s", column.name.c_str(),
                                   fts::CompareOpToString(stage.op),
                                   FormatLiteral(column, value).c_str()));
  }
  return StrFormat("SELECT COUNT(*) FROM t WHERE %s",
                   Where(predicates, rng_).c_str());
}

}  // namespace perfbench
