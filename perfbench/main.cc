// End-to-end SQL benchmark of the fused-scan engine.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// One closed-loop client sends SQL through Database::Query, each query
// only after the previous one returned, every query under a generous
// deadline. Cost calibration runs once; the rest of set-up (data
// generation, first queries on the fresh table, never-seen JIT shapes and
// a warm-up pass over every query) runs several times, and setup_s is the
// calibration plus the median rep. Every result is checked against a
// reference answer computed with the SISD engine.
//
// With --trace 1 the timed queries alternate, one pass over the query pool
// at a time, between TracedQuery (the same calls Database::Query makes,
// each in a span) and plain Database::Query; the difference is the
// tracing overhead. The traced run prints the per-layer metrics and, with
// --trace-out, writes the spans as Chrome-trace JSON.
//
// Standard output: one detail line (environment stamp, oracle time, tail
// percentile, self times), then as the last line
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "environment.h"
#include "fts/common/string_util.h"
#include "fts/common/timer.h"
#include "fts/cost/cost_profile.h"
#include "fts/db/database.h"
#include "fts/perf/bandwidth.h"
#include "fts/sql/parser.h"
#include "fts/storage/chunk.h"
#include "fts/storage/table.h"
#include "fts/storage/value_column.h"
#include "oracle.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using fts::StrFormat;

// Set-up repetitions per run; setup_s is the cost calibration plus their
// median.
constexpr int kSetupReps = 3;
// Deadline every query carries: far above any query's latency, so it
// never fires, but the lifecycle path (timer schedule/cancel) always runs.
constexpr int64_t kDeadlineMillis = 60'000;
// Warm queries per ingest_cold op, after its cold and its JIT query.
constexpr int kWarmPerIngestOp = 28;
// Fresh JIT shapes whose reference answers are computed at set-up.
constexpr size_t kShapesAhead = 32;
// Stages of a fresh JIT shape.
constexpr size_t kShapeStages = 3;
// Fresh JIT shapes per set-up rep.
constexpr int kJitPerSetupRep = 3;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = !value.empty() && *end == '\0' && args->seconds > 0.0;
    } else if (key == "--trace") {
      args->trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Linearly interpolated percentile, p in [0, 100].
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

// The highest of the usual percentiles with at least ten samples beyond it.
double TailPercentile(size_t samples) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

std::string JsonNumber(double value) {
  return std::isfinite(value) ? StrFormat("%.17g", value) : "0";
}

// Appends `"name":{"value":v,"unit":"u"}` to a metrics object body.
void AddMetric(std::string* out, const char* name, double value,
               const char* unit) {
  if (!out->empty()) *out += ",";
  *out += StrFormat("\"%s\":{\"value\":%s,\"unit\":\"%s\"}", name,
                    JsonNumber(value).c_str(), unit);
}

enum class OpKind { kWarm, kCold, kJit };

// One executed query, as the client saw it.
struct OpRecord {
  OpKind kind = OpKind::kWarm;
  bool setup = false;
  bool traced = false;
  bool cold_table = false;
  bool projection = false;
  double millis = 0.0;
  uint64_t cells = 0;
  double predicate_bytes = 0.0;
  fts::ExecutionReport report;
  LayerTimesUs layers;
};

class Bench {
 public:
  Bench(const Args& args, const WorkloadSpec& spec)
      : args_(args),
        spec_(spec),
        threads_(spec.threads > 0
                     ? spec.threads
                     : std::max(1, static_cast<int>(
                                       std::thread::hardware_concurrency()))),
        tracer_(args.trace),
        pools_(MakeQueryPools(spec, SubSeed(args.seed, 1))) {}

  // Runs the whole benchmark and prints the result; returns the exit code.
  int Run();

 private:
  void SetUp();
  void ComputeReferences();
  void SelfTests();
  void MeasurePeakBandwidth();
  void RunWarmLoop();
  void RunIngestLoop();

  // Builds the workload's table (timed as ingest) and registers it.
  void Ingest(Tracer* tracer, uint64_t op);
  // Registers a new Table object over the current table's chunks.
  void RegisterFreshTable();
  // Runs, times, checks and records one query. Set-up queries are checked
  // once the references exist.
  void RunQuery(const std::string& sql, OpKind kind, bool setup, bool traced,
                uint64_t op);
  void Fail(const std::string& what, const std::string& why);
  double PredicateBytesPerRow(const std::string& sql);
  std::string NextShape();

  std::string EndToEndMetrics() const;
  std::string PerLayerMetrics() const;
  std::string DetailJson() const;

  const Args args_;
  const WorkloadSpec spec_;
  const int threads_;
  fts::Stopwatch process_;
  Tracer tracer_;
  Tracer untraced_{false};
  QueryPools pools_;
  fts::Database db_;
  BuiltTable built_;
  bool table_cold_ = false;
  Oracle oracle_;
  std::unique_ptr<ShapeGenerator> shapes_;
  std::deque<std::string> upcoming_shapes_;

  std::vector<OpRecord> records_;
  // Set-up results waiting for their reference answers.
  std::vector<std::pair<std::string, uint64_t>> pending_digests_;
  std::vector<std::pair<std::string, std::string>> pending_errors_;
  std::unordered_map<std::string, double> predicate_bytes_;
  std::vector<double> setup_seconds_;
  std::vector<double> ingest_seconds_;
  double calibrate_seconds_ = 0.0;
  double peak_gbs_ = 0.0;
  double peak_heap_mb_ = 0.0;
  double self_test_seconds_ = 0.0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t stream_digest_ = 0;
};

void Bench::Fail(const std::string& what, const std::string& why) {
  ++failed_;
  if (failed_ <= 5) {
    std::fprintf(stderr, "perfbench: FAILED %s\n  %s\n", what.c_str(),
                 why.c_str());
  }
}

// Element bytes per row of the distinct columns `sql` filters on.
double Bench::PredicateBytesPerRow(const std::string& sql) {
  const auto it = predicate_bytes_.find(sql);
  if (it != predicate_bytes_.end()) return it->second;
  double bytes = 0.0;
  const auto statement = fts::ParseSelect(sql);
  if (statement.ok()) {
    std::vector<std::string> seen;
    for (const fts::AstPredicate& predicate : statement->predicates) {
      if (std::find(seen.begin(), seen.end(), predicate.column) !=
          seen.end()) {
        continue;
      }
      seen.push_back(predicate.column);
      for (const auto& [name, width] : built_.column_bytes) {
        if (name == predicate.column) bytes += static_cast<double>(width);
      }
    }
  }
  predicate_bytes_.emplace(sql, bytes);
  return bytes;
}

void Bench::Ingest(Tracer* tracer, uint64_t op) {
  if (db_.GetTable(kTableName).ok()) {
    FTS_CHECK(db_.DropTable(kTableName).ok());
  }
  built_ = BuiltTable();  // Release the previous table before building.
  {
    Tracer::Scope span(tracer,
                       spec_.kind == WorkloadKind::kEqScan
                           ? "MakeScanTable"
                           : "TableBuilder::AppendRow+Build",
                       op);
    built_ = BuildTable(spec_, SubSeed(args_.seed, 0));
    ingest_seconds_.push_back(span.End() / 1e6);
  }
  ++attempted_;
  if (built_.table->row_count() != spec_.rows) {
    Fail("ingest", StrFormat("built %" PRIu64 " rows, expected %zu",
                             built_.table->row_count(), spec_.rows));
  }
  FTS_CHECK(db_.RegisterTable(kTableName, built_.table).ok());
  table_cold_ = true;
}

void Bench::RunQuery(const std::string& sql, OpKind kind, bool setup,
                     bool traced, uint64_t op) {
  OpRecord record;
  record.kind = kind;
  record.setup = setup;
  record.traced = traced;
  record.cold_table = table_cold_;
  table_cold_ = false;

  fts::Database::QueryOptions options;
  options.threads = threads_;
  options.deadline_millis = kDeadlineMillis;
  if (kind == OpKind::kJit) options.engine = fts::ScanEngine::kJit;

  fts::Stopwatch timer;
  const fts::StatusOr<fts::QueryResult> result =
      traced ? TracedQuery(db_, sql, options, record.cold_table, op, &tracer_,
                           &record.layers)
             : db_.Query(sql, options);
  record.millis = timer.ElapsedMillis();
  // Heap held while serving, sampled with the result still alive.
  if (!setup) peak_heap_mb_ = std::max(peak_heap_mb_, HeapInUseMb());

  ++attempted_;
  if (result.ok()) {
    record.report = result->execution_report;
    // Projections name plain columns; aggregates have a '(' before FROM.
    record.projection =
        sql.substr(0, sql.find(" FROM ")).find('(') == std::string::npos;
    if (record.projection) {
      record.cells = result->RowCountOut() * result->column_names.size();
    }
    record.predicate_bytes = PredicateBytesPerRow(sql) *
                             static_cast<double>(record.report.rows_scanned);
  }
  records_.push_back(std::move(record));

  if (setup) {
    if (!result.ok() || result->execution_report.degraded) {
      pending_errors_.emplace_back(
          sql, result.ok()
                   ? "degraded: " + result->execution_report.ToString()
                   : "status " + result.status().ToString());
    } else {
      pending_digests_.emplace_back(sql, ResultDigest(*result));
    }
    return;
  }
  // A JIT shape beyond the ones prepared at set-up gets its reference now,
  // outside the timed query (the op's table holds the same rows).
  if (kind == OpKind::kJit) oracle_.Add(db_, sql, threads_);
  const std::string why = oracle_.Check(sql, result);
  if (!why.empty()) Fail(sql, why);
}

// To the engine this is a table it has never planned against (no cached
// statistics), so the next query on it runs cold, without ingesting the
// rows again.
void Bench::RegisterFreshTable() {
  const fts::TablePtr old = built_.table;
  std::vector<std::shared_ptr<const fts::Chunk>> chunks;
  for (fts::ChunkId id = 0; id < old->chunk_count(); ++id) {
    chunks.emplace_back(old, &old->chunk(id));  // Shares ownership of `old`.
  }
  built_.table = std::make_shared<fts::Table>(old->schema(), std::move(chunks));
  FTS_CHECK(db_.DropTable(kTableName).ok());
  FTS_CHECK(db_.RegisterTable(kTableName, built_.table).ok());
  table_cold_ = true;
}

std::string Bench::NextShape() {
  if (upcoming_shapes_.empty()) return shapes_->Next();
  std::string sql = std::move(upcoming_shapes_.front());
  upcoming_shapes_.pop_front();
  return sql;
}

void Bench::SetUp() {
  const std::vector<std::string>& cold =
      pools_.cold.empty() ? pools_.warm : pools_.cold;
  {
    // Calibrates the process-wide profile every query uses. It runs once
    // per process, so it is timed once and not repeated with the reps.
    Tracer::Scope span(&tracer_, "cost::CalibratedProfile", 0);
    (void)fts::cost::CalibratedProfile();
    calibrate_seconds_ = span.End() / 1e6;
  }
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fts::Stopwatch rep_timer;
    Ingest(&tracer_, 0);
    if (rep == 0) {
      shapes_ = std::make_unique<ShapeGenerator>(
          built_.jit_columns, kShapeStages, SubSeed(args_.seed, 3));
    }
    for (int i = 0; i < spec_.cold_per_rep; ++i) {
      if (i > 0) RegisterFreshTable();
      RunQuery(cold[static_cast<size_t>(rep * spec_.cold_per_rep + i) %
                    cold.size()],
               OpKind::kCold, true, args_.trace, 0);
    }
    for (int i = 0; i < kJitPerSetupRep; ++i) {
      RunQuery(NextShape(), OpKind::kJit, true, args_.trace, 0);
    }
    for (const std::string& sql : pools_.warm) {
      RunQuery(sql, OpKind::kWarm, true, args_.trace, 0);
    }
    // The first rep also counts everything since process start, except
    // the calibration, which setup_s adds once.
    setup_seconds_.push_back(rep == 0
                                 ? process_.ElapsedSeconds() - calibrate_seconds_
                                 : rep_timer.ElapsedSeconds());
  }
}

void Bench::ComputeReferences() {
  // Results do not depend on the thread count, so references use them all.
  const int threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  for (const std::string& sql : pools_.warm) oracle_.Add(db_, sql, threads);
  for (const std::string& sql : pools_.cold) oracle_.Add(db_, sql, threads);
  for (const auto& [sql, digest] : pending_digests_) {
    oracle_.Add(db_, sql, threads);
  }
  if (spec_.kind == WorkloadKind::kIngestCold) {
    for (size_t i = 0; i < kShapesAhead && shapes_->remaining() > 0; ++i) {
      upcoming_shapes_.push_back(shapes_->Next());
      oracle_.Add(db_, upcoming_shapes_.back(), threads);
    }
  }
  for (const auto& [sql, why] : pending_errors_) Fail(sql, why);
  for (const auto& [sql, digest] : pending_digests_) {
    const std::string why = oracle_.CheckDigest(sql, digest);
    if (!why.empty()) Fail(sql, why);
  }
  pending_errors_.clear();
  pending_digests_.clear();
}

// Determinism: the same seed gives the same op stream (queries, order,
// JIT shapes) and a different seed a different one; the traced and the
// untraced query path give identical result digests.
void Bench::SelfTests() {
  fts::Stopwatch timer;
  const auto stream_text = [&](uint64_t seed) {
    const QueryPools pools = MakeQueryPools(spec_, SubSeed(seed, 1));
    OpStream stream(pools.warm.size(), SubSeed(seed, 2));
    std::string text;
    for (size_t i = 0; i < 2 * pools.warm.size(); ++i) {
      text += pools.warm[stream.Next()] + ";";
    }
    for (const std::string& sql : pools.cold) text += sql + ";";
    ShapeGenerator shapes(built_.jit_columns, kShapeStages, SubSeed(seed, 3));
    for (int i = 0; i < 4; ++i) text += shapes.Next() + ";";
    return text;
  };
  const std::string stream = stream_text(args_.seed);
  attempted_ += 2;
  if (stream_text(args_.seed) != stream) {
    Fail("self-test", "the same seed produced a different op stream");
  }
  if (stream_text(args_.seed + 1) == stream) {
    Fail("self-test", "a different seed produced the same op stream");
  }
  // Stream digest: the op stream plus the reference answers, in order. It
  // is the same for the traced and the untraced run of one seed.
  std::string digests = stream;
  for (const std::string& sql : pools_.warm) {
    digests += StrFormat("%016llx;", static_cast<unsigned long long>(
                                         oracle_.Reference(sql)));
  }
  stream_digest_ = HashText(digests);

  fts::Database::QueryOptions options;
  options.threads = threads_;
  options.deadline_millis = kDeadlineMillis;
  for (size_t i = 0; i < std::min<size_t>(3, pools_.warm.size()); ++i) {
    const std::string& sql = pools_.warm[i];
    Tracer scratch(false);
    LayerTimesUs layers;
    const auto traced = TracedQuery(db_, sql, options, false, 0, &scratch,
                                    &layers);
    const auto untraced = db_.Query(sql, options);
    ++attempted_;
    if (!traced.ok() || !untraced.ok() ||
        ResultDigest(*traced) != ResultDigest(*untraced)) {
      Fail(sql, "traced and untraced query paths disagree");
    }
  }
  self_test_seconds_ = timer.ElapsedSeconds();
}

// Peak read bandwidth over the table's plain int32 columns with the
// workload's scan threads (the roofline's denominator).
void Bench::MeasurePeakBandwidth() {
  std::vector<std::pair<const int32_t*, size_t>> slices;
  const fts::Table& table = *built_.table;
  for (fts::ChunkId chunk = 0; chunk < table.chunk_count(); ++chunk) {
    for (size_t c = 0; c < table.column_count(); ++c) {
      const fts::BaseColumn& column = table.chunk(chunk).column(c);
      if (column.encoding() != fts::ColumnEncoding::kPlain ||
          column.data_type() != fts::DataType::kInt32) {
        continue;
      }
      const auto& values =
          static_cast<const fts::ValueColumn<int32_t>&>(column).values();
      slices.emplace_back(values.data(), values.size());
    }
  }
  if (slices.empty()) return;
  const size_t workers = static_cast<size_t>(threads_);
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<double> seconds(workers, 0.0);
    std::vector<double> bytes(workers, 0.0);
    std::vector<std::thread> threads;
    for (size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        fts::Stopwatch timer;
        for (size_t s = w; s < slices.size(); s += workers) {
          fts::MeasurePeakReadBandwidthGbs(slices[s].first, slices[s].second);
          bytes[w] += static_cast<double>(slices[s].second * sizeof(int32_t));
        }
        seconds[w] = timer.ElapsedSeconds();
      });
    }
    for (std::thread& thread : threads) thread.join();
    double total_bytes = 0.0;
    for (const double b : bytes) total_bytes += b;
    const double slowest = *std::max_element(seconds.begin(), seconds.end());
    peak_gbs_ = std::max(peak_gbs_, Ratio(total_bytes, slowest) / 1e9);
  }
}

void Bench::RunWarmLoop() {
  const size_t pool = pools_.warm.size();
  OpStream stream(pool, SubSeed(args_.seed, 2));
  fts::Stopwatch wall;
  for (uint64_t op = 1; op == 1 || wall.ElapsedSeconds() < args_.seconds;
       ++op) {
    // Traced runs alternate whole passes over the pool between the traced
    // and the untraced path, so both see the same query mix.
    const bool traced = args_.trace && ((op - 1) / pool) % 2 == 0;
    RunQuery(pools_.warm[stream.Next()], OpKind::kWarm, false, traced, op);
  }
}

void Bench::RunIngestLoop() {
  OpStream cold(pools_.cold.size(), SubSeed(args_.seed, 4));
  OpStream warm(pools_.warm.size(), SubSeed(args_.seed, 2));
  FTS_CHECK(db_.DropTable(kTableName).ok());
  built_.table.reset();
  fts::Stopwatch wall;
  for (uint64_t op = 1; op == 1 || wall.ElapsedSeconds() < args_.seconds;
       ++op) {
    const bool traced = args_.trace && op % 2 == 1;
    Tracer* tracer = traced ? &tracer_ : &untraced_;
    Tracer::Scope span(tracer, "ingest_cold op", op);
    Ingest(tracer, op);
    RunQuery(pools_.cold[cold.Next()], OpKind::kCold, false, traced, op);
    RunQuery(NextShape(), OpKind::kJit, false, traced, op);
    for (int i = 0; i < kWarmPerIngestOp; ++i) {
      RunQuery(pools_.warm[warm.Next()], OpKind::kWarm, false, traced, op);
    }
    Tracer::Scope drop(tracer, "Database::DropTable", op);
    FTS_CHECK(db_.DropTable(kTableName).ok());
    built_.table.reset();
  }
}

int Bench::Run() {
  SetUp();
  ComputeReferences();
  SelfTests();
  if (args_.trace) MeasurePeakBandwidth();
  if (spec_.kind == WorkloadKind::kIngestCold) {
    RunIngestLoop();
  } else {
    RunWarmLoop();
  }

  const std::string detail = DetailJson();
  std::printf("%s\n", detail.c_str());
  if (args_.trace && !args_.trace_out.empty() &&
      !tracer_.WriteChromeTrace(args_.trace_out, detail)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args_.trace_out.c_str());
    return 1;
  }
  std::printf(
      "{\"correct\":%s,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
      ",\"metrics\":{%s}}\n",
      failed_ == 0 ? "true" : "false", attempted_, failed_,
      (args_.trace ? PerLayerMetrics() : EndToEndMetrics()).c_str());
  std::fflush(stdout);
  return 0;
}

// Latencies of the records `pred` selects.
template <typename Pred>
std::vector<double> MillisWhere(const std::vector<OpRecord>& records,
                                Pred pred) {
  std::vector<double> out;
  for (const OpRecord& record : records) {
    if (pred(record)) out.push_back(record.millis);
  }
  return out;
}

std::string Bench::EndToEndMetrics() const {
  // First queries and ingests happen in every set-up rep and, on
  // ingest_cold, in every timed op; all of them count.
  const auto first_queries = [&](OpKind kind) {
    return MillisWhere(records_,
                       [&](const OpRecord& r) { return r.kind == kind; });
  };
  const std::vector<double> warm = MillisWhere(records_, [](const OpRecord& r) {
    return r.kind == OpKind::kWarm && !r.setup;
  });
  double warm_seconds = 0.0;
  for (const double millis : warm) warm_seconds += millis / 1e3;
  const double rows =
      static_cast<double>(warm.size()) * static_cast<double>(spec_.rows);
  std::vector<double> ingest_rates;
  for (const double seconds : ingest_seconds_) {
    ingest_rates.push_back(Ratio(static_cast<double>(spec_.rows), seconds));
  }

  std::string out;
  AddMetric(&out, "query_p50_ms", Median(warm), "ms");
  AddMetric(&out, "query_tail_ms",
            Percentile(warm, TailPercentile(warm.size())), "ms");
  AddMetric(&out, "rows_per_s", Ratio(rows, warm_seconds), "rows/s");
  AddMetric(&out, "cold_query_p50_ms", Median(first_queries(OpKind::kCold)),
            "ms");
  AddMetric(&out, "jit_first_query_p50_ms",
            Median(first_queries(OpKind::kJit)), "ms");
  AddMetric(&out, "ingest_rows_per_s", Median(ingest_rates), "rows/s");
  AddMetric(&out, "peak_heap_mb", peak_heap_mb_, "MiB");
  AddMetric(&out, "setup_s", calibrate_seconds_ + Median(setup_seconds_),
            "s");
  return out;
}

std::string Bench::PerLayerMetrics() const {
  // Timed traced queries; per-layer times come from their spans and the
  // counts from their ExecutionReports.
  std::vector<const OpRecord*> timed;
  for (const OpRecord& record : records_) {
    if (record.traced && !record.setup) timed.push_back(&record);
  }
  const auto median_of = [&](auto value, auto pred) {
    std::vector<double> values;
    for (const OpRecord* record : timed) {
      if (pred(*record)) values.push_back(value(*record));
    }
    return Median(values);
  };
  const auto all = [](const OpRecord&) { return true; };
  const auto warm_table = [](const OpRecord& r) { return !r.cold_table; };

  // Cold-table and JIT queries: every traced one, set-up included (the
  // warm workloads have them only in set-up).
  std::vector<double> stats_ms, compile_ms;
  double hits = 0.0, lookups = 0.0;
  for (const OpRecord& record : records_) {
    if (!record.traced) continue;
    if (record.cold_table) stats_ms.push_back(record.layers.stats / 1e3);
    if (record.kind == OpKind::kJit) {
      compile_ms.push_back(record.report.jit_compile_millis);
    }
    hits += static_cast<double>(record.report.jit_cache_hits);
    lookups += static_cast<double>(record.report.jit_cache_hits +
                                   record.report.jit_cache_misses);
  }

  double chunks = 0.0, reordered = 0.0, pruned = 0.0, scan_ms = 0.0,
         rows_scanned = 0.0, predicate_bytes = 0.0, gather_ns = 0.0,
         cells = 0.0, kernel_rows = 0.0, typed_rows = 0.0, morsels = 0.0,
         workers = 0.0, unattributed = 0.0, total = 0.0;
  std::vector<double> est_error;
  for (const OpRecord* record : timed) {
    const fts::ExecutionReport& report = record->report;
    chunks += static_cast<double>(report.chunks_total);
    reordered += static_cast<double>(report.chunks_reordered);
    pruned += static_cast<double>(report.chunks_pruned);
    // Compile time is its own metric (jit.compile_ms).
    scan_ms += std::max(0.0, report.scan_millis - report.jit_compile_millis);
    rows_scanned += static_cast<double>(report.rows_scanned);
    predicate_bytes += record->predicate_bytes;
    if (record->projection) {
      gather_ns += (record->layers.execute - report.scan_millis * 1e3) * 1e3;
      cells += static_cast<double>(record->cells);
    }
    kernel_rows += static_cast<double>(report.gather_kernel_rows);
    typed_rows += static_cast<double>(report.gather_typed_rows);
    morsels += static_cast<double>(report.morsel_count);
    workers += report.worker_count;
    unattributed += record->layers.Unattributed();
    total += record->layers.total;
    if (report.model_active) {
      const double matched = static_cast<double>(report.rows_matched);
      est_error.push_back(std::abs(report.est_rows - matched) /
                          std::max(matched, 1.0));
    }
  }
  const double ops = static_cast<double>(timed.size());
  const std::vector<double> traced_warm =
      MillisWhere(records_, [](const OpRecord& r) {
        return r.kind == OpKind::kWarm && !r.setup && r.traced;
      });
  const std::vector<double> untraced_warm =
      MillisWhere(records_, [](const OpRecord& r) {
        return r.kind == OpKind::kWarm && !r.setup && !r.traced;
      });

  std::string out;
  AddMetric(&out, "sql.parse_us",
            median_of([](const OpRecord& r) { return r.layers.parse; }, all),
            "us");
  AddMetric(&out, "plan.optimize_us",
            median_of([](const OpRecord& r) { return r.layers.optimize; },
                      warm_table),
            "us");
  AddMetric(&out, "plan.translate_us",
            median_of([](const OpRecord& r) { return r.layers.translate; },
                      all),
            "us");
  AddMetric(&out, "plan.execute_ms",
            median_of([](const OpRecord& r) { return r.layers.execute / 1e3; },
                      all),
            "ms");
  AddMetric(&out, "storage.stats_ms", Median(stats_ms), "ms");
  AddMetric(&out, "storage.ingest_ms", Median(ingest_seconds_) * 1e3, "ms");
  AddMetric(&out, "cost.calibrate_s", calibrate_seconds_, "s");
  AddMetric(&out, "cost.est_error_ratio", Median(est_error), "ratio");
  AddMetric(&out, "cost.reordered_share", Ratio(reordered, chunks), "share");
  AddMetric(&out, "scan.ns_per_row", Ratio(scan_ms * 1e6, rows_scanned),
            "ns/row");
  AddMetric(&out, "scan.roofline_frac",
            Ratio(Ratio(predicate_bytes, scan_ms / 1e3), peak_gbs_ * 1e9),
            "share");
  AddMetric(&out, "scan.pruned_share", Ratio(pruned, chunks), "share");
  AddMetric(&out, "scan.gather_ns_per_cell", Ratio(gather_ns, cells),
            "ns/cell");
  AddMetric(&out, "scan.gather_kernel_share",
            Ratio(kernel_rows, kernel_rows + typed_rows), "share");
  AddMetric(&out, "exec.morsels_per_op", Ratio(morsels, ops), "count");
  AddMetric(&out, "exec.workers", Ratio(workers, ops), "count");
  AddMetric(&out, "exec.deadline_timer_us",
            median_of(
                [](const OpRecord& r) {
                  return r.layers.schedule + r.layers.cancel;
                },
                all),
            "us");
  AddMetric(&out, "db.admit_us",
            median_of([](const OpRecord& r) { return r.layers.admit; }, all),
            "us");
  AddMetric(&out, "obs.query_log_us",
            median_of([](const OpRecord& r) { return r.layers.query_log; },
                      all),
            "us");
  AddMetric(&out, "jit.compile_ms", Median(compile_ms), "ms");
  AddMetric(&out, "jit.cache_hit_ratio", Ratio(hits, lookups), "ratio");
  AddMetric(&out, "trace.unattributed_share", Ratio(unattributed, total),
            "share");
  AddMetric(&out, "trace.overhead_us",
            (Median(traced_warm) - Median(untraced_warm)) * 1e3, "us");
  return out;
}

std::string Bench::DetailJson() const {
  const std::vector<double> warm =
      MillisWhere(records_, [](const OpRecord& r) {
        return r.kind == OpKind::kWarm && !r.setup && !r.traced;
      });
  std::string setup;
  for (const double seconds : setup_seconds_) {
    if (!setup.empty()) setup += ",";
    setup += JsonNumber(seconds);
  }
  std::string layers;
  for (const auto& [name, time] : tracer_.LayerTimes()) {
    layers += StrFormat("%s\"%s\":{\"self_ms\":%s,\"total_ms\":%s,"
                        "\"count\":%" PRIu64 "}",
                        layers.empty() ? "" : ",", name.c_str(),
                        JsonNumber(time.self_ms).c_str(),
                        JsonNumber(time.total_ms).c_str(), time.count);
  }
  return StrFormat(
      "{\"perfbench\":{\"workload\":\"%s\",\"seed\":%" PRIu64
      ",\"trace\":%d,\"threads\":%d,\"environment\":%s,"
      "\"calibrate_s\":%s,\"setup_reps_s\":[%s],\"oracle_s\":%s,"
      "\"oracle_queries\":%zu,"
      "\"self_test_s\":%s,\"stream_digest\":\"%016llx\","
      "\"error_rate\":%s,\"untraced_warm_queries\":%zu,"
      "\"query_tail_percentile\":%s,\"peak_read_gbs\":%s,"
      "\"process_peak_rss_mb\":%s,"
      "\"layer_time_ms\":{%s}}}",
      spec_.name, args_.seed, args_.trace ? 1 : 0, threads_,
      EnvironmentJson().c_str(), JsonNumber(calibrate_seconds_).c_str(),
      setup.c_str(),
      JsonNumber(oracle_.seconds()).c_str(), oracle_.size(),
      JsonNumber(self_test_seconds_).c_str(),
      static_cast<unsigned long long>(stream_digest_),
      JsonNumber(Ratio(static_cast<double>(failed_),
                       static_cast<double>(attempted_)))
          .c_str(),
      warm.size(), JsonNumber(TailPercentile(warm.size())).c_str(),
      JsonNumber(peak_gbs_).c_str(), JsonNumber(PeakRssMb()).c_str(),
      layers.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  const std::string refusal = perfbench::BuildRefusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "perfbench: refusing to report numbers: %s\n",
                 refusal.c_str());
    return 2;
  }
  const auto spec = perfbench::FindWorkload(args.workload);
  if (!spec.has_value()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  perfbench::Bench bench(args, *spec);
  return bench.Run();
}
