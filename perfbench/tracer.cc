#include "tracer.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>

#include "fts/common/query_context.h"
#include "fts/common/string_util.h"
#include "fts/common/timer.h"
#include "fts/exec/admission.h"
#include "fts/exec/timer_wheel.h"
#include "fts/obs/metrics.h"
#include "fts/obs/query_log.h"
#include "fts/plan/lqp.h"
#include "fts/plan/optimizer.h"
#include "fts/plan/translator.h"
#include "fts/sql/parser.h"
#include "fts/storage/table_statistics.h"

namespace perfbench {

using fts::Status;
using fts::StatusOr;

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_ns_(NowNanos()) {}

int64_t Tracer::NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint64_t op)
    : tracer_(tracer),
      index_(std::numeric_limits<size_t>::max()),
      start_ns_(NowNanos()) {
  if (!tracer_->enabled_) return;
  index_ = tracer_->spans_.size();
  const uint32_t id = static_cast<uint32_t>(index_ + 1);
  const uint32_t parent = tracer_->open_.empty() ? 0 : tracer_->open_.back();
  tracer_->spans_.push_back({name, start_ns_, start_ns_, id, parent, op});
  tracer_->open_.push_back(id);
}

double Tracer::Scope::End() {
  if (micros_ >= 0.0) return micros_;
  const int64_t end_ns = NowNanos();
  micros_ = static_cast<double>(end_ns - start_ns_) / 1e3;
  if (index_ != std::numeric_limits<size_t>::max()) {
    tracer_->spans_[index_].end_ns = end_ns;
    tracer_->open_.pop_back();
  }
  return micros_;
}

std::map<std::string, Tracer::LayerTime> Tracer::LayerTimes() const {
  std::vector<int64_t> child_ns(spans_.size() + 1, 0);
  for (const Span& span : spans_) {
    child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string, LayerTime> layers;
  for (const Span& span : spans_) {
    const int64_t duration = span.end_ns - span.start_ns;
    LayerTime& layer = layers[span.name];
    layer.total_ms += static_cast<double>(duration) / 1e6;
    layer.self_ms += static_cast<double>(duration - child_ns[span.id]) / 1e6;
    ++layer.count;
  }
  return layers;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              const std::string& other_data) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file,
               "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,"
               "\"traceEvents\":[\n"
               "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
               "\"args\":{\"name\":\"perfbench client\"}}",
               other_data.c_str());
  for (const Span& span : spans_) {
    std::fprintf(file,
                 ",\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"span\":%u,\"parent\":%u,\"op\":%llu}}",
                 span.name,
                 static_cast<double>(span.start_ns - origin_ns_) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                 span.id, span.parent,
                 static_cast<unsigned long long>(span.op));
  }
  std::fprintf(file, "\n]}\n");
  return std::fclose(file) == 0;
}

namespace {

// Database::Query's per-engine drift histogram, resolved the same way.
fts::obs::Histogram* CostEstErrorHistogram(fts::ScanEngine engine) {
  static fts::obs::Histogram* table[9] = {};
  const auto index = static_cast<size_t>(engine) < 9
                         ? static_cast<size_t>(engine)
                         : size_t{0};
  if (table[index] == nullptr) {
    table[index] = fts::obs::MetricsRegistry::Global().GetHistogram(
        fts::StrFormat("fts_cost_est_error_permille{engine=\"%s\"}",
                       fts::ScanEngineLabel(static_cast<fts::ScanEngine>(
                           index))),
        "Cost-model row-estimate error per executed engine, in permille");
  }
  return table[index];
}

// The query-log record Database::Query writes for a successful query.
void RecordQueryStats(const std::string& sql,
                      const fts::ExecutionReport& report,
                      double total_millis) {
  if (!fts::obs::ObsEnabled()) return;
  fts::obs::QueryLogEntry entry;
  entry.digest = fts::obs::SqlDigest(sql);
  entry.status = "ok";
  entry.total_millis = total_millis;
  entry.engine = fts::ScanEngineLabel(report.executed.engine);
  entry.counter_source = fts::CounterSourceToString(report.counters.source);
  entry.scan_millis = report.scan_millis;
  entry.jit_compile_millis = report.jit_compile_millis;
  entry.queue_wait_millis = report.queue_wait_millis;
  entry.rows_scanned = report.rows_scanned;
  entry.rows_matched = report.rows_matched;
  entry.worker_count = report.worker_count;
  entry.morsel_count = report.morsel_count;
  entry.chunks_total = report.chunks_total;
  entry.chunks_pruned = report.chunks_pruned;
  entry.degraded = report.degraded;
  entry.aggregate_pushdown = report.aggregate_pushdown;
  entry.model_active = report.model_active;
  if (report.model_active) {
    const double actual = static_cast<double>(report.rows_matched);
    const double error =
        1000.0 * std::abs(report.est_rows - actual) / std::max(actual, 1.0);
    entry.est_error_permille = static_cast<int64_t>(error);
    CostEstErrorHistogram(report.executed.engine)
        ->Record(static_cast<uint64_t>(error));
  }
  fts::obs::QueryLog::Global().Record(std::move(entry));
}

}  // namespace

StatusOr<fts::QueryResult> TracedQuery(
    const fts::Database& db, const std::string& sql,
    const fts::Database::QueryOptions& options, bool cold_table, uint64_t op,
    Tracer* tracer, LayerTimesUs* times) {
  *times = LayerTimesUs();
  Tracer::Scope query_span(tracer, "Database::Query", op);
  fts::Stopwatch timer;
  fts::obs::Metrics().queries_total->Increment();

  fts::SelectStatement statement;
  {
    Tracer::Scope span(tracer, "ParseSelect", op);
    StatusOr<fts::SelectStatement> parsed = fts::ParseSelect(sql);
    times->parse = span.End();
    if (!parsed.ok()) return parsed.status();
    statement = std::move(parsed).value();
  }

  const std::shared_ptr<fts::QueryContext> ctx = fts::QueryContext::Create();
  if (options.deadline_millis > 0) {
    ctx->SetDeadlineMillis(options.deadline_millis);
  }

  StatusOr<fts::AdmissionController::Ticket> ticket = [&] {
    Tracer::Scope span(tracer, "AdmissionController::Admit", op);
    auto admitted = fts::AdmissionController::Global().Admit(ctx.get());
    times->admit = span.End();
    return admitted;
  }();
  if (!ticket.ok()) return ticket.status();

  fts::TimerWheel::TimerId deadline_timer = 0;
  if (ctx->has_deadline()) {
    Tracer::Scope span(tracer, "TimerWheel::Schedule", op);
    std::weak_ptr<fts::QueryContext> weak = ctx;
    deadline_timer = fts::TimerWheel::Global().Schedule(
        static_cast<int64_t>(ctx->RemainingMillis()), [weak] {
          if (const auto locked = weak.lock()) {
            locked->Cancel(fts::StatusCode::kDeadlineExceeded);
          }
        });
    times->schedule = span.End();
  }
  // Cancels the deadline timer on every exit path, as Database::Query's
  // guard does, and times the cancel on the success path.
  struct TimerGuard {
    Tracer* tracer;
    uint64_t op;
    fts::TimerWheel::TimerId id;
    double Cancel() {
      if (id == 0) return 0.0;
      Tracer::Scope span(tracer, "TimerWheel::Cancel", op);
      fts::TimerWheel::Global().Cancel(id);
      id = 0;
      return span.End();
    }
    ~TimerGuard() { Cancel(); }
  } timer_guard{tracer, op, deadline_timer};

  const fts::ScanEngine engine =
      options.engine.value_or(fts::Database::DefaultEngine());
  fts::LqpNodePtr lqp;
  {
    Tracer::Scope span(tracer, "BuildLqp+OptimizeLqp", op);
    FTS_ASSIGN_OR_RETURN(const fts::TablePtr table,
                         db.GetTable(statement.table));
    FTS_ASSIGN_OR_RETURN(lqp,
                         fts::BuildLqp(statement, statement.table, table));
    if (cold_table) {
      Tracer::Scope stats_span(tracer, "GetCachedStatistics", op);
      fts::GetCachedStatistics(table);
      times->stats = stats_span.End();
    }
    fts::OptimizerOptions optimizer_options;
    optimizer_options.enable_reordering = options.reorder_predicates;
    optimizer_options.enable_fusion = engine != fts::ScanEngine::kSisdNoVec &&
                                      engine != fts::ScanEngine::kSisdAutoVec &&
                                      engine != fts::ScanEngine::kBlockwise;
    if (options.optimize) {
      FTS_RETURN_IF_ERROR(fts::OptimizeLqp(&lqp, optimizer_options));
    }
    times->optimize = span.End();
  }

  fts::PhysicalPlan plan;
  {
    Tracer::Scope span(tracer, "TranslateLqp", op);
    fts::TranslatorOptions translator_options;
    translator_options.engine = engine;
    translator_options.jit_register_bits = options.jit_register_bits;
    translator_options.fallback = options.fallback;
    translator_options.threads = options.threads;
    translator_options.enable_aggregate_pushdown = options.aggregate_pushdown;
    translator_options.context = ctx.get();
    translator_options.adaptive = !options.engine.has_value();
    FTS_ASSIGN_OR_RETURN(plan, fts::TranslateLqp(lqp, translator_options));
    times->translate = span.End();
  }

  StatusOr<fts::QueryResult> executed = [&] {
    Tracer::Scope span(tracer, "ExecutePlan", op);
    auto result = fts::ExecutePlan(plan);
    times->execute = span.End();
    return result;
  }();
  if (!executed.ok()) return executed.status();
  fts::QueryResult result = std::move(executed).value();

  fts::ExecutionReport& report = result.execution_report;
  report.deadline_millis = ctx->deadline_millis();
  report.deadline_hit = false;
  report.cancelled = false;
  report.queue_wait_millis =
      static_cast<double>(ctx->queue_wait_micros()) / 1000.0;
  if (report.degraded) {
    fts::obs::Metrics().degradation_events_total->Increment();
  }
  fts::obs::Metrics().query_micros->Record(
      static_cast<uint64_t>(timer.ElapsedMicros()));
  {
    Tracer::Scope span(tracer, "QueryLog::Record", op);
    RecordQueryStats(sql, report, timer.ElapsedMillis());
    times->query_log = span.End();
  }
  times->cancel = timer_guard.Cancel();
  times->total = query_span.End();
  return result;
}

}  // namespace perfbench
