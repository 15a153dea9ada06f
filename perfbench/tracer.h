// The benchmark's own span recorder and the traced query path. Spans are
// recorded around the calls into each engine layer from the benchmark's
// files, kept in memory, and written out at exit as Chrome-trace JSON
// (Perfetto opens it next to the engine's own `\trace` output).
#ifndef FTS_PERFBENCH_TRACER_H_
#define FTS_PERFBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fts/common/status.h"
#include "fts/db/database.h"

namespace perfbench {

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  uint32_t id;      // 1-based.
  uint32_t parent;  // 0 = root.
  uint64_t op;      // Op the span belongs to (0 = set-up).
};

class Tracer {
 public:
  // A disabled tracer records nothing; its scopes still time themselves.
  explicit Tracer(bool enabled);

  // RAII span: opened by the constructor, closed by End() or the
  // destructor. Spans opened while another is open become its children.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t op);
    ~Scope() { End(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    // Closes the span (once) and returns its duration in microseconds.
    double End();

   private:
    Tracer* tracer_;
    size_t index_;  // Into tracer_->spans_, or SIZE_MAX when disabled.
    int64_t start_ns_;
    double micros_ = -1.0;
  };

  // Per span name: total self time (duration minus the part its children
  // cover) and total duration, in milliseconds.
  struct LayerTime {
    double self_ms = 0.0;
    double total_ms = 0.0;
    uint64_t count = 0;
  };
  std::map<std::string, LayerTime> LayerTimes() const;

  // Writes every span as a Chrome-trace "X" event; `other_data` is a JSON
  // object embedded as the trace's "otherData".
  bool WriteChromeTrace(const std::string& path,
                        const std::string& other_data) const;

  static int64_t NowNanos();

 private:
  bool enabled_;
  int64_t origin_ns_;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;  // Stack of open span ids.
};

// Per-layer wall time of one traced query, in microseconds.
struct LayerTimesUs {
  double parse = 0.0;
  double admit = 0.0;
  double schedule = 0.0;
  double cancel = 0.0;
  double optimize = 0.0;  // BuildLqp + OptimizeLqp (includes stats).
  double stats = 0.0;     // GetCachedStatistics, cold tables only.
  double translate = 0.0;
  double execute = 0.0;
  double query_log = 0.0;
  double total = 0.0;

  // Op time not covered by any child span.
  double Unattributed() const {
    return total - (parse + admit + schedule + cancel + optimize + translate +
                    execute + query_log);
  }
};

// Runs `sql` through the same calls Database::Query makes, in the same
// order — ParseSelect, AdmissionController::Admit, TimerWheel::Schedule,
// BuildLqp + OptimizeLqp, TranslateLqp, ExecutePlan, QueryLog::Record,
// TimerWheel::Cancel — each wrapped in a span. On a table no query has
// planned against yet (`cold_table`), GetCachedStatistics runs as its own
// span just before OptimizeLqp, which then finds the statistics cached.
fts::StatusOr<fts::QueryResult> TracedQuery(
    const fts::Database& db, const std::string& sql,
    const fts::Database::QueryOptions& options, bool cold_table, uint64_t op,
    Tracer* tracer, LayerTimesUs* times);

}  // namespace perfbench

#endif  // FTS_PERFBENCH_TRACER_H_
