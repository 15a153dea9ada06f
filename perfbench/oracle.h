// Result oracle: reference answers computed with the SISD engine, and the
// digest every benchmarked result is compared by.
#ifndef FTS_PERFBENCH_ORACLE_H_
#define FTS_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>

#include "fts/common/status.h"
#include "fts/db/database.h"

namespace perfbench {

// FNV-1a hash of `text`.
uint64_t HashText(std::string_view text);

// Order-sensitive digest of a result: the COUNT(*) value, the output shape
// and every cell read through QueryResult::ValueAt (type and exact bits),
// so aggregates compare exactly and projections row by row.
uint64_t ResultDigest(const fts::QueryResult& result);

class Oracle {
 public:
  // Computes the reference digest of `sql` on `db` with the SISD engine
  // (unless already known). Dies when the reference query itself fails:
  // without a reference no result could be checked.
  void Add(const fts::Database& db, const std::string& sql, int threads);

  // Empty when `result` matches the reference of `sql`; otherwise why it
  // does not. A failed status or a degraded engine also fails the check.
  std::string Check(const std::string& sql,
                    const fts::StatusOr<fts::QueryResult>& result) const;
  // Empty when `digest` (a ResultDigest) matches the reference of `sql`.
  std::string CheckDigest(const std::string& sql, uint64_t digest) const;

  // The reference digest of `sql`, 0 when unknown.
  uint64_t Reference(const std::string& sql) const;

  // Wall time spent computing references so far.
  double seconds() const { return seconds_; }
  size_t size() const { return digests_.size(); }

 private:
  std::unordered_map<std::string, uint64_t> digests_;
  double seconds_ = 0.0;
};

}  // namespace perfbench

#endif  // FTS_PERFBENCH_ORACLE_H_
