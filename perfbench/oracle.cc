#include "oracle.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>
#include <variant>

#include "fts/common/string_util.h"
#include "fts/common/timer.h"

namespace perfbench {
namespace {

// FNV-1a over 64-bit words.
class Hasher {
 public:
  void Add(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      state_ ^= (word >> (8 * i)) & 0xFF;
      state_ *= 0x100000001B3ULL;
    }
  }
  uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0xCBF29CE484222325ULL;
};

void AddValue(const fts::Value& value, Hasher* hasher) {
  hasher->Add(value.index());
  std::visit(
      [hasher](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (!std::is_same_v<T, std::monostate>) {
          uint64_t bits = 0;
          std::memcpy(&bits, &v, sizeof(T));
          hasher->Add(bits);
        }
      },
      value);
}

}  // namespace

uint64_t HashText(std::string_view text) {
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

uint64_t ResultDigest(const fts::QueryResult& result) {
  Hasher hasher;
  hasher.Add(result.count.has_value() ? *result.count + 1 : 0);
  if (result.count.has_value() && result.RowCountOut() == 0) {
    return hasher.value();
  }
  const size_t rows = result.RowCountOut();
  const size_t columns = result.column_names.size();
  hasher.Add(rows);
  hasher.Add(columns);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < columns; ++c) AddValue(result.ValueAt(r, c), &hasher);
  }
  return hasher.value();
}

void Oracle::Add(const fts::Database& db, const std::string& sql,
                 int threads) {
  if (digests_.count(sql) != 0) return;
  fts::Stopwatch timer;
  fts::Database::QueryOptions options;
  options.engine = fts::ScanEngine::kSisdNoVec;
  options.threads = threads;
  const fts::StatusOr<fts::QueryResult> reference = db.Query(sql, options);
  if (!reference.ok()) {
    std::fprintf(stderr, "perfbench: reference query failed: %s\n  %s\n",
                 reference.status().ToString().c_str(), sql.c_str());
    std::exit(3);
  }
  digests_.emplace(sql, ResultDigest(*reference));
  seconds_ += timer.ElapsedSeconds();
}

std::string Oracle::Check(const std::string& sql,
                          const fts::StatusOr<fts::QueryResult>& result) const {
  if (!result.ok()) return "status " + result.status().ToString();
  if (result->execution_report.degraded) {
    return "degraded: " + result->execution_report.ToString();
  }
  return CheckDigest(sql, ResultDigest(*result));
}

uint64_t Oracle::Reference(const std::string& sql) const {
  const auto it = digests_.find(sql);
  return it == digests_.end() ? 0 : it->second;
}

std::string Oracle::CheckDigest(const std::string& sql,
                                uint64_t digest) const {
  const auto it = digests_.find(sql);
  if (it == digests_.end()) return "no reference answer";
  if (digest != it->second) {
    return fts::StrFormat("digest %016llx != reference %016llx",
                          static_cast<unsigned long long>(digest),
                          static_cast<unsigned long long>(it->second));
  }
  return "";
}

}  // namespace perfbench
