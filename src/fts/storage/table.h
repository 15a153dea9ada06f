#ifndef FTS_STORAGE_TABLE_H_
#define FTS_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "fts/common/status.h"
#include "fts/storage/chunk.h"
#include "fts/storage/data_type.h"
#include "fts/storage/pos_list.h"

namespace fts {

// Schema entry for one column.
struct ColumnDefinition {
  std::string name;
  DataType type = DataType::kInt32;

  friend bool operator==(const ColumnDefinition& a,
                         const ColumnDefinition& b) = default;
};

class TableStatistics;

// An immutable column-major table: a schema plus a sequence of chunks.
// Construct through TableBuilder.
class Table {
 public:
  Table(std::vector<ColumnDefinition> schema,
        std::vector<std::shared_ptr<const Chunk>> chunks);

  const std::vector<ColumnDefinition>& schema() const { return schema_; }
  size_t column_count() const { return schema_.size(); }

  // Index of the column named `name`.
  StatusOr<size_t> ColumnIndex(const std::string& name) const;
  const ColumnDefinition& column_definition(size_t index) const;

  size_t chunk_count() const { return chunks_.size(); }
  const Chunk& chunk(ChunkId id) const;

  uint64_t row_count() const { return row_count_; }

  // Boxed cell access for result materialization and tests.
  Value GetValue(size_t column_index, RowId row) const;

  // Selectivity statistics (fts/storage/table_statistics.h), computed once
  // by the constructor from the chunks' zone maps and a bounded sample.
  const std::shared_ptr<const TableStatistics>& statistics() const {
    return statistics_;
  }

 private:
  std::vector<ColumnDefinition> schema_;
  std::vector<std::shared_ptr<const Chunk>> chunks_;
  uint64_t row_count_ = 0;
  std::shared_ptr<const TableStatistics> statistics_;
};

using TablePtr = std::shared_ptr<const Table>;

}  // namespace fts

#endif  // FTS_STORAGE_TABLE_H_
