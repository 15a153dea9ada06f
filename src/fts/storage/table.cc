#include "fts/storage/table.h"

#include "fts/common/string_util.h"
#include "fts/storage/table_statistics.h"

namespace fts {

Table::Table(std::vector<ColumnDefinition> schema,
             std::vector<std::shared_ptr<const Chunk>> chunks)
    : schema_(std::move(schema)), chunks_(std::move(chunks)) {
  FTS_CHECK(!schema_.empty());
  for (const auto& chunk : chunks_) {
    FTS_CHECK(chunk != nullptr);
    FTS_CHECK(chunk->column_count() == schema_.size());
    for (size_t c = 0; c < schema_.size(); ++c) {
      FTS_CHECK_MSG(chunk->column(c).data_type() == schema_[c].type,
                    schema_[c].name.c_str());
    }
    row_count_ += chunk->row_count();
  }
  statistics_ =
      std::make_shared<const TableStatistics>(TableStatistics::Compute(*this));
}

StatusOr<size_t> Table::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < schema_.size(); ++i) {
    if (schema_[i].name == name) return i;
  }
  return Status::NotFound(StrFormat("no column named '%s'", name.c_str()));
}

const ColumnDefinition& Table::column_definition(size_t index) const {
  FTS_CHECK(index < schema_.size());
  return schema_[index];
}

const Chunk& Table::chunk(ChunkId id) const {
  FTS_CHECK(id < chunks_.size());
  return *chunks_[id];
}

Value Table::GetValue(size_t column_index, RowId row) const {
  return chunk(row.chunk_id).column(column_index).GetValue(row.offset);
}

}  // namespace fts
