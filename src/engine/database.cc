#include "engine/database.h"

namespace mtcache {

Status Database::CreateTable(TableDef def) {
  std::string name = def.name;
  bool shadow = def.shadow;
  MT_RETURN_IF_ERROR(catalog_.CreateTable(std::move(def)));
  if (!shadow) {
    TableDef* stored = catalog_.GetTable(name);
    tables_[name] = std::make_unique<StoredTable>(stored, &log_);
  }
  return Status::Ok();
}

Status Database::DropTable(const std::string& table) {
  MT_RETURN_IF_ERROR(catalog_.DropTable(table));
  tables_.erase(table);
  return Status::Ok();
}

StoredTable* Database::GetStoredTable(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

void Database::RecomputeAllStats() {
  for (auto& [name, table] : tables_) {
    table->RecomputeStats();
  }
}

}  // namespace mtcache
