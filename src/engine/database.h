#ifndef MTCACHE_ENGINE_DATABASE_H_
#define MTCACHE_ENGINE_DATABASE_H_

#include <map>
#include <memory>
#include <string>

#include "catalog/catalog.h"
#include "common/sim_clock.h"
#include "exec/exec.h"
#include "storage/table.h"

namespace mtcache {

/// A database: catalog + stored tables + WAL + transaction manager. On an
/// MTCache server this is the *shadow* database: the catalog is fully
/// populated (cloned from the backend) but only cached-view backing tables
/// hold rows; shadow tables have no storage at all.
class Database : public StorageProvider {
 public:
  /// `clock` provides commit timestamps (may be null for wall-free tests).
  explicit Database(std::string name, SimClock* clock = nullptr)
      : name_(std::move(name)), clock_(clock), txn_mgr_(&log_) {}

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const std::string& name() const { return name_; }
  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  LogManager& log() { return log_; }
  TransactionManager& txn_manager() { return txn_mgr_; }
  double Now() const { return clock_ != nullptr ? clock_->Now() : 0.0; }

  /// Registers a table in the catalog and (unless it is a shadow) creates
  /// its storage.
  Status CreateTable(TableDef def);

  Status DropTable(const std::string& table);

  // StorageProvider: returns null for shadow tables and unknown names.
  StoredTable* GetStoredTable(const std::string& name) override;

  /// Recomputes statistics for every stored table (and leaves shadowed
  /// statistics on shadow tables untouched).
  void RecomputeAllStats();

 private:
  std::string name_;
  SimClock* clock_;
  Catalog catalog_;
  LogManager log_;
  TransactionManager txn_mgr_;
  std::map<std::string, std::unique_ptr<StoredTable>> tables_;
};

}  // namespace mtcache

#endif  // MTCACHE_ENGINE_DATABASE_H_
