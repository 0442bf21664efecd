#ifndef MTCACHE_CATALOG_CATALOG_H_
#define MTCACHE_CATALOG_CATALOG_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "catalog/statistics.h"
#include "catalog/view_def.h"
#include "common/atomics.h"
#include "common/status.h"
#include "types/schema.h"

namespace mtcache {

/// Privileges checked by the binder. The shadow database duplicates the
/// backend's grants so authorization happens locally on the cache server.
enum class Privilege { kSelect, kInsert, kUpdate, kDelete, kExecute };

/// A secondary (or primary) index over a table. Keys are composite column
/// ordinal lists; storage keeps the corresponding B+-tree.
struct IndexDef {
  std::string name;
  std::vector<int> key_columns;  // ordinals into the table schema
  bool unique = false;
};

/// What kind of relation a TableDef describes.
enum class RelationKind {
  kBaseTable,
  kMaterializedView,  // regular matview (transactionally consistent)
  kCachedView,        // MTCache cached view: replica maintained by replication
};

/// A table, materialized view, or cached view. Views carry their
/// select-project definition; cached views additionally record the
/// subscription keeping them up to date. A `shadow` table exists in the
/// catalog (for parsing, permissions, and statistics) but holds no local
/// rows: the optimizer treats it as a Remote data source.
struct TableDef {
  std::string name;  // lower-cased
  Schema schema;
  std::vector<int> primary_key;  // ordinals; may be empty
  std::vector<IndexDef> indexes;
  TableStats stats;
  RelationKind kind = RelationKind::kBaseTable;
  std::optional<SelectProjectDef> view_def;  // set for (cached) matviews
  /// view_def resolved against the base table, when the view is created.
  std::optional<ViewMapping> view_mapping;
  bool shadow = false;      // catalog-only: data lives on the backend
  /// Rows are produced on demand by the engine (sys.dm_* DMVs) instead of
  /// coming from storage. Virtual tables are read-only, local-only (never
  /// shipped remotely), and have no indexes.
  bool virtual_table = false;
  /// For shadow tables: the linked-server name of the backend that owns the
  /// data. A cache server may shadow tables from several backends (§3).
  std::string home_server;
  int64_t subscription_id = -1;  // for cached views: repl subscription
  /// For cached views: the publisher time this replica is known to be
  /// current as of (maintained by the replication agents). Queries with
  /// freshness requirements compare against this. -1 = unknown. Relaxed
  /// atomic: the replication driver advances it while concurrent sessions
  /// read it for currency checks and dm_mtcache_views.
  RelaxedDouble freshness_time = -1;
  // Grants: user -> privileges. An empty map means "granted to public".
  std::map<std::string, std::set<Privilege>> grants;

  int FindIndex(const std::string& index_name) const;
  /// Returns the ordinal of `column` in the schema, or -1.
  int ColumnOrdinal(const std::string& column) const;
};

/// A stored procedure. The body is kept as source text (a sequence of
/// statements in our T-SQL-like dialect); the engine compiles and caches it.
/// On the cache server, only procedures the DBA copied over exist locally;
/// calls to others are transparently forwarded to the backend (§5.2).
struct ProcedureDef {
  std::string name;  // lower-cased
  std::vector<std::pair<std::string, TypeId>> params;  // names include '@'
  std::string body_source;
  std::map<std::string, std::set<Privilege>> grants;
};

/// The catalog of one database: relations and procedures. No locking —
/// the whole system is single-threaded and deterministic by design.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  Status CreateTable(TableDef def);
  Status DropTable(const std::string& name);
  /// Returns nullptr if absent. The pointer stays valid until drop.
  TableDef* GetTable(const std::string& name);
  const TableDef* GetTable(const std::string& name) const;

  Status CreateProcedure(ProcedureDef def);
  Status DropProcedure(const std::string& name);
  const ProcedureDef* GetProcedure(const std::string& name) const;

  std::vector<std::string> TableNames() const;
  std::vector<std::string> ProcedureNames() const;

  /// All cached views defined over the given base table (used by view
  /// matching and by replication change filtering).
  std::vector<const TableDef*> ViewsOver(const std::string& base_table) const;

  /// True if `user` holds `priv` on the table (empty grants = public).
  static bool HasPrivilege(const TableDef& table, const std::string& user,
                           Privilege priv);

 private:
  std::map<std::string, std::unique_ptr<TableDef>> tables_;
  std::map<std::string, ProcedureDef> procedures_;
};

}  // namespace mtcache

#endif  // MTCACHE_CATALOG_CATALOG_H_
