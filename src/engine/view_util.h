#ifndef MTCACHE_ENGINE_VIEW_UTIL_H_
#define MTCACHE_ENGINE_VIEW_UTIL_H_

#include <string>

#include "catalog/catalog.h"
#include "common/status.h"
#include "sql/ast.h"

namespace mtcache {

/// Validates that a view-defining SELECT is a select-project over a single
/// base table with a conjunction of `column op literal` predicates (the only
/// view shape MTCache caches, §4) and lowers it to a SelectProjectDef.
/// `SELECT *` projects every base column.
StatusOr<SelectProjectDef> BuildSelectProjectDef(const SelectStmt& select,
                                                 const TableDef& base);

/// Builds the backing TableDef for a (cached) materialized view: projected
/// base columns, the base primary key mapped through (required — updates and
/// deletes are applied by key, so a base table without a primary key is
/// rejected), a unique index on that key, and the resolved view mapping.
StatusOr<TableDef> MakeViewTableDef(const std::string& view_name,
                                    const TableDef& base,
                                    const SelectProjectDef& def,
                                    RelationKind kind);

/// Derives shadowed statistics for a view from the base table's statistics
/// and the view predicate's selectivity (the cache server's optimizer costs
/// cached views without ever seeing the backend data, §3).
TableStats DeriveViewStats(const TableDef& base, const SelectProjectDef& def);

}  // namespace mtcache

#endif  // MTCACHE_ENGINE_VIEW_UTIL_H_
