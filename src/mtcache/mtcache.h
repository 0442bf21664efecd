#ifndef MTCACHE_MTCACHE_MTCACHE_H_
#define MTCACHE_MTCACHE_MTCACHE_H_

#include <memory>
#include <string>

#include "engine/server.h"
#include "repl/replication.h"

namespace mtcache {

struct MTCacheOptions {
  /// Linked-server name under which the backend is registered.
  std::string backend_link_name = "backend";
};

/// The MTCache layer for one cache server attached to one backend server.
///
/// Setup mirrors §4: (1) the generated script that configures the server and
/// creates the shadow database (CreateShadowDatabase), (2) the DBA's script
/// creating cached views — `CREATE CACHED MATERIALIZED VIEW` statements
/// executed on the cache server route here through the engine hook — and
/// (3) "rerouting ODBC sources", which in this reproduction is simply
/// pointing the application at the cache Server object.
class MTCache {
 public:
  /// Configures `cache` as a mid-tier cache of `backend`: registers the
  /// linked server, points shadow-table routing at it, clones the backend
  /// catalog (tables, indexes, views, permissions, and statistics — but no
  /// data), and installs the cached-view DDL handler. The returned object
  /// must outlive `cache`.
  static StatusOr<std::unique_ptr<MTCache>> Setup(Server* cache,
                                                  Server* backend,
                                                  ReplicationSystem* repl,
                                                  MTCacheOptions options = {});

  /// Creates a cached materialized view: local backing table + matching
  /// replication subscription (auto-created publication), initial snapshot
  /// from the backend, and shadow-derived statistics (§4).
  Status CreateCachedView(const std::string& name,
                          const std::string& select_sql);
  Status CreateCachedView(const std::string& name, const SelectStmt& select);

  /// Drops the view's subscription and backing table.
  Status DropCachedView(const std::string& name);

  /// Full re-synchronization of a cached view: drops its subscription,
  /// replaces the local contents with a fresh backend snapshot, and
  /// re-subscribes from the current log position. Recovery path for a
  /// replica that diverged (tampering, missed changes).
  Status RefreshCachedView(const std::string& name);

  /// Copies a stored procedure from the backend so it runs locally; calls to
  /// procedures that are not copied forward transparently (§5.2).
  Status CopyProcedure(const std::string& name);

  /// Re-copies table/index statistics from the backend and recomputes local
  /// statistics on cached views. (§7 lists refreshing shadowed catalog
  /// information as future work; the statistics half is implemented here.)
  Status RefreshShadowedStatistics();

  /// Fault schedule consulted during snapshot copies (FaultSite::
  /// kSnapshotRow). A crash mid-copy rolls the snapshot back cleanly:
  /// CreateCachedView drops the half-built view entirely; RefreshCachedView
  /// restores the previous contents and leaves the view unsubscribed (the
  /// consistency checker flags it until the refresh is retried). Not owned;
  /// null = no faults.
  void set_fault_plan(FaultPlan* plan) { fault_plan_ = plan; }

  Server* cache() { return cache_; }
  Server* backend() { return backend_; }

 private:
  MTCache(Server* cache, Server* backend, ReplicationSystem* repl,
          MTCacheOptions options)
      : cache_(cache), backend_(backend), repl_(repl),
        options_(std::move(options)) {}

  Status CloneCatalog();
  /// The snapshot fill of CreateCachedView and RefreshCachedView: replaces
  /// the rows of the cached view's backing table with the backend's current
  /// rows of `def` in one local transaction, which visits the kSnapshotRow
  /// fault site once per copied row, then subscribes the table to `def` from
  /// the current log position. Returns the subscription id. A failed copy
  /// rolls back, so the table keeps its previous rows.
  StatusOr<int64_t> SnapshotThenSubscribe(StoredTable* backing,
                                          const SelectProjectDef& def);

  Server* cache_;
  Server* backend_;
  ReplicationSystem* repl_;
  MTCacheOptions options_;
  FaultPlan* fault_plan_ = nullptr;
};

}  // namespace mtcache

#endif  // MTCACHE_MTCACHE_MTCACHE_H_
