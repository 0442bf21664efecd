#ifndef MTCACHE_OPT_COST_MODEL_H_
#define MTCACHE_OPT_COST_MODEL_H_

#include <algorithm>
#include <cmath>

namespace mtcache {

/// The one cost model, in abstract "work units". The optimizer prices plan
/// alternatives with these constants and the executor charges the same ones
/// for the rows it actually processes, so estimated and measured costs are
/// commensurable and the multi-server simulation can turn measured work into
/// CPU service time. The profiler audits the constants: EXPLAIN ANALYZE and
/// sys.dm_exec_query_profiles report each operator's charged units beside
/// its measured seconds (and its estimate), so any statement shows the
/// measured microseconds per unit; nothing is fed back into the constants.
struct CostModel {
  // Per-row operator charges.
  static constexpr double kSeqRowCost = 1.0;
  static constexpr double kIndexSeekCost = 12.0;  // tree descend
  // Per row fetched through an index: dearer than a sequential-scan row
  // (random heap access), so full-relation reads prefer the scan.
  static constexpr double kIndexRowCost = 2.0;
  // Per byte of each stored row a scan, seek or index-NL fetch reads, at the
  // relation's avg_row_bytes: of two views that answer a query in the same
  // rows, the narrower one is cheaper to read. Sized as streaming a byte
  // from memory (~0.1 ns) against one work unit (~0.15 us on a 4-vCPU
  // host, perfbench's exec.us_per_local_unit): a 100-byte row adds 0.05.
  static constexpr double kReadByteCost = 0.0005;
  static constexpr double kFilterRowCost = 0.2;    // per input row
  static constexpr double kProjectRowCost = 0.2;   // per output row
  static constexpr double kHashBuildRowCost = 1.5;
  static constexpr double kHashProbeRowCost = 0.8;
  static constexpr double kNLInnerRowCost = 0.3;   // per inner row per outer
  static constexpr double kAggRowCost = 1.0;       // per input row
  static constexpr double kSortRowCost = 0.4;      // multiplied by log2(n)
  static constexpr double kDistinctRowCost = 0.8;

  // DataTransfer (§5): "proportional to the estimated volume of data shipped
  // plus a constant startup cost."
  static constexpr double kTransferStartup = 300.0;
  static constexpr double kTransferByteCost = 0.02;
  /// Multiplier (> 1) on the optimizer's estimate of remote execution cost:
  /// "even though the backend server may be powerful, it is likely to be
  /// heavily loaded so we will only get a fraction of its capacity" (§5).
  static constexpr double kRemoteCostFactor = 1.25;

  // DML charges (engine side). Writes are far more expensive than reads in
  // an OLTP engine (logging, locking, page writes); these constants reflect
  // that so update-heavy workloads load the backend realistically.
  static constexpr double kInsertRowCost = 150.0;
  static constexpr double kUpdateRowCost = 160.0;
  static constexpr double kDeleteRowCost = 150.0;
  static constexpr double kIndexMaintRowCost = 12.0;  // per index touched

  // Per-statement overhead (parse/bind/plan-cache/protocol).
  static constexpr double kStatementOverhead = 12.0;

  // Replication pipeline charges. The log reader scans and parses every log
  // record; the distributor *inserts* each qualifying change into the
  // distribution database (a real write, §2.2), and the agent's apply is a
  // row write on the subscriber.
  static constexpr double kLogReadRecordCost = 6.0;
  static constexpr double kDistributeRecordCost = 45.0;
  static constexpr double kApplyRecordCost = 90.0;
  /// Fixed per-delivery-unit cost at the subscriber (connection turnaround,
  /// batch framing, the ack round-trip). Charged once per TxnBatch, so group
  /// commit amortizes it across distribution_batch_size txns — this is the
  /// term the DES fleet model prices when exp3 replays a batched pipeline.
  static constexpr double kReplDeliveryOverheadCost = 30.0;

  /// Per-row charge of reading a stored row of `row_bytes` bytes through an
  /// access whose per-row charge is `row_cost` (kSeqRowCost/kIndexRowCost).
  static double ReadRowCost(double row_cost, double row_bytes) {
    return row_cost + row_bytes * kReadByteCost;
  }
  /// Sorting `rows` rows; with `limit` > 0 only the first `limit` are kept
  /// (Top-N), which costs n log k instead of n log n.
  static double SortCost(double rows, double limit = 0) {
    double n = std::max(rows, 2.0);
    double k = limit > 0 ? std::clamp(limit, 2.0, n) : n;
    return kSortRowCost * n * std::log2(k);
  }
  static double TransferCost(double rows, double bytes_per_row) {
    return kTransferStartup + rows * bytes_per_row * kTransferByteCost;
  }
};

}  // namespace mtcache

#endif  // MTCACHE_OPT_COST_MODEL_H_
