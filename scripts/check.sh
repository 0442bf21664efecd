#!/usr/bin/env bash
# One-command build + test.
#
#   scripts/check.sh          # configure + build + full test suite, the DMV
#                             # and exp1 smokes, and the E0/E2/E4/E5 tables
#   scripts/check.sh asan     # same, under -fsanitize=address,undefined,
#                             # running the fault-injection suites
#   scripts/check.sh tsan     # -fsanitize=thread, running the concurrency
#                             # suites (any data race fails the run)
#   scripts/check.sh profile  # profiling smoke gate: EXPLAIN ANALYZE actuals,
#                             # trace spans, percentile/wait DMVs, and a
#                             # Chrome trace artifact from a traced bench run
#   scripts/check.sh batch    # batch-executor gate: the differential corpus
#                             # at batch capacities 1/7/1024 + scan memory
#                             # regression, then the scan-throughput bench
#                             # in smoke mode
#   scripts/check.sh exp3     # fleet gate: deterministic-replay/convergence
#                             # tests (ctest -L fleet) + the exp3 fleet sweep
#                             # in smoke mode, emitting BENCH_exp3_tpcw.json
#   scripts/check.sh workload # workload-repository gate: fingerprint /
#                             # snapshot-delta / offload-attribution suites
#                             # (ctest -L workload) + the workload_smoke
#                             # binary (3 captured slices with non-empty
#                             # deltas, view offload attributed, cadence
#                             # capture), then exp3 smoke checked for the
#                             # per-slice series and per-cache workload
#                             # sections of BENCH_exp3_tpcw.json
#   scripts/check.sh repl     # replication-pipeline gate: the repl-labeled
#                             # suites (batched distribution, commit-order
#                             # batch apply, watermark dedup, the 200-seed
#                             # randomized fault schedules), then the exp6
#                             # heavy-DML sweep in smoke mode, emitting
#                             # BENCH_exp6_repl.json with its in-binary
#                             # sanity gate
#   scripts/check.sh planqual # plan-quality gate: optimizer suites
#                             # (ctest -L opt — cardinality and histogram
#                             # units plus the 40-query plan regression
#                             # corpus vs its committed golden), emitting
#                             # plan_quality_report.txt, then the cost audit:
#                             # profile_smoke's self microseconds per
#                             # charged unit for each operator over profiled
#                             # TPC-W traffic, emitting cost_audit.txt
#   scripts/check.sh perfbench # real cache + backend gate: one 5 s TPC-W
#                             # run of perfbench/run.py per workload
#                             # (ordering, shopping_half), which fails on a
#                             # ConsistencyChecker diff or a failed repeat,
#                             # then one shopping_half ledger repeat that
#                             # fails when remote reads ship whole tables
#
# The asan mode exercises the crash/restart paths with memory checking on:
# replication_fault_test (incl. the 200-seed randomized schedules),
# mtcache_resync_test, property_test, and view_maintenance_test (a regular
# and a cached materialized view diffed against their base table after
# seeded DML); engine_test (plan cache, view matching) and fleet_test (the
# simulated lab, checked for leaks) ride along,
# and so do the executor suites (batch_exec_test, exec_test, tpcw_test): hash
# joins, sorts and nested loops hold their inputs' rows by reference, so a
# row kept past its lifetime is a use-after-free here. tpcw_test's
# FROM-permutation suite runs the join order chosen for every permutation of
# each TPC-W read, and batch_exec_test's Top-N oracle every sort key shape.
# value_test runs here too: string Values share refcounted buffers, so an
# unbalanced refcount is a use-after-free or a leak under ASan. So does the
# randomized in-place compare (PredicateBatchRandom), which reads each
# row's cells where they sit, mixed type tags and NaN included.
# The DML window tests (DmlWindow, RacingUpdatesOfOneRow, RacingDml) run
# here as well: a row freed or its slot reused between an UPDATE's find and
# its change is read under ASan, and the checked-arithmetic and
# out-of-range-literal tests (IntegerOverflow, OutOfRange) under UBSan.
# The B+-tree and storage suites (BPlusTree, Storage) run here too: index
# keys are Values stored in place in node arrays, so a string key's buffer
# moves on every insert, split and erase, and a refcount slip is a
# use-after-free or a leak.
# The DMV suites (Dmv) run here too: trace-ring entries and profiles hold
# their plan's statement info by reference, so an info freed with an
# invalidated plan is a use-after-free when the ring is read.
# The tsan mode runs every test labeled `concurrency` (ctest -L) — the
# multi-session engine tests, the DMV-read-during-execution tests and the
# DML find-to-change window tests — plus the threaded bench smoke.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-default}"
case "$mode" in
  default)
    cmake --preset default
    cmake --build --preset default -j "$(nproc)"
    ctest --preset default
    # Smoke the observability layer end to end: every sys.dm_* view must
    # execute and the core counters must have moved; then one experiment
    # binary must emit its JSON line with an embedded DMV snapshot, and the
    # closed-loop threaded mode must emit its scaling JSON.
    ./build/examples/dmv_smoke
    exp1_out="$(./build/bench/exp1_baseline_throughput --smoke)"
    grep -q '"backend_dmv"' <<<"$exp1_out"
    exp1_threads_out="$(./build/bench/exp1_baseline_throughput --threads 8 --smoke)"
    grep -q '"aggregate_speedup"' <<<"$exp1_threads_out"
    # The paper tables on the simulated lab, a few seconds each. exp2_fig6
    # (WIPS strictly rising with servers for Browsing/Shopping) and exp5
    # (replication overhead under 15% on both tiers) gate their own shapes
    # and exit nonzero on a miss.
    for exp in exp0_interaction_profile exp2_fig6_scaleout \
               exp4_fivecache_table exp5_repl_overhead; do
      ./build/bench/"$exp"
    done
    ;;
  asan)
    cmake --preset asan
    cmake --build --preset asan -j "$(nproc)" --target \
      replication_fault_test mtcache_resync_test property_test \
      replication_test mtcache_test engine_test fleet_test dmv_smoke \
      batch_exec_test exec_test tpcw_test view_maintenance_test value_test \
      concurrency_test expr_test parser_test bptree_test storage_test dmv_test
    (cd build-asan && ctest --output-on-failure -j "$(nproc)" -R \
      'ReplicationFault|MtcacheResync|ReplicationConvergence|Replication(Test|Metrics)|MTCache|EngineTest|FleetTest|BatchDiff|BatchLifetime|BatchScanMemory|PredicateBatchNull|PredicateBatchRandom|ExecTest\.|Tpcw|ViewMaintenance|ValueTest|DmlWindow|RacingUpdatesOfOneRow|RacingDml|IntegerOverflow|OutOfRange|BPlusTree|Storage|Dmv')
    # The DMV walk under ASan: catches lifetime bugs in the virtual-table
    # row materialization that the plain build would miss.
    ./build-asan/examples/dmv_smoke
    ;;
  tsan)
    cmake --preset tsan
    cmake --build --preset tsan -j "$(nproc)" --target \
      concurrency_test dmv_test fleet_test batch_exec_test \
      exp1_baseline_throughput
    # halt_on_error: the first data race fails the suite instead of
    # scrolling past; second_deadlock_stack helps debug lock inversions.
    # The fleet label rides along: its DES runs are single-threaded by
    # design, so any TSan report there is a real bug in the shared layers.
    # The batch label brings the executor's differential corpus at every
    # batch capacity (each statement runs on its calling thread; the
    # concurrency label covers scans racing DML).
    export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
    (cd build-tsan && ctest --output-on-failure -L 'concurrency|fleet|batch')
    ./build-tsan/bench/exp1_baseline_throughput --threads 4 --smoke
    ;;
  profile)
    cmake --preset default
    cmake --build --preset default -j "$(nproc)" --target \
      profile_smoke exp1_baseline_throughput
    # The smoke binary asserts EXPLAIN ANALYZE reports nonzero per-operator
    # actuals on TPC-W queries (including the backend round-trip span for a
    # remotely routed one), dm_exec_query_profiles / percentile / wait-stats
    # DMVs are live, and EXPLAIN covers DML.
    ./build/examples/profile_smoke
    # A traced bench run must produce a loadable Chrome trace_event artifact.
    ./build/bench/exp1_baseline_throughput --threads 2 --smoke \
      --trace build/trace_exp1.json
    grep -q '"traceEvents"' build/trace_exp1.json
    ;;
  batch)
    cmake --preset default
    cmake --build --preset default -j "$(nproc)" --target \
      batch_exec_test exec_test exec_alloc_test exp2_scan_throughput
    # The differential corpus proves results do not depend on batch
    # capacity (1, 7 and 1024), plus the in-place-vs-EvalPredicate compare
    # oracles, the read-in-place-vs-evaluated aggregate oracles, exact
    # integer SUM and the NULL-logic predicate tests; the
    # memory tests pin the copy-free scan, sort and hash-join high-waters;
    # the allocation ceilings hold TPC-W's searches and BestSellers to the
    # heap allocations of reference-holding operators; the exec suite
    # re-checks operator semantics and cost parity.
    (cd build && ctest --output-on-failure -L batch)
    (cd build && ctest --output-on-failure -R 'Exec')
    # Scan throughput smoke: absolute QPS per cell (compare with the
    # committed BENCH_exp2_scan.json). The binary exits nonzero if a
    # result size flips between runs or a threaded worker's cardinality
    # differs from the single-thread run. The JSON line is the artifact.
    exp2_out="$(./build/bench/exp2_scan_throughput --smoke)"
    grep -q '"scanned_rows_per_sec"' <<<"$exp2_out"
    ;;
  exp3)
    cmake --preset default
    cmake --build --preset default -j "$(nproc)" --target \
      fleet_test tpcw_test exp3_tpcw
    # Deterministic replay, fleet-wide convergence (clean + fault storm),
    # and the mix-conformance suite the fleet's interaction stream rests on.
    (cd build && ctest --output-on-failure -j "$(nproc)" -L fleet)
    (cd build && ctest --output-on-failure -R 'Mix|AllMixInteractions')
    # The sweep in smoke mode: shape checks (offload monotone in cached
    # fraction, QPS growing with caches) run inside the binary; the JSON
    # artifact must carry results and the lag DMV snapshot.
    ./build/bench/exp3_tpcw --smoke --out build/BENCH_exp3_tpcw.json
    grep -q '"dm_repl_lag_histogram"' build/BENCH_exp3_tpcw.json
    grep -q '"offload_pct"' build/BENCH_exp3_tpcw.json
    ;;
  workload)
    cmake --preset default
    cmake --build --preset default -j "$(nproc)" --target \
      workload_test dmv_test workload_smoke exp3_tpcw
    # The observability suites: fingerprint normalization/hashing units,
    # snapshot delta correctness (deltas sum to cumulative totals), ring
    # eviction accounting, offload attribution, plus the DMV golden schemas
    # (dmv_test re-runs here because the three dm_workload_* views and the
    # re-keyed dm_exec_query_stats are this subsystem's public surface).
    (cd build && ctest --output-on-failure -j "$(nproc)" -L workload)
    (cd build && ctest --output-on-failure -R 'Dmv')
    # End-to-end gate: three captured slices with non-empty deltas, literal
    # variants folding to one fingerprint, cached-view offload attributed,
    # cadence capture firing — any miss exits non-zero.
    ./build/examples/workload_smoke
    # The fleet artifact must carry the per-slice time series and the
    # per-cache workload sections; fail loudly if either is missing or the
    # artifact was not written at all.
    ./build/bench/exp3_tpcw --smoke --out build/BENCH_exp3_tpcw.json
    [ -s build/BENCH_exp3_tpcw.json ] || {
      echo "workload: BENCH_exp3_tpcw.json missing or empty" >&2
      exit 1
    }
    for key in '"slices"' '"workload"' '"hot_fingerprints"' '"view_offload"' \
               '"offload_est_saved_seconds"'; do
      grep -q "$key" build/BENCH_exp3_tpcw.json || {
        echo "workload: BENCH_exp3_tpcw.json lacks $key" >&2
        exit 1
      }
    done
    echo "workload: per-slice series and per-cache attribution present in BENCH_exp3_tpcw.json"
    ;;
  repl)
    cmake --preset default
    cmake --build --preset default -j "$(nproc)" --target \
      replication_test replication_fault_test mtcache_resync_test \
      exp6_repl_latency
    # The replication suites: group-commit batching, commit-order apply
    # within a batch, the crash-safe per-batch apply watermark,
    # jittered-backoff determinism, bounded history, and the 200-seed
    # randomized fault schedules with batching enabled.
    (cd build && ctest --output-on-failure -j "$(nproc)" -L repl)
    # The heavy-DML sweep in smoke mode. The binary is its own gate: every
    # committed txn applied + ConsistencyChecker clean in every cell.
    ./build/bench/exp6_repl_latency --smoke --out build/BENCH_exp6_repl.json
    [ -s build/BENCH_exp6_repl.json ] || {
      echo "repl: BENCH_exp6_repl.json missing or empty" >&2
      exit 1
    }
    for key in '"runs"' '"gates"' '"sanity_gate"' '"lag_p99"' \
               '"avg_batch_size"'; do
      grep -q "$key" build/BENCH_exp6_repl.json || {
        echo "repl: BENCH_exp6_repl.json lacks $key" >&2
        exit 1
      }
    done
    echo "repl: sweep artifact with gates at build/BENCH_exp6_repl.json"
    ;;
  planqual)
    cmake --preset default
    cmake --build --preset default -j "$(nproc)" --target \
      opt_test column_histogram_test plan_quality_test profile_smoke
    # The optimizer-quality suites: cardinality/costing units, histogram
    # build/merge/boundary units, and the 40-query plan-regression corpus, which fails on any routing or access-path flip
    # vs tests/plan_quality_golden.txt, on a worsened per-operator Q-error,
    # and unless the histogram median Q-error strictly beats the uniform
    # baseline. The per-query report (est-vs-actual rows per operator plus
    # the chosen plan) is the reviewable artifact.
    export MT_PLAN_QUALITY_REPORT="$PWD/build/plan_quality_report.txt"
    (cd build && ctest --output-on-failure -j "$(nproc)" -L opt)
    [ -s build/plan_quality_report.txt ] || {
      echo "planqual: plan_quality_report.txt was not written" >&2
      exit 1
    }
    echo "planqual: plan-choice report at build/plan_quality_report.txt ($(grep -c '^q' build/plan_quality_report.txt) queries)"
    # Cost audit: the profiler charges each operator the cost units the
    # executor spends under it, beside its measured time. profile_smoke
    # fails unless profiled TPC-W statements charged units, and prints each
    # operator's self microseconds per unit; that table is the artifact.
    ./build/examples/profile_smoke | tee build/cost_audit.txt
    grep -q '^operator ' build/cost_audit.txt || {
      echo "planqual: cost_audit.txt lacks the per-operator table" >&2
      exit 1
    }
    ;;
  perfbench)
    # TPC-W through a real cache + backend pair (perfbench builds its own
    # Release tree). Exits non-zero when a repeat fails or when any repeat's
    # ConsistencyChecker pass finds a cached view that diverged from the
    # backend. ordering serves almost everything from fully cached views;
    # shopping_half takes the dynamic-plan and remote branches.
    python3 perfbench/run.py --workload ordering --seed 1 --seconds 5
    python3 perfbench/run.py --workload shopping_half --seed 1 --seconds 5
    # Remote reads ship only what the query returns: one untraced
    # shopping_half repeat of the ledger run.py just built must ship at most
    # 2,000 bytes per interaction and 20 rows per round trip. A dynamic plan
    # whose guard-true branch ships a whole table to return one row breaks
    # both by an order of magnitude.
    ledger="${CARGO_TARGET_DIR:-.bench_build}/perfbench/tpcw_ledger"
    ledger_out="$("$ledger" --workload shopping_half --seed 1 | tail -n 1)"
    python3 - "$ledger_out" <<'PY'
import json
import sys

metrics = json.loads(sys.argv[1])["metrics"]
limits = {"engine.remote.bytes_per_interaction": 2000,
          "engine.remote.rows_per_roundtrip": 20}
failed = False
for name, limit in limits.items():
    value = metrics[name]
    print("perfbench: %s = %.1f (limit %d)" % (name, value, limit))
    failed |= value > limit
sys.exit(1 if failed else 0)
PY
    ;;
  *)
    echo "usage: $0 [default|asan|tsan|profile|batch|exp3|workload|repl|planqual|perfbench]" >&2
    exit 2
    ;;
esac
