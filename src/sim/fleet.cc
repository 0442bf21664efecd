#include "sim/fleet.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "tpcw/datagen.h"
#include "tpcw/procs.h"
#include "tpcw/schema.h"

namespace mtcache {
namespace sim {

using tpcw::Interaction;
using tpcw::kNumInteractions;
using tpcw::TpcwDriver;

namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t FnvMix(uint64_t hash, const char* data, size_t len) {
  for (size_t i = 0; i < len; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= kFnvPrime;
  }
  return hash;
}

/// Percentile of a sorted latency vector (nearest-rank with floor, the same
/// convention for every caller so results stay byte-reproducible).
double SortedPercentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t index = static_cast<size_t>(p * (sorted.size() - 1));
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

bool TolerableReplStatus(const Status& status) {
  // Injected pipeline crashes surface as kUnavailable; the component
  // recovers on its next poll. Anything else is a real failure.
  return status.ok() || status.code() == StatusCode::kUnavailable;
}

}  // namespace

std::string FleetResult::ToJson() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"mix\": \"%s\", \"caches\": %d, \"cached_fraction\": %.4f, "
      "\"users\": %d, \"interactions\": %lld, \"wips\": %.3f, "
      "\"cache_qps\": %.3f, \"backend_qps\": %.3f, "
      "\"cache_db_units_per_sec\": %.1f, \"backend_db_units_per_sec\": %.1f, "
      "\"offload_pct\": %.3f, "
      "\"latency_avg\": %.6f, \"latency_p50\": %.6f, \"latency_p95\": %.6f, "
      "\"latency_p99\": %.6f, "
      "\"backend_util\": %.4f, \"cache_util_avg\": %.4f, "
      "\"cache_util_max\": %.4f, "
      "\"lag_avg\": %.6f, \"lag_p50\": %.6f, \"lag_p95\": %.6f, "
      "\"lag_p99\": %.6f, \"lag_max\": %.6f, \"lag_samples\": %lld, "
      "\"trace_digest\": \"%016llx\"}",
      mix.c_str(), num_caches, cached_fraction, users,
      static_cast<long long>(interactions), wips, cache_qps, backend_qps,
      cache_db_units_per_sec, backend_db_units_per_sec, offload_pct,
      latency_avg, latency_p50, latency_p95, latency_p99, backend_util,
      cache_util_avg, cache_util_max, lag_avg, lag_p50, lag_p95, lag_p99,
      lag_max, static_cast<long long>(lag_samples),
      static_cast<unsigned long long>(trace_digest));
  return buf;
}

std::string FleetSlice::ToJson() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"slice\": %d, \"cache\": %d, \"start\": %.3f, \"end\": %.3f, "
      "\"interactions\": %lld, \"cache_statements\": %lld, "
      "\"backend_statements\": %lld, \"cache_db_units\": %.1f, "
      "\"backend_db_units\": %.1f, \"offload_pct\": %.3f, "
      "\"lag_samples\": %lld, \"lag_avg\": %.6f, \"lag_max\": %.6f, "
      "\"top_interaction\": \"%s\", \"top_interaction_count\": %lld}",
      slice, cache, start, end, static_cast<long long>(interactions),
      static_cast<long long>(cache_statements),
      static_cast<long long>(backend_statements), cache_db_units,
      backend_db_units, offload_pct, static_cast<long long>(lag_samples),
      lag_avg, lag_max, top_interaction.c_str(),
      static_cast<long long>(top_interaction_count));
  return buf;
}

std::string FleetResult::SlicesJson() const {
  std::string out = "[";
  for (size_t i = 0; i < slices.size(); ++i) {
    if (i > 0) out += ", ";
    out += slices[i].ToJson();
  }
  out += "]";
  return out;
}

Fleet::Fleet(FleetConfig config) : config_(std::move(config)) {}

Fleet::~Fleet() {
  // The fault plan is consulted by repl_ / mtcaches_; members destruct in
  // reverse declaration order, so detach it first to be explicit.
  if (repl_ != nullptr) repl_->set_fault_plan(nullptr);
  for (auto& mtcache : mtcaches_) mtcache->set_fault_plan(nullptr);
}

Status Fleet::BuildSystem() {
  if (config_.num_caches < 0) {
    return Status::InvalidArgument("fleet cache count must be >= 0");
  }
  backend_ = std::make_unique<Server>(ServerOptions{"backend", "dbo", {}},
                                      &clock_, &links_);
  MT_RETURN_IF_ERROR(tpcw::CreateSchema(backend_.get()));
  MT_RETURN_IF_ERROR(tpcw::GenerateData(backend_.get(), config_.tpcw));
  MT_RETURN_IF_ERROR(tpcw::CreateProcedures(backend_.get(), config_.tpcw));
  clock_.AdvanceTo(tpcw::LoadEndTime(config_.tpcw));

  repl_ = std::make_unique<ReplicationSystem>(&clock_);
  repl_->set_distribution_batch_size(config_.distribution_batch_size);
  for (int i = 0; i < config_.num_caches; ++i) {
    caches_.push_back(std::make_unique<Server>(
        ServerOptions{"cache" + std::to_string(i + 1), "dbo", {}}, &clock_,
        &links_));
    auto setup =
        MTCache::Setup(caches_.back().get(), backend_.get(), repl_.get());
    MT_RETURN_IF_ERROR(setup.status());
    mtcaches_.push_back(setup.ConsumeValue());
    MT_RETURN_IF_ERROR(tpcw::SetupTpcwCache(mtcaches_.back().get(),
                                            config_.tpcw,
                                            config_.cached_fraction));
  }
  // Per-cache session drivers with disjoint client id spaces; residue class
  // num_caches is reserved for the profiling driver.
  for (int i = 0; i < config_.num_caches; ++i) {
    drivers_.push_back(std::make_unique<TpcwDriver>(
        caches_[i].get(), config_.tpcw, config_.seed ^ (0x51ed0000ULL + i),
        /*driver_index=*/i, /*driver_stride=*/config_.num_caches + 1));
  }
  return Status::Ok();
}

Status Fleet::ReplicationRound() {
  Status reader = repl_->RunLogReader(backend_.get(), nullptr);
  if (!TolerableReplStatus(reader)) return reader;
  for (auto& cache : caches_) {
    Status apply = repl_->RunDistributionAgent(cache.get(), nullptr);
    if (!TolerableReplStatus(apply)) return apply;
  }
  return Status::Ok();
}

Status Fleet::ProfileInteractions() {
  // Backend-only and bypass drivers talk to the backend, so every statement
  // and all of its work lands there.
  const bool via_cache = !caches_.empty() && config_.drivers_use_cache;
  TpcwDriver driver(via_cache ? caches_[0].get() : backend_.get(),
                    config_.tpcw, config_.seed ^ 0xfeed,
                    /*driver_index=*/config_.num_caches,
                    /*driver_stride=*/config_.num_caches + 1);
  for (int t = 0; t < kNumInteractions; ++t) {
    Interaction kind = static_cast<Interaction>(t);
    double pub_total = 0;
    double apply_total = 0;
    double txn_total = 0;
    for (int s = 0; s < config_.profile_samples; ++s) {
      int64_t statements_before = driver.statements_issued();
      MT_ASSIGN_OR_RETURN(ExecStats stats, driver.Run(kind));
      int64_t statements = driver.statements_issued() - statements_before;
      FleetProfile::Sample sample;
      if (via_cache) {
        sample.cache_cost = stats.local_cost;
        sample.backend_cost = stats.remote_cost;
        sample.cache_statements = statements;
        sample.backend_statements = stats.remote_queries;
      } else {
        sample.backend_cost = stats.local_cost + stats.remote_cost;
        sample.backend_statements = statements;
      }
      profile_.samples[t].push_back(sample);
      if (caches_.empty()) continue;  // backend-only: nothing replicates

      int64_t txns_before = repl_->metrics().txns_applied;
      ExecStats pub;
      MT_RETURN_IF_ERROR(repl_->RunLogReader(backend_.get(), &pub));
      pub_total += pub.local_cost;
      for (size_t c = 0; c < caches_.size(); ++c) {
        ExecStats apply;
        MT_RETURN_IF_ERROR(
            repl_->RunDistributionAgent(caches_[c].get(), &apply));
        if (c == 0) apply_total += apply.local_cost;
      }
      int64_t txns_delta = repl_->metrics().txns_applied - txns_before;
      txn_total += static_cast<double>(txns_delta) /
                   static_cast<double>(caches_.size());
    }
    profile_.repl_publisher_cost[t] = pub_total / config_.profile_samples;
    profile_.repl_apply_cost[t] = apply_total / config_.profile_samples;
    profile_.repl_txns[t] = txn_total / config_.profile_samples;
  }
  return Status::Ok();
}

Status Fleet::Initialize() {
  MT_RETURN_IF_ERROR(BuildSystem());
  MT_RETURN_IF_ERROR(ProfileInteractions());
  if (config_.fault_injection) {
    // A light but omnipresent storm: deliveries dropped in transit, agents
    // and the log reader crashing mid-operation, occasional WAL read stalls.
    // Deterministic for a fixed seed (the plan's own RNG drives every draw).
    fault_plan_ = std::make_unique<FaultPlan>(config_.seed ^ 0xfa17);
    fault_plan_->AddRandomRule(FaultSite::kDeliverTxn, FaultAction::kDrop,
                               0.10);
    fault_plan_->AddRandomRule(FaultSite::kApplyChange, FaultAction::kCrash,
                               0.02);
    fault_plan_->AddRandomRule(FaultSite::kApplyCommit, FaultAction::kCrash,
                               0.01);
    fault_plan_->AddRandomRule(FaultSite::kLogReadRecord, FaultAction::kCrash,
                               0.01);
    fault_plan_->AddRandomRule(FaultSite::kDeliverTxn, FaultAction::kDelay,
                               0.05);
    repl_->set_fault_plan(fault_plan_.get());
  }
  initialized_ = true;
  return Status::Ok();
}

Status Fleet::ExecuteInteractions(tpcw::WorkloadMix mix, int per_cache,
                                  int repl_every) {
  if (!initialized_) return Status::Internal("fleet not initialized");
  if (repl_every < 1) repl_every = 1;
  int64_t executed = 0;
  for (int round = 0; round < per_cache; ++round) {
    for (size_t i = 0; i < drivers_.size(); ++i) {
      auto result = drivers_[i]->RunNext(mix);
      MT_RETURN_IF_ERROR(result.status());
      clock_.Advance(0.01);
      if (++executed % repl_every == 0) {
        clock_.Advance(0.25);  // let delayed/backed-off deliveries retry
        MT_RETURN_IF_ERROR(ReplicationRound());
        // One workload-repository slice per cache per replication epoch:
        // the per-fingerprint execution deltas and cached-view offload of
        // the epoch land in sys.dm_workload_snapshots et al.
        for (auto& cache : caches_) cache->CaptureWorkloadSnapshot();
      }
    }
  }
  return Status::Ok();
}

Status Fleet::Drain() {
  return DrainPipeline(repl_.get(), &clock_,
                       /*max_rounds=*/200 + 50 * config_.num_caches);
}

ConsistencyReport Fleet::CheckConsistency() const {
  // One checker pass per cache so dead cached views (subscription gone) are
  // caught on every server. Each pass also re-walks the global subscription
  // list, so a real divergence may be reported once per cache — harmless:
  // the tests assert on merged.ok(), and a clean fleet merges empty.
  ConsistencyReport merged;
  for (const auto& cache : caches_) {
    ConsistencyReport report =
        ConsistencyChecker(repl_.get(), backend_.get(), cache.get()).Check();
    for (auto& diff : report.diffs) merged.diffs.push_back(std::move(diff));
    for (auto& violation : report.violations) {
      if (std::find(merged.violations.begin(), merged.violations.end(),
                    violation) == merged.violations.end()) {
        merged.violations.push_back(std::move(violation));
      }
    }
  }
  return merged;
}

StatusOr<FleetResult> Fleet::Simulate(const FleetLoad& load) {
  if (!initialized_) return Status::Internal("fleet not initialized");
  if (load.num_caches < 1) {
    return Status::InvalidArgument("simulated fleet needs >= 1 cache");
  }
  if (load.users < 1) {
    return Status::InvalidArgument("simulated fleet needs >= 1 user");
  }
  const int num_caches = load.num_caches;

  Des des;
  Random rng((config_.seed * 0x9E3779B97F4A7C15ULL) ^
             (load.seed * 0x2545F4914F6CDD1DULL) ^
             static_cast<uint64_t>(load.users));

  Machine backend(&des, "backend", config_.backend_cpus, config_.unit_rate);
  std::vector<std::unique_ptr<Machine>> cache_machines;
  for (int i = 0; i < num_caches; ++i) {
    cache_machines.push_back(std::make_unique<Machine>(
        &des, "cache" + std::to_string(i + 1), config_.cache_cpus,
        config_.unit_rate));
  }

  const double warmup_end = load.warmup;
  const double run_end = load.warmup + load.measure;

  // Measurement accumulators (measure window only).
  std::vector<double> latencies;
  int64_t completed = 0;
  int64_t cache_statements = 0;
  int64_t backend_statements = 0;
  double cache_db_units = 0;
  double backend_db_units = 0;
  bool counters_reset = false;

  // Per (cache, slice) accumulators for the workload time series. Every
  // user is pinned to one cache, so attributing a completion to
  // slice_acc[cache_index] is exact, not an approximation.
  const int num_slices = std::max(1, load.slices);
  const double slice_len = load.measure / num_slices;
  struct SliceAcc {
    int64_t interactions = 0;
    int64_t cache_statements = 0;
    int64_t backend_statements = 0;
    double cache_db_units = 0;
    double backend_db_units = 0;
    int64_t lag_samples = 0;
    double lag_sum = 0;
    double lag_max = 0;
    int64_t by_type[kNumInteractions] = {};
  };
  std::vector<std::vector<SliceAcc>> slice_acc(
      num_caches, std::vector<SliceAcc>(num_slices));
  auto slice_of = [&](double now) {
    int s = static_cast<int>((now - warmup_end) / slice_len);
    return s < 0 ? 0 : (s >= num_slices ? num_slices - 1 : s);
  };

  // Trace (every completed interaction, warmup and all: the replay tests
  // compare full runs, not windows).
  int64_t trace_seq = 0;
  uint64_t digest = kFnvOffset;
  std::string trace;
  char line[160];

  // Replication pipeline state: work and source commit times accumulated
  // between distribution-agent polls.
  struct ReplBatch {
    double pub_cost = 0;
    double apply_cost = 0;
    std::vector<double> commit_times;  // one entry per source txn
  };
  auto pending = std::make_shared<ReplBatch>();
  LogHistogram lag;

  auto sample_demand = [&](Interaction kind) -> const FleetProfile::Sample& {
    const auto& list = profile_.samples[static_cast<int>(kind)];
    return list[rng.Uniform(0, static_cast<int64_t>(list.size()) - 1)];
  };

  // Closed-loop users: think -> cache-tier job (app + local db work) ->
  // backend job when the interaction pushed work remotely -> record ->
  // think again. User u is pinned to cache u % num_caches for its lifetime.
  struct UserFns {
    std::function<void(int)> start_think;
    std::function<void(int)> arrive;
  };
  auto fns = std::make_shared<UserFns>();
  fns->start_think = [&, fns](int user) {
    double think = config_.think_time * (0.95 + 0.1 * rng.NextDouble());
    des.Schedule(des.now() + think, [fns, user]() { fns->arrive(user); });
  };
  fns->arrive = [&, fns](int user) {
    if (des.now() >= run_end) return;  // wind down
    Interaction kind = tpcw::PickInteraction(load.mix, rng.NextDouble());
    const FleetProfile::Sample& demand = sample_demand(kind);
    int t = static_cast<int>(kind);
    int cache_index = user % num_caches;
    double started = des.now();
    auto finish = [&, fns, user, cache_index, started, t, demand]() {
      bool in_window = des.now() >= warmup_end && des.now() < run_end;
      if (in_window) {
        latencies.push_back(des.now() - started);
        ++completed;
        cache_statements += demand.cache_statements;
        backend_statements += demand.backend_statements;
        cache_db_units += demand.cache_cost;
        backend_db_units += demand.backend_cost;
        SliceAcc& acc = slice_acc[cache_index][slice_of(des.now())];
        ++acc.interactions;
        acc.cache_statements += demand.cache_statements;
        acc.backend_statements += demand.backend_statements;
        acc.cache_db_units += demand.cache_cost;
        acc.backend_db_units += demand.backend_cost;
        ++acc.by_type[t];
      }
      int n = std::snprintf(line, sizeof(line),
                            "%lld u%d c%d %s %.6f %.6f\n",
                            static_cast<long long>(trace_seq++), user,
                            cache_index,
                            tpcw::InteractionName(static_cast<Interaction>(t)),
                            started, des.now());
      digest = FnvMix(digest, line, static_cast<size_t>(n));
      if (load.record_trace) trace.append(line, static_cast<size_t>(n));
      // Replication work this interaction caused at the publisher and at
      // every subscribing cache.
      pending->pub_cost += profile_.repl_publisher_cost[t];
      pending->apply_cost += profile_.repl_apply_cost[t];
      double txn_rate = profile_.repl_txns[t];
      if (txn_rate > 0) {
        // Fractional rates (e.g. 0.4 source txns per Shopping Cart) are
        // realized probabilistically so the long-run average matches.
        int txns = static_cast<int>(std::floor(txn_rate));
        if (rng.NextDouble() < txn_rate - txns) ++txns;
        for (int k = 0; k < txns; ++k) {
          pending->commit_times.push_back(des.now());
        }
      }
      fns->start_think(user);
    };
    Machine* my_cache = cache_machines[cache_index].get();
    double cache_demand = config_.app_work + demand.cache_cost;
    double backend_demand = demand.backend_cost;
    my_cache->Submit(cache_demand, [&, fns, backend_demand, finish]() {
      if (backend_demand > 0) {
        backend.Submit(backend_demand, finish);
      } else {
        finish();
      }
    });
  };

  for (int u = 0; u < load.users; ++u) {
    double offset = config_.think_time * rng.NextDouble();
    des.Schedule(offset, [fns, u]() { fns->arrive(u); });
  }

  // Replication agents: a periodic log-reader/distributor poll on the
  // backend whose completion fans apply jobs out to every cache machine.
  // Each batched source txn's commit->apply lag is recorded per subscriber
  // — this is the distribution sys.dm_repl_lag_histogram reports.
  std::function<void()> poll = [&]() {
    if (des.now() >= run_end) return;
    if (pending->pub_cost > 0 || !pending->commit_times.empty()) {
      auto batch = std::make_shared<ReplBatch>(std::move(*pending));
      *pending = ReplBatch{};
      // Each cache applies the poll's batch as one job, in commit order;
      // its txns become visible (and their lag is recorded) when it ends.
      backend.Submit(batch->pub_cost + 1, [&, batch]() {
        for (int c = 0; c < num_caches; ++c) {
          cache_machines[c]->Submit(batch->apply_cost + 1, [&, batch, c]() {
            if (des.now() < warmup_end || des.now() >= run_end) return;
            SliceAcc& acc = slice_acc[c][slice_of(des.now())];
            for (double commit_time : batch->commit_times) {
              double sample = des.now() - commit_time;
              lag.Record(sample);
              ++acc.lag_samples;
              acc.lag_sum += sample;
              acc.lag_max = std::max(acc.lag_max, sample);
            }
          });
        }
      });
    }
    des.Schedule(des.now() + config_.repl_poll_interval, poll);
  };
  if (!caches_.empty()) des.Schedule(config_.repl_poll_interval, poll);

  // Warmup boundary: reset machine utilization counters.
  des.Schedule(warmup_end, [&]() {
    backend.ResetCounters();
    for (auto& machine : cache_machines) machine->ResetCounters();
    counters_reset = true;
  });

  des.RunUntil(run_end);
  // Each user callback holds `fns` itself; break that cycle so the closures
  // are freed with the run.
  *fns = UserFns{};

  FleetResult result;
  result.mix = tpcw::MixName(load.mix);
  result.num_caches = num_caches;
  result.cached_fraction = config_.cached_fraction;
  result.users = load.users;
  result.interactions = completed;
  result.wips = completed / load.measure;
  result.cache_qps = cache_statements / load.measure;
  result.backend_qps = backend_statements / load.measure;
  result.cache_db_units_per_sec = cache_db_units / load.measure;
  result.backend_db_units_per_sec = backend_db_units / load.measure;
  double total_db = cache_db_units + backend_db_units;
  result.offload_pct = total_db > 0 ? 100.0 * cache_db_units / total_db : 0;
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    double sum = 0;
    for (double l : latencies) sum += l;
    result.latency_avg = sum / latencies.size();
    result.latency_p50 = SortedPercentile(latencies, 0.50);
    result.latency_p90 = SortedPercentile(latencies, 0.90);
    result.latency_p95 = SortedPercentile(latencies, 0.95);
    result.latency_p99 = SortedPercentile(latencies, 0.99);
  }
  double window = counters_reset ? load.measure : run_end;
  result.backend_util = std::min(backend.Utilization(window), 1.0);
  double total_util = 0;
  for (auto& machine : cache_machines) {
    double util = std::min(machine->Utilization(window), 1.0);
    result.cache_util_max = std::max(result.cache_util_max, util);
    total_util += util;
  }
  result.cache_util_avg = total_util / num_caches;
  result.lag_samples = lag.Count();
  result.lag_avg = lag.Avg();
  result.lag_p50 = lag.Percentile(0.50);
  result.lag_p95 = lag.Percentile(0.95);
  result.lag_p99 = lag.Percentile(0.99);
  result.lag_max = lag.Max();
  result.trace_digest = digest;
  result.trace = std::move(trace);

  // Flatten the per-cache per-slice accumulators into the series,
  // slice-major so a reader scanning the array sees time advance.
  for (int s = 0; s < num_slices; ++s) {
    for (int c = 0; c < num_caches; ++c) {
      const SliceAcc& acc = slice_acc[c][s];
      FleetSlice cell;
      cell.slice = s;
      cell.cache = c;
      cell.start = warmup_end + s * slice_len;
      cell.end = cell.start + slice_len;
      cell.interactions = acc.interactions;
      cell.cache_statements = acc.cache_statements;
      cell.backend_statements = acc.backend_statements;
      cell.cache_db_units = acc.cache_db_units;
      cell.backend_db_units = acc.backend_db_units;
      double cell_db = acc.cache_db_units + acc.backend_db_units;
      cell.offload_pct =
          cell_db > 0 ? 100.0 * acc.cache_db_units / cell_db : 0;
      cell.lag_samples = acc.lag_samples;
      cell.lag_avg = acc.lag_samples > 0 ? acc.lag_sum / acc.lag_samples : 0;
      cell.lag_max = acc.lag_max;
      int top = 0;
      for (int k = 1; k < kNumInteractions; ++k) {
        if (acc.by_type[k] > acc.by_type[top]) top = k;
      }
      cell.top_interaction =
          tpcw::InteractionName(static_cast<Interaction>(top));
      cell.top_interaction_count = acc.by_type[top];
      result.slices.push_back(std::move(cell));
    }
  }

  // Surface the simulated run's lag distribution through the real
  // pipeline's metrics: sys.dm_repl_lag_histogram on every cache now
  // includes these samples (the DMV is served off the shared metrics).
  repl_->MergeLagHistogram(lag);
  return result;
}

StatusOr<FleetResult> Fleet::FindMaxThroughput(FleetLoad load) {
  auto run = [&](int users) {
    load.users = users;
    return Simulate(load);
  };
  auto acceptable = [](const FleetResult& r) {
    return r.latency_p90 <= kMaxP90Latency &&
           std::max(r.backend_util, r.cache_util_max) <= kMaxBottleneckUtil;
  };

  MT_ASSIGN_OR_RETURN(FleetResult best, run(1));
  if (!acceptable(best)) return best;

  // Exponential growth until a bound is exceeded, then bisect to within
  // 1/16 of the last acceptable user count.
  int lo = 1;
  int hi = 2;
  while (hi <= 1 << 20) {
    MT_ASSIGN_OR_RETURN(FleetResult r, run(hi));
    if (!acceptable(r)) break;
    best = std::move(r);
    lo = hi;
    hi *= 2;
  }
  while (hi - lo > std::max(1, lo / 16)) {
    int mid = lo + (hi - lo) / 2;
    MT_ASSIGN_OR_RETURN(FleetResult r, run(mid));
    if (acceptable(r)) {
      best = std::move(r);
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return best;
}

}  // namespace sim
}  // namespace mtcache
