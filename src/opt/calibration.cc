#include "opt/calibration.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace mtcache {

namespace {

// Coefficient slug -> CostModel constant, in fit order. seq_row is first:
// it is the normalization anchor.
struct CoefficientSlot {
  const char* name;
  double constant;
};

const CoefficientSlot kSlots[] = {
    {"seq_row", CostModel::kSeqRowCost},
    {"index_seek", CostModel::kIndexSeekCost},
    {"index_row", CostModel::kIndexRowCost},
    {"filter_row", CostModel::kFilterRowCost},
    {"project_row", CostModel::kProjectRowCost},
    {"hash_build_row", CostModel::kHashBuildRowCost},
    {"hash_probe_row", CostModel::kHashProbeRowCost},
    {"nl_inner_row", CostModel::kNLInnerRowCost},
    {"agg_row", CostModel::kAggRowCost},
    {"sort_row", CostModel::kSortRowCost},
    {"distinct_row", CostModel::kDistinctRowCost},
    {"transfer_startup", CostModel::kTransferStartup},
    {"transfer_byte", CostModel::kTransferByteCost},
};
constexpr int kNumCoefficients = sizeof(kSlots) / sizeof(kSlots[0]);

std::string FormatDouble(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.8g", x);
  return buf;
}

}  // namespace

const std::vector<std::string>& CalibrationCoefficientNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const CoefficientSlot& s : kSlots) out.emplace_back(s.name);
    return out;
  }();
  return names;
}

std::vector<CalibrationProbe> MakeCalibrationProbes(
    const CalibrationConfig& cfg) {
  const double N = cfg.rows_big;
  const double M = cfg.rows_small;
  const double T = cfg.rows_tiny;
  const double R = cfg.rows_remote;
  std::vector<CalibrationProbe> probes;
  auto add = [&](std::string name, std::string sql, std::string expect,
                 std::map<std::string, double> features) {
    probes.push_back({std::move(name), std::move(sql), std::move(expect),
                      std::move(features)});
  };

  // Feature vectors count the work the executor's batch path really does,
  // which is not always what it charges:
  //  - Result materialization (copying emitted rows out of the executor) is
  //    real, selectivity-dependent work the abstract model has no slot for;
  //    it is counted as project_row (one "projection" per emitted row), so
  //    every probe's feature vector carries project_row = rows it drains.
  //  - A scalar aggregate whose arguments are bare columns absorbs straight
  //    off the scan's column vectors, and COUNT there adds batch sizes:
  //    COUNT(*) touches no row, and COUNT(col) of a NULL-free column reads
  //    one value per row. Such probes carry no agg_row; agg_row is the
  //    per-row group lookup of the row and grouped paths.

  // --- Sequential scans: two sizes separate per-row cost from overhead. ---
  add("scan_full_big", "SELECT * FROM cal_big", "SeqScan(cal_big)",
      {{"seq_row", N}, {"project_row", N}});
  add("scan_full_small", "SELECT * FROM cal_small", "SeqScan(cal_small)",
      {{"seq_row", M}, {"project_row", M}});

  // --- Filtered scans under COUNT(*): every row is gathered and tested,
  // and the count adds the qualifying batch sizes, so the work is the same
  // at a low and a high qualifying fraction. The [pred: suffix asserts the
  // predicate was folded into the scan. ---
  add("scan_filter_low",
      "SELECT COUNT(*) FROM cal_big WHERE val < " +
          std::to_string(cfg.big_val_domain / 10),
      "SeqScan(cal_big) [pred:", {{"seq_row", N}, {"filter_row", N}});
  add("scan_filter_high",
      "SELECT COUNT(*) FROM cal_big WHERE val < " +
          std::to_string(cfg.big_val_domain * 9 / 10),
      "SeqScan(cal_big) [pred:", {{"seq_row", N}, {"filter_row", N}});

  // --- Projection over a computed expression (folds into the scan as a
  // pushed projection; the work is the same either way). ---
  add("project_big", "SELECT id + val FROM cal_big", "proj:",
      {{"seq_row", N}, {"project_row", N}});

  // --- Aggregation. The scalar COUNT(val) reads one column value per row
  // and nothing else, which makes it the seq_row anchor; the grouped one
  // adds a group lookup per row. ---
  add("agg_count_big", "SELECT COUNT(val) FROM cal_big", "HashAggregate",
      {{"seq_row", N}});
  add("agg_group_small",
      "SELECT grp, COUNT(*) FROM cal_small GROUP BY grp", "HashAggregate",
      {{"seq_row", M}, {"agg_row", M}});

  // --- Sort: the feature is n*log2(n), matching SortCost's shape. ---
  add("sort_small", "SELECT * FROM cal_small ORDER BY val", "Sort",
      {{"seq_row", M},
       {"project_row", M},
       {"sort_row", M * std::log2(std::max(M, 2.0))}});

  // --- Distinct (runs over a projected single column; drains ~one row per
  // distinct value). ---
  add("distinct_small", "SELECT DISTINCT val FROM cal_small", "Distinct",
      {{"seq_row", M},
       {"project_row", M + cfg.small_val_domain},
       {"distinct_row", M}});

  // --- Index seeks: a point lookup isolates the descend cost, a 10% range
  // isolates the per-fetched-row cost. ---
  add("seek_point",
      "SELECT * FROM cal_big WHERE id = " + std::to_string(cfg.rows_big / 2),
      "IndexSeek(cal_big.",
      {{"index_seek", 1}, {"index_row", 1}, {"project_row", 1}});
  add("seek_range",
      "SELECT * FROM cal_big WHERE id >= 0 AND id < " +
          std::to_string(cfg.rows_big / 10),
      "IndexSeek(cal_big.",
      {{"index_seek", 1}, {"index_row", N / 10}, {"project_row", N / 10}});

  // --- Hash joins: build side is the smaller input. In the first two, val
  // domains are subsets of the inner id range, so every probe row matches
  // exactly one build row and hash_probe_row == agg_row; asymmetric sizes
  // at two scales decorrelate build from probe. The third probes cal_big
  // against cal_tiny, whose ids cover only part of cal_big's val domain,
  // so most probe rows find no match: that separates probe from agg. ---
  add("hash_join_big",
      "SELECT COUNT(*) FROM cal_big JOIN cal_small "
      "ON cal_big.val = cal_small.id",
      "HashJoin",
      {{"seq_row", N + M},
       {"hash_build_row", M},
       {"hash_probe_row", N},
       {"agg_row", N}});
  add("hash_join_small",
      "SELECT COUNT(*) FROM cal_small JOIN cal_tiny "
      "ON cal_small.val = cal_tiny.id",
      "HashJoin",
      {{"seq_row", M + T},
       {"hash_build_row", T},
       {"hash_probe_row", M},
       {"agg_row", M}});
  const double partial_match =
      std::min(T, static_cast<double>(cfg.big_val_domain)) /
      cfg.big_val_domain;
  add("hash_join_partial",
      "SELECT COUNT(*) FROM cal_big JOIN cal_tiny "
      "ON cal_big.val = cal_tiny.id",
      "HashJoin",
      {{"seq_row", N + T},
       {"hash_build_row", T},
       {"hash_probe_row", N},
       {"agg_row", partial_match * N}});

  // --- Nested loops (non-equi join, no usable index): T^2 inner-row visits;
  // P(a.val < b.val) ~ 1/2 of the cross product reaches the aggregate. ---
  add("nl_join_tiny",
      "SELECT COUNT(*) FROM cal_tiny a JOIN cal_tiny b ON a.val < b.val",
      "NLJoin",
      {{"seq_row", 2 * T},
       {"nl_inner_row", T * T},
       {"agg_row", 0.5 * T * T}});

  // --- Remote round-trips against the backend-homed table. The RemoteQuery
  // node's self time includes the backend's execution, so the features carry
  // the remote plan's work plus the transfer terms; three shapes with very
  // different shipped volumes separate startup from per-byte cost. ---
  add("remote_scan", "SELECT * FROM cal_remote", "RemoteQuery",
      {{"seq_row", R},
       {"project_row", R},
       {"transfer_startup", 1},
       {"transfer_byte", R * cfg.remote_row_bytes}});
  add("remote_point",
      "SELECT * FROM cal_remote WHERE id = " +
          std::to_string(cfg.rows_remote / 2),
      "RemoteQuery",
      {{"index_seek", 1},
       {"index_row", 1},
       {"project_row", 1},
       {"transfer_startup", 1},
       {"transfer_byte", cfg.remote_row_bytes}});
  // The backend answers COUNT(*) without touching a row, so this one
  // isolates the round trip itself.
  add("remote_agg", "SELECT COUNT(*) FROM cal_remote", "RemoteQuery",
      {{"transfer_startup", 1}, {"transfer_byte", 12}});

  return probes;
}

CalibrationReport FitCostModel(const std::vector<CalibrationSample>& samples) {
  CalibrationReport report;
  report.samples = static_cast<int>(samples.size());
  const int K = kNumCoefficients;

  // Dense design matrix row per sample.
  auto feature_row = [&](const CalibrationSample& s) {
    std::vector<double> x(K, 0.0);
    for (int k = 0; k < K; ++k) {
      auto it = s.features.find(kSlots[k].name);
      if (it != s.features.end()) x[k] = it->second;
    }
    return x;
  };

  // Normal equations with a tiny relative ridge: A = X'X + lambda*I,
  // b = X'y. The ridge keeps the solve stable when probes were skipped and
  // a coefficient's column went (near-)collinear or empty.
  std::vector<std::vector<double>> A(K, std::vector<double>(K, 0.0));
  std::vector<double> b(K, 0.0);
  std::vector<bool> covered(K, false);
  for (const CalibrationSample& s : samples) {
    std::vector<double> x = feature_row(s);
    for (int i = 0; i < K; ++i) {
      if (x[i] != 0) covered[i] = true;
      b[i] += x[i] * s.seconds;
      for (int j = 0; j < K; ++j) A[i][j] += x[i] * x[j];
    }
  }
  double max_diag = 0;
  for (int i = 0; i < K; ++i) max_diag = std::max(max_diag, A[i][i]);
  const double ridge = max_diag > 0 ? max_diag * 1e-9 : 1.0;
  for (int i = 0; i < K; ++i) A[i][i] += ridge;

  // Gaussian elimination with partial pivoting.
  std::vector<double> c(K, 0.0);
  {
    std::vector<std::vector<double>> m = A;
    std::vector<double> rhs = b;
    for (int col = 0; col < K; ++col) {
      int pivot = col;
      for (int r = col + 1; r < K; ++r) {
        if (std::fabs(m[r][col]) > std::fabs(m[pivot][col])) pivot = r;
      }
      std::swap(m[col], m[pivot]);
      std::swap(rhs[col], rhs[pivot]);
      if (std::fabs(m[col][col]) < 1e-300) continue;
      for (int r = col + 1; r < K; ++r) {
        double f = m[r][col] / m[col][col];
        if (f == 0) continue;
        for (int j = col; j < K; ++j) m[r][j] -= f * m[col][j];
        rhs[r] -= f * rhs[col];
      }
    }
    for (int col = K - 1; col >= 0; --col) {
      double v = rhs[col];
      for (int j = col + 1; j < K; ++j) v -= m[col][j] * c[j];
      c[col] = std::fabs(m[col][col]) < 1e-300 ? 0.0 : v / m[col][col];
    }
  }

  // Goodness of fit of the raw solution.
  double mean = 0;
  for (const CalibrationSample& s : samples) mean += s.seconds;
  if (!samples.empty()) mean /= samples.size();
  double ss_res = 0, ss_tot = 0;
  for (const CalibrationSample& s : samples) {
    std::vector<double> x = feature_row(s);
    double pred = 0;
    for (int k = 0; k < K; ++k) pred += x[k] * c[k];
    ss_res += (s.seconds - pred) * (s.seconds - pred);
    ss_tot += (s.seconds - mean) * (s.seconds - mean);
  }
  report.r_squared = ss_tot > 0 ? 1.0 - ss_res / ss_tot : 0.0;

  // Export: normalize so seq_row == kSeqRowCost (index 0 is the anchor);
  // per-coefficient fallback to the constants when the fit is unusable.
  const double anchor = c[0];
  report.anchored = std::isfinite(anchor) && anchor > 0;
  for (int k = 0; k < K; ++k) {
    CoefficientFit fit;
    fit.fitted_seconds = c[k];
    fit.constant = kSlots[k].constant;
    const bool usable =
        report.anchored && covered[k] && std::isfinite(c[k]) && c[k] > 0;
    if (usable) {
      fit.value = c[k] / anchor * CostModel::kSeqRowCost;
    } else {
      fit.value = fit.constant;
      fit.used_fallback = true;
    }
    fit.ratio = fit.value / fit.constant;
    report.coefficients[kSlots[k].name] = fit;
  }
  return report;
}

std::string CalibrationReportJson(const CalibrationReport& report,
                                  const std::vector<CalibrationSample>& samples,
                                  const std::vector<std::string>& skipped,
                                  const std::string& extra) {
  std::string json = "{\"experiment\": \"exp4_calibration\"";
  json += ", \"samples\": " + std::to_string(report.samples);
  json += ", \"r_squared\": " + FormatDouble(report.r_squared);
  json += ", \"anchored\": ";
  json += report.anchored ? "true" : "false";
  json += ", \"coefficients\": {";
  bool first = true;
  for (const std::string& name : CalibrationCoefficientNames()) {
    auto it = report.coefficients.find(name);
    if (it == report.coefficients.end()) continue;
    const CoefficientFit& fit = it->second;
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"constant\": " + FormatDouble(fit.constant) +
            ", \"value\": " + FormatDouble(fit.value) +
            ", \"ratio\": " + FormatDouble(fit.ratio) +
            ", \"fitted_seconds_per_unit\": " +
            FormatDouble(fit.fitted_seconds) +
            ", \"used_fallback\": " + (fit.used_fallback ? "true" : "false") +
            "}";
  }
  json += "}, \"probes\": [";
  for (size_t i = 0; i < samples.size(); ++i) {
    if (i > 0) json += ", ";
    json += "{\"name\": \"" + samples[i].probe +
            "\", \"seconds\": " + FormatDouble(samples[i].seconds) + "}";
  }
  json += "], \"skipped_probes\": [";
  for (size_t i = 0; i < skipped.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + skipped[i] + "\"";
  }
  json += "]";
  if (!extra.empty()) json += ", " + extra;
  json += "}";
  return json;
}

}  // namespace mtcache
