#ifndef MTCACHE_OPT_CALIBRATION_H_
#define MTCACHE_OPT_CALIBRATION_H_

#include <map>
#include <string>
#include <vector>

#include "opt/cost_model.h"

namespace mtcache {

/// Cost-model audit (pattern from hyrise's cost_model_calibration):
/// parameterized probe queries with *analytically known* operator feature
/// counts are timed through the profiling layer, and per-unit costs are
/// fitted by least squares. The fit does not replace anything: the optimizer
/// and executor both keep pricing with the CostModel constants, and the
/// report sets each measured value beside its constant so a drifting
/// constant shows up as a ratio far from 1.
///
/// This module is deliberately executor-free (mt_exec links mt_opt, not the
/// reverse): it generates the probe specs, fits the coefficient vector, and
/// renders the JSON report. The measurement loop — loading the probe tables,
/// enabling profiling, timing Execute() — lives in bench/exp4_calibrate.

/// Sizing knobs for the generated probe schema. The three local tables and
/// one backend-homed (remote) table are created by the harness:
///   cal_big  (id INT PK, val INT, grp INT, pad VARCHAR(40))  rows_big
///   cal_small(id INT PK, val INT, grp INT)                   rows_small
///   cal_tiny (id INT PK, val INT)                            rows_tiny
///   cal_remote = cal_big's schema, homed on the backend      rows_remote
/// `val` is uniform over [0, val domain); domains are chosen so equi-joins
/// big⋈small on (val = id) and small⋈tiny on (val = id) match exactly one
/// inner row per outer row, while big⋈tiny on (val = id) matches only the
/// rows_tiny / big_val_domain fraction of cal_big.
struct CalibrationConfig {
  int rows_big = 40000;
  int rows_small = 4000;
  int rows_tiny = 300;
  int rows_remote = 8000;
  int big_val_domain = 1000;    // subset of cal_small ids
  int small_val_domain = 100;   // subset of cal_tiny ids
  /// Estimated wire bytes per cal_remote row (the optimizer's row-bytes
  /// formula: 4 + 8/int + 24/string), used for the transfer_byte feature.
  double remote_row_bytes = 4 + 8 * 3 + 24;
};

/// One probe query: the SQL to run, the operator label that must appear in
/// the chosen plan (probe skipped otherwise — a plan flip would corrupt the
/// feature attribution), and the analytic feature vector: coefficient slug
/// -> how many units of that coefficient one execution performs.
struct CalibrationProbe {
  std::string name;
  std::string sql;
  std::string expect_op;
  std::map<std::string, double> features;
};

/// The probe set covering every fitted operator shape: sequential scan,
/// filtered scan, projection, index point/range seek, hash join, nested
/// loops join, aggregation, sort, distinct, and remote round-trips.
std::vector<CalibrationProbe> MakeCalibrationProbes(
    const CalibrationConfig& config);

/// One timed probe execution: the feature vector and the measured seconds.
struct CalibrationSample {
  std::string probe;
  std::map<std::string, double> features;
  double seconds = 0;
};

/// Per-coefficient fit outcome.
struct CoefficientFit {
  /// Raw least-squares estimate in seconds per unit (meaningless when the
  /// coefficient had no covering probe or the solve went non-positive).
  double fitted_seconds = 0;
  /// The CostModel constant the optimizer and executor price this
  /// coefficient with.
  double constant = 0;
  /// Measured value in seq-row units (fitted / fitted seq_row), or
  /// `constant` when the fit was unusable.
  double value = 0;
  /// value / constant: 1.0 when the measurement agrees with the constant.
  double ratio = 1.0;
  bool used_fallback = false;
};

/// Full calibration outcome: the audit trail for
/// BENCH_exp4_calibration.json.
struct CalibrationReport {
  std::map<std::string, CoefficientFit> coefficients;
  /// True when the seq_row anchor itself fitted (> 0); without it no value
  /// can be normalized and every coefficient falls back.
  bool anchored = false;
  /// Goodness of fit of the raw least-squares solution over the samples.
  double r_squared = 0;
  int samples = 0;
};

/// Fits the 13 optimizer coefficients to the samples by ridge-regularized
/// least squares (normal equations), then normalizes so seq_row == 1.0 —
/// the CostModel's kSeqRowCost — so each value compares directly with its
/// constant. Coefficients whose fit is non-positive or uncovered fall back
/// to the constants.
CalibrationReport FitCostModel(const std::vector<CalibrationSample>& samples);

/// Renders the report as the BENCH_exp4_calibration.json payload. `skipped`
/// lists probes whose plan did not contain the expected operator; `extra`
/// (may be empty) is spliced verbatim as additional top-level fields and
/// must therefore be either empty or `"key": value, ...` without braces.
std::string CalibrationReportJson(const CalibrationReport& report,
                                  const std::vector<CalibrationSample>& samples,
                                  const std::vector<std::string>& skipped,
                                  const std::string& extra);

/// The fixed coefficient order used by the fitter and the JSON report.
const std::vector<std::string>& CalibrationCoefficientNames();

}  // namespace mtcache

#endif  // MTCACHE_OPT_CALIBRATION_H_
