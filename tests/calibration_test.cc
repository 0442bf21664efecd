// Unit tests for the cost-model audit fitter (src/opt/calibration):
// synthetic samples with *known* ground-truth coefficients must be recovered
// (normalized to seq_row == kSeqRowCost) and reported beside their CostModel
// constants, uncovered or non-positive coefficients must fall back to those
// constants, and probe feature vectors must reference only fitted
// coefficient slugs.

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "opt/calibration.h"
#include "opt/cost_model.h"

namespace mtcache {
namespace {

// Builds a sample whose seconds are the exact dot product of `features`
// with the ground-truth per-unit costs in `truth`.
CalibrationSample Synthetic(const std::string& name,
                            const std::map<std::string, double>& features,
                            const std::map<std::string, double>& truth) {
  CalibrationSample s;
  s.probe = name;
  s.features = features;
  for (const auto& [slug, units] : features) {
    auto it = truth.find(slug);
    if (it == truth.end()) {
      ADD_FAILURE() << "truth missing " << slug;
      continue;
    }
    s.seconds += units * it->second;
  }
  return s;
}

TEST(CalibrationTest, RecoversKnownCoefficients) {
  // Ground truth in seconds-per-unit; seq_row anchors the normalization.
  const std::map<std::string, double> truth = {
      {"seq_row", 2e-8},      {"filter_row", 1e-8}, {"project_row", 3e-8},
      {"agg_row", 4e-8},      {"sort_row", 1.5e-8}, {"hash_build_row", 6e-8},
      {"hash_probe_row", 2.5e-8}};
  std::vector<CalibrationSample> samples;
  auto add = [&](const std::string& n,
                 const std::map<std::string, double>& f) {
    SCOPED_TRACE(n);
    samples.push_back(Synthetic(n, f, truth));
  };
  // Probe shapes mirroring the real harness: varied mixtures so the normal
  // equations are well conditioned.
  add("scan_big", {{"seq_row", 40000}, {"project_row", 40000}});
  add("scan_small", {{"seq_row", 4000}, {"project_row", 4000}});
  add("filter_low",
      {{"seq_row", 40000}, {"filter_row", 40000}, {"agg_row", 4000}});
  add("filter_high",
      {{"seq_row", 40000}, {"filter_row", 40000}, {"agg_row", 36000}});
  add("agg", {{"seq_row", 40000}, {"agg_row", 40000}});
  add("sort", {{"seq_row", 4000},
               {"project_row", 4000},
               {"sort_row", 4000 * std::log2(4000.0)}});
  add("hash_join", {{"seq_row", 44000},
                    {"hash_build_row", 4000},
                    {"hash_probe_row", 40000},
                    {"agg_row", 40000}});
  add("hash_join_small", {{"seq_row", 8000},
                          {"hash_build_row", 300},
                          {"hash_probe_row", 4000},
                          {"agg_row", 4000}});

  CalibrationReport report = FitCostModel(samples);
  EXPECT_TRUE(report.anchored);
  EXPECT_GT(report.r_squared, 0.999);
  EXPECT_EQ(report.samples, static_cast<int>(samples.size()));
  auto& fits = report.coefficients;
  // Exported values are normalized to seq_row units.
  EXPECT_NEAR(fits["seq_row"].value, CostModel::kSeqRowCost, 1e-6);
  const double anchor = truth.at("seq_row");
  EXPECT_NEAR(fits["filter_row"].value, truth.at("filter_row") / anchor, 0.05);
  EXPECT_NEAR(fits["project_row"].value, truth.at("project_row") / anchor,
              0.05);
  EXPECT_NEAR(fits["agg_row"].value, truth.at("agg_row") / anchor, 0.05);
  EXPECT_NEAR(fits["sort_row"].value, truth.at("sort_row") / anchor, 0.05);
  EXPECT_NEAR(fits["hash_build_row"].value,
              truth.at("hash_build_row") / anchor, 0.2);
  EXPECT_NEAR(fits["hash_probe_row"].value,
              truth.at("hash_probe_row") / anchor, 0.05);
  EXPECT_FALSE(fits["seq_row"].used_fallback);
  EXPECT_FALSE(fits["filter_row"].used_fallback);
  // Each fit sits beside the constant the optimizer and executor use, with
  // the ratio between them.
  EXPECT_DOUBLE_EQ(fits["filter_row"].constant, CostModel::kFilterRowCost);
  EXPECT_DOUBLE_EQ(fits["filter_row"].ratio,
                   fits["filter_row"].value / CostModel::kFilterRowCost);
  EXPECT_DOUBLE_EQ(fits["hash_build_row"].constant,
                   CostModel::kHashBuildRowCost);
  // Coefficients with no covering probe keep the documented constants.
  EXPECT_TRUE(fits["nl_inner_row"].used_fallback);
  EXPECT_DOUBLE_EQ(fits["nl_inner_row"].value, CostModel::kNLInnerRowCost);
  EXPECT_DOUBLE_EQ(fits["nl_inner_row"].ratio, 1.0);
  EXPECT_TRUE(fits["transfer_byte"].used_fallback);
  EXPECT_DOUBLE_EQ(fits["transfer_byte"].value, CostModel::kTransferByteCost);
}

TEST(CalibrationTest, EmptyOrUnanchoredFitFallsBackEverywhere) {
  CalibrationReport report = FitCostModel({});
  EXPECT_FALSE(report.anchored);
  for (const std::string& name : CalibrationCoefficientNames()) {
    const CoefficientFit& fit = report.coefficients[name];
    EXPECT_TRUE(fit.used_fallback) << name;
    EXPECT_DOUBLE_EQ(fit.value, fit.constant) << name;
  }
  // No seq_row coverage -> the anchor cannot fit -> everything falls back,
  // even coefficients that appear in the samples.
  std::vector<CalibrationSample> no_anchor;
  CalibrationSample s;
  s.probe = "sort_only";
  s.features = {{"sort_row", 1000.0}};
  s.seconds = 1e-4;
  no_anchor.push_back(s);
  report = FitCostModel(no_anchor);
  EXPECT_FALSE(report.anchored);
  EXPECT_TRUE(report.coefficients["sort_row"].used_fallback);
  EXPECT_DOUBLE_EQ(report.coefficients["sort_row"].value,
                   CostModel::kSortRowCost);
}

TEST(CalibrationTest, ProbesReferenceOnlyFittedCoefficients) {
  CalibrationConfig cfg;
  std::vector<CalibrationProbe> probes = MakeCalibrationProbes(cfg);
  ASSERT_GE(probes.size(), 15u) << "probe set lost operator coverage";
  const std::vector<std::string>& names = CalibrationCoefficientNames();
  std::map<std::string, int> coverage;
  for (const CalibrationProbe& probe : probes) {
    EXPECT_FALSE(probe.expect_op.empty()) << probe.name;
    EXPECT_FALSE(probe.features.empty()) << probe.name;
    for (const auto& [slug, units] : probe.features) {
      EXPECT_NE(std::find(names.begin(), names.end(), slug), names.end())
          << probe.name << " references unknown coefficient " << slug;
      EXPECT_GE(units, 0.0) << probe.name << "/" << slug;
      ++coverage[slug];
    }
  }
  // Every core operator family has at least one covering probe.
  for (const char* must : {"seq_row", "filter_row", "project_row", "agg_row",
                           "sort_row", "distinct_row", "index_seek",
                           "index_row", "hash_build_row", "hash_probe_row",
                           "nl_inner_row", "transfer_startup",
                           "transfer_byte"}) {
    EXPECT_GE(coverage[must], 1) << must << " has no covering probe";
  }
}

TEST(CalibrationTest, ReportJsonIsWellFormedEnough) {
  std::vector<CalibrationSample> samples;
  CalibrationSample s;
  s.probe = "scan";
  s.features = {{"seq_row", 100.0}, {"project_row", 100.0}};
  s.seconds = 1e-5;
  samples.push_back(s);
  CalibrationReport report = FitCostModel(samples);
  std::string json = CalibrationReportJson(report, samples, {"skipped_probe"},
                                           "\"smoke\": true");
  // Braces balance and the expected top-level keys are present.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0) << "unbalanced braces at offset " << i;
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  for (const char* key :
       {"\"r_squared\"", "\"coefficients\"", "\"probes\"",
        "\"skipped_probes\"", "\"smoke\"", "\"seq_row\"", "\"constant\"",
        "\"value\"", "\"ratio\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace mtcache
