// Parameterized property sweeps over the full GenClus pipeline: for every
// combination of (cluster count, attribute completeness, network size),
// the invariants of §2.2 must hold — simplex memberships for every object,
// non-negative strengths, deterministic replay — and the planted structure
// must be recovered when the signal is present.
#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.h"
#include "core/strength.h"
#include "eval/nmi.h"
#include "prob/simplex.h"
#include "tests/core/test_fixtures.h"

namespace genclus {
namespace {

using testing::MakeTwoCommunityNetwork;

struct SweepCase {
  size_t docs_per_side;
  double text_fraction;
  size_t num_clusters;
  uint64_t seed;
};

void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << "docs=" << c.docs_per_side << " text=" << c.text_fraction
      << " K=" << c.num_clusters << " seed=" << c.seed;
}

class FitSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(FitSweep, InvariantsHold) {
  const SweepCase c = GetParam();
  auto fixture = MakeTwoCommunityNetwork(c.docs_per_side, c.text_fraction,
                                         c.seed);
  FitOptions options;
  options.attributes = {"text"};
  options.config.num_clusters = c.num_clusters;
  options.config.outer_iterations = 4;
  options.config.em_iterations = 30;
  options.config.num_init_seeds = 2;
  options.config.seed = c.seed * 31 + 1;
  auto fit = Engine::Fit(fixture.dataset, options);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  const Model& model = fit->model;

  // Invariant 1: every membership row on the simplex.
  for (size_t v = 0; v < model.theta.rows(); ++v) {
    EXPECT_TRUE(IsOnSimplex(model.theta.RowVector(v), 1e-9))
        << "node " << v;
  }
  // Invariant 2: strengths non-negative and finite.
  for (double g : model.gamma) {
    EXPECT_GE(g, 0.0);
    EXPECT_TRUE(std::isfinite(g));
  }
  // Invariant 3: objective finite.
  EXPECT_TRUE(std::isfinite(model.objective));
  // Invariant 4: trace covers every iteration run.
  EXPECT_GE(fit->report.trace.size(), 2u);

  // Invariant 5: bit-identical replay.
  auto replay = Engine::Fit(fixture.dataset, options);
  ASSERT_TRUE(replay.ok());
  EXPECT_DOUBLE_EQ(Matrix::MaxAbsDiff(model.theta, replay->model.theta),
                   0.0);
}

TEST_P(FitSweep, RecoversStructureWithFullText) {
  const SweepCase c = GetParam();
  if (c.text_fraction < 1.0 || c.num_clusters != 2) {
    GTEST_SKIP() << "recovery check only for the identifiable cases";
  }
  auto fixture = MakeTwoCommunityNetwork(c.docs_per_side, 1.0, c.seed);
  FitOptions options;
  options.attributes = {"text"};
  options.config.num_clusters = 2;
  options.config.outer_iterations = 4;
  options.config.em_iterations = 40;
  options.config.num_init_seeds = 3;
  options.config.seed = c.seed * 13 + 5;
  auto fit = Engine::Fit(fixture.dataset, options);
  ASSERT_TRUE(fit.ok());
  EXPECT_GT(NormalizedMutualInformation(fit->model.HardLabels(),
                                        fixture.dataset.labels.raw()),
            0.85);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FitSweep,
    ::testing::Values(SweepCase{4, 1.0, 2, 1}, SweepCase{4, 0.5, 2, 2},
                      SweepCase{4, 0.0, 2, 3}, SweepCase{8, 1.0, 2, 4},
                      SweepCase{8, 0.3, 2, 5}, SweepCase{8, 1.0, 3, 6},
                      SweepCase{6, 0.7, 4, 7}, SweepCase{12, 1.0, 2, 8}));

// Gradient checks across prior widths and membership concentrations: the
// analytic gradient of g2' must match finite differences everywhere.
struct GradientCase {
  double sigma;
  double concentration_eps;
  uint64_t seed;
};

void PrintTo(const GradientCase& c, std::ostream* os) {
  *os << "sigma=" << c.sigma << " eps=" << c.concentration_eps
      << " seed=" << c.seed;
}

class StrengthGradientSweep
    : public ::testing::TestWithParam<GradientCase> {};

TEST_P(StrengthGradientSweep, AnalyticMatchesNumeric) {
  const GradientCase c = GetParam();
  auto fixture = MakeTwoCommunityNetwork(4, 1.0, c.seed);
  std::vector<uint32_t> labels(fixture.dataset.network.num_nodes());
  for (NodeId v = 0; v < labels.size(); ++v) {
    labels[v] = fixture.dataset.labels.Get(v);
  }
  Matrix theta = testing::ConcentratedTheta(labels, 2,
                                            c.concentration_eps);
  GenClusConfig config;
  config.num_clusters = 2;
  config.gamma_prior_sigma = c.sigma;
  StrengthLearner learner(&fixture.dataset.network, &theta, &config);

  Rng rng(c.seed);
  std::vector<double> gamma(3);
  for (double& g : gamma) g = rng.Uniform(0.1, 2.0);
  const auto grad = learner.Gradient(gamma);
  const double h = 1e-6;
  for (size_t r = 0; r < gamma.size(); ++r) {
    std::vector<double> up = gamma;
    std::vector<double> down = gamma;
    up[r] += h;
    down[r] -= h;
    const double numeric =
        (learner.Objective(up) - learner.Objective(down)) / (2.0 * h);
    EXPECT_NEAR(grad[r], numeric, 1e-4 * (1.0 + std::fabs(numeric)))
        << "relation " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StrengthGradientSweep,
    ::testing::Values(GradientCase{0.1, 0.1, 1}, GradientCase{0.5, 0.1, 2},
                      GradientCase{2.0, 0.1, 3}, GradientCase{0.5, 0.4, 4},
                      GradientCase{0.5, 0.01, 5},
                      GradientCase{1.0, 0.25, 6}));

}  // namespace
}  // namespace genclus
