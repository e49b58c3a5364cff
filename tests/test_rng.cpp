#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <set>

namespace fedguard::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int differences = 0;
  for (int i = 0; i < 32; ++i) {
    if (a() != b()) ++differences;
  }
  EXPECT_GT(differences, 30);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{7};
  double total = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    total += u;
  }
  EXPECT_NEAR(total / 20000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntBoundsAndCoverage) {
  Rng rng{11};
  std::array<int, 10> counts{};
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  for (const int c : counts) EXPECT_GT(c, 800);  // roughly uniform
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng{13};
  double sum = 0.0, sum2 = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, NormalMeanStddevParameters) {
  Rng rng{17};
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.normal(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.03);
}

TEST(Rng, GammaMeanEqualsShape) {
  Rng rng{19};
  for (const double shape : {0.5, 1.0, 4.0, 10.0}) {
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += rng.gamma(shape);
    EXPECT_NEAR(sum / n, shape, shape * 0.06) << "shape=" << shape;
  }
}

TEST(Rng, DirichletSumsToOne) {
  Rng rng{23};
  const std::vector<double> alpha(8, 2.5);
  for (int trial = 0; trial < 50; ++trial) {
    const auto sample = rng.dirichlet(alpha);
    ASSERT_EQ(sample.size(), alpha.size());
    const double total = std::accumulate(sample.begin(), sample.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-9);
    for (const double v : sample) EXPECT_GE(v, 0.0);
  }
}

TEST(Rng, DirichletConcentrationControlsSpread) {
  // Higher alpha -> proportions closer to uniform (lower variance).
  Rng rng{29};
  auto mean_max = [&rng](double alpha) {
    const std::vector<double> alpha_vec(10, alpha);
    double total = 0.0;
    for (int i = 0; i < 300; ++i) {
      const auto p = rng.dirichlet(alpha_vec);
      total += *std::max_element(p.begin(), p.end());
    }
    return total / 300.0;
  };
  EXPECT_GT(mean_max(0.1), mean_max(100.0));
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng{31};
  const std::vector<double> weights{1.0, 3.0, 6.0};
  std::array<int, 3> counts{};
  const int n = 30000;
  for (int i = 0; i < n; ++i) ++counts[rng.categorical(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.02);
}

TEST(Rng, SampleWithoutReplacementDistinctAndInRange) {
  Rng rng{37};
  for (int trial = 0; trial < 20; ++trial) {
    const auto sample = rng.sample_without_replacement(100, 50);
    ASSERT_EQ(sample.size(), 50u);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 50u);
    for (const auto v : sample) EXPECT_LT(v, 100u);
  }
}

TEST(Rng, SampleWithoutReplacementFullRange) {
  Rng rng{41};
  const auto sample = rng.sample_without_replacement(10, 10);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, SampleWithoutReplacementIsUniform) {
  Rng rng{43};
  std::array<int, 10> counts{};
  for (int trial = 0; trial < 5000; ++trial) {
    for (const auto v : rng.sample_without_replacement(10, 3)) ++counts[v];
  }
  for (const int c : counts) EXPECT_NEAR(c, 1500, 200);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng{53};
  std::vector<int> values(100);
  std::iota(values.begin(), values.end(), 0);
  auto shuffled = values;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, values);  // overwhelmingly likely
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng{59};
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformMeanStableAcrossSeeds) {
  Rng rng{GetParam()};
  double total = 0.0;
  for (int i = 0; i < 10000; ++i) total += rng.uniform();
  EXPECT_NEAR(total / 10000.0, 0.5, 0.03);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ULL, 1ULL, 42ULL, 0xffffffffULL,
                                           0xdeadbeefcafef00dULL));

}  // namespace
}  // namespace fedguard::util
