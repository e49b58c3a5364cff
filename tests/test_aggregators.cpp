#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>

#include "defenses/fedavg.hpp"
#include "defenses/geomed.hpp"
#include "defenses/krum.hpp"
#include "defenses/median.hpp"
#include "defenses/norm_threshold.hpp"
#include "defenses/trimmed_mean.hpp"
#include "fl/round_engine.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

#include "update_rows.hpp"

namespace fedguard::defenses {
namespace {

using test::row;
using Rows = std::vector<test::Row>;

AggregationContext context_for(std::span<const float> global) {
  AggregationContext context;
  context.global_parameters = global;
  return context;
}

const std::vector<float> kZeroGlobal3{0.0f, 0.0f, 0.0f};

TEST(FedAvg, UnweightedMeanWithEqualSamples) {
  Rows updates;
  updates.push_back(row(0, {1.0f, 2.0f}, 10));
  updates.push_back(row(1, {3.0f, 4.0f}, 10));
  FedAvgAggregator fedavg;
  const auto result = test::aggregate(fedavg, context_for({}), updates);
  EXPECT_FLOAT_EQ(result.parameters[0], 2.0f);
  EXPECT_FLOAT_EQ(result.parameters[1], 3.0f);
  EXPECT_EQ(result.accepted_clients.size(), 2u);
  EXPECT_TRUE(result.rejected_clients.empty());
}

TEST(FedAvg, SampleCountWeighting) {
  Rows updates;
  updates.push_back(row(0, {0.0f}, 30));
  updates.push_back(row(1, {4.0f}, 10));
  FedAvgAggregator fedavg;
  const auto result = test::aggregate(fedavg, context_for({}), updates);
  EXPECT_FLOAT_EQ(result.parameters[0], 1.0f);  // (30*0 + 10*4)/40
}

TEST(FedAvg, ZeroWeightsFallBackToUnweighted) {
  Rows updates;
  updates.push_back(row(0, {2.0f}, 0));
  updates.push_back(row(1, {4.0f}, 0));
  FedAvgAggregator fedavg;
  EXPECT_FLOAT_EQ(test::aggregate(fedavg, context_for({}), updates).parameters[0], 3.0f);
}

TEST(Aggregation, ValidationErrors) {
  FedAvgAggregator fedavg;
  const Rows empty;
  EXPECT_THROW((void)test::aggregate(fedavg, context_for({}), empty), std::invalid_argument);
  const Rows zero_dimension{row(0, {}), row(1, {})};
  EXPECT_THROW((void)test::aggregate(fedavg, context_for({}), zero_dimension),
               std::invalid_argument);
}

TEST(GeoMed, MatchesMedianInOneDimension) {
  // In 1-D the geometric median is the ordinary median.
  const std::vector<float> points{1.0f, 2.0f, 100.0f};
  const std::vector<float> result = geometric_median(points, 3, 1, 200, 1e-9);
  EXPECT_NEAR(result[0], 2.0f, 0.05f);
}

TEST(GeoMed, RobustToMinorityOutlier) {
  // 4 benign points near the origin, 1 gross outlier: the geometric median
  // stays near the benign cluster while the mean is dragged away.
  Rows updates;
  updates.push_back(row(0, {0.1f, 0.0f}));
  updates.push_back(row(1, {-0.1f, 0.1f}));
  updates.push_back(row(2, {0.0f, -0.1f}));
  updates.push_back(row(3, {0.05f, 0.05f}));
  updates.push_back(row(4, {1000.0f, 1000.0f}, 1, true));
  GeoMedAggregator geomed;
  const auto result = test::aggregate(geomed, context_for({}), updates);
  EXPECT_LT(util::l2_norm(result.parameters), 1.0);
}

TEST(GeoMed, MinimizesDistanceSumBetterThanMean) {
  util::Rng rng{1};
  const std::size_t count = 9, dim = 5;
  std::vector<float> points(count * dim);
  for (auto& v : points) v = rng.uniform_float(-2.0f, 2.0f);
  const std::vector<float> median = geometric_median(points, count, dim);

  std::vector<float> mean(dim, 0.0f);
  for (std::size_t k = 0; k < count; ++k) {
    for (std::size_t i = 0; i < dim; ++i) mean[i] += points[k * dim + i];
  }
  for (auto& v : mean) v /= static_cast<float>(count);

  auto distance_sum = [&](std::span<const float> center) {
    double total = 0.0;
    for (std::size_t k = 0; k < count; ++k) {
      total += util::l2_distance({points.data() + k * dim, dim}, center);
    }
    return total;
  };
  EXPECT_LE(distance_sum(median), distance_sum(mean) + 1e-6);
}

TEST(GeoMed, ExactAtSamplePoint) {
  // Majority of identical points: median is that point.
  std::vector<float> points{1.0f, 1.0f, 1.0f, 1.0f, 9.0f, 9.0f};  // 3x(1,?) ...
  const std::vector<float> result = geometric_median(points, 3, 2);
  EXPECT_NEAR(result[0], 1.0f, 0.2f);
}

TEST(Krum, ScoresFavorClusterCore) {
  // 5 points: 4 clustered, 1 far away; the outlier must get the worst score.
  std::vector<float> points{0.0f, 0.1f, -0.1f, 0.05f, 50.0f};
  const std::vector<double> scores = krum_scores(points, 5, 1, 1);
  const std::size_t worst =
      static_cast<std::size_t>(std::max_element(scores.begin(), scores.end()) -
                               scores.begin());
  EXPECT_EQ(worst, 4u);
}

TEST(Krum, SelectsBenignUpdateUnderMinorityAttack) {
  Rows updates;
  updates.push_back(row(0, {1.0f, 1.0f}));
  updates.push_back(row(1, {1.1f, 0.9f}));
  updates.push_back(row(2, {0.9f, 1.1f}));
  updates.push_back(row(3, {1.05f, 1.0f}));
  updates.push_back(row(4, {-30.0f, 40.0f}, 1, true));
  KrumAggregator krum{0.25, 1};
  const auto result = test::aggregate(krum, context_for({}), updates);
  // Selected vector is one of the benign cluster members.
  EXPECT_NEAR(result.parameters[0], 1.0f, 0.2f);
  EXPECT_NEAR(result.parameters[1], 1.0f, 0.2f);
  ASSERT_EQ(result.accepted_clients.size(), 1u);
  EXPECT_NE(result.accepted_clients[0], 4);
  EXPECT_EQ(result.rejected_clients.size(), 4u);
}

TEST(MultiKrum, AveragesKBest) {
  Rows updates;
  updates.push_back(row(0, {1.0f}));
  updates.push_back(row(1, {1.2f}));
  updates.push_back(row(2, {0.8f}));
  updates.push_back(row(3, {100.0f}, 1, true));
  KrumAggregator multi_krum{0.25, 3};
  const auto result = test::aggregate(multi_krum, context_for({}), updates);
  EXPECT_NEAR(result.parameters[0], 1.0f, 0.15f);
  EXPECT_EQ(result.accepted_clients.size(), 3u);
}

TEST(Krum, HandlesTinyCohorts) {
  Rows updates;
  updates.push_back(row(0, {1.0f}));
  updates.push_back(row(1, {2.0f}));
  KrumAggregator krum{0.5, 1};
  EXPECT_NO_THROW((void)test::aggregate(krum, context_for({}), updates));
}

TEST(CoordinateMedian, OddAndEvenCounts) {
  const std::vector<float> odd{1.0f, 10.0f, 2.0f, 20.0f, 3.0f, 30.0f};  // 3 points, dim 2
  const std::vector<float> result = coordinate_median(odd, 3, 2);
  EXPECT_FLOAT_EQ(result[0], 2.0f);
  EXPECT_FLOAT_EQ(result[1], 20.0f);

  const std::vector<float> even{1.0f, 2.0f, 3.0f, 4.0f};  // 4 points, dim 1
  EXPECT_FLOAT_EQ(coordinate_median(even, 4, 1)[0], 2.5f);
}

TEST(CoordinateMedian, RobustToMinorityExtremes) {
  Rows updates;
  updates.push_back(row(0, {0.0f}));
  updates.push_back(row(1, {0.1f}));
  updates.push_back(row(2, {-0.1f}));
  updates.push_back(row(3, {1e6f}, 1, true));
  CoordinateMedianAggregator median;
  EXPECT_NEAR(test::aggregate(median, context_for({}), updates).parameters[0], 0.05f, 0.06f);
}

TEST(TrimmedMean, DropsExtremesSymmetrically) {
  const std::vector<float> points{-100.0f, 1.0f, 2.0f, 3.0f, 100.0f};
  EXPECT_FLOAT_EQ(trimmed_mean(points, 5, 1, 0.2)[0], 2.0f);
}

TEST(TrimmedMean, ZeroTrimIsMean) {
  const std::vector<float> points{1.0f, 2.0f, 3.0f};
  EXPECT_FLOAT_EQ(trimmed_mean(points, 3, 1, 0.0)[0], 2.0f);
}

TEST(TrimmedMean, InvalidFractionRejected) {
  EXPECT_THROW((void)TrimmedMeanAggregator(0.5), std::invalid_argument);
  EXPECT_THROW((void)TrimmedMeanAggregator(-0.1), std::invalid_argument);
}

TEST(NormThreshold, ClipsOversizedDeltas) {
  // Global at origin. 3 unit-norm benign deltas + 1 huge delta: the huge one
  // is scaled to the median norm, so the aggregate stays bounded.
  Rows updates;
  updates.push_back(row(0, {1.0f, 0.0f, 0.0f}));
  updates.push_back(row(1, {0.0f, 1.0f, 0.0f}));
  updates.push_back(row(2, {0.0f, 0.0f, 1.0f}));
  updates.push_back(row(3, {1000.0f, 0.0f, 0.0f}, 1, true));
  NormThresholdAggregator aggregator;
  const auto result = test::aggregate(aggregator, context_for(kZeroGlobal3), updates);
  EXPECT_LT(util::l2_norm(result.parameters), 1.0);
}

TEST(NormThreshold, SignFlipDefeatsIt) {
  // The paper's point: sign flips preserve norms, so the defense cannot
  // tell them apart and the poisoned mean survives.
  Rows updates;
  updates.push_back(row(0, {1.0f, 1.0f, 1.0f}));
  updates.push_back(row(1, {-1.0f, -1.0f, -1.0f}, 1, true));
  NormThresholdAggregator aggregator;
  const auto result = test::aggregate(aggregator, context_for(kZeroGlobal3), updates);
  EXPECT_NEAR(result.parameters[0], 0.0f, 1e-5f);  // attack cancelled the signal
}

TEST(TallyRejections, CountsRejectedRowsByGroundTruth) {
  Rows updates;
  updates.push_back(row(0, {1.0f}, 1, true));    // rejected -> malicious
  updates.push_back(row(1, {1.0f}, 1, true));    // accepted -> neither
  updates.push_back(row(2, {1.0f}, 1, false));   // rejected -> benign
  updates.push_back(row(3, {1.0f}, 1, false));   // accepted -> neither
  ShardPartial partial;
  partial.rejected_clients = {0, 2};
  partial.accepted_clients = {1, 3};
  const UpdateMatrix arena = test::matrix_of(updates);
  // The tally adds to what the caller already holds (one call per cohort).
  std::size_t malicious = 10;
  std::size_t benign = 20;
  fl::tally_rejections(UpdateView{arena}, partial, malicious, benign);
  EXPECT_EQ(malicious, 11u);
  EXPECT_EQ(benign, 21u);
}

// ---- Property sweeps: invariances every aggregation operator must satisfy ----

enum class Op { FedAvg, GeoMed, Krum, Median, TrimmedMean };

std::unique_ptr<AggregationStrategy> make_op(Op op) {
  switch (op) {
    case Op::FedAvg: return std::make_unique<FedAvgAggregator>();
    case Op::GeoMed: return std::make_unique<GeoMedAggregator>();
    case Op::Krum: return std::make_unique<KrumAggregator>(0.25, 1);
    case Op::Median: return std::make_unique<CoordinateMedianAggregator>();
    case Op::TrimmedMean: return std::make_unique<TrimmedMeanAggregator>(0.2);
  }
  return nullptr;
}

class AggregatorProperties : public ::testing::TestWithParam<Op> {};

TEST_P(AggregatorProperties, PermutationInvariant) {
  util::Rng rng{77};
  Rows updates;
  for (int k = 0; k < 7; ++k) {
    std::vector<float> psi(6);
    for (auto& v : psi) v = rng.uniform_float(-1.0f, 1.0f);
    updates.push_back(row(k, std::move(psi)));
  }
  auto strategy = make_op(GetParam());
  const std::vector<float> global(6, 0.0f);
  const auto forward = test::aggregate(*strategy, context_for(global), updates);
  std::reverse(updates.begin(), updates.end());
  const auto reversed = test::aggregate(*strategy, context_for(global), updates);
  for (std::size_t i = 0; i < forward.parameters.size(); ++i) {
    EXPECT_NEAR(forward.parameters[i], reversed.parameters[i], 1e-4f);
  }
}

TEST_P(AggregatorProperties, IdenticalUpdatesReturnThatUpdate) {
  Rows updates;
  const std::vector<float> psi{0.5f, -1.5f, 2.0f};
  for (int k = 0; k < 5; ++k) updates.push_back(row(k, psi));
  auto strategy = make_op(GetParam());
  const std::vector<float> global(3, 0.0f);
  const auto result = test::aggregate(*strategy, context_for(global), updates);
  for (std::size_t i = 0; i < psi.size(); ++i) {
    EXPECT_NEAR(result.parameters[i], psi[i], 1e-4f);
  }
}

TEST_P(AggregatorProperties, TranslationEquivariant) {
  util::Rng rng{78};
  Rows updates;
  for (int k = 0; k < 6; ++k) {
    std::vector<float> psi(4);
    for (auto& v : psi) v = rng.uniform_float(-1.0f, 1.0f);
    updates.push_back(row(k, std::move(psi)));
  }
  auto strategy = make_op(GetParam());
  const std::vector<float> global(4, 0.0f);
  const auto base = test::aggregate(*strategy, context_for(global), updates);

  const float shift = 2.5f;
  for (auto& update : updates) {
    for (auto& v : update.psi) v += shift;
  }
  const auto shifted = test::aggregate(*strategy, context_for(global), updates);
  for (std::size_t i = 0; i < base.parameters.size(); ++i) {
    EXPECT_NEAR(shifted.parameters[i], base.parameters[i] + shift, 1e-3f);
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, AggregatorProperties,
                         ::testing::Values(Op::FedAvg, Op::GeoMed, Op::Krum, Op::Median,
                                           Op::TrimmedMean));

// ---- Zero-copy view API edge cases ------------------------------------------

TEST(UpdateViewApi, MeanOfEmptySelectionThrows) {
  Rows updates;
  updates.push_back(row(0, {1.0f, 2.0f}));
  const UpdateMatrix arena = test::matrix_of(updates);
  const UpdateView view{arena};
  std::vector<double> accumulator;
  std::vector<float> out;
  EXPECT_THROW(mean_of_into(view, {}, accumulator, out), std::invalid_argument);
}

TEST(UpdateViewApi, WeightedMeanZeroSamplesFallsBackToUnweighted) {
  Rows updates;
  updates.push_back(row(0, {2.0f}, 0));
  updates.push_back(row(1, {4.0f}, 0));
  const UpdateMatrix arena = test::matrix_of(updates);
  const std::vector<float> mean = weighted_mean(UpdateView{arena});
  EXPECT_FLOAT_EQ(mean[0], 3.0f);
}

TEST(UpdateViewApi, SingleRowSelectionReturnsThatRow) {
  Rows updates;
  updates.push_back(row(0, {1.0f, -1.0f}, 3));
  updates.push_back(row(1, {7.0f, 9.0f}, 5));
  updates.push_back(row(2, {-4.0f, 2.0f}, 8));
  const UpdateMatrix arena = test::matrix_of(updates);
  const UpdateView view{arena};

  const std::vector<std::size_t> only{1};
  std::vector<double> accumulator;
  std::vector<float> picked;
  mean_of_into(view, only, accumulator, picked);
  EXPECT_FLOAT_EQ(picked[0], 7.0f);
  EXPECT_FLOAT_EQ(picked[1], 9.0f);

  // Sub-view selection keeps metadata and psi aligned with the arena row.
  std::vector<std::size_t> storage;
  const UpdateView sub = view.select(only, storage);
  ASSERT_EQ(sub.count(), 1u);
  EXPECT_EQ(sub.meta(0).client_id, 1);
  EXPECT_EQ(sub.meta(0).num_samples, 5u);
  EXPECT_FLOAT_EQ(weighted_mean(sub)[1], 9.0f);
}

TEST(UpdateViewApi, ComposedSelectionIndexesThroughParentView) {
  // A selection of a selection must resolve to the original arena rows.
  Rows updates;
  for (int k = 0; k < 5; ++k) {
    updates.push_back(row(k, {static_cast<float>(k), 0.0f}, 1));
  }
  const UpdateMatrix arena = test::matrix_of(updates);
  const UpdateView view{arena};
  std::vector<std::size_t> outer_storage;
  const std::vector<std::size_t> outer{4, 2, 0};  // arena rows 4, 2, 0
  const UpdateView first = view.select(outer, outer_storage);
  std::vector<std::size_t> inner_storage;
  const std::vector<std::size_t> inner{1, 2};  // slots of `first` -> rows 2, 0
  const UpdateView second = first.select(inner, inner_storage);
  ASSERT_EQ(second.count(), 2u);
  EXPECT_EQ(second.meta(0).client_id, 2);
  EXPECT_EQ(second.meta(1).client_id, 0);
  EXPECT_FLOAT_EQ(second.psi(0)[0], 2.0f);
  EXPECT_FLOAT_EQ(second.psi(1)[0], 0.0f);
}

TEST(UpdateViewApi, MeanOfIteratesSelectionOrder) {
  // mean_of_into must accumulate in the caller-given order (Krum passes its
  // score-sorted order; bit-for-bit parity depends on it). With doubles the
  // sum is order-sensitive only through rounding, so instead verify the
  // selection indirection itself by selecting the same row twice.
  Rows updates;
  updates.push_back(row(0, {1.0f}, 1));
  updates.push_back(row(1, {4.0f}, 1));
  const UpdateMatrix arena = test::matrix_of(updates);
  const UpdateView view{arena};
  std::vector<double> accumulator;
  std::vector<float> out;
  const std::vector<std::size_t> twice{1, 1};
  mean_of_into(view, twice, accumulator, out);
  EXPECT_FLOAT_EQ(out[0], 4.0f);
  // The scratch is reused: a second call must not see the first's sums.
  const std::vector<std::size_t> both{1, 0};
  mean_of_into(view, both, accumulator, out);
  EXPECT_FLOAT_EQ(out[0], 2.5f);
}

}  // namespace
}  // namespace fedguard::defenses
