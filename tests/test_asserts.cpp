// FEDGUARD_ASSERTS layer: NaN/Inf-poisoned updates must be rejected with
// util::CheckError at the aggregator boundary (validate_view and the
// FedGuard decoder intake), and tensor kernels must reject shape mismatches.
// The throwing checks are compiled in only under -DFEDGUARD_ASSERTS=ON
// (default in sanitizer builds); elsewhere the suites skip.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "defenses/aggregation.hpp"
#include "defenses/fedavg.hpp"
#include "defenses/fedguard.hpp"
#include "defenses/geomed.hpp"
#include "defenses/krum.hpp"
#include "models/cvae.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/check.hpp"

#include "update_rows.hpp"

namespace fedguard {
namespace {

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

// ---- all_finite: always compiled, independent of FEDGUARD_ASSERTS ----------

TEST(AllFinite, AcceptsFiniteValues) {
  const std::vector<float> values{0.0f, -1.5f, 3.25f, 1e30f};
  EXPECT_TRUE(util::all_finite(std::span<const float>{values}));
  EXPECT_TRUE(util::all_finite(std::span<const float>{}));
}

TEST(AllFinite, RejectsNanAndInf) {
  const std::vector<float> with_nan{1.0f, kNan, 2.0f};
  const std::vector<float> with_inf{1.0f, -kInf};
  EXPECT_FALSE(util::all_finite(std::span<const float>{with_nan}));
  EXPECT_FALSE(util::all_finite(std::span<const float>{with_inf}));
}

TEST(AllFinite, DoubleOverload) {
  const std::vector<double> good{0.5, -2.0};
  const std::vector<double> bad{0.5, std::numeric_limits<double>::quiet_NaN()};
  EXPECT_TRUE(util::all_finite(std::span<const double>{good}));
  EXPECT_FALSE(util::all_finite(std::span<const double>{bad}));
}

// ---- Aggregator boundary ----------------------------------------------------

class AssertsEnabledTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!util::asserts_enabled()) {
      GTEST_SKIP() << "FEDGUARD_ASSERTS is off; throwing checks compiled out";
    }
  }

  static test::Row update(int id, std::vector<float> psi) {
    return test::row(id, std::move(psi), 10);
  }

  static defenses::AggregationContext context(std::span<const float> global) {
    defenses::AggregationContext ctx;
    ctx.global_parameters = global;
    return ctx;
  }
};

TEST_F(AssertsEnabledTest, ValidateViewRejectsNanPsi) {
  const std::vector<test::Row> updates{update(0, {1.0f, 2.0f, 3.0f}),
                                       update(1, {1.0f, kNan, 3.0f})};
  const defenses::UpdateMatrix matrix = test::matrix_of(updates);
  EXPECT_THROW((void)defenses::validate_view(defenses::UpdateView{matrix}), util::CheckError);
}

TEST_F(AssertsEnabledTest, ValidateViewAcceptsFinitePsi) {
  const std::vector<test::Row> updates{update(0, {1.0f, 2.0f, 3.0f}),
                                       update(1, {-1.0f, 0.5f, 9.0f})};
  const defenses::UpdateMatrix matrix = test::matrix_of(updates);
  EXPECT_EQ(defenses::validate_view(defenses::UpdateView{matrix}), 3u);
}

TEST_F(AssertsEnabledTest, FedAvgRejectsInfPsi) {
  defenses::FedAvgAggregator aggregator;
  const std::vector<float> global{0.0f, 0.0f, 0.0f};
  const std::vector<test::Row> updates{update(0, {1.0f, 2.0f, 3.0f}),
                                       update(1, {kInf, 0.0f, 0.0f})};
  EXPECT_THROW((void)test::aggregate(aggregator, context(global), updates), util::CheckError);
}

TEST_F(AssertsEnabledTest, KrumRejectsNanPsi) {
  defenses::KrumAggregator aggregator{0.25, 1};
  const std::vector<float> global{0.0f, 0.0f};
  std::vector<test::Row> updates;
  for (int id = 0; id < 5; ++id) {
    updates.push_back(update(id, {static_cast<float>(id), 1.0f}));
  }
  updates[3].psi[1] = kNan;
  EXPECT_THROW((void)test::aggregate(aggregator, context(global), updates), util::CheckError);
}

TEST_F(AssertsEnabledTest, GeoMedRejectsNanPsi) {
  defenses::GeoMedAggregator aggregator;
  const std::vector<float> global{0.0f, 0.0f};
  std::vector<test::Row> updates;
  for (int id = 0; id < 4; ++id) {
    updates.push_back(update(id, {1.0f, static_cast<float>(id)}));
  }
  updates[0].psi[0] = -kNan;
  EXPECT_THROW((void)test::aggregate(aggregator, context(global), updates), util::CheckError);
}

TEST_F(AssertsEnabledTest, KrumScoresRejectNonFinitePoints) {
  std::vector<float> points(4 * 3, 0.25f);
  points[7] = kInf;
  EXPECT_THROW((void)defenses::krum_scores(points, 4, 3, 1), util::CheckError);
}

TEST_F(AssertsEnabledTest, GeometricMedianRejectsNonFinitePoints) {
  std::vector<float> points(3 * 2, 1.0f);
  points[2] = kNan;
  EXPECT_THROW((void)defenses::geometric_median(points, 3, 2), util::CheckError);
}

// The FedGuard path additionally validates the uploaded decoder parameters
// (theta) before any synthetic-sample generation.
class FedGuardThetaTest : public AssertsEnabledTest {
 protected:
  static models::CvaeSpec tiny_spec() {
    models::CvaeSpec spec;
    spec.input_dim = 16;
    spec.num_classes = 2;
    spec.hidden = 8;
    spec.latent = 2;
    return spec;
  }
};

TEST_F(FedGuardThetaTest, FedGuardRejectsNanTheta) {
  defenses::FedGuardConfig config;
  config.cvae_spec = tiny_spec();
  config.total_samples = 4;
  const models::ImageGeometry geometry{1, 4, 4, 2};
  defenses::FedGuardAggregator aggregator{config, models::ClassifierArch::Mlp,
                                          geometry, 99};

  models::CvaeDecoder reference{tiny_spec(), 99};
  std::vector<float> theta(reference.parameter_count(), 0.01f);
  theta[theta.size() / 2] = kNan;

  std::vector<test::Row> updates{update(0, {1.0f, 2.0f}), update(1, {0.5f, 1.5f})};
  updates[0].theta.assign(reference.parameter_count(), 0.01f);
  updates[1].theta = theta;

  const std::vector<float> global{0.0f, 0.0f};
  EXPECT_THROW((void)test::aggregate(aggregator, context(global), updates), util::CheckError);
}

// ---- Tensor kernel shape checks --------------------------------------------

TEST_F(AssertsEnabledTest, AddRejectsLengthMismatch) {
  const std::vector<float> a{1.0f, 2.0f, 3.0f};
  const std::vector<float> b{1.0f, 2.0f};
  std::vector<float> out(3, 0.0f);
  EXPECT_THROW(tensor::add(a, b, out), util::CheckError);
}

TEST_F(AssertsEnabledTest, AxpyRejectsLengthMismatch) {
  const std::vector<float> x{1.0f, 2.0f};
  std::vector<float> out(3, 0.0f);
  EXPECT_THROW(tensor::axpy(0.5f, x, out), util::CheckError);
}

TEST_F(AssertsEnabledTest, MatmulRejectsRankMismatch) {
  tensor::Tensor a({2, 3, 1});
  tensor::Tensor b({3, 2});
  tensor::Tensor c({2, 2});
  EXPECT_THROW(tensor::matmul(a, b, c), util::CheckError);
}

TEST_F(AssertsEnabledTest, SoftmaxRejectsNonFiniteLogits) {
  tensor::Tensor logits({1, 3});
  logits.data()[1] = kNan;
  tensor::Tensor out({1, 3});
  EXPECT_THROW(tensor::softmax_rows(logits, out), util::CheckError);
}

}  // namespace
}  // namespace fedguard
