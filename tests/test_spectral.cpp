#include "defenses/spectral.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "data/synthetic_mnist.hpp"
#include "util/stats.hpp"

#include "update_rows.hpp"

namespace fedguard::defenses {
namespace {

// Shared slow setup: a pre-trained Spectral aggregator plus a benign cohort.
class SpectralTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kImageSize = 28;

  void SetUp() override {
    geometry_ = models::ImageGeometry{1, kImageSize, kImageSize, 10};
    auxiliary_ = data::generate_synthetic_mnist(240, 61);

    SpectralConfig config;
    config.surrogate_dim = 512;
    config.pretrain_rounds = 3;
    config.pretrain_clients = 5;
    config.vae_epochs = 40;
    aggregator_ = std::make_unique<SpectralAggregator>(
        config, models::ClassifierArch::Mlp, geometry_, auxiliary_, 62);

    // Benign updates: locally trained models from a common init.
    models::Classifier init{models::ClassifierArch::Mlp, geometry_, 63};
    global_ = init.parameters_flat();
    const data::Dataset train = data::generate_synthetic_mnist(300, 64);
    for (int k = 0; k < 6; ++k) {
      models::Classifier classifier{models::ClassifierArch::Mlp, geometry_, 65};
      classifier.load_parameters_flat(global_);
      for (std::size_t start = 0; start + 32 <= train.size(); start += 32) {
        std::vector<std::size_t> idx(32);
        for (std::size_t i = 0; i < 32; ++i) idx[i] = (start + i) % train.size();
        const auto batch = train.gather(idx);
        classifier.train_batch(batch.images, batch.labels, 0.1f, 0.9f);
      }
      benign_.push_back(test::row(k, classifier.parameters_flat(), train.size()));
    }
  }

  AggregationContext context() const {
    AggregationContext ctx;
    ctx.global_parameters = global_;
    return ctx;
  }

  models::ImageGeometry geometry_;
  data::Dataset auxiliary_;
  std::unique_ptr<SpectralAggregator> aggregator_;
  std::vector<float> global_;
  std::vector<test::Row> benign_;
};

TEST_F(SpectralTest, PretrainsLazilyOnFirstRound) {
  EXPECT_FALSE(aggregator_->pretrained());
  (void)test::aggregate(*aggregator_, context(), benign_);
  EXPECT_TRUE(aggregator_->pretrained());
  EXPECT_EQ(aggregator_->last_errors().size(), benign_.size());
}

TEST_F(SpectralTest, GrossOutlierGetsHighestErrorAndIsRejected) {
  std::vector<test::Row> updates = benign_;
  test::Row poisoned = benign_.front();
  poisoned.id = 99;
  poisoned.malicious = true;
  std::fill(poisoned.psi.begin(), poisoned.psi.end(), 1.0f);  // same-value attack
  updates.push_back(poisoned);

  const auto result = test::aggregate(*aggregator_, context(), updates);
  const auto& errors = aggregator_->last_errors();
  const std::size_t worst = static_cast<std::size_t>(
      std::max_element(errors.begin(), errors.end()) - errors.begin());
  EXPECT_EQ(updates[worst].id, 99);
  EXPECT_TRUE(std::find(result.rejected_clients.begin(), result.rejected_clients.end(),
                        99) != result.rejected_clients.end());
}

TEST_F(SpectralTest, AggregateReturnsCorrectDimension) {
  const auto result = test::aggregate(*aggregator_, context(), benign_);
  EXPECT_EQ(result.parameters.size(), global_.size());
  EXPECT_EQ(result.accepted_clients.size() + result.rejected_clients.size(),
            benign_.size());
}

TEST_F(SpectralTest, MeanThresholdNeverRejectsEverything) {
  const auto result = test::aggregate(*aggregator_, context(), benign_);
  EXPECT_FALSE(result.accepted_clients.empty());
}

TEST(Spectral, EmptyAuxiliaryRejected) {
  SpectralConfig config;
  EXPECT_THROW((void)SpectralAggregator(config, models::ClassifierArch::Mlp,
                                        models::ImageGeometry{}, data::Dataset{}, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace fedguard::defenses
