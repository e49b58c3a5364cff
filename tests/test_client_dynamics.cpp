// Tests of the dynamic-dataset extensions (paper §VI-C future work):
// client data refresh and periodic CVAE retraining.

#include <gtest/gtest.h>

#include <numeric>

#include "attacks/label_flip.hpp"
#include "data/synthetic_mnist.hpp"
#include "fl/client.hpp"

#include "update_rows.hpp"

namespace fedguard::fl {
namespace {

models::CvaeSpec small_cvae() {
  models::CvaeSpec spec;
  spec.hidden = 48;
  spec.latent = 2;
  return spec;
}

/// θ length of a small_cvae() decoder: the room a round row needs for it.
std::size_t small_decoder_dim() {
  models::CvaeDecoder decoder{small_cvae(), 0};
  return decoder.parameter_count();
}

ClientConfig fast_config(std::size_t retrain_interval) {
  ClientConfig config;
  config.local_epochs = 1;
  config.batch_size = 16;
  config.cvae_epochs = 2;
  config.cvae_batch_size = 16;
  config.train_cvae = true;
  config.cvae_retrain_interval = retrain_interval;
  return config;
}

struct DynamicsFixture : ::testing::Test {
  void SetUp() override {
    geometry = models::ImageGeometry{1, 28, 28, 10};
    first_wave = data::generate_synthetic_mnist(150, 301);
    second_wave = data::generate_synthetic_mnist(150, 302);
    indices.resize(60);
    std::iota(indices.begin(), indices.end(), std::size_t{0});
    reference = std::make_unique<models::Classifier>(models::ClassifierArch::Mlp,
                                                     geometry, 303);
    global = reference->parameters_flat();
  }

  models::ImageGeometry geometry;
  data::Dataset first_wave;
  data::Dataset second_wave;
  std::vector<std::size_t> indices;
  std::unique_ptr<models::Classifier> reference;
  std::vector<float> global;
};

TEST_F(DynamicsFixture, RefreshReplacesLocalData) {
  Client client{0, first_wave, indices, fast_config(0), models::ClassifierArch::Mlp,
                geometry, small_cvae(), 304};
  const auto before = client.local_data().class_histogram();
  client.refresh_data(second_wave, indices);
  EXPECT_EQ(client.num_samples(), 60u);
  // Different data wave -> (almost surely) different pixel content.
  bool any_different = false;
  for (std::size_t i = 0; i < 60; ++i) {
    const auto a = client.local_data().image(i);
    const auto b = first_wave.image(indices[i]);
    for (std::size_t p = 0; p < a.size(); ++p) {
      if (a[p] != b[p]) {
        any_different = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_different);
  (void)before;
}

TEST_F(DynamicsFixture, RefreshReappliesLabelFlip) {
  Client client{0, first_wave, indices, fast_config(0), models::ClassifierArch::Mlp,
                geometry, small_cvae(), 305};
  client.corrupt_with_label_flip(attacks::default_flip_pairs());
  client.refresh_data(second_wave, indices);
  // Flipped labels in the refreshed data must match flipping applied directly.
  data::Dataset expected = second_wave.subset(indices);
  attacks::apply_label_flip(expected, attacks::default_flip_pairs());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(client.local_data().label(i), expected.label(i));
  }
  EXPECT_TRUE(client.malicious());
}

TEST_F(DynamicsFixture, TrainOnceKeepsDecoderAcrossRefresh) {
  Client client{0, first_wave, indices, fast_config(0), models::ClassifierArch::Mlp,
                geometry, small_cvae(), 306};
  const auto first = test::train_row(client, global, 0, small_decoder_dim());
  client.refresh_data(second_wave, indices);
  const auto second = test::train_row(client, global, 1, small_decoder_dim());
  // interval 0 = paper default: decoder trained exactly once, even after a
  // data refresh.
  EXPECT_EQ(first.theta, second.theta);
}

TEST_F(DynamicsFixture, RetrainIntervalRefreshesDecoder) {
  Client client{0, first_wave, indices, fast_config(2), models::ClassifierArch::Mlp,
                geometry, small_cvae(), 307};
  const auto round0 = test::train_row(client, global, 0, small_decoder_dim());
  const auto round1 = test::train_row(client, global, 1, small_decoder_dim());
  EXPECT_EQ(round0.theta, round1.theta);  // not yet due (interval 2)
  const auto round2 = test::train_row(client, global, 2, small_decoder_dim());
  EXPECT_NE(round0.theta, round2.theta);  // retrained after 2 participations
  const auto round3 = test::train_row(client, global, 3, small_decoder_dim());
  EXPECT_EQ(round2.theta, round3.theta);  // cached again until next interval
}

TEST_F(DynamicsFixture, RetrainTracksRefreshedData) {
  Client stale{0, first_wave, indices, fast_config(0), models::ClassifierArch::Mlp,
               geometry, small_cvae(), 308};
  Client fresh{1, first_wave, indices, fast_config(1), models::ClassifierArch::Mlp,
               geometry, small_cvae(), 308};
  (void)test::train_row(stale, global, 0, small_decoder_dim());
  (void)test::train_row(fresh, global, 0, small_decoder_dim());
  stale.refresh_data(second_wave, indices);
  fresh.refresh_data(second_wave, indices);
  const auto stale_update = test::train_row(stale, global, 1, small_decoder_dim());
  const auto fresh_update = test::train_row(fresh, global, 1, small_decoder_dim());
  // Only the retraining client's decoder changes after new data arrives.
  Client baseline{2, first_wave, indices, fast_config(0), models::ClassifierArch::Mlp,
                  geometry, small_cvae(), 308};
  const auto baseline_update = test::train_row(baseline, global, 0, small_decoder_dim());
  EXPECT_EQ(stale_update.theta, baseline_update.theta);
  EXPECT_NE(fresh_update.theta, baseline_update.theta);
}

}  // namespace
}  // namespace fedguard::fl
