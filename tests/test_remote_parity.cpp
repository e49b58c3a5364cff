// Parity between the in-process simulator and the TCP deployment: with the
// same strategy, data, and global traffic semantics, both paths must defend
// the same attacks (the socket layer must not change the science).

#include <gtest/gtest.h>

#include <numeric>
#include <thread>

#include "data/partition.hpp"
#include "data/synthetic_mnist.hpp"
#include "defenses/fedavg.hpp"
#include "fl/server.hpp"
#include "net/remote.hpp"
#include "net/shard.hpp"
#include "util/logging.hpp"

namespace fedguard {
namespace {

struct ParityFixture : ::testing::Test {
  static void SetUpTestSuite() { util::set_log_level(util::LogLevel::Warn); }

  void SetUp() override {
    geometry = models::ImageGeometry{1, 28, 28, 10};
    train = data::generate_synthetic_mnist(320, 801);
    test = data::generate_synthetic_mnist(100, 802);
    partition = data::iid_partition(train.size(), 4, 803);
  }

  fl::ClientConfig client_config() const {
    fl::ClientConfig config;
    config.local_epochs = 1;
    config.batch_size = 16;
    config.train_cvae = false;
    return config;
  }

  models::CvaeSpec cvae_spec() const {
    models::CvaeSpec spec;
    spec.hidden = 32;
    spec.latent = 2;
    return spec;
  }

  std::vector<std::unique_ptr<fl::Client>> make_clients(std::uint64_t seed_base) const {
    std::vector<std::unique_ptr<fl::Client>> clients;
    for (std::size_t i = 0; i < 4; ++i) {
      clients.push_back(std::make_unique<fl::Client>(
          static_cast<int>(i), train, partition[i], client_config(),
          models::ClassifierArch::Mlp, geometry, cvae_spec(), seed_base + i));
    }
    return clients;
  }

  models::ImageGeometry geometry;
  data::Dataset train;
  data::Dataset test;
  data::Partition partition;
};

TEST_F(ParityFixture, LocalAndRemoteReachSimilarAccuracy) {
  constexpr std::size_t kRounds = 4;

  // Local in-process run.
  auto local_clients = make_clients(810);
  defenses::FedAvgAggregator local_strategy;
  fl::ServerConfig local_config;
  local_config.clients_per_round = 4;
  local_config.rounds = kRounds;
  local_config.seed = 811;
  fl::Server local_server{local_config, local_clients, local_strategy, test,
                          models::ClassifierArch::Mlp, geometry};
  const fl::RunHistory local = local_server.run();

  // Remote run over loopback with identically constructed clients.
  auto remote_clients = make_clients(810);
  net::HierarchicalServerConfig remote_config;
  remote_config.expected_clients = 4;
  remote_config.clients_per_round = 4;
  remote_config.rounds = kRounds;
  remote_config.seed = 811;
  net::HierarchicalServer remote_server{
      remote_config, [] { return std::make_unique<defenses::FedAvgAggregator>(); }, test,
      models::ClassifierArch::Mlp, geometry};
  const std::uint16_t port = remote_server.shard_port(0);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < 4; ++i) {
    threads.emplace_back(
        [&, i] { (void)net::run_remote_client("127.0.0.1", port, *remote_clients[i]); });
  }
  const fl::RunHistory remote = remote_server.run();
  for (auto& thread : threads) thread.join();

  ASSERT_EQ(local.rounds.size(), remote.rounds.size());
  // m = N removes sampling variance; the remaining difference is client-local
  // shuffling order (per-client RNG state), so accuracies track closely.
  EXPECT_NEAR(local.rounds.back().test_accuracy, remote.rounds.back().test_accuracy, 0.15);
  EXPECT_GT(remote.rounds.back().test_accuracy, 0.5);
}

TEST_F(ParityFixture, FaultFreeRemoteMatchesLocalBitForBit) {
  // The socket layer must not change the science: with faults disabled, the
  // TCP path and the in-process path are the same computation, so per-round
  // accuracy and the final parameter vector agree exactly, not approximately.
  constexpr std::size_t kRounds = 3;

  auto local_clients = make_clients(830);
  defenses::FedAvgAggregator local_strategy;
  fl::ServerConfig local_config;
  local_config.clients_per_round = 2;  // exercise the sampling path too
  local_config.rounds = kRounds;
  local_config.seed = 831;
  fl::Server local_server{local_config, local_clients, local_strategy, test,
                          models::ClassifierArch::Mlp, geometry};
  const fl::RunHistory local = local_server.run();

  auto remote_clients = make_clients(830);
  net::HierarchicalServerConfig remote_config;
  remote_config.expected_clients = 4;
  remote_config.clients_per_round = 2;
  remote_config.rounds = kRounds;
  remote_config.seed = 831;
  net::HierarchicalServer remote_server{
      remote_config, [] { return std::make_unique<defenses::FedAvgAggregator>(); }, test,
      models::ClassifierArch::Mlp, geometry};
  const std::uint16_t port = remote_server.shard_port(0);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < 4; ++i) {
    threads.emplace_back(
        [&, i] { (void)net::run_remote_client("127.0.0.1", port, *remote_clients[i]); });
  }
  const fl::RunHistory remote = remote_server.run();
  for (auto& thread : threads) thread.join();

  ASSERT_EQ(local.rounds.size(), remote.rounds.size());
  for (std::size_t r = 0; r < kRounds; ++r) {
    EXPECT_EQ(local.rounds[r].test_accuracy, remote.rounds[r].test_accuracy)
        << "round " << r;
    EXPECT_EQ(local.rounds[r].sampled_clients, remote.rounds[r].sampled_clients)
        << "round " << r;
  }
  const std::span<const float> local_params = local_server.global_parameters();
  const std::span<const float> remote_params = remote_server.global_parameters();
  ASSERT_EQ(local_params.size(), remote_params.size());
  for (std::size_t i = 0; i < local_params.size(); ++i) {
    ASSERT_EQ(local_params[i], remote_params[i]) << "parameter " << i;
  }
  EXPECT_EQ(remote.total_timeouts() + remote.total_dropouts() +
                remote.total_corrupt_frames(),
            0u);
}

TEST_F(ParityFixture, DropPlanMatchesInProcessStragglerPath) {
  // A drop-only fault plan and the in-process straggler hook wired to the
  // same injector produce the same responder sets, hence the same model.
  constexpr std::size_t kRounds = 3;
  net::FaultPlan plan;
  plan.drop_probability = 0.3;
  plan.seed = 840;
  const net::FaultInjector oracle{plan};

  auto local_clients = make_clients(841);
  defenses::FedAvgAggregator local_strategy;
  fl::ServerConfig local_config;
  local_config.clients_per_round = 3;
  local_config.rounds = kRounds;
  local_config.seed = 842;
  local_config.straggler_predicate = [&oracle](std::size_t client, std::size_t round) {
    return oracle.decide(static_cast<int>(client), round) == net::FaultKind::Drop;
  };
  fl::Server local_server{local_config, local_clients, local_strategy, test,
                          models::ClassifierArch::Mlp, geometry};
  const fl::RunHistory local = local_server.run();

  auto remote_clients = make_clients(841);
  net::HierarchicalServerConfig remote_config;
  remote_config.expected_clients = 4;
  remote_config.clients_per_round = 3;
  remote_config.rounds = kRounds;
  remote_config.seed = 842;
  remote_config.round_timeout_ms = 1500;
  remote_config.eject_after_failures = 0;  // the local path never ejects
  net::HierarchicalServer remote_server{
      remote_config, [] { return std::make_unique<defenses::FedAvgAggregator>(); }, test,
      models::ClassifierArch::Mlp, geometry};
  const std::uint16_t port = remote_server.shard_port(0);
  net::FaultInjector injector{plan};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      net::RemoteClientOptions options;
      options.faults = &injector;
      (void)net::run_remote_client("127.0.0.1", port, *remote_clients[i], options);
    });
  }
  const fl::RunHistory remote = remote_server.run();
  for (auto& thread : threads) thread.join();

  std::size_t total_dropped = 0;
  ASSERT_EQ(local.rounds.size(), remote.rounds.size());
  for (std::size_t r = 0; r < kRounds; ++r) {
    // The remote path records a drop as a timeout; the local path records the
    // same client as a straggler. Same responders, same accuracy.
    EXPECT_EQ(local.rounds[r].stragglers, remote.rounds[r].timeouts) << "round " << r;
    EXPECT_EQ(local.rounds[r].test_accuracy, remote.rounds[r].test_accuracy)
        << "round " << r;
    total_dropped += remote.rounds[r].timeouts;
  }
  ASSERT_GT(total_dropped, 0u) << "plan seed must actually drop someone";
  const std::span<const float> local_params = local_server.global_parameters();
  const std::span<const float> remote_params = remote_server.global_parameters();
  ASSERT_EQ(local_params.size(), remote_params.size());
  for (std::size_t i = 0; i < local_params.size(); ++i) {
    ASSERT_EQ(local_params[i], remote_params[i]) << "parameter " << i;
  }
}

TEST_F(ParityFixture, RemoteUploadTrafficMatchesFrameArithmetic) {
  auto clients = make_clients(820);
  net::HierarchicalServerConfig config;
  config.expected_clients = 4;
  config.clients_per_round = 2;
  config.rounds = 1;
  config.seed = 821;
  net::HierarchicalServer server{
      config, [] { return std::make_unique<defenses::FedAvgAggregator>(); }, test,
      models::ClassifierArch::Mlp, geometry};
  const std::uint16_t port = server.shard_port(0);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < 4; ++i) {
    threads.emplace_back(
        [&, i] { (void)net::run_remote_client("127.0.0.1", port, *clients[i]); });
  }
  const fl::RunHistory history = server.run();
  for (auto& thread : threads) thread.join();

  // Download = 2 clients x exact RoundReply frame size (ψ only, no θ).
  models::Classifier reference{models::ClassifierArch::Mlp, geometry, 822};
  const std::size_t expected =
      2 * net::client_update_frame_bytes(reference.parameter_count(), 0);
  EXPECT_EQ(history.rounds[0].server_download_bytes, expected);
}

}  // namespace
}  // namespace fedguard
