// Wire-protocol and distributed-federation tests (loopback TCP).

#include <gtest/gtest.h>

#include <numeric>
#include <thread>

#include "data/partition.hpp"
#include "data/synthetic_mnist.hpp"
#include "defenses/fedavg.hpp"
#include "defenses/fedguard.hpp"
#include "net/remote.hpp"
#include "net/shard.hpp"
#include "obs/metrics.hpp"
#include "util/logging.hpp"

namespace fedguard::net {
namespace {

TEST(Messages, HelloRoundTrip) {
  const std::vector<std::byte> payload = encode_hello(42);
  EXPECT_EQ(decode_hello(payload), 42);
}

TEST(Messages, RoundRequestRoundTrip) {
  RoundRequest request;
  request.round = 7;
  request.want_decoder = true;
  request.global_parameters = {1.0f, -2.0f, 3.5f};
  const RoundRequest decoded = decode_round_request(encode_round_request(request));
  EXPECT_EQ(decoded.round, 7u);
  EXPECT_TRUE(decoded.want_decoder);
  EXPECT_EQ(decoded.global_parameters, request.global_parameters);
}

TEST(Messages, RoundReplyRoundTrip) {
  RoundReply reply;
  reply.round = 11;
  reply.update.client_id = 3;
  reply.update.num_samples = 120;
  reply.update.truly_malicious = true;
  reply.update.psi = {0.5f, 1.5f};
  reply.update.theta = {9.0f};
  const RoundReply decoded = decode_round_reply(encode_round_reply(reply));
  EXPECT_EQ(decoded.round, 11u);
  EXPECT_EQ(decoded.update.client_id, 3);
  EXPECT_EQ(decoded.update.num_samples, 120u);
  EXPECT_TRUE(decoded.update.truly_malicious);
  EXPECT_EQ(decoded.update.psi, reply.update.psi);
  EXPECT_EQ(decoded.update.theta, reply.update.theta);
}

TEST(Messages, TruncatedPayloadThrows) {
  const std::vector<std::byte> payload = encode_round_request({});
  const std::span<const std::byte> truncated{payload.data(), payload.size() / 2};
  try {
    (void)decode_round_request(truncated);
    FAIL() << "truncated payload must not decode";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.code(), DecodeErrorCode::Truncated);
  }
}

TEST(Messages, FrameBytesMatchEncoding) {
  RoundReply reply;
  reply.update.psi.assign(100, 0.0f);
  reply.update.theta.assign(40, 0.0f);
  const Message message{MessageType::RoundReply, encode_round_reply(reply)};
  EXPECT_EQ(encode_frame(message).size(), client_update_frame_bytes(100, 40));
}

// ---- Corrupt-frame decoding: every malformation is a typed error ---------------

std::vector<std::byte> sample_frame() {
  RoundRequest request;
  request.round = 3;
  request.global_parameters = {1.0f, 2.0f, 3.0f, 4.0f};
  return encode_frame({MessageType::RoundRequest, encode_round_request(request)});
}

DecodeErrorCode decode_failure(std::span<const std::byte> buffer) {
  try {
    (void)decode_frame(buffer);
  } catch (const DecodeError& e) {
    return e.code();
  }
  ADD_FAILURE() << "corrupt frame decoded without error";
  return DecodeErrorCode::BadMagic;
}

TEST(Messages, SaneFrameDecodes) {
  const std::vector<std::byte> frame = sample_frame();
  const Message decoded = decode_frame(frame);
  EXPECT_EQ(decoded.type, MessageType::RoundRequest);
  EXPECT_EQ(decode_round_request(decoded.payload).global_parameters.size(), 4u);
}

TEST(Messages, BadMagicIsTyped) {
  std::vector<std::byte> frame = sample_frame();
  frame[0] ^= std::byte{0xff};
  EXPECT_EQ(decode_failure(frame), DecodeErrorCode::BadMagic);
}

TEST(Messages, BadTypeIsTyped) {
  std::vector<std::byte> frame = sample_frame();
  frame[4] = std::byte{99};  // type field (little-endian u32 at offset 4)
  EXPECT_EQ(decode_failure(frame), DecodeErrorCode::BadType);
}

TEST(Messages, OversizedLengthIsTyped) {
  std::vector<std::byte> frame = sample_frame();
  // Length field (little-endian u64 at offset 8): claim ~2^63 payload bytes.
  for (std::size_t i = 8; i < 16; ++i) frame[i] = std::byte{0x7f};
  EXPECT_EQ(decode_failure(frame), DecodeErrorCode::Oversized);
}

TEST(Messages, FlippedCrcIsTyped) {
  std::vector<std::byte> frame = sample_frame();
  frame[16] ^= std::byte{0x01};  // CRC field (offset 16)
  EXPECT_EQ(decode_failure(frame), DecodeErrorCode::BadCrc);
}

TEST(Messages, FlippedPayloadBitIsTyped) {
  std::vector<std::byte> frame = sample_frame();
  frame[kFrameHeaderBytes + 5] ^= std::byte{0x10};
  EXPECT_EQ(decode_failure(frame), DecodeErrorCode::BadCrc);
}

TEST(Messages, TruncatedFrameIsTyped) {
  const std::vector<std::byte> frame = sample_frame();
  EXPECT_EQ(decode_failure({frame.data(), frame.size() - 3}),
            DecodeErrorCode::Truncated);
  EXPECT_EQ(decode_failure({frame.data(), kFrameHeaderBytes - 1}),
            DecodeErrorCode::Truncated);
}

TEST(Sockets, LoopbackSendReceive) {
  TcpListener listener{0};
  std::thread client_thread{[port = listener.port()] {
    TcpStream stream = TcpStream::connect("127.0.0.1", port);
    stream.send_message({MessageType::Hello, encode_hello(5)});
    const Message echo = stream.receive_message();
    EXPECT_EQ(echo.type, MessageType::Shutdown);
  }};
  TcpStream server_side = listener.accept();
  const Message hello = server_side.receive_message();
  EXPECT_EQ(hello.type, MessageType::Hello);
  EXPECT_EQ(decode_hello(hello.payload), 5);
  server_side.send_message({MessageType::Shutdown, {}});
  client_thread.join();
}

TEST(Sockets, ConnectToClosedPortFails) {
  // Bind then immediately free a port so nothing is listening.
  std::uint16_t dead_port;
  {
    TcpListener listener{0};
    dead_port = listener.port();
  }
  EXPECT_THROW((void)TcpStream::connect("127.0.0.1", dead_port), std::runtime_error);
}

TEST(Sockets, ReceiveDeadlineRaisesSocketTimeout) {
  TcpListener listener{0};
  TcpStream client = TcpStream::connect("127.0.0.1", listener.port());
  TcpStream server_side = listener.accept();
  server_side.set_receive_timeout(std::chrono::milliseconds{50});
  EXPECT_THROW((void)server_side.receive_message(), SocketTimeout);
  (void)client;
}

TEST(Sockets, PeerClosingMidPayloadIsTruncatedFrame) {
  TcpListener listener{0};
  std::thread client_thread{[port = listener.port()] {
    TcpStream stream = TcpStream::connect("127.0.0.1", port);
    const std::vector<std::byte> frame =
        encode_frame({MessageType::Hello, encode_hello(7)});
    stream.send_all({frame.data(), frame.size() - 2});  // full header, short payload
  }};  // stream closes here, mid-frame
  TcpStream server_side = listener.accept();
  server_side.set_receive_timeout(std::chrono::milliseconds{2000});
  try {
    (void)server_side.receive_message();
    FAIL() << "truncated frame must not decode";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.code(), DecodeErrorCode::Truncated);
  }
  client_thread.join();
}

TEST(Sockets, CorruptBytesOnWireAreTypedErrors) {
  TcpListener listener{0};
  std::thread client_thread{[port = listener.port()] {
    TcpStream stream = TcpStream::connect("127.0.0.1", port);
    std::vector<std::byte> frame = encode_frame({MessageType::Hello, encode_hello(7)});
    frame[kFrameHeaderBytes] ^= std::byte{0x01};  // payload bit flip
    stream.send_all(frame);
    const Message ack = stream.receive_message();  // connection must survive
    EXPECT_EQ(ack.type, MessageType::Shutdown);
  }};
  TcpStream server_side = listener.accept();
  server_side.set_receive_timeout(std::chrono::milliseconds{2000});
  try {
    (void)server_side.receive_message();
    FAIL() << "corrupt frame must not decode";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.code(), DecodeErrorCode::BadCrc);
  }
  // A CRC failure leaves the stream framed: the link is still usable.
  server_side.send_message({MessageType::Shutdown, {}});
  client_thread.join();
}

// ---- Full distributed federations over loopback --------------------------------

struct RemoteFixture : ::testing::Test {
  static void SetUpTestSuite() { util::set_log_level(util::LogLevel::Warn); }

  void SetUp() override {
    geometry = models::ImageGeometry{1, 28, 28, 10};
    train = data::generate_synthetic_mnist(400, 601);
    test = data::generate_synthetic_mnist(120, 602);
    partition = data::iid_partition(train.size(), 4, 603);
  }

  fl::ClientConfig client_config(bool with_cvae) const {
    fl::ClientConfig config;
    config.local_epochs = 1;
    config.batch_size = 16;
    config.train_cvae = with_cvae;
    config.cvae_epochs = 10;
    config.cvae_batch_size = 8;
    config.cvae_learning_rate = 3e-3f;
    return config;
  }

  models::CvaeSpec cvae_spec() const {
    models::CvaeSpec spec;
    spec.hidden = 48;
    spec.latent = 2;
    return spec;
  }

  models::ImageGeometry geometry;
  data::Dataset train;
  data::Dataset test;
  data::Partition partition;
};

TEST_F(RemoteFixture, FedAvgFederationOverTcp) {
  HierarchicalServerConfig config;
  config.expected_clients = 4;
  config.clients_per_round = 4;
  config.rounds = 4;
  config.seed = 604;
  HierarchicalServer server{
      config, [] { return std::make_unique<defenses::FedAvgAggregator>(); }, test,
      models::ClassifierArch::Mlp, geometry};
  const std::uint16_t port = server.shard_port(0);

  std::vector<std::unique_ptr<fl::Client>> clients;
  std::vector<std::thread> threads;
  std::vector<std::size_t> rounds_served(4, 0);
  // Build every client before spawning any thread: a later push_back can
  // reallocate `clients` while an earlier thread dereferences clients[i].
  for (std::size_t i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<fl::Client>(
        static_cast<int>(i), train, partition[i], client_config(false),
        models::ClassifierArch::Mlp, geometry, cvae_spec(), 605 + i));
  }
  for (std::size_t i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      rounds_served[i] = run_remote_client("127.0.0.1", port, *clients[i]);
    });
  }
  const fl::RunHistory history = server.run();
  for (auto& thread : threads) thread.join();

  ASSERT_EQ(history.rounds.size(), 4u);
  EXPECT_GT(history.rounds.back().test_accuracy, 0.5)
      << "distributed FedAvg should train the model";
  EXPECT_GT(history.rounds.back().server_download_bytes, 0u);
  std::size_t total_served = 0;
  for (const std::size_t n : rounds_served) total_served += n;
  EXPECT_EQ(total_served, 4u * 4u);  // every client sampled every round (m = N)
}

TEST_F(RemoteFixture, FedGuardRejectsMaliciousClientOverTcp) {
  defenses::FedGuardConfig fg;
  fg.cvae_spec = cvae_spec();
  fg.total_samples = 40;
  HierarchicalServerConfig config;
  config.expected_clients = 4;
  config.clients_per_round = 4;
  config.rounds = 3;
  config.seed = 607;
  HierarchicalServer server{config,
                            [&] {
                              return std::make_unique<defenses::FedGuardAggregator>(
                                  fg, models::ClassifierArch::Mlp, geometry, 606);
                            },
                            test, models::ClassifierArch::Mlp, geometry};
  const std::uint16_t port = server.shard_port(0);

  const attacks::SameValueAttack attack{1.0f};
  std::vector<std::unique_ptr<fl::Client>> clients;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<fl::Client>(
        static_cast<int>(i), train, partition[i], client_config(true),
        models::ClassifierArch::Mlp, geometry, cvae_spec(), 608 + i));
    if (i == 3) clients.back()->corrupt_with_model_attack(&attack);
  }
  for (std::size_t i = 0; i < 4; ++i) {
    threads.emplace_back(
        [&, i] { (void)run_remote_client("127.0.0.1", port, *clients[i]); });
  }
  const fl::RunHistory history = server.run();
  for (auto& thread : threads) thread.join();

  // The poisoned client must be rejected in (at least) the later rounds and
  // the model must still train.
  std::size_t rejected_malicious = 0;
  for (const auto& round : history.rounds) rejected_malicious += round.rejected_malicious;
  EXPECT_GE(rejected_malicious, 2u);
  EXPECT_GT(history.rounds.back().test_accuracy, 0.4);
}

TEST_F(RemoteFixture, TrafficAsymmetryForDecoderStrategies) {
  // FedGuard's TCP download traffic must exceed its upload traffic by the
  // decoder bytes (Table V's asymmetry, now measured on real sockets).
  defenses::FedGuardConfig fg;
  fg.cvae_spec = cvae_spec();
  fg.total_samples = 20;
  HierarchicalServerConfig config;
  config.expected_clients = 2;
  config.clients_per_round = 2;
  config.rounds = 1;
  config.seed = 610;
  HierarchicalServer server{config,
                            [&] {
                              return std::make_unique<defenses::FedGuardAggregator>(
                                  fg, models::ClassifierArch::Mlp, geometry, 609);
                            },
                            test, models::ClassifierArch::Mlp, geometry};
  const std::uint16_t port = server.shard_port(0);

  std::vector<std::unique_ptr<fl::Client>> clients;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < 2; ++i) {
    clients.push_back(std::make_unique<fl::Client>(
        static_cast<int>(i), train, partition[i], client_config(true),
        models::ClassifierArch::Mlp, geometry, cvae_spec(), 611 + i));
  }
  for (std::size_t i = 0; i < 2; ++i) {
    threads.emplace_back(
        [&, i] { (void)run_remote_client("127.0.0.1", port, *clients[i]); });
  }
  const fl::RunHistory history = server.run();
  for (auto& thread : threads) thread.join();
  EXPECT_GT(history.rounds[0].server_download_bytes,
            history.rounds[0].server_upload_bytes);
}

// ---- Accept-phase fault tolerance ----------------------------------------------

TEST_F(RemoteFixture, AcceptDeadlineFailsLoudlyWhenClientsAreMissing) {
  // Regression: the server used to block forever when fewer than
  // expected_clients connected. Now the accept phase has a deadline and
  // reports the shortfall.
  HierarchicalServerConfig config;
  config.expected_clients = 2;
  config.clients_per_round = 2;
  config.rounds = 1;
  config.seed = 620;
  config.accept_timeout_ms = 300;
  HierarchicalServer server{
      config, [] { return std::make_unique<defenses::FedAvgAggregator>(); }, test,
      models::ClassifierArch::Mlp, geometry};

  const auto start = std::chrono::steady_clock::now();
  try {
    (void)server.run();
    FAIL() << "run() must fail when no clients connect";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("0 of 2"), std::string::npos) << e.what();
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds{10}) << "accept must respect its deadline";
}

TEST_F(RemoteFixture, MinClientsAllowsPartialFederation) {
  // With min_clients set, the run proceeds over whoever showed up.
  HierarchicalServerConfig config;
  config.expected_clients = 3;
  config.clients_per_round = 3;
  config.rounds = 2;
  config.seed = 621;
  config.accept_timeout_ms = 500;
  config.min_clients = 1;
  HierarchicalServer server{
      config, [] { return std::make_unique<defenses::FedAvgAggregator>(); }, test,
      models::ClassifierArch::Mlp, geometry};
  const std::uint16_t port = server.shard_port(0);

  fl::Client client{0,        train,    partition[0], client_config(false),
                    models::ClassifierArch::Mlp, geometry, cvae_spec(), 622};
  std::thread client_thread{[&] { (void)run_remote_client("127.0.0.1", port, client); }};
  const fl::RunHistory history = server.run();
  client_thread.join();

  ASSERT_EQ(history.rounds.size(), 2u);
  for (const auto& record : history.rounds) {
    EXPECT_EQ(record.sampled_clients, 1u);  // the universe shrank to who joined
    EXPECT_EQ(record.dropouts + record.timeouts + record.corrupt_frames, 0u);
  }
}

TEST_F(RemoteFixture, StrayClientIdsAreRefusedDuringAcceptPhase) {
  // Each shard admits only the ids it owns: an id out of [0, N), a negative
  // one, or one owned by another shard must never enter the sampling
  // universe (the root would route it to a shard that does not hold it).
  HierarchicalServerConfig config;
  config.shards = 2;
  config.expected_clients = 4;
  config.clients_per_round = 4;
  config.rounds = 2;
  config.seed = 623;
  HierarchicalServer server{
      config, [] { return std::make_unique<defenses::FedAvgAggregator>(); }, test,
      models::ClassifierArch::Mlp, geometry};
  obs::Registry& registry = obs::Registry::global();
  const std::string refused = "net_shard_refused_hellos_total{shard=\"0\"}";
  const std::uint64_t refused0 = registry.counter_value(refused);

  for (const int stray : {7, -1, 3}) {  // 3 belongs to shard 1
    TcpStream stream = TcpStream::connect("127.0.0.1", server.shard_port(0));
    stream.set_receive_timeout(std::chrono::milliseconds{20000});
    stream.send_message({MessageType::Hello, encode_hello(stray)});
    EXPECT_THROW((void)stream.receive_message(), std::exception)
        << "shard 0 must close the link of stray id " << stray;
  }
  EXPECT_EQ(registry.counter_value(refused) - refused0, 3u);

  std::vector<std::unique_ptr<fl::Client>> clients;
  std::vector<std::thread> threads;
  std::vector<std::size_t> rounds_served(4, 0);
  for (std::size_t i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<fl::Client>(
        static_cast<int>(i), train, partition[i], client_config(false),
        models::ClassifierArch::Mlp, geometry, cvae_spec(), 624 + i));
  }
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint16_t port = server.shard_port(server.shard_of(i));
    threads.emplace_back([&, i, port] {
      rounds_served[i] = run_remote_client("127.0.0.1", port, *clients[i]);
    });
  }
  const fl::RunHistory history = server.run();
  for (auto& thread : threads) thread.join();

  ASSERT_EQ(history.rounds.size(), 2u);
  for (const auto& record : history.rounds) {
    EXPECT_EQ(record.sampled_clients, 4u);
    EXPECT_EQ(record.stragglers, 0u);
    EXPECT_EQ(record.dropouts + record.timeouts + record.corrupt_frames, 0u);
  }
  for (const std::size_t n : rounds_served) EXPECT_EQ(n, 2u);
}

}  // namespace
}  // namespace fedguard::net
