// Federation-wide live telemetry, pinned end to end (CTest label: net):
//
// One 2-shard socket federation must simultaneously (a) answer GET /healthz,
// /metrics and /metrics.json live mid-run on the root's listener, the one
// /metrics port of the process, with the shards' {shard="i"} series on it,
// (b) accept a crafted TelemetryReport frame from a foreign process (here: a
// raw TcpStream posing as one) and fold its spans into the root trace under
// a foreign pid lane, surviving a bad-CRC report on the same link, and (c)
// write a single trace file in which root, shard, and client spans are all
// correlated under the same per-round trace id.
//
// The relay producer/consumer machinery is additionally pinned at the unit
// level (codec round trip, rebase window, origin-labelled counters) because
// the in-process harness shares one TraceSession across every tier — client
// threads see an active session and therefore never open the relay-only
// session a real out-of-process client would (see RemoteClientOptions).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifdef __unix__
#include <unistd.h>
#endif

#include "data/partition.hpp"
#include "data/synthetic_mnist.hpp"
#include "defenses/fedavg.hpp"
#include "fl/client.hpp"
#include "net/message.hpp"
#include "net/remote.hpp"
#include "net/shard.hpp"
#include "net/socket.hpp"
#include "net/telemetry_relay.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace fedguard {
namespace {

std::string temp_path(const std::string& stem) {
  return ::testing::TempDir() + stem;
}

std::string hex_trace_id(std::uint64_t trace_id) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(trace_id));
  return buffer;
}

/// One blocking GET exchange against a local exposition endpoint; empty on
/// any failure (connection refused while the server is still binding, etc.).
std::string http_get(std::uint16_t port, const std::string& path) {
  try {
    net::TcpStream stream = net::TcpStream::connect("127.0.0.1", port);
    stream.set_receive_timeout(std::chrono::milliseconds{2000});
    const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
    stream.send_all(std::as_bytes(std::span{request.data(), request.size()}));
    std::string response;
    std::byte chunk[512];
    std::size_t transferred = 0;
    while (stream.read_some(chunk, transferred) == net::IoStatus::Ready) {
      response.append(reinterpret_cast<const char*>(chunk), transferred);
    }
    return response;
  } catch (const std::exception&) {
    return "";
  }
}

/// Poll an endpoint until the response carries `needle` (and a 200 status).
/// Returns the winning response body, or "" after ~6 seconds of refusals.
std::string probe_until(std::uint16_t port, const std::string& path,
                        const std::string& needle) {
  for (int attempt = 0; attempt < 60; ++attempt) {
    const std::string response = http_get(port, path);
    if (response.find("200") != std::string::npos &&
        response.find(needle) != std::string::npos) {
      return response;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{100});
  }
  return "";
}

struct ObsDistributedFixture : ::testing::Test {
  static void SetUpTestSuite() { util::set_log_level(util::LogLevel::Warn); }

  void SetUp() override {
    geometry = models::ImageGeometry{1, 28, 28, 10};
    train = data::generate_synthetic_mnist(320, 911);
    test = data::generate_synthetic_mnist(100, 912);
    partition = data::iid_partition(train.size(), 4, 913);
  }

  std::vector<std::unique_ptr<fl::Client>> make_clients(std::uint64_t seed_base) const {
    fl::ClientConfig config;
    config.local_epochs = 1;
    config.batch_size = 16;
    config.train_cvae = false;
    models::CvaeSpec spec;
    spec.hidden = 32;
    spec.latent = 2;
    std::vector<std::unique_ptr<fl::Client>> clients;
    for (std::size_t i = 0; i < 4; ++i) {
      clients.push_back(std::make_unique<fl::Client>(static_cast<int>(i), train,
                                                     partition[i], config,
                                                     models::ClassifierArch::Mlp, geometry,
                                                     spec, seed_base + i));
    }
    return clients;
  }

  models::ImageGeometry geometry;
  data::Dataset train;
  data::Dataset test;
  data::Partition partition;
};

constexpr std::uint32_t kForeignPid = 34567;
constexpr std::uint32_t kForeignClientId = 9;

net::TelemetryFrame crafted_report(std::uint64_t trace_id) {
  net::TelemetryFrame report;
  report.sender_pid = kForeignPid;
  report.sender_id = kForeignClientId;
  report.round = 0;
  report.trace_id = trace_id;
  report.events.push_back({"relay_probe", "client.train", 0, trace_id, 0, 1, 'B'});
  report.events.push_back({"relay_probe", "client.train", 250000, trace_id, 0, 1, 'E'});
  report.counter_deltas.emplace_back("relay_probe_steps_total", 11);
  return report;
}

TEST_F(ObsDistributedFixture, TwoTierFederationServesScrapesAndCorrelatesTrace) {
  const std::string trace_path = temp_path("obs_distributed_trace.json");
  std::remove(trace_path.c_str());

  constexpr std::uint64_t kSeed = 931;
  const std::uint64_t round0_trace_id = obs::make_trace_id(kSeed, 0);

  auto clients = make_clients(930);
  net::HierarchicalServerConfig config;
  config.shards = 2;
  config.expected_clients = 4;
  config.clients_per_round = 4;
  config.rounds = 3;
  config.seed = kSeed;

  // http_port 0 turns exposition off, so an ephemeral port is impossible;
  // probe pid-salted candidate ports instead.
  std::unique_ptr<net::HierarchicalServer> server;
#ifdef __unix__
  std::uint16_t base = static_cast<std::uint16_t>(21000 + (::getpid() % 17000));
#else
  std::uint16_t base = 23451;
#endif
  for (int attempt = 0; attempt < 8 && !server; ++attempt) {
    config.http_port = static_cast<std::uint16_t>(base + attempt);
    try {
      server = std::make_unique<net::HierarchicalServer>(
          config, [] { return std::make_unique<defenses::FedAvgAggregator>(); }, test,
          models::ClassifierArch::Mlp, geometry);
    } catch (const std::exception&) {
      // Port collision — try the next candidate.
    }
  }
  ASSERT_TRUE(server) << "could not bind a telemetry port";

  const std::uint16_t shard0_data_port = server->shard_port(0);
  auto& registry = obs::Registry::global();
  const std::string reports_counter = "net_shard_telemetry_reports_total{shard=\"0\"}";
  const std::uint64_t reports_before = registry.counter_value(reports_counter);

  // Mid-run liveness probes + the crafted-relay exchange run concurrently
  // with the federation; results are read only after join().
  std::string root_healthz;
  std::string root_metrics;
  std::string root_metrics_json;
  std::string root_404;
  std::atomic<bool> relay_counted{false};
  std::atomic<bool> relay_survived_bad_crc{false};

  // The root session must be installed BEFORE any client thread starts:
  // relay_telemetry clients open their own relay-only session when none is
  // active, and whichever session comes first owns the process. Scoped so the
  // flush-on-destruction happens before the file is parsed.
  auto session = std::make_unique<obs::TraceSession>(trace_path);

  std::thread probe{[&] {
    root_healthz = probe_until(config.http_port, "/healthz", "\"status\":\"ok\"");
    root_metrics = probe_until(config.http_port, "/metrics",
                               "net_shard_rounds_total{shard=\"0\"}");
    root_metrics_json = probe_until(config.http_port, "/metrics.json",
                                    "net_shard_telemetry_reports_total");
    root_404 = http_get(config.http_port, "/nope");

    // Pose as an out-of-process relaying client: one valid TelemetryReport,
    // one with a flipped payload byte (CRC failure must keep the link), then
    // a second valid one over the SAME stream.
    try {
      net::TcpStream stream = net::TcpStream::connect("127.0.0.1", shard0_data_port);
      const auto payload = net::encode_telemetry_report(crafted_report(round0_trace_id));
      std::vector<std::byte> frame =
          net::encode_frame({net::MessageType::TelemetryReport, payload});
      stream.send_all(frame);
      for (int i = 0; i < 40 && registry.counter_value(reports_counter) <
                                    reports_before + 1; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds{50});
      }
      relay_counted = registry.counter_value(reports_counter) >= reports_before + 1;

      std::vector<std::byte> corrupt = frame;
      corrupt[net::kFrameHeaderBytes] ^= std::byte{0xFF};
      stream.send_all(corrupt);
      stream.send_all(frame);
      for (int i = 0; i < 40 && registry.counter_value(reports_counter) <
                                    reports_before + 2; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds{50});
      }
      relay_survived_bad_crc =
          registry.counter_value(reports_counter) >= reports_before + 2;
    } catch (const std::exception&) {
      // Leave the flags false; the assertions below report the failure.
    }
  }};

  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint16_t port = server->shard_port(server->shard_of(i));
    threads.emplace_back([&, i, port] {
      // relay_telemetry is a no-op here (the root session above is active in
      // this process), mirroring how a real deployment's flag is harmless for
      // co-located clients.
      net::RemoteClientOptions options;
      options.relay_telemetry = true;
      (void)net::run_remote_client("127.0.0.1", port, *clients[i], options);
    });
  }

  const fl::RunHistory history = server->run();
  EXPECT_EQ(history.rounds.size(), 3u);
  for (auto& thread : threads) thread.join();
  probe.join();
  session.reset();  // flush + write the merged trace

  // (a) Live exposition answered mid-run on the root's listener.
  EXPECT_NE(root_healthz.find("\"rounds_completed\""), std::string::npos)
      << "root /healthz never came up: " << root_healthz;
  EXPECT_NE(root_metrics.find("net_shard_rounds_total{shard=\"0\"}"), std::string::npos)
      << "root /metrics never showed shard 0's series";
  EXPECT_NE(root_metrics_json.find("net_shard_telemetry_reports_total"),
            std::string::npos)
      << "root /metrics.json never answered";
  EXPECT_NE(root_404.find("404"), std::string::npos) << root_404;

  // (b) The crafted foreign report was counted, and a bad-CRC report did not
  // cost the link (the second valid report landed on the same stream).
  EXPECT_TRUE(relay_counted.load());
  EXPECT_TRUE(relay_survived_bad_crc.load());
  EXPECT_EQ(registry.counter_value(net::with_origin_label(
                "relay_probe_steps_total", kForeignClientId)),
            22u);  // 11 per accepted report, twice

  // (c) The written trace correlates root / shard / client / layer spans —
  // and the relayed foreign lane — under round 0's trace id.
  std::ifstream file{trace_path};
  ASSERT_TRUE(file.is_open()) << trace_path;
  const std::string needle = "\"trace_id\":\"" + hex_trace_id(round0_trace_id) + "\"";
  std::set<std::string> correlated;
  bool foreign_lane = false;
  std::string line;
  while (std::getline(file, line)) {
    if (line.find(needle) == std::string::npos) continue;
    for (const char* category : {"net.shard", "client.train", "layer.forward", "round"}) {
      if (line.find(std::string{"\"cat\":\""} + category) != std::string::npos) {
        correlated.insert(category);
      }
    }
    if (line.find("\"pid\":" + std::to_string(kForeignPid)) != std::string::npos) {
      foreign_lane = true;
    }
  }
  EXPECT_TRUE(correlated.count("net.shard")) << "no shard span under round 0 id";
  EXPECT_TRUE(correlated.count("client.train")) << "no client span under round 0 id";
  EXPECT_TRUE(correlated.count("layer.forward")) << "no layer span under round 0 id";
  EXPECT_TRUE(foreign_lane) << "relayed events lost their foreign pid lane";

  std::remove(trace_path.c_str());
}

TEST(TelemetryRelay, WireRoundTripPreservesReport) {
  const net::TelemetryFrame report = crafted_report(obs::make_trace_id(5, 2));
  const auto payload = net::encode_telemetry_report(report);
  const net::TelemetryFrame decoded = net::decode_telemetry_report(payload);

  EXPECT_EQ(decoded.sender_pid, report.sender_pid);
  EXPECT_EQ(decoded.sender_id, report.sender_id);
  EXPECT_EQ(decoded.round, report.round);
  EXPECT_EQ(decoded.trace_id, report.trace_id);
  ASSERT_EQ(decoded.events.size(), report.events.size());
  for (std::size_t i = 0; i < report.events.size(); ++i) {
    EXPECT_EQ(decoded.events[i].name, report.events[i].name);
    EXPECT_EQ(decoded.events[i].category, report.events[i].category);
    EXPECT_EQ(decoded.events[i].rel_ts_ns, report.events[i].rel_ts_ns);
    EXPECT_EQ(decoded.events[i].trace_id, report.events[i].trace_id);
    EXPECT_EQ(decoded.events[i].phase, report.events[i].phase);
  }
  ASSERT_EQ(decoded.counter_deltas, report.counter_deltas);
}

TEST(TelemetryRelay, RebaseAnchorsWindowEndAtArrival) {
  net::TelemetryFrame report = crafted_report(obs::make_trace_id(6, 1));
  const std::uint64_t arrival = obs::now_ns();
  const std::vector<obs::TraceEventRecord> rebased =
      net::rebase_telemetry_events(report, arrival);

  ASSERT_EQ(rebased.size(), 2u);
  // The report spans [0, 250000] relative ns; the rebased window must END at
  // arrival and preserve the 250µs width and the foreign pid lane.
  EXPECT_EQ(rebased.back().ts_ns, arrival);
  EXPECT_EQ(rebased.back().ts_ns - rebased.front().ts_ns, 250000u);
  EXPECT_EQ(rebased.front().pid, static_cast<int>(kForeignPid));
  EXPECT_EQ(rebased.front().trace_id, report.trace_id);
}

TEST(TelemetryRelay, OriginLabelSplicesIntoExistingBlock) {
  EXPECT_EQ(net::with_origin_label("client_steps_total", 3),
            "client_steps_total{origin=\"c3\"}");
  // A reporter whose counter already carries labels keeps them.
  const std::string spliced =
      net::with_origin_label("net_shard_rounds_total{shard=\"1\"}", 4);
  EXPECT_NE(spliced.find("shard=\"1\""), std::string::npos) << spliced;
  EXPECT_NE(spliced.find("origin=\"c4\""), std::string::npos) << spliced;
}

}  // namespace
}  // namespace fedguard
