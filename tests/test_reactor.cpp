// Reactor unit tests: frame round-trips, connection churn, idle sweeps,
// decode-error policy, and a 1k-socket smoke run. The reactor is
// single-threaded by design, so the tests pump poll_once() from the test
// thread and talk to it through plain blocking loopback sockets — no cross-
// thread state, which keeps the TSan leg quiet by construction.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <numeric>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <sys/socket.h>

#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "util/logging.hpp"

namespace fedguard::net {
namespace {

using namespace std::chrono_literals;

Message hello_message(int client_id) {
  return Message{MessageType::Hello, encode_hello(client_id)};
}

struct ReactorFixture : ::testing::Test {
  static void SetUpTestSuite() { util::set_log_level(util::LogLevel::Warn); }

  void SetUp() override {
    Reactor::Callbacks callbacks;
    callbacks.on_accept = [this](Reactor::ConnectionId id) { accepted.push_back(id); };
    callbacks.on_message = [this](Reactor::ConnectionId id, Message&& message) {
      if (echo) reactor->send(id, message);
      messages.emplace_back(id, std::move(message));
    };
    callbacks.on_close = [this](Reactor::ConnectionId id) { closed.push_back(id); };
    callbacks.on_decode_error = [this](Reactor::ConnectionId, const DecodeError& error) {
      decode_errors.push_back(error.code());
      return keep_on_decode_error;
    };
    reactor = std::make_unique<Reactor>(std::move(callbacks));
    listener = std::make_unique<TcpListener>(0, 1024);
    reactor->listen(*listener);
  }

  /// Pump poll_once until `done` holds or the deadline passes.
  template <typename Pred>
  [[nodiscard]] bool pump_until(Pred done, std::chrono::milliseconds deadline = 20000ms) {
    const auto until = std::chrono::steady_clock::now() + deadline;
    while (!done()) {
      if (std::chrono::steady_clock::now() > until) return false;
      (void)reactor->poll_once(10ms);
    }
    return true;
  }

  [[nodiscard]] TcpStream connect_client() {
    return TcpStream::connect("127.0.0.1", listener->port());
  }

  std::vector<Reactor::ConnectionId> accepted;
  std::vector<Reactor::ConnectionId> closed;
  std::vector<std::pair<Reactor::ConnectionId, Message>> messages;
  std::vector<DecodeErrorCode> decode_errors;
  bool echo = false;
  bool keep_on_decode_error = false;
  std::unique_ptr<Reactor> reactor;
  std::unique_ptr<TcpListener> listener;
};

TEST_F(ReactorFixture, FrameRoundTripAndEcho) {
  echo = true;
  TcpStream client = connect_client();
  client.set_receive_timeout(20000ms);
  client.send_message(hello_message(7));

  ASSERT_TRUE(pump_until([&] { return messages.size() == 1; }));
  EXPECT_EQ(accepted.size(), 1u);
  EXPECT_EQ(messages[0].first, accepted[0]);
  EXPECT_EQ(messages[0].second.type, MessageType::Hello);
  EXPECT_EQ(decode_hello(messages[0].second.payload), 7);

  // Drain the echo out of the reactor's write queue, then read it back.
  ASSERT_TRUE(pump_until([&] { return reactor->pending_write_bytes() == 0; }));
  const Message reply = client.receive_message();
  EXPECT_EQ(reply.type, MessageType::Hello);
  EXPECT_EQ(decode_hello(reply.payload), 7);
}

TEST_F(ReactorFixture, ConnectionChurn) {
  // Repeated connect -> frame -> disconnect cycles: every registered
  // connection must fire on_close exactly once and ids must never repeat.
  constexpr std::size_t kCycles = 40;
  for (std::size_t i = 0; i < kCycles; ++i) {
    TcpStream client = connect_client();
    client.send_message(hello_message(static_cast<int>(i)));
    ASSERT_TRUE(pump_until([&] { return messages.size() == i + 1; })) << "cycle " << i;
    client.close();
    ASSERT_TRUE(pump_until([&] { return closed.size() == i + 1; })) << "cycle " << i;
  }
  EXPECT_EQ(reactor->connection_count(), 0u);
  EXPECT_EQ(accepted.size(), kCycles);
  ASSERT_EQ(closed.size(), kCycles);
  std::vector<Reactor::ConnectionId> unique_closed = closed;
  std::sort(unique_closed.begin(), unique_closed.end());
  unique_closed.erase(std::unique(unique_closed.begin(), unique_closed.end()),
                      unique_closed.end());
  EXPECT_EQ(unique_closed.size(), kCycles);
}

TEST_F(ReactorFixture, AdoptedConnectionSendsAndReceives) {
  // add_connection adopts an outbound stream (the bench harness path):
  // on_accept must NOT fire for it, but frames flow both ways.
  std::vector<Message> client_side;
  Reactor::Callbacks client_callbacks;
  client_callbacks.on_message = [&](Reactor::ConnectionId, Message&& message) {
    client_side.push_back(std::move(message));
  };
  Reactor client_reactor{std::move(client_callbacks)};

  echo = true;
  const Reactor::ConnectionId cid = client_reactor.add_connection(connect_client());
  EXPECT_EQ(client_reactor.connection_count(), 1u);
  ASSERT_TRUE(client_reactor.send(cid, hello_message(42)));

  const auto until = std::chrono::steady_clock::now() + 20000ms;
  while (client_side.empty() && std::chrono::steady_clock::now() < until) {
    (void)client_reactor.poll_once(5ms);
    (void)reactor->poll_once(5ms);
  }
  ASSERT_EQ(client_side.size(), 1u);
  EXPECT_EQ(decode_hello(client_side[0].payload), 42);
  EXPECT_TRUE(accepted.size() == 1u);  // server side accepted; client side adopted
}

TEST_F(ReactorFixture, SweepIdleClosesOnlyStaleConnections) {
  TcpStream silent = connect_client();
  TcpStream active = connect_client();
  ASSERT_TRUE(pump_until([&] { return accepted.size() == 2; }));

  std::this_thread::sleep_for(300ms);
  // Refresh the active connection's activity clock right before the sweep.
  active.send_message(hello_message(1));
  ASSERT_TRUE(pump_until([&] { return messages.size() == 1; }));

  const std::size_t swept = reactor->sweep_idle(250ms);
  EXPECT_EQ(swept, 1u);
  EXPECT_EQ(reactor->connection_count(), 1u);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0], messages[0].first == accepted[0] ? accepted[1] : accepted[0]);
}

TEST_F(ReactorFixture, BadCrcKeepsConnectionWhenAsked) {
  keep_on_decode_error = true;
  TcpStream client = connect_client();

  // Flip one payload byte after framing: header parses, CRC check fails, and
  // the stream stays in sync — so keep=true must preserve the link.
  std::vector<std::byte> frame = encode_frame(hello_message(9));
  frame.back() ^= std::byte{0x01};
  client.send_all(frame);
  ASSERT_TRUE(pump_until([&] { return decode_errors.size() == 1; }));
  EXPECT_EQ(decode_errors[0], DecodeErrorCode::BadCrc);
  EXPECT_TRUE(closed.empty());
  EXPECT_EQ(reactor->connection_count(), 1u);

  // The connection still works: a clean frame is delivered afterwards.
  client.send_message(hello_message(9));
  ASSERT_TRUE(pump_until([&] { return messages.size() == 1; }));
  EXPECT_EQ(decode_hello(messages[0].second.payload), 9);
}

TEST_F(ReactorFixture, BadMagicDropsConnectionDespiteKeepRequest) {
  keep_on_decode_error = true;  // only honoured for BadCrc/BadShape
  TcpStream client = connect_client();
  std::vector<std::byte> garbage(kFrameHeaderBytes, std::byte{0x5a});
  client.send_all(garbage);

  ASSERT_TRUE(pump_until([&] { return closed.size() == 1; }));
  ASSERT_EQ(decode_errors.size(), 1u);
  EXPECT_EQ(decode_errors[0], DecodeErrorCode::BadMagic);
  EXPECT_EQ(reactor->connection_count(), 0u);
}

TEST_F(ReactorFixture, PeerClosingMidPayloadIsReportedAsTruncated) {
  // A peer that closes after the header but before the whole payload sent a
  // corrupt (truncated) frame, not a clean goodbye: on_decode_error fires
  // with Truncated before on_close, as receive_message would throw.
  std::vector<std::string> log;
  Reactor::Callbacks callbacks;
  callbacks.on_close = [&](Reactor::ConnectionId) { log.emplace_back("close"); };
  callbacks.on_decode_error = [&](Reactor::ConnectionId, const DecodeError& error) {
    log.emplace_back(to_string(error.code()));
    return false;
  };
  Reactor local{std::move(callbacks)};
  TcpListener local_listener{0};
  local.listen(local_listener);

  TcpStream client = TcpStream::connect("127.0.0.1", local_listener.port());
  const std::vector<std::byte> frame = encode_frame(hello_message(5));
  client.send_all(std::span<const std::byte>{frame.data(), frame.size() - 2});
  client.close();
  const auto until = std::chrono::steady_clock::now() + 20000ms;
  while ((log.empty() || log.back() != "close") &&
         std::chrono::steady_clock::now() < until) {
    (void)local.poll_once(10ms);
  }
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], to_string(DecodeErrorCode::Truncated));
  EXPECT_EQ(log[1], "close");
}

TEST_F(ReactorFixture, PeerClosingMidHeaderIsAPlainClose) {
  TcpStream client = connect_client();
  const std::vector<std::byte> frame = encode_frame(hello_message(5));
  client.send_all(std::span<const std::byte>{frame.data(), kFrameHeaderBytes / 2});
  client.close();
  ASSERT_TRUE(pump_until([&] { return closed.size() == 1; }));
  EXPECT_TRUE(decode_errors.empty());
}

TEST_F(ReactorFixture, PeerResettingMidPayloadIsAPlainClose) {
  // A reset is a lost link (a dropout upstream), not a truncated frame, even
  // when it cuts a payload short: only an orderly EOF reports Truncated.
  TcpStream client = connect_client();
  ASSERT_TRUE(pump_until([&] { return accepted.size() == 1; }));
  const std::vector<std::byte> frame = encode_frame(hello_message(5));
  client.send_all(std::span<const std::byte>{frame.data(), frame.size() - 2});
  const ::linger abort_on_close{1, 0};  // close() sends RST instead of FIN
  ASSERT_EQ(::setsockopt(client.fd(), SOL_SOCKET, SO_LINGER, &abort_on_close,
                         sizeof(abort_on_close)),
            0);
  client.close();
  ASSERT_TRUE(pump_until([&] { return closed.size() == 1; }));
  EXPECT_TRUE(decode_errors.empty());
}

TEST_F(ReactorFixture, SendToUnknownConnectionFails) {
  EXPECT_FALSE(reactor->send(9999, hello_message(0)));
  reactor->close_connection(9999);  // unknown ids are a no-op
  EXPECT_TRUE(closed.empty());
}

TEST_F(ReactorFixture, WakeInterruptsBlockedPoll) {
  std::thread waker{[&] {
    std::this_thread::sleep_for(50ms);
    reactor->wake();
  }};
  const auto start = std::chrono::steady_clock::now();
  (void)reactor->poll_once(10000ms);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  waker.join();
  EXPECT_LT(elapsed, 5000ms);
}

TEST_F(ReactorFixture, ThousandSocketSmoke) {
  // One reactor, one thread, 1000 concurrent framed connections: every hello
  // arrives, a broadcast reaches every peer, and teardown fires every
  // on_close. This is the shard tier's fan-in contract in miniature.
  constexpr std::size_t kClients = 1000;
  std::vector<TcpStream> clients;
  clients.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.push_back(connect_client());
    clients.back().send_message(hello_message(static_cast<int>(i)));
    // Interleave accepts so the kernel backlog never saturates.
    if (i % 64 == 0) (void)reactor->poll_once(0ms);
  }
  ASSERT_TRUE(pump_until([&] { return messages.size() == kClients; }, 120000ms));
  EXPECT_EQ(accepted.size(), kClients);
  EXPECT_EQ(reactor->connection_count(), kClients);

  long long id_sum = 0;
  for (const auto& [id, message] : messages) id_sum += decode_hello(message.payload);
  EXPECT_EQ(id_sum, static_cast<long long>(kClients * (kClients - 1) / 2));

  // Broadcast a shutdown to all connections and drain the write queues.
  for (Reactor::ConnectionId id : accepted) {
    EXPECT_TRUE(reactor->send(id, Message{MessageType::Shutdown, {}}));
  }
  ASSERT_TRUE(pump_until([&] { return reactor->pending_write_bytes() == 0; }, 120000ms));

  for (TcpStream& client : clients) client.close();
  ASSERT_TRUE(pump_until([&] { return closed.size() == kClients; }, 120000ms));
  EXPECT_EQ(reactor->connection_count(), 0u);
}

// ---- HTTP scrape auto-detection on the data port ------------------------------

obs::HttpResponder scrape_responder() {
  obs::HttpResponder responder;
  responder.metrics_text = [] { return std::string{"scrape_up 1\n"}; };
  responder.healthz = [] { return std::string{"{\"status\":\"ok\"}\n"}; };
  return responder;
}

struct HttpReactorFixture : ReactorFixture {
  void SetUp() override {
    ReactorFixture::SetUp();
    reactor->set_http_responder(scrape_responder());
  }

  /// Pump the reactor while draining `stream` until the peer closes it
  /// (HTTP/1.0 close-after-response) or the deadline passes.
  std::string pump_response(TcpStream& stream,
                            std::chrono::milliseconds deadline = 20000ms) {
    stream.set_nonblocking(true);
    std::string response;
    const auto until = std::chrono::steady_clock::now() + deadline;
    while (std::chrono::steady_clock::now() < until) {
      (void)reactor->poll_once(5ms);
      std::byte chunk[2048];
      std::size_t transferred = 0;
      const IoStatus status = stream.read_some(chunk, transferred);
      if (status == IoStatus::Ready) {
        response.append(reinterpret_cast<const char*>(chunk), transferred);
      } else if (status == IoStatus::Closed) {
        return response;  // server closed after the flush, as HTTP/1.0 must
      }
    }
    ADD_FAILURE() << "server never closed the scrape connection";
    return response;
  }

  void send_text(TcpStream& stream, std::string_view text) {
    stream.send_all(std::as_bytes(std::span{text.data(), text.size()}));
  }
};

TEST_F(HttpReactorFixture, ScrapeOnDataPortAnswersAndCloses) {
  TcpStream scraper = connect_client();
  send_text(scraper, "GET /metrics HTTP/1.0\r\n\r\n");
  const std::string response = pump_response(scraper);
  EXPECT_NE(response.find("200"), std::string::npos);
  EXPECT_NE(response.find("scrape_up 1"), std::string::npos);
  ASSERT_TRUE(pump_until([&] { return closed.size() == 1; }));
  EXPECT_EQ(reactor->connection_count(), 0u);
  EXPECT_TRUE(messages.empty()) << "a scrape is not framed traffic";
}

TEST_F(HttpReactorFixture, SlowScraperTricklingBytesStillGetsAnswered) {
  TcpStream scraper = connect_client();
  // One byte at a time across poll iterations: the detector must commit to
  // HTTP on a matching prefix and keep accumulating through NeedMore. The
  // response fires as soon as the request LINE is complete, so trickle
  // exactly that much — more bytes would race the server's close.
  const std::string request = "GET /healthz HTTP/1.0\r\n";
  for (const char byte : request) {
    send_text(scraper, {&byte, 1});
    (void)reactor->poll_once(5ms);
  }
  const std::string response = pump_response(scraper);
  EXPECT_NE(response.find("200"), std::string::npos);
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos);
}

TEST_F(HttpReactorFixture, ScrapeMidFrameDoesNotDisturbFramedTraffic) {
  echo = true;
  TcpStream framed = connect_client();
  // Park half a frame on the framed connection...
  const std::vector<std::byte> frame = encode_frame(hello_message(7));
  framed.send_all(std::span{frame.data(), frame.size() / 2});
  (void)reactor->poll_once(5ms);
  // ...answer a full scrape in the middle...
  TcpStream scraper = connect_client();
  send_text(scraper, "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(pump_response(scraper).find("scrape_up 1"), std::string::npos);
  // ...then finish the frame: it must still decode and echo.
  framed.send_all(std::span{frame.data() + frame.size() / 2,
                            frame.size() - frame.size() / 2});
  ASSERT_TRUE(pump_until([&] { return messages.size() == 1; }));
  EXPECT_EQ(messages[0].second.type, MessageType::Hello);
  const Message reply = framed.receive_message();
  EXPECT_EQ(reply.type, MessageType::Hello);
}

TEST_F(HttpReactorFixture, OversizedRequestIsDroppedWithoutAnswer) {
  TcpStream framed = connect_client();
  TcpStream scraper = connect_client();
  // A matching method prefix followed by 8 KiB of junk and no terminator:
  // parse must report Bad at the size cap and the reactor must drop only
  // this connection.
  send_text(scraper, "GET /" + std::string(8192, 'a'));
  ASSERT_TRUE(pump_until([&] { return closed.size() == 1; }));
  EXPECT_EQ(reactor->connection_count(), 1u) << "framed peer survives";
  const std::vector<std::byte> frame = encode_frame(hello_message(3));
  framed.send_all(std::span{frame.data(), frame.size()});
  ASSERT_TRUE(pump_until([&] { return messages.size() == 1; }));
}

TEST_F(HttpReactorFixture, NonHttpGarbageStillDiesByFrameRules) {
  TcpStream garbage = connect_client();
  // First byte rules out GET/HEAD, so this stays on the frame path and dies
  // on bad magic once a header's worth of bytes arrived.
  send_text(garbage, std::string(64, 'X'));
  ASSERT_TRUE(pump_until([&] { return closed.size() == 1; }));
  ASSERT_EQ(decode_errors.size(), 1u);
  EXPECT_EQ(decode_errors[0], DecodeErrorCode::BadMagic);
}

TEST_F(ReactorFixture, HttpRequestWithoutResponderDiesByFrameRules) {
  // No responder installed: "GET " is not sniffed, accumulates to a frame
  // header, and fails on magic — the pre-existing contract is unchanged.
  TcpStream scraper = connect_client();
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  scraper.send_all(std::as_bytes(std::span{request.data(), request.size()}));
  ASSERT_TRUE(pump_until([&] { return closed.size() == 1; }));
  ASSERT_EQ(decode_errors.size(), 1u);
  EXPECT_EQ(decode_errors[0], DecodeErrorCode::BadMagic);
}

}  // namespace
}  // namespace fedguard::net
