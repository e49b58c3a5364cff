// Wire-protocol, /metrics listener and distributed-federation tests
// (loopback TCP).

#include <gtest/gtest.h>

#include <chrono>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <typeinfo>

#include "data/partition.hpp"
#include "data/synthetic_mnist.hpp"
#include "defenses/fedavg.hpp"
#include "defenses/fedguard.hpp"
#include "net/remote.hpp"
#include "net/shard.hpp"
#include "net/telemetry_http.hpp"
#include "net/telemetry_relay.hpp"
#include "obs/http_exposition.hpp"
#include "obs/metrics.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

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

/// The DecodeError code `decode` raises; a decode that succeeds is a failure.
template <typename Decode>
DecodeErrorCode decode_error_code(Decode&& decode) {
  try {
    decode();
  } catch (const DecodeError& e) {
    return e.code();
  }
  ADD_FAILURE() << "hostile input decoded without error";
  return DecodeErrorCode::BadMagic;
}

DecodeErrorCode decode_failure(std::span<const std::byte> buffer) {
  return decode_error_code([&] { (void)decode_frame(buffer); });
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

// ---- Lengths read from the peer that wrap 64-bit arithmetic -------------------

/// A TelemetryReport whose one event claims a name of 2^64 - 41 bytes. At
/// the offset it is read from, offset + length wraps to a value inside the
/// payload, which a sum-based bounds check lets through.
std::vector<std::byte> wrapped_telemetry_payload() {
  util::ByteWriter writer;
  writer.write_u32(1);  // sender pid
  writer.write_u32(1);  // sender id
  writer.write_u64(0);  // round
  writer.write_u64(0);  // trace id
  writer.write_u64(1);  // one event
  writer.write_u64(0);  // rel_ts_ns
  writer.write_u64(0);  // trace id
  writer.write_u64(0);  // round
  writer.write_u32(0);  // tid
  writer.write_u32('B');  // phase
  writer.write_u64(~0ULL - 40);  // name length
  return writer.bytes();
}

TEST(Messages, WrappedTelemetryStringLengthIsTruncated) {
  const std::vector<std::byte> payload = wrapped_telemetry_payload();
  EXPECT_EQ(decode_error_code([&] { (void)decode_telemetry_report(payload); }),
            DecodeErrorCode::Truncated);
}

TEST(Messages, WrappedRoundRequestCountIsTruncated) {
  util::ByteWriter writer;
  writer.write_u64(1);  // round
  writer.write_u32(0);  // want_decoder
  writer.write_u32(0);  // codec: fp32
  writer.write_u32(static_cast<std::uint32_t>(util::kDefaultQ8ChunkSize));
  writer.write_u64(0);  // trace id
  writer.write_u64(0);  // parent span
  writer.write_u64((1ULL << 62) + 1);  // count * 4 wraps to 4
  writer.write_f32(1.0f);
  const std::vector<std::byte> payload = writer.bytes();
  EXPECT_EQ(decode_error_code([&] { (void)decode_round_request(payload); }),
            DecodeErrorCode::Truncated);
}

TEST(Messages, OwnedReplyRejectsAPsiCountBeyondThePayload) {
  util::ByteWriter writer;
  writer.write_u64(1);  // round
  writer.write_u64(0);  // trace id
  writer.write_u32(2);  // client id
  writer.write_u64(10);  // samples
  writer.write_u32(0);  // malicious
  writer.write_u32(0);  // codec: fp32
  writer.write_u64((1ULL << 62) + 1);  // psi count
  writer.write_f32(1.0f);
  const std::vector<std::byte> payload = writer.bytes();
  EXPECT_EQ(decode_error_code([&] { (void)decode_round_reply(payload); }),
            DecodeErrorCode::Truncated);
}

TEST(Messages, ReplyThetaMustMatchTheRowExactly) {
  // The shard sizes θ from the request it sent: a θ one float short or long
  // is the wrong model shape, not a shorter decoder.
  defenses::UpdateMatrix arena;
  arena.reset(1, 2, 4);
  for (const std::size_t theta_count : {std::size_t{3}, std::size_t{5}}) {
    RoundReply reply;
    reply.update.psi = {0.5f, 1.5f};
    reply.update.theta.assign(theta_count, 1.0f);
    const std::vector<std::byte> payload = encode_round_reply(reply);
    EXPECT_EQ(decode_error_code([&] { (void)decode_round_reply_into(payload, arena.row(0)); }),
              DecodeErrorCode::BadShape)
        << "theta count " << theta_count;
  }
  RoundReply reply;
  reply.update.psi = {0.5f, 1.5f};
  reply.update.theta.assign(4, 1.0f);
  EXPECT_EQ(decode_round_reply_into(encode_round_reply(reply), arena.row(0)), 0u);
  EXPECT_EQ(arena.meta(0).theta_count, 4u);
}

TEST(TelemetryRelay, ForgedCounterNamesAreDroppedAndCounted) {
  // A relayed name reaches the /metrics text raw, so one carrying a newline
  // could forge whole exposition lines. Only Prometheus series names relay.
  obs::Registry& registry = obs::Registry::global();
  const std::string dropped = "net_telemetry_dropped_names_total";
  const std::uint64_t dropped0 = registry.counter_value(dropped);
  const std::vector<std::string> hostile{
      "evil_total\nfl_rounds_total 999999\nx0",
      "",
      "9starts_with_digit",
      "has space",
      "open{",
      "empty{}",
      "unterminated{k=\"v\"",
      "trailing_comma{k=\"v\",}",
      "unquoted{k=v}",
      "colon_label{a:b=\"v\"}",
      "quote_in_value{k=\"a\\\"b\"}",
      "bare_quote_in_value{k=\"a\"b\"}",
      "newline_in_value{k=\"a\nb\"}",
      "after_block{k=\"v\"}x",
  };
  const std::vector<std::string> relayable{
      "relay_ok_total",
      "relay:ok_total",
      "relay_ok_total{shard=\"1\",kind=\"a b=c,d}\"}",
  };
  TelemetryFrame report;
  report.sender_id = 77;
  for (const std::string& name : hostile) report.counter_deltas.emplace_back(name, 5);
  for (const std::string& name : relayable) report.counter_deltas.emplace_back(name, 3);
  (void)ingest_telemetry_report(report, obs::now_ns());

  EXPECT_EQ(registry.counter_value(dropped) - dropped0, hostile.size());
  for (const std::string& name : relayable) {
    EXPECT_EQ(registry.counter_value(with_origin_label(name, 77)), 3u) << name;
  }
  const std::string text = registry.prometheus_text();
  EXPECT_EQ(text.find("\nfl_rounds_total 999999\n"), std::string::npos) << "forged line";
  EXPECT_EQ(text.find("\nx0{"), std::string::npos) << "forged series";
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

// ---- The /metrics listener (TelemetryHttpServer) --------------------------------

using namespace std::chrono_literals;

std::span<const std::byte> bytes_of(std::string_view text) {
  return std::as_bytes(std::span{text.data(), text.size()});
}

/// Read until the server closes the connection; nullopt when it has not
/// closed within the stream's receive timeout.
std::optional<std::string> read_until_close(TcpStream& stream) {
  std::string response;
  std::byte chunk[2048];
  for (;;) {
    std::size_t transferred = 0;
    switch (stream.read_some(chunk, transferred)) {
      case IoStatus::Ready:
        response.append(reinterpret_cast<const char*>(chunk), transferred);
        break;
      case IoStatus::Closed:
        return response;
      case IoStatus::WouldBlock:
        return std::nullopt;
    }
  }
}

TcpStream connect_scraper(std::uint16_t port) {
  TcpStream stream = TcpStream::connect("127.0.0.1", port);
  stream.set_receive_timeout(10s);
  return stream;
}

/// One exchange: send `request` whole, read to the server's close.
std::optional<std::string> scrape(std::uint16_t port, std::string_view request) {
  TcpStream stream = connect_scraper(port);
  stream.send_all(bytes_of(request));
  return read_until_close(stream);
}

std::string body_of(const std::string& response) {
  const std::size_t end = response.find("\r\n\r\n");
  return end == std::string::npos ? std::string{} : response.substr(end + 4);
}

obs::HttpResponder fixed_responder() {
  obs::HttpResponder responder;
  responder.metrics_text = [] { return std::string{"scrape_up 1\n"}; };
  responder.healthz = [] { return std::string{"{\"status\":\"ok\"}\n"}; };
  return responder;
}

TEST(TelemetryHttp, AnswersLiveScrapes) {
  obs::Counter marker = obs::Registry::global().counter("live_scrape_marker_total");
  marker.add(9);
  TelemetryHttpServer server{0, make_registry_responder("live_scrape_marker_total", "")};
  ASSERT_NE(server.port(), 0) << "ephemeral bind must report the real port";

  const auto get = [&](const std::string& path) {
    return scrape(server.port(), "GET " + path + " HTTP/1.0\r\n\r\n").value_or("");
  };
  const std::string metrics = get("/metrics");
  EXPECT_NE(metrics.find("200"), std::string::npos);
  EXPECT_NE(metrics.find("live_scrape_marker_total 9"), std::string::npos);
  const std::string health = get("/healthz");
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health.find("\"rounds_completed\":9"), std::string::npos);
  EXPECT_NE(get("/nope").find("404"), std::string::npos);
}

TEST(TelemetryHttp, HeadGetsHeadersWithoutBody) {
  TelemetryHttpServer server{0, fixed_responder()};
  const std::string get = scrape(server.port(), "GET /metrics HTTP/1.0\r\n").value_or("");
  const std::string head = scrape(server.port(), "HEAD /metrics HTTP/1.0\r\n").value_or("");
  EXPECT_EQ(body_of(get), "scrape_up 1\n");
  ASSERT_NE(head.find("200"), std::string::npos) << head;
  EXPECT_EQ(body_of(head), "") << "RFC 9110 9.3.2: no body in a HEAD response";
  // Same headers as GET, Content-Length included.
  EXPECT_EQ(head, get.substr(0, get.size() - body_of(get).size()));
}

TEST(TelemetryHttp, SlowScraperTricklingBytesStillGetsAnswered) {
  TelemetryHttpServer server{0, fixed_responder()};
  TcpStream scraper = connect_scraper(server.port());
  // One byte at a time: the listener keeps reading through NeedMore. The
  // response fires as soon as the request LINE is complete, so trickle
  // exactly that much — more bytes would race the server's close.
  const std::string request = "GET /healthz HTTP/1.0\r\n";
  for (const char byte : request) {
    scraper.send_all(bytes_of({&byte, 1}));
    std::this_thread::sleep_for(5ms);
  }
  const std::string response = read_until_close(scraper).value_or("");
  EXPECT_NE(response.find("200"), std::string::npos);
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos);
}

TEST(TelemetryHttp, OversizedRequestIsDroppedWithoutAnswer) {
  TelemetryHttpServer server{0, fixed_responder()};
  // A method prefix followed by 8 KiB of junk and no terminator: the parse
  // is Bad at the size cap and the peer is closed with no response.
  const std::optional<std::string> dropped =
      scrape(server.port(), "GET /" + std::string(8192, 'a'));
  ASSERT_TRUE(dropped.has_value()) << "the server must close the connection";
  EXPECT_EQ(*dropped, "");
  const std::string next =
      scrape(server.port(), "GET /metrics HTTP/1.0\r\n\r\n").value_or("");
  EXPECT_NE(next.find("scrape_up 1"), std::string::npos) << "next scrape answered";
}

TEST(TelemetryHttp, SilentPeerDelaysNextScraperAtMostTheExchangeDeadline) {
  TelemetryHttpServer server{0, fixed_responder()};
  TcpStream silent = connect_scraper(server.port());
  std::this_thread::sleep_for(50ms);  // let the serving thread take it first
  const auto start = std::chrono::steady_clock::now();
  const std::string answered =
      scrape(server.port(), "GET /metrics HTTP/1.0\r\n\r\n").value_or("");
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_NE(answered.find("scrape_up 1"), std::string::npos);
  EXPECT_LT(waited, TelemetryHttpServer::kExchangeDeadline + 2000ms);
  // The silent peer itself timed out and was closed unanswered.
  EXPECT_EQ(read_until_close(silent), std::optional<std::string>{""});
}

// Seeded mutation fuzz of the one HTTP parser that reads outside bytes:
// bit-flips, truncations and splices of valid request lines, against both a
// roomy and a tiny request cap. Nothing may throw, and Ready must come only
// with a non-empty, space-free path from a line that fits the cap.
TEST(HttpParserFuzz, MutatedRequestLinesNeverThrowAndRespectTheCap) {
  const std::vector<std::string> seeds = {
      "GET /metrics HTTP/1.0\r\n",
      "HEAD /healthz HTTP/1.1\r\n\r\n",
      "GET /metrics.json HTTP/1.0\r\nHost: localhost\r\n\r\n",
      "GET / HTTP/1.0\n",
  };
  const obs::HttpResponder responder = fixed_responder();
  util::Rng rng{0xF022ED};
  constexpr int kIterations = 100000;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    std::string input = seeds[rng.uniform_int(seeds.size())];
    const std::uint64_t mutations = 1 + rng.uniform_int(4);
    for (std::uint64_t m = 0; m < mutations; ++m) {
      switch (rng.uniform_int(4)) {
        case 0:  // bit-flip
          if (!input.empty()) {
            input[rng.uniform_int(input.size())] ^=
                static_cast<char>(1u << rng.uniform_int(8));
          }
          break;
        case 1:  // truncation
          input.resize(rng.uniform_int(input.size() + 1));
          break;
        case 2: {  // splice: this prefix + another seed's suffix
          const std::string& other = seeds[rng.uniform_int(seeds.size())];
          input = input.substr(0, rng.uniform_int(input.size() + 1)) +
                  other.substr(rng.uniform_int(other.size() + 1));
          break;
        }
        default:  // repeat a slice, pushing lines toward the tiny cap
          if (!input.empty()) {
            const std::size_t at = rng.uniform_int(input.size());
            input.insert(at, input.substr(at, 1 + rng.uniform_int(16)));
          }
          break;
      }
    }
    const std::size_t cap = rng.bernoulli(0.5) ? obs::kMaxHttpRequestBytes
                                               : 1 + rng.uniform_int(64);
    obs::HttpRequest request;
    ASSERT_NO_THROW(request = obs::parse_http_request(bytes_of(input), cap)) << input;
    ASSERT_NO_THROW((void)obs::http_response_for(responder, request)) << input;
    if (request.status != obs::HttpParseStatus::Ready) continue;
    ASSERT_FALSE(request.path.empty()) << input;
    ASSERT_EQ(request.path.find(' '), std::string::npos) << input;
    const std::size_t line_end = input.find('\n');
    ASSERT_NE(line_end, std::string::npos) << input;
    ASSERT_LT(line_end, cap) << "line over the cap parsed Ready: " << input;
  }
}

// ---- Binary decoder fuzz --------------------------------------------------------

// ψ and θ lengths of the seed replies and of the fixed-shape arena row.
constexpr std::size_t kFuzzPsi = 16;
constexpr std::size_t kFuzzTheta = 5;

/// Valid frames of every type the federation parses from a peer: Hello,
/// RoundRequest, RoundReply in each ψ codec, and TelemetryReport.
std::vector<std::vector<std::byte>> fuzz_seed_frames() {
  std::vector<std::vector<std::byte>> frames;
  frames.push_back(encode_frame({MessageType::Hello, encode_hello(7)}));

  RoundRequest request;
  request.round = 4;
  request.want_decoder = true;
  request.psi_codec = util::WireCodec::Q8;
  request.psi_chunk = 8;
  request.trace_id = 0x1234;
  request.parent_span = 0x55;
  for (std::size_t i = 0; i < kFuzzPsi; ++i) {
    request.global_parameters.push_back(0.25f * static_cast<float>(i) - 1.0f);
  }
  frames.push_back(encode_frame({MessageType::RoundRequest, encode_round_request(request)}));

  for (const util::WireCodec codec :
       {util::WireCodec::Fp32, util::WireCodec::Fp16, util::WireCodec::Q8}) {
    RoundReply reply;
    reply.round = 4;
    reply.trace_id = 0x1234;
    reply.psi_codec = codec;
    reply.psi_chunk = 8;
    reply.update.client_id = 3;
    reply.update.num_samples = 60;
    reply.update.psi = request.global_parameters;
    reply.update.theta.assign(kFuzzTheta, 0.5f);
    frames.push_back(encode_frame({MessageType::RoundReply, encode_round_reply(reply)}));
  }

  TelemetryFrame report;
  report.sender_pid = 99;
  report.sender_id = 3;
  report.round = 4;
  report.trace_id = 0x1234;
  report.events.push_back({"client.train", "train:3", 0, 0x1234, 4, 1, 'B'});
  report.events.push_back({"client.train", "train:3", 900, 0x1234, 4, 1, 'E'});
  report.counter_deltas.emplace_back("fl_client_rounds_total", 1);
  report.counter_deltas.emplace_back("obs_trace_dropped_spans_total", 0);
  frames.push_back(
      encode_frame({MessageType::TelemetryReport, encode_telemetry_report(report)}));
  return frames;
}

/// Length-field values a hostile peer would pick: zero, sign and width
/// boundaries, and values whose sum with a small offset wraps 2^64.
std::uint64_t extreme_length(util::Rng& rng) {
  switch (rng.uniform_int(8)) {
    case 0: return 0;
    case 1: return 1;
    case 2: return 0xffffffffULL;
    case 3: return (1ULL << 62) + 1;
    case 4: return 1ULL << 63;
    case 5: return ~0ULL;
    case 6: return kMaxPayloadBytes + 1;
    default: return ~0ULL - rng.uniform_int(256);
  }
}

void mutate(std::vector<std::byte>& input, const std::vector<std::vector<std::byte>>& seeds,
            util::Rng& rng) {
  switch (rng.uniform_int(4)) {
    case 0:  // bit-flip
      if (!input.empty()) {
        input[rng.uniform_int(input.size())] ^=
            std::byte{static_cast<unsigned char>(1u << rng.uniform_int(8))};
      }
      break;
    case 1:  // truncation
      input.resize(rng.uniform_int(input.size() + 1));
      break;
    case 2: {  // splice: this prefix + another seed's suffix
      const std::vector<std::byte>& other = seeds[rng.uniform_int(seeds.size())];
      input.resize(rng.uniform_int(input.size() + 1));
      input.insert(input.end(), other.begin() + static_cast<std::ptrdiff_t>(
                                                    rng.uniform_int(other.size() + 1)),
                   other.end());
      break;
    }
    default: {  // overwrite a u32 or u64 at any offset with an extreme length
      const std::size_t width = rng.bernoulli(0.5) ? 8 : 4;
      if (input.size() < width) break;
      const std::size_t at = rng.uniform_int(input.size() - width + 1);
      const std::uint64_t value = extreme_length(rng);
      for (std::size_t b = 0; b < width; ++b) {
        input[at + b] = std::byte{static_cast<unsigned char>(value >> (8 * b))};
      }
      break;
    }
  }
}

/// Passes when `decode` returns or raises DecodeError; any other exception
/// escaping a decoder would escape the reactor's handlers too.
template <typename Decode>
::testing::AssertionResult decodes_or_raises_decode_error(Decode&& decode) {
  try {
    decode();
  } catch (const DecodeError&) {
  } catch (const std::exception& e) {
    return ::testing::AssertionFailure() << typeid(e).name() << ": " << e.what();
  }
  return ::testing::AssertionSuccess();
}

TEST(BinaryDecoderFuzz, MutatedFramesDecodeOrRaiseDecodeError) {
  const std::vector<std::vector<std::byte>> seeds = fuzz_seed_frames();
  defenses::UpdateMatrix arena;
  arena.reset(1, kFuzzPsi, kFuzzTheta);
  util::Rng rng{0xB17F11B5};
  constexpr int kIterations = 50000;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    std::vector<std::byte> frame = seeds[rng.uniform_int(seeds.size())];
    const std::uint64_t mutations = 1 + rng.uniform_int(4);
    for (std::uint64_t m = 0; m < mutations; ++m) mutate(frame, seeds, rng);
    // Half the time re-seal the CRC, so decode_frame also returns mutated
    // payloads instead of stopping at the checksum.
    if (rng.bernoulli(0.5) && frame.size() >= kFrameHeaderBytes) {
      const std::span<const std::byte> body{frame.data() + kFrameHeaderBytes,
                                            frame.size() - kFrameHeaderBytes};
      util::store_trivial(frame.data() + 16, crc32(body));  // CRC field at offset 16
    }
    ASSERT_TRUE(decodes_or_raises_decode_error([&] { (void)decode_frame(frame); }))
        << "decode_frame, iteration " << iteration;

    const std::span<const std::byte> payload =
        std::span<const std::byte>{frame}.subspan(std::min(frame.size(), kFrameHeaderBytes));
    ASSERT_TRUE(decodes_or_raises_decode_error([&] { (void)decode_hello(payload); }))
        << "decode_hello, iteration " << iteration;
    ASSERT_TRUE(decodes_or_raises_decode_error([&] { (void)decode_round_request(payload); }))
        << "decode_round_request, iteration " << iteration;
    ASSERT_TRUE(decodes_or_raises_decode_error([&] { (void)decode_round_reply(payload); }))
        << "decode_round_reply, iteration " << iteration;
    ASSERT_TRUE(decodes_or_raises_decode_error(
        [&] { (void)decode_round_reply_into(payload, arena.row(0)); }))
        << "decode_round_reply_into, iteration " << iteration;
    ASSERT_TRUE(
        decodes_or_raises_decode_error([&] { (void)decode_telemetry_report(payload); }))
        << "decode_telemetry_report, iteration " << iteration;
  }
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

TEST_F(RemoteFixture, HostileTelemetryFrameWithoutHelloLeavesTheShardRunning) {
  // A peer needs no Hello to send a TelemetryReport. One whose string length
  // wraps the bounds check must count as a corrupt frame, not end the
  // process, and the federation must still run its round afterwards.
  HierarchicalServerConfig config;
  config.expected_clients = 2;
  config.clients_per_round = 2;
  config.rounds = 1;
  config.seed = 631;
  HierarchicalServer server{
      config, [] { return std::make_unique<defenses::FedAvgAggregator>(); }, test,
      models::ClassifierArch::Mlp, geometry};
  obs::Registry& registry = obs::Registry::global();
  const std::string corrupt = "net_shard_corrupt_frames_total{shard=\"0\"}";
  const std::uint64_t corrupt0 = registry.counter_value(corrupt);

  TcpStream hostile = TcpStream::connect("127.0.0.1", server.shard_port(0));
  hostile.send_all(encode_frame({MessageType::TelemetryReport, wrapped_telemetry_payload()}));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{20};
  while (registry.counter_value(corrupt) == corrupt0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
  EXPECT_EQ(registry.counter_value(corrupt) - corrupt0, 1u);

  std::vector<std::unique_ptr<fl::Client>> clients;
  std::vector<std::thread> threads;
  std::vector<std::size_t> rounds_served(2, 0);
  for (std::size_t i = 0; i < 2; ++i) {
    clients.push_back(std::make_unique<fl::Client>(
        static_cast<int>(i), train, partition[i], client_config(false),
        models::ClassifierArch::Mlp, geometry, cvae_spec(), 632 + i));
  }
  for (std::size_t i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      rounds_served[i] = run_remote_client("127.0.0.1", server.shard_port(0), *clients[i]);
    });
  }
  const fl::RunHistory history = server.run();
  for (auto& thread : threads) thread.join();

  ASSERT_EQ(history.rounds.size(), 1u);
  EXPECT_EQ(history.rounds[0].sampled_clients, 2u);
  EXPECT_EQ(history.rounds[0].dropouts + history.rounds[0].timeouts +
                history.rounds[0].corrupt_frames,
            0u);
  for (const std::size_t n : rounds_served) EXPECT_EQ(n, 1u);
}

TEST_F(RemoteFixture, ShortThetaReplyIsACorruptFrameNotAProcessExit) {
  // A FedGuard peer whose θ is one float short must cost its own slot as a
  // corrupt frame; it must not reach the strategy on the shard thread.
  defenses::FedGuardConfig fg;
  fg.cvae_spec = cvae_spec();
  fg.total_samples = 20;
  const auto make_strategy = [&] {
    return std::make_unique<defenses::FedGuardAggregator>(fg, models::ClassifierArch::Mlp,
                                                          geometry, 641);
  };
  const std::size_t theta_dim = make_strategy()->decoder_parameter_count();
  HierarchicalServerConfig config;
  config.expected_clients = 2;
  config.clients_per_round = 2;
  config.rounds = 1;
  config.seed = 642;
  HierarchicalServer server{config, make_strategy, test, models::ClassifierArch::Mlp,
                            geometry};
  const std::uint16_t port = server.shard_port(0);

  fl::Client honest{0,        train,    partition[0], client_config(true),
                    models::ClassifierArch::Mlp, geometry, cvae_spec(), 643};
  std::thread honest_thread{[&] { (void)run_remote_client("127.0.0.1", port, honest); }};
  std::thread hostile_thread{[&] {
    TcpStream stream = TcpStream::connect("127.0.0.1", port);
    stream.set_receive_timeout(std::chrono::milliseconds{60000});
    stream.send_message({MessageType::Hello, encode_hello(1)});
    for (;;) {
      Message message;
      try {
        message = stream.receive_message();
      } catch (const std::exception&) {
        break;  // the server closed the link at teardown
      }
      if (message.type != MessageType::RoundRequest) break;
      const RoundRequest request = decode_round_request(message.payload);
      RoundReply reply;
      reply.round = request.round;
      reply.update.client_id = 1;
      reply.update.num_samples = 10;
      reply.update.psi = request.global_parameters;
      reply.update.theta.assign(theta_dim - 1, 0.0f);
      stream.send_message({MessageType::RoundReply, encode_round_reply(reply)});
    }
  }};
  const fl::RunHistory history = server.run();
  honest_thread.join();
  hostile_thread.join();

  ASSERT_EQ(history.rounds.size(), 1u);
  EXPECT_EQ(history.rounds[0].sampled_clients, 2u);
  EXPECT_EQ(history.rounds[0].corrupt_frames, 1u);
  EXPECT_EQ(history.rounds[0].dropouts + history.rounds[0].timeouts, 0u);
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
