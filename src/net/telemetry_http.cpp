#include "net/telemetry_http.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/logging.hpp"

namespace fedguard::net {

namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

/// How often the serving thread looks at stop_ while no scraper connects.
constexpr milliseconds kAcceptLap{200};

milliseconds until(Clock::time_point deadline) {
  return std::chrono::duration_cast<milliseconds>(deadline - Clock::now());
}

}  // namespace

TelemetryHttpServer::TelemetryHttpServer(std::uint16_t port,
                                         obs::HttpResponder responder)
    : listener_{port}, responder_{std::move(responder)} {
  thread_ = std::thread{[this] { serve(); }};
}

TelemetryHttpServer::~TelemetryHttpServer() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

void TelemetryHttpServer::serve() {
  while (!stop_.load(std::memory_order_acquire)) {
    try {
      std::optional<TcpStream> stream = listener_.accept_within(kAcceptLap);
      if (stream) exchange(*stream);
    } catch (const std::exception& error) {
      // Scraping must never take the host down: log and keep serving.
      util::log_warn("telemetry-http: %s", error.what());
    }
  }
}

void TelemetryHttpServer::exchange(TcpStream& stream) const {
  // SO_RCVTIMEO alone re-arms on every byte, so a trickling peer could hold
  // the thread indefinitely; the read loop checks one deadline instead.
  const Clock::time_point deadline = Clock::now() + kExchangeDeadline;
  // Once the buffer is full the parser answers Ready or Bad, never NeedMore,
  // so read_some below always gets a non-empty span.
  std::vector<std::byte> buffer(obs::kMaxHttpRequestBytes);
  std::size_t received = 0;
  obs::HttpRequest request;
  for (;;) {
    request = obs::parse_http_request({buffer.data(), received});
    if (request.status != obs::HttpParseStatus::NeedMore) break;
    const milliseconds left = until(deadline);
    if (left.count() <= 0 || !stream.wait_readable(left)) {
      throw SocketTimeout{"request line not received within the exchange deadline"};
    }
    std::size_t transferred = 0;
    const std::span<std::byte> rest{buffer.data() + received, buffer.size() - received};
    if (stream.read_some(rest, transferred) != IoStatus::Ready) {
      throw ConnectionClosed{"peer closed before finishing its request line"};
    }
    received += transferred;
  }
  if (request.status == obs::HttpParseStatus::Bad) {
    throw std::runtime_error{"dropped a malformed or oversized request"};
  }
  const std::string response = obs::http_response_for(responder_, request);
  stream.set_send_timeout(std::max(until(deadline), milliseconds{1}));
  stream.send_all(std::as_bytes(std::span{response.data(), response.size()}));
}

obs::HttpResponder make_registry_responder(const std::string& rounds_counter,
                                           const std::string& degraded_counter) {
  obs::HttpResponder responder;
  responder.metrics_text = [] {
    return obs::Registry::global().prometheus_text();
  };
  responder.metrics_json = [] { return obs::Registry::global().json_snapshot(); };
  responder.healthz = [rounds_counter, degraded_counter] {
    return obs::healthz_json(rounds_counter, degraded_counter);
  };
  return responder;
}

}  // namespace fedguard::net
