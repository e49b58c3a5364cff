#pragma once
// The process's one live-scrape server: a TcpListener and one thread serving
// the obs::HttpResponder endpoints (/metrics, /metrics.json, /healthz) on a
// dedicated port. Every host uses it — the in-process fl::Server simulation
// and the HierarchicalServer root, whose shards run in the same process and
// so already appear on the root's /metrics as {shard="i"} series. Federation
// data ports speak frames only.
//
// The serving thread only ever touches the registry expositions (thread-safe
// by the Registry contract), so starting one alongside a running federation
// is free of coordination: construct it after the exporter exists, destroy
// it before teardown. Exchanges are one-shot HTTP/1.0, served one at a time;
// each is bounded by a whole-exchange deadline, so a peer that stalls or
// trickles costs later scrapers at most that long. Any other peer, a
// federation client speaking FGNM frames included, fails the request parse
// or the deadline and is dropped without an answer.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "net/socket.hpp"
#include "obs/http_exposition.hpp"

namespace fedguard::net {

class TelemetryHttpServer {
 public:
  /// Bind `port` (0 = ephemeral, see port()) and start the serving thread.
  /// Throws std::runtime_error when the port cannot be bound.
  TelemetryHttpServer(std::uint16_t port, obs::HttpResponder responder);
  /// Stops the serving thread and closes the listener.
  ~TelemetryHttpServer();

  TelemetryHttpServer(const TelemetryHttpServer&) = delete;
  TelemetryHttpServer& operator=(const TelemetryHttpServer&) = delete;

  /// The actually bound port.
  [[nodiscard]] std::uint16_t port() const noexcept { return listener_.port(); }

  /// Bound on one whole exchange, request read and response write together;
  /// also the longest a stalled or trickling peer delays the next scraper.
  static constexpr std::chrono::milliseconds kExchangeDeadline{2000};

 private:
  void serve();
  void exchange(TcpStream& stream) const;

  TcpListener listener_;
  obs::HttpResponder responder_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// The default responder most hosts want: global-registry expositions plus a
/// healthz derived from the given progress counters (either may be "" to
/// omit that healthz field).
[[nodiscard]] obs::HttpResponder make_registry_responder(
    const std::string& rounds_counter, const std::string& degraded_counter);

}  // namespace fedguard::net
