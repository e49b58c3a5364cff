#pragma once
// Minimal HTTP/1.0 exposition responder for live scraping of a running
// federation. This is deliberately transport-free: it parses a buffered
// request prefix and builds complete response byte strings. The one host is
// net::TelemetryHttpServer, a process's single /metrics listener; the parser
// is the only code that reads HTTP bytes from outside the process.
//
// Served endpoints (anything else is a 404):
//   GET /metrics        Registry::prometheus_text()
//   GET /metrics.json   Registry::json_snapshot() (incl. p50/p90/p99)
//   GET /healthz        round progress + degraded-shard count JSON
//
// Scope: HTTP/1.0, GET/HEAD only, request headers ignored, response always
// closes the connection. That is exactly what `curl` and a Prometheus scrape
// need and nothing more; see docs/OBSERVABILITY.md § Live scrape endpoints.

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <string_view>

namespace fedguard::obs {

/// Hard ceiling on the request line, terminator included; a scraper that
/// exceeds it is treated as garbage and dropped, so a misbehaving peer costs
/// the listener at most this much buffer.
inline constexpr std::size_t kMaxHttpRequestBytes = 4096;

/// Body producers for the scrape endpoints. Callbacks run on the serving
/// thread mid-round: they must be safe to call while the federation runs —
/// Registry expositions already are (registry mutex), and healthz sources
/// read counters the same way.
struct HttpResponder {
  std::function<std::string()> metrics_text;  // GET /metrics
  std::function<std::string()> metrics_json;  // GET /metrics.json
  std::function<std::string()> healthz;       // GET /healthz
};

enum class HttpParseStatus {
  NeedMore,  // request line incomplete, keep reading
  Ready,     // request line parsed; `method` and `path` are valid
  Bad,       // not HTTP / oversized / unsupported method — drop the peer
};

enum class HttpMethod { Get, Head };

struct HttpRequest {
  HttpParseStatus status = HttpParseStatus::NeedMore;
  HttpMethod method = HttpMethod::Get;
  std::string path;
};

/// Parse the request line out of buffered bytes. Accepts "GET <path>
/// HTTP/1.x" and HEAD; the response is written as soon as the request line
/// is complete (headers that follow are irrelevant to a scrape and the
/// HTTP/1.0 close semantics make that safe). A request line that does not
/// fit in `max_request_bytes`, terminator included, is Bad.
[[nodiscard]] HttpRequest parse_http_request(
    std::span<const std::byte> data,
    std::size_t max_request_bytes = kMaxHttpRequestBytes);

/// Build a complete HTTP/1.0 response (status line + headers + body).
[[nodiscard]] std::string http_response(int status_code,
                                        std::string_view content_type,
                                        std::string_view body);

/// Route `request.path` through the responder: 200 with the endpoint body,
/// 404 for unknown paths, 503 when the endpoint's callback is not wired. A
/// HEAD request gets the same status line and headers (Content-Length
/// included) and no body (RFC 9110 §9.3.2).
[[nodiscard]] std::string http_response_for(const HttpResponder& responder,
                                            const HttpRequest& request);

/// Standard /healthz body derived from the global registry: round progress
/// from `rounds_counter`, degradation from `degraded_counter` (either may be
/// empty when the host has no such notion — the field is then omitted).
[[nodiscard]] std::string healthz_json(const std::string& rounds_counter,
                                       const std::string& degraded_counter);

}  // namespace fedguard::obs
