#include "obs/http_exposition.hpp"

#include <exception>

#include "obs/metrics.hpp"

namespace fedguard::obs {

namespace {

std::string_view status_reason(int status_code) noexcept {
  switch (status_code) {
    case 200: return "OK";
    case 404: return "Not Found";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

std::string guarded_body(const std::function<std::string()>& producer,
                         bool& failed) {
  failed = false;
  try {
    return producer();
  } catch (const std::exception&) {
    // A scrape must never take the federation down; surface the failure to
    // the scraper instead.
    failed = true;
    return "exposition callback failed";
  }
}

}  // namespace

HttpRequest parse_http_request(std::span<const std::byte> data,
                               std::size_t max_request_bytes) {
  HttpRequest request;
  // Find the end of the request line ('\n'; a preceding '\r' is trimmed).
  // Only the first max_request_bytes can hold it: a later '\n' means the
  // line is over the cap.
  const std::size_t scan =
      data.size() < max_request_bytes ? data.size() : max_request_bytes;
  std::size_t line_end = scan;
  for (std::size_t i = 0; i < scan; ++i) {
    if (static_cast<char>(data[i]) == '\n') {
      line_end = i;
      break;
    }
  }
  if (line_end == scan) {
    request.status = data.size() >= max_request_bytes ? HttpParseStatus::Bad
                                                      : HttpParseStatus::NeedMore;
    return request;
  }
  std::string line;
  line.reserve(line_end);
  for (std::size_t i = 0; i < line_end; ++i) line += static_cast<char>(data[i]);
  if (!line.empty() && line.back() == '\r') line.pop_back();

  // METHOD SP PATH SP "HTTP/..."
  const std::size_t method_end = line.find(' ');
  if (method_end == std::string::npos) {
    request.status = HttpParseStatus::Bad;
    return request;
  }
  const std::string method = line.substr(0, method_end);
  if (method == "HEAD") {
    request.method = HttpMethod::Head;
  } else if (method != "GET") {
    request.status = HttpParseStatus::Bad;
    return request;
  }
  const std::size_t path_begin = method_end + 1;
  const std::size_t path_end = line.find(' ', path_begin);
  if (path_end == std::string::npos || path_end == path_begin ||
      line.compare(path_end + 1, 5, "HTTP/") != 0) {
    request.status = HttpParseStatus::Bad;
    return request;
  }
  request.path = line.substr(path_begin, path_end - path_begin);
  request.status = HttpParseStatus::Ready;
  return request;
}

std::string http_response(int status_code, std::string_view content_type,
                          std::string_view body) {
  std::string out;
  out.reserve(body.size() + 128);
  out += "HTTP/1.0 ";
  out += std::to_string(status_code);
  out += ' ';
  out += status_reason(status_code);
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

namespace {

/// The full GET response for `path`.
std::string route(const HttpResponder& responder, const std::string& path) {
  const std::function<std::string()>* producer = nullptr;
  std::string_view content_type = "text/plain; charset=utf-8";
  if (path == "/metrics") {
    producer = &responder.metrics_text;
  } else if (path == "/metrics.json") {
    producer = &responder.metrics_json;
    content_type = "application/json";
  } else if (path == "/healthz") {
    producer = &responder.healthz;
    content_type = "application/json";
  } else {
    return http_response(404, "text/plain; charset=utf-8", "not found\n");
  }
  if (producer == nullptr || !*producer) {
    return http_response(503, "text/plain; charset=utf-8",
                         "endpoint not wired\n");
  }
  bool failed = false;
  const std::string body = guarded_body(*producer, failed);
  if (failed) return http_response(503, "text/plain; charset=utf-8", body);
  return http_response(200, content_type, body);
}

}  // namespace

std::string http_response_for(const HttpResponder& responder,
                              const HttpRequest& request) {
  std::string response = route(responder, request.path);
  if (request.method == HttpMethod::Head) {
    // Keep the status line and headers, Content-Length included.
    response.resize(response.find("\r\n\r\n") + 4);
  }
  return response;
}

std::string healthz_json(const std::string& rounds_counter,
                         const std::string& degraded_counter) {
  const Registry& registry = Registry::global();
  std::string out = "{\"status\":\"ok\"";
  if (!rounds_counter.empty()) {
    out += ",\"rounds_completed\":";
    out += std::to_string(registry.counter_value(rounds_counter));
  }
  if (!degraded_counter.empty()) {
    out += ",\"degraded_rounds\":";
    out += std::to_string(registry.counter_value(degraded_counter));
  }
  out += "}\n";
  return out;
}

}  // namespace fedguard::obs
