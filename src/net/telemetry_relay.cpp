#include "net/telemetry_relay.hpp"

#include <algorithm>
#include <string_view>

#include "obs/metrics.hpp"

namespace fedguard::net {

namespace {

/// Consume a leading `[a-zA-Z_][a-zA-Z0-9_]*` identifier, with ':' allowed
/// anywhere when `allow_colon` (metric names; label names have none).
bool take_identifier(std::string_view& text, bool allow_colon) {
  std::size_t end = 0;
  for (; end < text.size(); ++end) {
    const char c = text[end];
    const bool letter = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
                        (allow_colon && c == ':');
    if (!letter && !(end > 0 && c >= '0' && c <= '9')) break;
  }
  text.remove_prefix(end);
  return end > 0;
}

/// A Prometheus series a relay may write to the exposition verbatim: a
/// metric name, optionally followed by one non-empty `{k="v",...}` block
/// whose values hold no `"`, `\` or newline. Anything else could break out
/// of its line in prometheus_text (a peer-chosen name is written raw).
bool is_relayable_series_name(std::string_view text) {
  if (!take_identifier(text, true)) return false;
  if (text.empty()) return true;
  if (text.front() != '{') return false;
  text.remove_prefix(1);
  for (;;) {
    if (!take_identifier(text, false) || text.size() < 2 || text[0] != '=' ||
        text[1] != '"') {
      return false;
    }
    text.remove_prefix(2);
    const std::size_t close = text.find_first_of("\"\\\n");
    if (close == std::string_view::npos || text[close] != '"') return false;
    text.remove_prefix(close + 1);
    if (text == "}") return true;
    if (text.empty() || text.front() != ',') return false;
    text.remove_prefix(1);
  }
}

}  // namespace

TelemetryFrame build_telemetry_report(
    obs::TraceSession& session, std::uint32_t sender_pid,
    std::uint32_t sender_id, std::uint64_t round, std::uint64_t trace_id,
    std::vector<std::pair<std::string, std::uint64_t>> counter_deltas) {
  TelemetryFrame report;
  report.sender_pid = sender_pid;
  report.sender_id = sender_id;
  report.round = round;
  report.trace_id = trace_id;
  report.counter_deltas = std::move(counter_deltas);

  std::vector<obs::TraceEventRecord> events = session.take_events();
  if (!events.empty()) {
    std::uint64_t epoch = events.front().ts_ns;
    for (const obs::TraceEventRecord& event : events) {
      epoch = std::min(epoch, event.ts_ns);
    }
    report.events.reserve(events.size());
    for (obs::TraceEventRecord& event : events) {
      TelemetrySpanEvent wire;
      wire.name = std::move(event.name);
      wire.category = std::move(event.category);
      wire.rel_ts_ns = event.ts_ns - epoch;
      wire.trace_id = event.trace_id;
      wire.round = event.round;
      wire.tid = event.tid;
      wire.phase = event.phase;
      report.events.push_back(std::move(wire));
    }
  }
  return report;
}

std::vector<obs::TraceEventRecord> rebase_telemetry_events(
    const TelemetryFrame& report, std::uint64_t arrival_ns) {
  std::uint64_t max_rel = 0;
  for (const TelemetrySpanEvent& event : report.events) {
    max_rel = std::max(max_rel, event.rel_ts_ns);
  }
  // Anchor so the reporter's window ends at arrival; saturate rather than
  // wrap if the receiver's clock reads less than the window width.
  const std::uint64_t base = arrival_ns > max_rel ? arrival_ns - max_rel : 0;
  std::vector<obs::TraceEventRecord> records;
  records.reserve(report.events.size());
  for (const TelemetrySpanEvent& event : report.events) {
    obs::TraceEventRecord record;
    record.name = event.name;
    record.category = event.category;
    record.ts_ns = base + event.rel_ts_ns;
    record.trace_id = event.trace_id;
    record.round = event.round;
    record.pid = static_cast<int>(report.sender_pid);
    record.tid = event.tid;
    record.phase = event.phase;
    records.push_back(std::move(record));
  }
  return records;
}

std::string with_origin_label(const std::string& name, std::uint32_t sender_id) {
  const std::string label = "origin=\"c" + std::to_string(sender_id) + "\"";
  if (!name.empty() && name.back() == '}') {
    return name.substr(0, name.size() - 1) + "," + label + "}";
  }
  return name + "{" + label + "}";
}

std::size_t ingest_telemetry_report(const TelemetryFrame& report,
                                    std::uint64_t arrival_ns) {
  const std::vector<obs::TraceEventRecord> records =
      rebase_telemetry_events(report, arrival_ns);
  const bool ingested =
      !records.empty() && obs::ingest_into_active_session(records);
  auto& registry = obs::Registry::global();
  for (const auto& [name, delta] : report.counter_deltas) {
    if (!is_relayable_series_name(name)) {
      registry.counter("net_telemetry_dropped_names_total").add(1);
      continue;
    }
    registry.counter(with_origin_label(name, report.sender_id)).add(delta);
  }
  return ingested ? records.size() : 0;
}

}  // namespace fedguard::net
