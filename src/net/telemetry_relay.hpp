#pragma once
// Telemetry relay helpers: the producer/consumer sides of the
// MessageType::TelemetryReport frame. At each round boundary a client (or any
// lower tier) drains its trace buffers and counter deltas into a
// TelemetryFrame; the receiving aggregator rebases the events into its own
// clock domain and folds them into the active TraceSession plus the global
// Registry, which is how one root process ends up owning a merged,
// Perfetto-loadable timeline with a pid lane per federation process.
//
// Clock contract: peer processes do not share a steady_clock origin, so
// reports carry rel_ts_ns relative to the report's own earliest event, and
// ingestion anchors the window so that it ENDS at the frame's arrival time —
// an approximation (ignores network latency) that keeps remote spans a few
// microseconds early rather than in a wrong clock domain entirely.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/message.hpp"
#include "obs/trace.hpp"

namespace fedguard::net {

/// Producer side: drain `session` (take_events) and package everything into
/// one report. `counter_deltas` is typically obs::CounterDeltaTracker::take.
/// Only events stamped with `trace_id` context survive the session unchanged;
/// events recorded outside any round still relay (trace_id 0 in their args).
[[nodiscard]] TelemetryFrame build_telemetry_report(
    obs::TraceSession& session, std::uint32_t sender_pid,
    std::uint32_t sender_id, std::uint64_t round, std::uint64_t trace_id,
    std::vector<std::pair<std::string, std::uint64_t>> counter_deltas);

/// Rebase a report's relative timestamps into this process's now_ns() domain
/// so the relayed window ends at `arrival_ns`. Exposed separately from
/// ingest_telemetry_report for the correlation tests.
[[nodiscard]] std::vector<obs::TraceEventRecord> rebase_telemetry_events(
    const TelemetryFrame& report, std::uint64_t arrival_ns);

/// "name{origin=\"c<id>\"}" (splicing into an existing label block when the
/// reporter's counter already carries one): relayed counters must never
/// collide with the aggregator's local instruments.
[[nodiscard]] std::string with_origin_label(const std::string& name,
                                            std::uint32_t sender_id);

/// Consumer side: rebase + ingest the report's events into the active
/// TraceSession (no-op without one) and re-register its counter deltas under
/// an origin label. A delta whose name is not a Prometheus series
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`, optionally one `{k="v",...}` block whose
/// values hold no `"`, `\` or newline) is dropped and counted in
/// net_telemetry_dropped_names_total: the name reaches the exposition raw.
/// Returns the number of trace events ingested.
std::size_t ingest_telemetry_report(const TelemetryFrame& report,
                                    std::uint64_t arrival_ns);

}  // namespace fedguard::net
