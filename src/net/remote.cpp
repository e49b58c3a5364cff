#include "net/remote.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "net/telemetry_relay.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fedguard::net {

using std::chrono::milliseconds;

namespace {

TcpStream connect_with_backoff(const std::string& host, std::uint16_t port,
                               std::size_t attempts, std::size_t backoff_ms) {
  std::size_t backoff = std::max<std::size_t>(backoff_ms, 1);
  for (std::size_t attempt = 1;; ++attempt) {
    try {
      return TcpStream::connect(host, port);
    } catch (const std::exception&) {
      if (attempt >= attempts) throw;
      std::this_thread::sleep_for(milliseconds{static_cast<std::int64_t>(backoff)});
      backoff = std::min<std::size_t>(backoff * 2, 2000);
    }
  }
}

}  // namespace

std::size_t run_remote_client(const std::string& host, std::uint16_t port,
                              fl::Client& client, const RemoteClientOptions& options) {
  FaultInjector* faults = options.faults;
  if (faults && faults->never_connects(client.id())) {
    faults->record(FaultKind::NeverConnect);
    return 0;
  }
  TcpStream stream =
      connect_with_backoff(host, port, options.connect_attempts, options.backoff_ms);
  stream.send_message({MessageType::Hello, encode_hello(client.id())});

  // Telemetry relay: own a relay-only (no file) TraceSession so round spans
  // can be drained into TelemetryReport frames — unless the process already
  // has a session (in-process harness sharing the server's), whose events we
  // must not steal.
  std::unique_ptr<obs::TraceSession> relay_session;
  obs::CounterDeltaTracker delta_tracker;
  if (options.relay_telemetry && !obs::TraceSession::active()) {
    relay_session = std::make_unique<obs::TraceSession>(std::string{});
    relay_session->set_pid(static_cast<int>(::getpid()));
  }
  auto send_telemetry = [&](std::uint64_t round, std::uint64_t trace_id) {
    if (!relay_session) return;
    const TelemetryFrame report = build_telemetry_report(
        *relay_session, static_cast<std::uint32_t>(::getpid()),
        static_cast<std::uint32_t>(client.id()), round, trace_id,
        delta_tracker.take(obs::Registry::global()));
    if (report.events.empty() && report.counter_deltas.empty()) return;
    try {
      stream.send_all(
          encode_frame({MessageType::TelemetryReport, encode_telemetry_report(report)}));
    } catch (const std::exception&) {
      // Best-effort by contract: a lost report never affects the federation;
      // a genuinely dead link surfaces at the next receive.
    }
  };

  std::size_t reconnects_left = options.reconnect_attempts;
  // Rejoin after a lost link: reconnect + re-Hello with doubling backoff.
  // Gives up (returns false) once the retry budget is spent — e.g. when the
  // federation has ended and the server refuses connections.
  auto rejoin = [&]() -> bool {
    std::size_t backoff = std::max<std::size_t>(options.backoff_ms, 1);
    while (reconnects_left > 0) {
      --reconnects_left;
      std::this_thread::sleep_for(milliseconds{static_cast<std::int64_t>(backoff)});
      backoff = std::min<std::size_t>(backoff * 2, 2000);
      try {
        stream = TcpStream::connect(host, port);
        stream.send_message({MessageType::Hello, encode_hello(client.id())});
        return true;
      } catch (const std::exception&) {
      }
    }
    return false;
  };

  std::size_t rounds_served = 0;
  for (;;) {
    Message message;
    try {
      message = stream.receive_message();
    } catch (const std::exception&) {
      if (!rejoin()) return rounds_served;
      continue;
    }
    if (message.type == MessageType::Shutdown) break;
    if (message.type != MessageType::RoundRequest) {
      throw std::runtime_error{"run_remote_client: unexpected message"};
    }
    const RoundRequest request = decode_round_request(message.payload);
    // Adopt the server's trace context for the round's work: every span below
    // (per-layer training included) gets stamped with the federation-wide id.
    obs::set_trace_context(
        {request.trace_id, request.parent_span, request.round});
    const FaultKind fault =
        faults ? faults->decide(client.id(), request.round) : FaultKind::None;
    if (fault == FaultKind::Drop) {
      // Crash-before-work: no training, no reply; the server's round
      // deadline expires. Matches the in-process straggler semantics (a
      // straggler never runs its round).
      faults->record(FaultKind::Drop);
      continue;
    }

    defenses::ClientUpdate update =
        client.run_round(request.global_parameters, request.round);
    if (!request.want_decoder) update.theta.clear();  // don't ship unused θ
    RoundReply reply;
    reply.round = request.round;
    reply.trace_id = request.trace_id;
    // Honor the server's ψ codec offer unless this client is configured as a
    // legacy fp32 uploader; a nonsense chunk offer falls back to the default
    // rather than failing the encode.
    reply.psi_codec = options.force_fp32 ? util::WireCodec::Fp32 : request.psi_codec;
    reply.psi_chunk =
        request.psi_chunk == 0 ? util::kDefaultQ8ChunkSize : request.psi_chunk;
    reply.update = std::move(update);
    const std::vector<std::byte> frame =
        encode_frame({MessageType::RoundReply, encode_round_reply(reply)});

    switch (fault) {
      case FaultKind::None:
        // Telemetry travels first so the aggregator can fold this round's
        // client spans while merging this round (reply order is irrelevant
        // to correctness — both frames share the link FIFO).
        send_telemetry(request.round, request.trace_id);
        stream.send_all(frame);
        ++rounds_served;
        break;
      case FaultKind::Delay:
        faults->record(FaultKind::Delay);
        std::this_thread::sleep_for(
            milliseconds{static_cast<std::int64_t>(faults->plan().delay_ms)});
        send_telemetry(request.round, request.trace_id);
        stream.send_all(frame);
        ++rounds_served;
        break;
      case FaultKind::BitFlip: {
        faults->record(FaultKind::BitFlip);
        std::vector<std::byte> corrupted = frame;
        const std::size_t payload_bits = (frame.size() - kFrameHeaderBytes) * 8;
        const std::size_t bit =
            faults->corrupt_bit(client.id(), request.round, payload_bits);
        corrupted[kFrameHeaderBytes + bit / 8] ^=
            std::byte{static_cast<unsigned char>(1u << (bit % 8))};
        stream.send_all(corrupted);
        break;
      }
      case FaultKind::Truncate: {
        faults->record(FaultKind::Truncate);
        const std::size_t keep =
            kFrameHeaderBytes + (frame.size() - kFrameHeaderBytes) / 2;
        stream.send_all(std::span<const std::byte>{frame.data(), keep});
        stream.close();
        if (!rejoin()) return rounds_served;
        break;
      }
      case FaultKind::Disconnect: {
        faults->record(FaultKind::Disconnect);
        stream.send_all(std::span<const std::byte>{frame.data(), kFrameHeaderBytes / 2});
        stream.close();
        if (!rejoin()) return rounds_served;
        break;
      }
      case FaultKind::NeverConnect:
      case FaultKind::Drop:
        break;  // handled above; unreachable
    }
  }
  return rounds_served;
}

std::size_t run_remote_client(const std::string& host, std::uint16_t port,
                              fl::Client& client) {
  return run_remote_client(host, port, client, RemoteClientOptions{});
}

}  // namespace fedguard::net
