#pragma once
// Epoll-based non-blocking event loop: one thread holds thousands of framed
// TCP connections (the shard tier of the hierarchical topology, and the
// simulated-client harness in bench_reactor).
//
// Per connection the reactor runs a read state machine over the CRC-framed
// wire protocol (net/message.hpp): header bytes -> decode_frame_header ->
// payload bytes -> verify_payload_crc -> on_message. It speaks frames only:
// any other bytes, an HTTP request included, die by the frame rules
// (BadMagic); live /metrics has its own port (net::TelemetryHttpServer).
// Reads are edge-triggered (EPOLLET) and drained until WouldBlock via
// TcpStream::read_some, so a readiness edge is never lost; writes go through
// per-connection queues whose EPOLLOUT interest is armed only while bytes are
// pending. The listening socket stays level-triggered: under descriptor
// exhaustion (EMFILE) a pending peer must be re-offered on the next cycle
// instead of silently dropped.
//
// Threading: the reactor is single-threaded by design — every method must be
// called from the thread that runs poll_once(), except wake(), which any
// thread may use (eventfd) to interrupt a blocked poll_once. Cross-thread
// work is handed over through the owner's own mailbox (see ShardAggregator).

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/message.hpp"
#include "net/socket.hpp"

namespace fedguard::net {

class Reactor {
 public:
  using ConnectionId = std::uint64_t;

  struct Callbacks {
    /// A listener connection was accepted and registered.
    std::function<void(ConnectionId)> on_accept;
    /// A complete, CRC-verified frame arrived.
    std::function<void(ConnectionId, Message&&)> on_message;
    /// The connection is gone (peer close, fatal decode, close_connection,
    /// idle sweep). Fired exactly once per registered connection; an EOF
    /// mid-payload first fires on_decode_error(Truncated), a reset does not.
    std::function<void(ConnectionId)> on_close;
    /// A frame failed to decode. Return true to keep the connection (only
    /// honoured for BadCrc/BadShape, where the byte stream is still in
    /// sync); false — or no callback — drops it.
    std::function<bool(ConnectionId, const DecodeError&)> on_decode_error;
  };

  explicit Reactor(Callbacks callbacks);
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Accept new connections from `listener` during poll_once. The listener
  /// is borrowed (must outlive the reactor or be detached via stop_listening)
  /// and is switched to non-blocking mode.
  void listen(TcpListener& listener);
  /// Stop accepting (deregisters the listener; existing connections live on).
  void stop_listening();

  /// Adopt an already-connected stream (client-side reuse: the bench drives
  /// thousands of outbound sockets through one reactor). The stream is
  /// switched to non-blocking mode. on_accept is NOT fired for adopted
  /// connections — the caller already knows the id.
  ConnectionId add_connection(TcpStream stream);

  /// Run one epoll cycle: wait up to `timeout` for events, dispatch
  /// callbacks inline, return the number of events handled. A wake() or any
  /// socket readiness returns early.
  std::size_t poll_once(std::chrono::milliseconds timeout);

  /// Queue one framed message for `id`; bytes drain as the socket accepts
  /// them. Returns false when the connection is unknown (already closed).
  bool send(ConnectionId id, const Message& message);

  /// Deregister + close a connection (fires on_close). Unknown ids are a
  /// no-op, so callers may close from inside callbacks without bookkeeping.
  void close_connection(ConnectionId id);
  /// close_connection for every registered connection.
  void close_all();

  [[nodiscard]] std::size_t connection_count() const noexcept {
    return connections_.size();
  }
  /// Bytes queued but not yet written, across all connections.
  [[nodiscard]] std::size_t pending_write_bytes() const noexcept;

  /// Close connections with no read/write activity for longer than
  /// `max_idle` (slow-client policy); returns how many were closed.
  std::size_t sweep_idle(std::chrono::milliseconds max_idle);

  /// Interrupt a blocked poll_once from another thread. Safe to call from
  /// any thread; all other methods are reactor-thread-only.
  void wake();

 private:
  struct Connection {
    TcpStream stream;
    enum class ReadState { Header, Payload } read_state = ReadState::Header;
    std::vector<std::byte> read_buffer;
    std::size_t read_pos = 0;
    FrameHeader header{};
    std::deque<std::vector<std::byte>> write_queue;
    std::size_t write_offset = 0;  // bytes of write_queue.front() already sent
    bool write_armed = false;      // EPOLLOUT currently registered
    std::chrono::steady_clock::time_point last_activity;
  };

  ConnectionId register_connection(TcpStream stream);
  void accept_pending();
  void handle_readable(ConnectionId id);
  void handle_writable(ConnectionId id);
  /// Advance the frame state machine once read_buffer is full. Returns false
  /// when the connection was dropped.
  bool advance_frame(ConnectionId id, Connection& connection);
  /// Complete-payload continuation: verify CRC, deliver, reset to Header.
  bool advance_frame_payload_done(ConnectionId id, Connection& connection);
  void flush_writes(ConnectionId id, Connection& connection);
  void arm_writes(Connection& connection, int fd, ConnectionId id, bool enabled);
  void drop(ConnectionId id);
  /// The peer closed (EOF): report a half-received frame as Truncated, drop.
  void drop_peer(ConnectionId id);

  Callbacks callbacks_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd; the only cross-thread touchpoint
  TcpListener* listener_ = nullptr;
  ConnectionId next_id_ = kFirstConnectionId;
  std::unordered_map<ConnectionId, Connection> connections_;
  std::vector<ConnectionId> scratch_ids_;  // sweep/close iteration scratch

  static constexpr ConnectionId kListenerTag = 0;
  static constexpr ConnectionId kWakeTag = 1;
  static constexpr ConnectionId kFirstConnectionId = 2;
};

}  // namespace fedguard::net
