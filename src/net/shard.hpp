#pragma once
// Socket federation (the paper's deployment shape, §IV-E, and its two-tier
// extension): edge ShardAggregators each own a client cohort on their own
// reactor thread and partially aggregate uploads as they arrive; a root
// HierarchicalServer admits clients, samples, fans the round out to the
// shards, merges their ShardPartials through the strategy's
// mergeable-accumulator seam, applies the server learning rate, and
// evaluates. The single-tier federation is the same server with shards = 1.
// docs/SHARDING.md has the topology diagram and the exact-merge vs
// metadata-routing contract; docs/ROBUSTNESS.md has the fault model.
//
// Client ownership is contiguous by id: client c of N belongs to shard
// floor(c*S/N) and connects to that shard's port, speaking the
// Hello/RoundRequest/RoundReply protocol of run_remote_client. Within a
// shard, round cohort slots follow the root's sample order, and exact
// strategies (FedAvg) fold replies into the partial in ascending slot order
// as they land (dynamic batching, no per-round barrier), so the streamed fold
// is bit-identical to the batch fold.
//
// Fault policy: the accept phase has a deadline (proceed with >= min_clients
// or fail loudly) and then admission closes — only admitted, non-ejected ids
// may Hello again (rejoin). Each round a shard classifies every cohort slot
// that does not fill: no reply by the deadline is a timeout; a corrupt reply
// frame (bad CRC, bad shape, truncated payload) is a corrupt frame; a lost
// link (close mid-header, failed send, no live link) is a dropout. A client
// that fails eject_after_failures rounds in a row is ejected and leaves the
// sampling universe. At each round boundary the root waits a bounded time
// for lost clients to rejoin. The tallies travel to the root with the
// partial, and the root writes them into RoundRecord and the net_* counters.
//
// Threading: each shard runs one reactor thread; the root communicates
// through a mutex-guarded mailbox (start_round / stop) plus Reactor::wake,
// and collects reports with a deadline-bounded condition-variable wait.
// A shard that dies (kill) or misses the deadline simply contributes an
// empty partial — the root merges whatever arrived (graceful degradation).

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "data/dataset.hpp"
#include "defenses/aggregation.hpp"
#include "fl/metrics.hpp"
#include "models/classifier.hpp"
#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "net/telemetry_http.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/thread_annotations.hpp"

namespace fedguard::net {

struct ShardConfig {
  std::size_t shard_id = 0;
  /// Client ids this shard owns, [first_client, last_client); others are refused.
  int first_client = 0;
  int last_client = 0;
  /// Data port (0 = ephemeral, read back via ShardAggregator::port()).
  std::uint16_t port = 0;
  /// Reactor cycle length; bounds command-pickup latency.
  std::chrono::milliseconds poll_timeout{20};
  /// Per-round reply-collection deadline; the shard publishes whatever
  /// arrived when it expires.
  std::chrono::milliseconds round_timeout{30000};
  /// Close connections idle longer than this between rounds (0 = never).
  std::chrono::milliseconds idle_timeout{0};
  /// Failed rounds in a row before ejection (0 = never); the root sets it.
  std::size_t eject_after_failures = 0;
  /// Kernel accept backlog: shards absorb hundreds of near-simultaneous
  /// joins at federation start.
  int listen_backlog = 1024;
  /// Dedicated live-scrape port (0 = none). Either way the data port also
  /// answers HTTP scrapes — the reactor auto-detects GET/HEAD prefixes.
  std::uint16_t http_port = 0;
};

/// One shard's round outcome, handed to the root in one mailbox hop: the
/// partial plus the round's fault and traffic tallies over its cohort.
struct ShardRoundReport {
  defenses::ShardPartial partial;
  std::size_t dropouts = 0;
  std::size_t timeouts = 0;
  std::size_t corrupt_frames = 0;
  std::size_t rejected_malicious = 0;
  std::size_t rejected_benign = 0;
  std::size_t upload_bytes = 0;    // RoundRequest frames, header included
  std::size_t download_bytes = 0;  // RoundReply frames, header included

  /// Zeroes every tally, keeping buffer capacity for round reuse.
  void clear() noexcept;
};

/// Edge aggregator: owns a listener + reactor + one cohort of clients and a
/// private strategy instance (thread confinement — strategies keep scratch).
class ShardAggregator {
 public:
  ShardAggregator(ShardConfig config,
                  std::unique_ptr<defenses::AggregationStrategy> strategy);
  ~ShardAggregator();
  ShardAggregator(const ShardAggregator&) = delete;
  ShardAggregator& operator=(const ShardAggregator&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return listener_.port(); }
  [[nodiscard]] std::size_t shard_id() const noexcept { return config_.shard_id; }

  /// Distinct client ids admitted so far (the root's accept gate).
  [[nodiscard]] std::size_t registered_clients() const;
  [[nodiscard]] bool alive() const;

  /// End the accept phase: from now on only admitted, non-ejected ids may
  /// (re)join. Appends the admitted ids to `admitted`.
  void close_admission(std::vector<int>& admitted);
  /// Block until every admitted, non-ejected client has a live link, the
  /// shard dies, or `deadline` passes (the round-boundary rejoin window).
  void await_rejoins(std::chrono::steady_clock::time_point deadline);
  /// Move the ids ejected since the last call onto `out` (outside the round
  /// report, so ejections survive a report that missed the root deadline).
  void take_ejected(std::vector<int>& out);

  /// Fan one round out to this shard's slice of the sample. `cohort` lists
  /// the sampled client ids this shard owns, in root sample order (= cohort
  /// slot order); the pre-encoded RoundRequest payload and the raw globals
  /// (for the strategy's AggregationContext) are shared across shards.
  struct RoundCommand {
    std::size_t round = 0;
    std::vector<int> cohort;
    std::shared_ptr<const std::vector<std::byte>> request_payload;
    std::shared_ptr<const std::vector<float>> global_parameters;
    std::size_t theta_dim = 0;
  };
  void start_round(RoundCommand command);

  /// Block until this shard publishes `round`'s report or `deadline` passes.
  /// True = `out` holds the report (its partial has client_count 0 when
  /// nobody in the cohort replied).
  bool wait_report(std::chrono::steady_clock::time_point deadline, std::size_t round,
                   ShardRoundReport& out);

  /// Graceful stop: broadcast Shutdown to the cohort, close, join.
  void shutdown();
  /// Chaos stop: drop every link and the listener without a word (clients
  /// see a dead peer) and join. Idempotent, as is shutdown().
  void kill();

 private:
  enum class Command { None, Round, Shutdown, Kill };

  /// Per admitted client, reactor-thread-only.
  struct Member {
    std::size_t consecutive_failures = 0;
    bool ejected = false;
    obs::Histogram rtt;  // request -> reply latency
  };

  void thread_main();
  [[nodiscard]] Command take_command(RoundCommand& round_command);
  void begin_round(RoundCommand command);
  void handle_message(Reactor::ConnectionId connection, Message&& message);
  void handle_hello(Reactor::ConnectionId connection, const Message& message);
  void handle_close(Reactor::ConnectionId connection);
  bool handle_decode_error(Reactor::ConnectionId connection, const DecodeError& error);
  void handle_reply(Reactor::ConnectionId connection, const Message& message);
  void handle_telemetry(const Message& message);
  /// Settle a pending slot that will not fill this round: count the fault
  /// into `tally` and advance the client's failure streak.
  void fail_slot(Reactor::ConnectionId connection, std::size_t& tally);
  void fail_client(int client_id);
  void publish_links();
  void fold_ready_rows();
  void finish_round_if_done();
  void publish_partial();
  void stop(bool graceful);

  ShardConfig config_;
  std::unique_ptr<defenses::AggregationStrategy> strategy_;
  TcpListener listener_;
  std::unique_ptr<TcpListener> http_listener_;  // ShardConfig::http_port != 0
  Reactor reactor_;

  // ---- Reactor-thread-only state (no locks needed) ---------------------------
  std::unordered_map<int, Member> members_;
  std::size_t ejected_count_ = 0;
  std::unordered_map<int, Reactor::ConnectionId> client_connections_;
  std::unordered_map<Reactor::ConnectionId, int> connection_clients_;
  bool in_round_ = false;
  RoundCommand round_command_;
  std::chrono::steady_clock::time_point round_deadline_;
  std::uint64_t round_sent_ns_ = 0;
  defenses::UpdateMatrix arena_;
  std::unordered_map<Reactor::ConnectionId, std::size_t> pending_slots_;
  std::vector<bool> slot_filled_;
  std::size_t next_fold_ = 0;  // exact path: first unfolded slot
  bool exact_ = false;
  ShardRoundReport building_;
  std::vector<std::size_t> filled_slots_;  // selection scratch (metadata path)
  std::vector<Reactor::ConnectionId> scratch_connection_ids_;  // stop() iteration

  // ---- Root <-> shard mailbox ----------------------------------------------
  mutable util::Mutex mutex_;
  util::CondVar cv_;
  Command command_ FEDGUARD_GUARDED_BY(mutex_) = Command::None;
  RoundCommand pending_round_ FEDGUARD_GUARDED_BY(mutex_);
  bool admission_open_ FEDGUARD_GUARDED_BY(mutex_) = true;
  std::vector<int> admitted_ FEDGUARD_GUARDED_BY(mutex_);
  std::size_t lost_ FEDGUARD_GUARDED_BY(mutex_) = 0;  // admitted, not ejected, no link
  std::vector<int> ejected_ FEDGUARD_GUARDED_BY(mutex_);  // not yet taken by the root
  bool published_ FEDGUARD_GUARDED_BY(mutex_) = false;
  std::size_t published_round_ FEDGUARD_GUARDED_BY(mutex_) = 0;
  ShardRoundReport published_report_ FEDGUARD_GUARDED_BY(mutex_);
  bool running_ FEDGUARD_GUARDED_BY(mutex_) = true;

  // Per-shard instruments (docs/OBSERVABILITY.md §net_shard_*).
  obs::Counter replies_total_;
  obs::Counter corrupt_frames_total_;
  obs::Counter rounds_total_;
  obs::Counter timeouts_total_;
  obs::Counter refused_hellos_total_;
  obs::Counter telemetry_reports_total_;
  obs::Counter telemetry_events_total_;
  obs::Gauge arena_capacity_bytes_;

  std::thread thread_;  // last member: starts after everything is built
};

struct HierarchicalServerConfig {
  std::size_t shards = 1;              // S edge aggregators (1 = single-tier)
  std::size_t expected_clients = 4;    // N, contiguously partitioned over S
  std::size_t clients_per_round = 2;   // m, sampled over all N
  std::size_t rounds = 1;
  float server_learning_rate = 1.0f;
  std::size_t eval_batch_size = 256;
  std::uint64_t seed = 1;
  /// Data port base: shard i binds port + i (0 = every shard ephemeral, read
  /// back via shard_port()).
  std::uint16_t port = 0;
  /// Accept-phase deadline: stop waiting for clients after this long.
  std::size_t accept_timeout_ms = 30000;
  /// Minimum admitted clients to start the run; 0 means "all expected".
  /// Fewer than this at the accept deadline raises std::runtime_error.
  std::size_t min_clients = 0;
  /// Per-round reply-collection deadline; sampled clients that miss it are
  /// recorded as timeouts and the round aggregates without them.
  std::size_t round_timeout_ms = 30000;
  /// Eject a client after this many consecutive failed rounds (0 = never).
  std::size_t eject_after_failures = 3;
  std::size_t reactor_poll_timeout_ms = 20;
  std::size_t reactor_idle_timeout_ms = 0;  // 0 = no idle sweep
  /// Encoding the server asks clients to use for reply ψ spans (q8 cuts the
  /// upload ~4×). Replies self-tag their codec, so a client that ignores the
  /// offer (RemoteClientOptions::force_fp32) still interoperates.
  util::WireCodec psi_codec = util::WireCodec::Fp32;
  std::size_t psi_chunk = util::kDefaultQ8ChunkSize;
  /// Live scrape base port (0 = exposition off): the root serves http_port
  /// via a standalone TelemetryHttpServer; shard i serves http_port + 1 + i
  /// on its own reactor. Shard data ports additionally auto-detect scrapes.
  std::uint16_t http_port = 0;
  /// Chaos hook: (shard, round) -> kill that shard at the round's start.
  std::function<bool(std::size_t, std::size_t)> shard_kill_predicate;
};

/// Root merger: admits clients, samples with fl::Server's rng semantics,
/// drives the shards, merges their partials, applies η, evaluates.
class HierarchicalServer {
 public:
  /// `strategy_factory` builds one private strategy instance per shard plus
  /// the root's merge instance (call count: shards + 1).
  HierarchicalServer(
      HierarchicalServerConfig config,
      const std::function<std::unique_ptr<defenses::AggregationStrategy>()>& strategy_factory,
      const data::Dataset& test_set, models::ClassifierArch arch,
      models::ImageGeometry geometry);
  ~HierarchicalServer();
  HierarchicalServer(const HierarchicalServer&) = delete;
  HierarchicalServer& operator=(const HierarchicalServer&) = delete;

  /// The shard that owns client id c (contiguous partition floor(c*S/N)).
  [[nodiscard]] std::size_t shard_of(std::size_t client_id) const noexcept;
  [[nodiscard]] std::uint16_t shard_port(std::size_t shard) const;
  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] std::size_t live_shards() const;

  /// Run the accept phase: wait until every expected client has joined (or
  /// the deadline passes with at least the minimum), then close admission
  /// and fix the sampling universe. Throws std::runtime_error when too few
  /// clients joined. Idempotent; run_round calls it if nobody did.
  void await_clients();
  [[nodiscard]] fl::RoundRecord run_round(std::size_t round);
  /// await_clients + all rounds + graceful shutdown of every shard.
  [[nodiscard]] fl::RunHistory run();

  [[nodiscard]] std::span<const float> global_parameters() const noexcept {
    return global_parameters_;
  }
  void kill_shard(std::size_t shard);

 private:
  void evaluate_round(fl::RoundRecord& record);

  HierarchicalServerConfig config_;
  std::unique_ptr<TelemetryHttpServer> http_server_;  // config.http_port != 0
  std::vector<std::unique_ptr<ShardAggregator>> shards_;
  std::unique_ptr<defenses::AggregationStrategy> merge_strategy_;
  const data::Dataset& test_set_;
  models::ImageGeometry geometry_;
  std::unique_ptr<models::Classifier> eval_classifier_;
  std::vector<float> global_parameters_;
  util::Rng rng_;
  bool admission_closed_ = false;
  /// Sorted ids admitted by the end of the accept phase, minus ejections.
  std::vector<int> universe_;
  // Round-persistent scratch.
  std::vector<std::size_t> sampled_;
  std::vector<std::vector<int>> cohorts_;
  std::vector<ShardRoundReport> reports_;
  std::vector<int> ejected_;
  std::vector<defenses::ShardPartial> partials_;
  defenses::AggregationResult result_;
  std::vector<std::size_t> eval_indices_;
  // Federation instruments (docs/OBSERVABILITY.md §net_*): the fault and
  // traffic counters advance by exactly each RoundRecord's fields.
  obs::Counter rounds_total_;
  obs::Counter degraded_rounds_total_;
  obs::Counter upload_bytes_total_;
  obs::Counter download_bytes_total_;
  obs::Counter dropouts_total_;
  obs::Counter timeouts_total_;
  obs::Counter corrupt_frames_total_;
  obs::Counter ejected_clients_total_;
  obs::Histogram round_seconds_;
};

}  // namespace fedguard::net
