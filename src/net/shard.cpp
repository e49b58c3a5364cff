#include "net/shard.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/telemetry_relay.hpp"
#include "obs/exporter.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace fedguard::net {

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

namespace {

/// How long a round boundary waits for lost (admitted, non-ejected) clients
/// to rejoin. A constant, not a knob: seeded chaos replays stay deterministic
/// only if every rejoin lands inside the window, and clients reconnect with
/// backoff far below it.
constexpr milliseconds kRejoinWindow{2000};

}  // namespace

void ShardRoundReport::clear() noexcept {
  partial.clear();
  dropouts = 0;
  timeouts = 0;
  corrupt_frames = 0;
  rejected_malicious = 0;
  rejected_benign = 0;
  upload_bytes = 0;
  download_bytes = 0;
}

// ---- ShardAggregator ---------------------------------------------------------

ShardAggregator::ShardAggregator(ShardConfig config,
                                 std::unique_ptr<defenses::AggregationStrategy> strategy)
    : config_{config},
      strategy_{std::move(strategy)},
      listener_{config.port, config.listen_backlog},
      reactor_{Reactor::Callbacks{
          // on_accept: nothing until the peer introduces itself with Hello.
          nullptr,
          [this](Reactor::ConnectionId id, Message&& message) {
            handle_message(id, std::move(message));
          },
          [this](Reactor::ConnectionId id) { handle_close(id); },
          [this](Reactor::ConnectionId id, const DecodeError& error) {
            return handle_decode_error(id, error);
          }}} {
  if (!strategy_) {
    throw std::invalid_argument{"ShardAggregator: null strategy"};
  }
  const std::string label = "{shard=\"" + std::to_string(config_.shard_id) + "\"}";
  auto& registry = obs::Registry::global();
  replies_total_ = registry.counter("net_shard_replies_total" + label);
  corrupt_frames_total_ = registry.counter("net_shard_corrupt_frames_total" + label);
  rounds_total_ = registry.counter("net_shard_rounds_total" + label);
  timeouts_total_ = registry.counter("net_shard_timeouts_total" + label);
  refused_hellos_total_ = registry.counter("net_shard_refused_hellos_total" + label);
  telemetry_reports_total_ = registry.counter("net_shard_telemetry_reports_total" + label);
  telemetry_events_total_ = registry.counter("net_shard_telemetry_events_total" + label);
  arena_capacity_bytes_ = registry.gauge("obs_arena_capacity_bytes" + label);
  // Live exposition: the data port always answers HTTP scrapes (the reactor
  // auto-detects them) and an optional dedicated port serves the same
  // endpoints for scrapers that must not touch the data port.
  reactor_.set_http_responder(make_registry_responder(
      "net_shard_rounds_total" + label, "net_shard_timeouts_total" + label));
  if (config_.http_port != 0) {
    http_listener_ = std::make_unique<TcpListener>(config_.http_port);
  }
  thread_ = std::thread{[this] { thread_main(); }};
}

ShardAggregator::~ShardAggregator() { kill(); }

std::size_t ShardAggregator::registered_clients() const {
  util::MutexLock lock{mutex_};
  return admitted_.size();
}

bool ShardAggregator::alive() const {
  util::MutexLock lock{mutex_};
  return running_;
}

void ShardAggregator::close_admission(std::vector<int>& admitted) {
  util::MutexLock lock{mutex_};
  admission_open_ = false;
  admitted.insert(admitted.end(), admitted_.begin(), admitted_.end());
}

void ShardAggregator::await_rejoins(Clock::time_point deadline) {
  util::MutexLock lock{mutex_};
  while (lost_ > 0 && running_) {
    const auto now = Clock::now();
    if (now >= deadline) return;
    (void)cv_.wait_for(mutex_,
                       std::chrono::duration_cast<milliseconds>(deadline - now) +
                           milliseconds{1});
  }
}

void ShardAggregator::take_ejected(std::vector<int>& out) {
  util::MutexLock lock{mutex_};
  out.insert(out.end(), ejected_.begin(), ejected_.end());
  ejected_.clear();
}

void ShardAggregator::start_round(RoundCommand command) {
  {
    util::MutexLock lock{mutex_};
    if (!running_) return;  // dead shard: the root's wait_report will time out
    command_ = Command::Round;
    pending_round_ = std::move(command);
    published_ = false;
  }
  reactor_.wake();
}

bool ShardAggregator::wait_report(Clock::time_point deadline, std::size_t round,
                                  ShardRoundReport& out) {
  util::MutexLock lock{mutex_};
  while (!(published_ && published_round_ == round)) {
    if (!running_) return false;
    const auto now = Clock::now();
    if (now >= deadline) return false;
    const auto remaining =
        std::chrono::duration_cast<milliseconds>(deadline - now) + milliseconds{1};
    (void)cv_.wait_for(mutex_, remaining);
  }
  // Swap, not move: both sides keep recycling the same buffers every round.
  std::swap(out, published_report_);
  published_ = false;
  return true;
}

void ShardAggregator::shutdown() {
  {
    util::MutexLock lock{mutex_};
    if (running_) command_ = Command::Shutdown;
  }
  reactor_.wake();
  if (thread_.joinable()) thread_.join();
}

void ShardAggregator::kill() {
  {
    util::MutexLock lock{mutex_};
    if (running_) command_ = Command::Kill;
  }
  reactor_.wake();
  if (thread_.joinable()) thread_.join();
}

void ShardAggregator::thread_main() {
  reactor_.listen(listener_);
  if (http_listener_) reactor_.listen_also(*http_listener_);
  for (;;) {
    reactor_.poll_once(config_.poll_timeout);
    RoundCommand round_command;
    switch (take_command(round_command)) {
      case Command::Round:
        begin_round(std::move(round_command));
        break;
      case Command::Shutdown:
        stop(/*graceful=*/true);
        return;
      case Command::Kill:
        stop(/*graceful=*/false);
        return;
      case Command::None:
        break;
    }
    if (in_round_) {
      finish_round_if_done();
    } else if (config_.idle_timeout.count() > 0) {
      reactor_.sweep_idle(config_.idle_timeout);
    }
  }
}

ShardAggregator::Command ShardAggregator::take_command(RoundCommand& round_command) {
  util::MutexLock lock{mutex_};
  const Command command = command_;
  if (command == Command::Round) round_command = std::move(pending_round_);
  command_ = Command::None;
  return command;
}

void ShardAggregator::begin_round(RoundCommand command) {
  FEDGUARD_TRACE_SPAN("net.shard", "begin:" + std::to_string(command.round));
  round_command_ = std::move(command);
  const std::size_t cohort_size = round_command_.cohort.size();
  const std::size_t psi_dim = round_command_.global_parameters->size();
  arena_.reset(cohort_size, psi_dim, round_command_.theta_dim);
  arena_capacity_bytes_.set(static_cast<std::int64_t>(arena_.capacity_bytes()));
  slot_filled_.assign(cohort_size, false);
  pending_slots_.clear();
  next_fold_ = 0;
  exact_ = strategy_->supports_exact_merge();
  building_.clear();
  building_.partial.shard_id = config_.shard_id;
  building_.partial.exact = exact_;
  in_round_ = true;
  round_deadline_ = Clock::now() + config_.round_timeout;

  Message request;
  request.type = MessageType::RoundRequest;
  request.payload = *round_command_.request_payload;
  for (std::size_t slot = 0; slot < cohort_size; ++slot) {
    const int client_id = round_command_.cohort[slot];
    const auto it = client_connections_.find(client_id);
    if (it == client_connections_.end() || !reactor_.send(it->second, request)) {
      // No live link, or the send failed: the slot cannot fill.
      ++building_.dropouts;
      fail_client(client_id);
      continue;
    }
    building_.upload_bytes += kFrameHeaderBytes + request.payload.size();
    pending_slots_[it->second] = slot;
  }
  round_sent_ns_ = obs::now_ns();
  finish_round_if_done();  // an entirely-absent cohort publishes immediately
}

void ShardAggregator::handle_message(Reactor::ConnectionId connection, Message&& message) {
  switch (message.type) {
    case MessageType::Hello:
      handle_hello(connection, message);
      return;
    case MessageType::RoundReply:
      handle_reply(connection, message);
      return;
    case MessageType::TelemetryReport:
      handle_telemetry(message);
      return;
    default:
      // RoundRequest/Shutdown are server->client only; a peer sending them
      // upstream is confused but harmless. Ignore.
      return;
  }
}

void ShardAggregator::handle_hello(Reactor::ConnectionId connection, const Message& message) {
  int client_id = -1;
  try {
    client_id = decode_hello(message.payload);
  } catch (const DecodeError&) {
    corrupt_frames_total_.add(1);
    reactor_.close_connection(connection);
    return;
  }
  // The root routes each sampled id to its owning shard: admit only our own.
  const bool owned = client_id >= config_.first_client && client_id < config_.last_client;
  const auto member = members_.find(client_id);
  bool admit = false;
  if (owned) {
    util::MutexLock lock{mutex_};
    if (admission_open_) {
      if (member == members_.end()) admitted_.push_back(client_id);
      admit = true;
    } else {
      admit = member != members_.end() && !member->second.ejected;
    }
  }
  if (!admit) {
    refused_hellos_total_.add(1);
    util::log_warn("shard %zu: refusing client %d (not owned, not admitted, or ejected)",
                   config_.shard_id, client_id);
    reactor_.close_connection(connection);
    return;
  }
  if (member == members_.end()) {
    members_[client_id].rtt = obs::Registry::global().histogram(
        "net_client_rtt_seconds{client=\"" + std::to_string(client_id) + "\"}");
  }
  const auto it = client_connections_.find(client_id);
  if (it != client_connections_.end() && it->second != connection) {
    // Rejoin: the newest link for an id wins; closing the stale one fires
    // on_close, which erases the old map entries before we insert the new.
    reactor_.close_connection(it->second);
  }
  client_connections_[client_id] = connection;
  connection_clients_[connection] = client_id;
  publish_links();
}

void ShardAggregator::handle_close(Reactor::ConnectionId connection) {
  // A cohort member whose link dies mid-round (close mid-header, reset) can
  // no longer answer: a dropout.
  if (pending_slots_.count(connection) != 0) fail_slot(connection, building_.dropouts);
  const auto it = connection_clients_.find(connection);
  if (it == connection_clients_.end()) return;
  client_connections_.erase(it->second);
  connection_clients_.erase(it);
  publish_links();
}

bool ShardAggregator::handle_decode_error(Reactor::ConnectionId connection,
                                          const DecodeError& error) {
  corrupt_frames_total_.add(1);
  if (pending_slots_.count(connection) != 0) {
    fail_slot(connection, building_.corrupt_frames);
  }
  // BadCrc leaves the byte stream in sync (the reactor honours keeps only for
  // BadCrc/BadShape); everything else means desync and the link drops.
  return error.code() == DecodeErrorCode::BadCrc;
}

void ShardAggregator::handle_reply(Reactor::ConnectionId connection, const Message& message) {
  if (!in_round_) return;  // a straggler answering a round we already published
  const auto pending = pending_slots_.find(connection);
  if (pending == pending_slots_.end()) return;  // not sampled, or already settled
  const std::size_t slot = pending->second;
  std::size_t reply_round = 0;
  try {
    reply_round = decode_round_reply_into(message.payload, arena_.row(slot));
  } catch (const DecodeError& error) {
    // CRC passed but the body does not fit the round: the slot fails for
    // this round. A wrong shape leaves the stream framed; anything else
    // means the peer can no longer be trusted.
    corrupt_frames_total_.add(1);
    fail_slot(connection, building_.corrupt_frames);
    if (error.code() != DecodeErrorCode::BadShape) reactor_.close_connection(connection);
    return;
  }
  building_.download_bytes += kFrameHeaderBytes + message.payload.size();
  // A delayed answer to an earlier round is real traffic but stale data:
  // keep waiting for this round's reply on the same link.
  if (reply_round != round_command_.round) return;
  pending_slots_.erase(pending);
  slot_filled_[slot] = true;
  Member& member = members_[round_command_.cohort[slot]];
  member.consecutive_failures = 0;
  member.rtt.observe(static_cast<double>(obs::now_ns() - round_sent_ns_) * 1e-9);
  replies_total_.add(1);
  if (exact_) fold_ready_rows();
}

void ShardAggregator::handle_telemetry(const Message& message) {
  // Observational-only by contract: decode failures count as corrupt traffic
  // but never touch round state or the link (the frame CRC already passed).
  TelemetryFrame report;
  try {
    report = decode_telemetry_report(message.payload);
  } catch (const DecodeError&) {
    corrupt_frames_total_.add(1);
    return;
  }
  telemetry_reports_total_.add(1);
  telemetry_events_total_.add(ingest_telemetry_report(report, obs::now_ns()));
}

void ShardAggregator::fail_slot(Reactor::ConnectionId connection, std::size_t& tally) {
  const auto pending = pending_slots_.find(connection);
  const int client_id = round_command_.cohort[pending->second];
  pending_slots_.erase(pending);  // settled: never counted twice
  ++tally;
  fail_client(client_id);
}

void ShardAggregator::fail_client(int client_id) {
  const auto it = members_.find(client_id);
  if (it == members_.end()) return;  // never admitted here: nothing to track
  Member& member = it->second;
  ++member.consecutive_failures;
  if (config_.eject_after_failures == 0 || member.ejected ||
      member.consecutive_failures < config_.eject_after_failures) {
    return;
  }
  member.ejected = true;
  ++ejected_count_;
  {
    util::MutexLock lock{mutex_};
    ejected_.push_back(client_id);
  }
  util::log_warn("shard %zu: ejecting client %d after %zu consecutive failures",
                 config_.shard_id, client_id, member.consecutive_failures);
  const auto link = client_connections_.find(client_id);
  if (link != client_connections_.end()) reactor_.close_connection(link->second);
  publish_links();
}

void ShardAggregator::publish_links() {
  // Every live link belongs to an admitted, non-ejected member.
  const std::size_t members = members_.size() - ejected_count_;
  const std::size_t live = client_connections_.size();
  {
    util::MutexLock lock{mutex_};
    lost_ = members > live ? members - live : 0;
  }
  cv_.notify_all();
}

void ShardAggregator::fold_ready_rows() {
  // Dynamic batching: fold the contiguous filled prefix the moment it grows.
  // Total fold order is ascending slot order (publish_partial folds the
  // gapped remainder the same way), which is exactly the batch fold order —
  // the bit-identity contract of fold_exact_update.
  while (next_fold_ < slot_filled_.size() && slot_filled_[next_fold_]) {
    defenses::fold_exact_update(building_.partial, arena_.psi(next_fold_),
                                arena_.meta(next_fold_));
    ++next_fold_;
  }
}

void ShardAggregator::finish_round_if_done() {
  if (!in_round_) return;
  if (!pending_slots_.empty() && Clock::now() < round_deadline_) return;
  // No reply by the deadline: a timeout. The link stays up.
  timeouts_total_.add(pending_slots_.size());
  while (!pending_slots_.empty()) {
    fail_slot(pending_slots_.begin()->first, building_.timeouts);
  }
  publish_partial();
}

void ShardAggregator::publish_partial() {
  FEDGUARD_TRACE_SPAN("net.shard", "publish:" + std::to_string(round_command_.round));
  filled_slots_.clear();
  for (std::size_t slot = 0; slot < slot_filled_.size(); ++slot) {
    if (slot_filled_[slot]) filled_slots_.push_back(slot);
  }
  defenses::ShardPartial& partial = building_.partial;
  if (exact_) {
    // Fold the slots past the first gap (ascending, same total order as the
    // batch fold). The partial already holds the contiguous prefix; exact
    // strategies reject nobody.
    for (const std::size_t slot : filled_slots_) {
      if (slot < next_fold_) continue;
      defenses::fold_exact_update(partial, arena_.psi(slot), arena_.meta(slot));
    }
  } else if (!filled_slots_.empty()) {
    const defenses::UpdateView view{arena_, filled_slots_};
    defenses::AggregationContext context;
    context.round = round_command_.round;
    context.global_parameters = *round_command_.global_parameters;
    strategy_->partial_aggregate_into(context, view, config_.shard_id, partial);
    // Detection quality of the shard-local split (the root's merge unions
    // the per-shard rejected sets, so per-shard tallies sum exactly).
    for (std::size_t k = 0; k < view.count(); ++k) {
      const defenses::UpdateMeta& meta = view.meta(k);
      if (std::find(partial.rejected_clients.begin(), partial.rejected_clients.end(),
                    meta.client_id) == partial.rejected_clients.end()) {
        continue;
      }
      ++(meta.truly_malicious ? building_.rejected_malicious : building_.rejected_benign);
    }
  }
  // (0 replies: the partial stays cleared with client_count == 0 — the root
  // skips it when merging.)
  in_round_ = false;
  rounds_total_.add(1);
  {
    util::MutexLock lock{mutex_};
    std::swap(published_report_, building_);
    published_ = true;
    published_round_ = round_command_.round;
  }
  cv_.notify_all();
}

void ShardAggregator::stop(bool graceful) {
  // Links torn down from here on are not round faults.
  in_round_ = false;
  pending_slots_.clear();
  if (graceful) {
    scratch_connection_ids_.clear();
    for (const auto& [client_id, connection] : client_connections_) {
      (void)client_id;
      scratch_connection_ids_.push_back(connection);
    }
    const Message bye{MessageType::Shutdown, {}};
    for (const Reactor::ConnectionId connection : scratch_connection_ids_) {
      (void)reactor_.send(connection, bye);
    }
    // Drain the farewell frames (bounded: peers may already be gone).
    const auto flush_deadline = Clock::now() + milliseconds{1000};
    while (reactor_.pending_write_bytes() > 0 && Clock::now() < flush_deadline) {
      reactor_.poll_once(milliseconds{10});
    }
  }
  // Every link, not only the members': a rejoin still mid-handshake must see
  // the close too, or its client would wait on a federation that has ended.
  reactor_.close_all();
  reactor_.stop_listening();
  listener_.close();  // late joiners now get ECONNREFUSED instead of queueing
  if (http_listener_) http_listener_->close();
  {
    util::MutexLock lock{mutex_};
    running_ = false;
  }
  cv_.notify_all();
}

// ---- HierarchicalServer ------------------------------------------------------

HierarchicalServer::HierarchicalServer(
    HierarchicalServerConfig config,
    const std::function<std::unique_ptr<defenses::AggregationStrategy>()>& strategy_factory,
    const data::Dataset& test_set, models::ClassifierArch arch,
    models::ImageGeometry geometry)
    : config_{config},
      test_set_{test_set},
      geometry_{geometry},
      eval_classifier_{std::make_unique<models::Classifier>(arch, geometry, config.seed)},
      rng_{config.seed} {
  if (config_.shards == 0) {
    throw std::invalid_argument{"HierarchicalServer: shards must be > 0"};
  }
  if (config_.expected_clients < config_.shards) {
    throw std::invalid_argument{
        "HierarchicalServer: expected_clients must be >= shards "
        "(every shard owns at least one client)"};
  }
  if (config_.clients_per_round == 0 ||
      config_.clients_per_round > config_.expected_clients) {
    throw std::invalid_argument{"HierarchicalServer: clients_per_round out of range"};
  }
  if (config_.min_clients > config_.expected_clients) {
    throw std::invalid_argument{"HierarchicalServer: min_clients exceeds expected_clients"};
  }
  merge_strategy_ = strategy_factory();
  if (!merge_strategy_) {
    throw std::invalid_argument{"HierarchicalServer: strategy_factory returned null"};
  }
  shards_.reserve(config_.shards);
  for (std::size_t shard = 0; shard < config_.shards; ++shard) {
    ShardConfig shard_config;
    shard_config.shard_id = shard;
    // The ids c with shard_of(c) == shard: [ceil(shard*N/S), ceil((shard+1)*N/S)).
    const std::size_t n = config_.expected_clients;
    const std::size_t s = config_.shards;
    shard_config.first_client = static_cast<int>((shard * n + s - 1) / s);
    shard_config.last_client = static_cast<int>(((shard + 1) * n + s - 1) / s);
    if (config_.port != 0) {
      shard_config.port = static_cast<std::uint16_t>(config_.port + shard);
    }
    shard_config.poll_timeout =
        milliseconds{static_cast<std::int64_t>(config_.reactor_poll_timeout_ms)};
    shard_config.round_timeout =
        milliseconds{static_cast<std::int64_t>(config_.round_timeout_ms)};
    shard_config.idle_timeout =
        milliseconds{static_cast<std::int64_t>(config_.reactor_idle_timeout_ms)};
    shard_config.eject_after_failures = config_.eject_after_failures;
    if (config_.http_port != 0) {
      shard_config.http_port =
          static_cast<std::uint16_t>(config_.http_port + 1 + shard);
    }
    shards_.push_back(std::make_unique<ShardAggregator>(shard_config, strategy_factory()));
  }
  if (config_.http_port != 0) {
    http_server_ = std::make_unique<TelemetryHttpServer>(
        config_.http_port,
        make_registry_responder("net_root_rounds_total",
                                "net_root_degraded_rounds_total"));
  }
  global_parameters_ = eval_classifier_->parameters_flat();
  auto& registry = obs::Registry::global();
  rounds_total_ = registry.counter("net_root_rounds_total");
  degraded_rounds_total_ = registry.counter("net_root_degraded_rounds_total");
  upload_bytes_total_ = registry.counter("net_upload_bytes_total");
  download_bytes_total_ = registry.counter("net_download_bytes_total");
  dropouts_total_ = registry.counter("net_dropouts_total");
  timeouts_total_ = registry.counter("net_timeouts_total");
  corrupt_frames_total_ = registry.counter("net_corrupt_frames_total");
  ejected_clients_total_ = registry.counter("net_ejected_clients_total");
  round_seconds_ = registry.histogram("net_root_round_seconds");
}

HierarchicalServer::~HierarchicalServer() {
  for (auto& shard : shards_) shard->kill();
}

std::size_t HierarchicalServer::shard_of(std::size_t client_id) const noexcept {
  return client_id * shards_.size() / config_.expected_clients;
}

std::uint16_t HierarchicalServer::shard_port(std::size_t shard) const {
  return shards_.at(shard)->port();
}

std::size_t HierarchicalServer::live_shards() const {
  std::size_t live = 0;
  for (const auto& shard : shards_) {
    if (shard->alive()) ++live;
  }
  return live;
}

void HierarchicalServer::await_clients() {
  if (admission_closed_) return;
  const std::size_t required =
      config_.min_clients == 0 ? config_.expected_clients : config_.min_clients;
  const auto deadline = Clock::now() + milliseconds{
      static_cast<std::int64_t>(config_.accept_timeout_ms)};
  for (;;) {
    std::size_t admitted = 0;
    for (const auto& shard : shards_) admitted += shard->registered_clients();
    if (admitted >= config_.expected_clients) break;
    if (Clock::now() >= deadline) {
      if (admitted >= required) break;
      throw std::runtime_error{
          "HierarchicalServer: only " + std::to_string(admitted) + " of " +
          std::to_string(config_.expected_clients) + " clients joined within " +
          std::to_string(config_.accept_timeout_ms) + " ms (minimum " +
          std::to_string(required) + ")"};
    }
    std::this_thread::sleep_for(milliseconds{10});
  }
  universe_.clear();
  for (auto& shard : shards_) shard->close_admission(universe_);
  // Sorted ids: with everyone present, draws index the same population as
  // fl::Server's, whatever order the clients joined in.
  std::sort(universe_.begin(), universe_.end());
  universe_.erase(std::unique(universe_.begin(), universe_.end()), universe_.end());
  admission_closed_ = true;
  util::log_info("hierarchical server: %zu/%zu clients admitted over %zu shard(s)",
                 universe_.size(), config_.expected_clients, shards_.size());
}

void HierarchicalServer::kill_shard(std::size_t shard) {
  util::log_warn("hierarchical server: killing shard %zu", shard);
  shards_.at(shard)->kill();
}

fl::RoundRecord HierarchicalServer::run_round(std::size_t round) {
  await_clients();
  const std::uint64_t round_start_ns = obs::now_ns();
  // Install the round's trace context before the first span so every local
  // span — and, via RoundRequest, every remote one — carries the same id.
  const std::uint64_t trace_id = obs::make_trace_id(config_.seed, round);
  obs::set_trace_context({trace_id, 0, round});
  FEDGUARD_TRACE_SPAN("net.shard", "root-round:" + std::to_string(round));
  fl::RoundRecord record;
  record.round = round;

  if (config_.shard_kill_predicate) {
    for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
      if (shards_[shard]->alive() && config_.shard_kill_predicate(shard, round)) {
        kill_shard(shard);
      }
    }
  }
  // Round boundary: clients that lost their link get one bounded window to
  // rejoin before the sample is drawn.
  const auto rejoin_deadline = Clock::now() + kRejoinWindow;
  for (auto& shard : shards_) shard->await_rejoins(rejoin_deadline);

  // Sample the surviving universe with fl::Server's rng semantics (an empty
  // universe draws nothing), then split the sample into per-shard cohorts by
  // client ownership, preserving sample order within each cohort (cohort
  // slot order == sample order, the fold-order contract).
  sampled_.clear();
  if (!universe_.empty()) {
    rng_.sample_without_replacement(
        universe_.size(), std::min(config_.clients_per_round, universe_.size()), sampled_);
  }
  record.sampled_clients = sampled_.size();
  cohorts_.resize(shards_.size());
  for (auto& cohort : cohorts_) cohort.clear();
  for (const std::size_t k : sampled_) {
    const int client = universe_[k];
    cohorts_[shard_of(static_cast<std::size_t>(client))].push_back(client);
  }

  RoundRequest request;
  request.round = round;
  request.want_decoder = merge_strategy_->wants_decoders();
  request.psi_codec = config_.psi_codec;
  request.psi_chunk = config_.psi_chunk;
  request.trace_id = trace_id;
  request.global_parameters = global_parameters_;
  const auto payload =
      std::make_shared<const std::vector<std::byte>>(encode_round_request(request));
  const auto globals = std::make_shared<const std::vector<float>>(global_parameters_);
  const std::size_t theta_dim =
      merge_strategy_->wants_decoders() ? merge_strategy_->decoder_parameter_count() : 0;

  partials_.resize(shards_.size());
  reports_.resize(shards_.size());
  std::vector<bool> dispatched(shards_.size(), false);
  bool degraded = false;
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    partials_[shard].clear();
    if (cohorts_[shard].empty()) continue;
    if (!shards_[shard]->alive()) {
      record.dropouts += cohorts_[shard].size();  // a dead shard holds no links
      degraded = true;
      continue;
    }
    ShardAggregator::RoundCommand command;
    command.round = round;
    command.cohort = cohorts_[shard];
    command.request_payload = payload;
    command.global_parameters = globals;
    command.theta_dim = theta_dim;
    shards_[shard]->start_round(std::move(command));
    dispatched[shard] = true;
  }

  // Shards publish at their own round_timeout; give them that plus slack for
  // the mailbox hop so a healthy shard never misses the root deadline.
  const auto deadline = Clock::now() +
      milliseconds{static_cast<std::int64_t>(config_.round_timeout_ms)} +
      milliseconds{static_cast<std::int64_t>(4 * config_.reactor_poll_timeout_ms) + 500};
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    if (!dispatched[shard]) continue;
    ShardRoundReport& report = reports_[shard];
    if (!shards_[shard]->wait_report(deadline, round, report)) {
      util::log_warn("hierarchical server: shard %zu missed round %zu", shard, round);
      record.timeouts += cohorts_[shard].size();
      degraded = true;
      continue;
    }
    std::swap(partials_[shard], report.partial);
    record.dropouts += report.dropouts;
    record.timeouts += report.timeouts;
    record.corrupt_frames += report.corrupt_frames;
    record.rejected_malicious += report.rejected_malicious;
    record.rejected_benign += report.rejected_benign;
    record.server_upload_bytes += report.upload_bytes;
    record.server_download_bytes += report.download_bytes;
  }
  // Ejected clients leave the sampling universe from the next round on; a
  // shard that missed the deadline hands its ejections over all the same.
  ejected_.clear();
  for (auto& shard : shards_) shard->take_ejected(ejected_);
  for (const int client : ejected_) {
    const auto it = std::lower_bound(universe_.begin(), universe_.end(), client);
    if (it != universe_.end() && *it == client) universe_.erase(it);
    ++record.ejected_clients;
  }

  std::size_t responded = 0;
  for (const auto& partial : partials_) {
    responded += partial.client_count;
    record.sampled_malicious += partial.malicious_count;
  }
  record.stragglers = sampled_.size() - responded;

  bool merged = false;
  if (responded > 0) {
    FEDGUARD_TRACE_SPAN("net.shard", "merge");
    defenses::AggregationContext context;
    context.round = round;
    context.global_parameters = global_parameters_;
    try {
      merge_strategy_->merge_partials_into(context, partials_, result_);
      merged = true;
    } catch (const std::invalid_argument& e) {
      util::log_warn("hierarchical server: round %zu merge failed (%s); "
                     "keeping previous global model",
                     round, e.what());
    }
  }
  if (merged) {
    if (result_.parameters.size() != global_parameters_.size()) {
      throw std::runtime_error{"HierarchicalServer: wrong merged dimension"};
    }
    for (std::size_t i = 0; i < global_parameters_.size(); ++i) {
      global_parameters_[i] += config_.server_learning_rate *
                               (result_.parameters[i] - global_parameters_[i]);
    }
    record.rejected_clients = result_.rejected_clients.size();
  } else {
    degraded = true;  // nothing arrived: the model carries over unchanged
  }
  if (degraded) degraded_rounds_total_.add(1);

  {
    FEDGUARD_TRACE_SPAN("net.shard", "eval");
    evaluate_round(record);
  }
  upload_bytes_total_.add(record.server_upload_bytes);
  download_bytes_total_.add(record.server_download_bytes);
  dropouts_total_.add(record.dropouts);
  timeouts_total_.add(record.timeouts);
  corrupt_frames_total_.add(record.corrupt_frames);
  ejected_clients_total_.add(record.ejected_clients);
  const double seconds = static_cast<double>(obs::now_ns() - round_start_ns) * 1e-9;
  record.round_seconds = seconds;
  round_seconds_.observe(seconds);
  rounds_total_.add(1);
  obs::round_tick(round);
  return record;
}

fl::RunHistory HierarchicalServer::run() {
  await_clients();
  fl::RunHistory history;
  history.strategy = merge_strategy_->name();
  history.rounds.reserve(config_.rounds);
  for (std::size_t round = 0; round < config_.rounds; ++round) {
    fl::RoundRecord record = run_round(round);
    util::log_info(
        "hierarchical round %zu/%zu: accuracy=%.4f sampled=%zu stragglers=%zu "
        "(timeouts %zu, dropouts %zu, corrupt %zu) live_shards=%zu",
        round + 1, config_.rounds, record.test_accuracy, record.sampled_clients,
        record.stragglers, record.timeouts, record.dropouts, record.corrupt_frames,
        live_shards());
    history.rounds.push_back(std::move(record));
  }
  for (auto& shard : shards_) {
    if (shard->alive()) shard->shutdown();
  }
  return history;
}

void HierarchicalServer::evaluate_round(fl::RoundRecord& record) {
  eval_classifier_->load_parameters_flat(global_parameters_);
  std::size_t correct = 0;
  for (std::size_t start = 0; start < test_set_.size(); start += config_.eval_batch_size) {
    const std::size_t n = std::min(config_.eval_batch_size, test_set_.size() - start);
    eval_indices_.resize(n);
    for (std::size_t i = 0; i < n; ++i) eval_indices_[i] = start + i;
    const data::Dataset::Batch batch = test_set_.gather(eval_indices_);
    correct += static_cast<std::size_t>(
        eval_classifier_->evaluate_accuracy(batch.images, batch.labels) *
            static_cast<double>(n) +
        0.5);
  }
  record.test_accuracy =
      test_set_.empty() ? 0.0
                        : static_cast<double>(correct) / static_cast<double>(test_set_.size());
}

}  // namespace fedguard::net
