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
    fl::tally_rejections(view, partial, building_.rejected_malicious,
                         building_.rejected_benign);
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
  {
    util::MutexLock lock{mutex_};
    running_ = false;
  }
  cv_.notify_all();
}

// ---- HierarchicalServer ------------------------------------------------------

namespace {

const HierarchicalServerConfig& validated(const HierarchicalServerConfig& config) {
  if (config.shards == 0) {
    throw std::invalid_argument{"HierarchicalServer: shards must be > 0"};
  }
  if (config.expected_clients < config.shards) {
    throw std::invalid_argument{
        "HierarchicalServer: expected_clients must be >= shards "
        "(every shard owns at least one client)"};
  }
  if (config.clients_per_round == 0 || config.clients_per_round > config.expected_clients) {
    throw std::invalid_argument{"HierarchicalServer: clients_per_round out of range"};
  }
  if (config.min_clients > config.expected_clients) {
    throw std::invalid_argument{"HierarchicalServer: min_clients exceeds expected_clients"};
  }
  return config;
}

std::unique_ptr<defenses::AggregationStrategy> make_merge_strategy(
    const std::function<std::unique_ptr<defenses::AggregationStrategy>()>& factory) {
  auto strategy = factory();
  if (!strategy) {
    throw std::invalid_argument{"HierarchicalServer: strategy_factory returned null"};
  }
  return strategy;
}

fl::RoundEngineConfig engine_config(const HierarchicalServerConfig& config) {
  fl::RoundEngineConfig engine;
  engine.clients_per_round = config.clients_per_round;
  engine.population = config.expected_clients;
  engine.shards = config.shards;
  engine.server_learning_rate = config.server_learning_rate;
  engine.eval_batch_size = config.eval_batch_size;
  engine.seed = config.seed;
  return engine;
}

// docs/OBSERVABILITY.md §net_*: the fault and traffic counters advance by
// exactly each RoundRecord's fields.
fl::RoundInstruments net_instruments() {
  auto& registry = obs::Registry::global();
  fl::RoundInstruments instruments;
  instruments.rounds = registry.counter("net_root_rounds_total");
  instruments.degraded_rounds = registry.counter("net_root_degraded_rounds_total");
  instruments.upload_bytes = registry.counter("net_upload_bytes_total");
  instruments.download_bytes = registry.counter("net_download_bytes_total");
  instruments.dropouts = registry.counter("net_dropouts_total");
  instruments.timeouts = registry.counter("net_timeouts_total");
  instruments.corrupt_frames = registry.counter("net_corrupt_frames_total");
  instruments.ejected_clients = registry.counter("net_ejected_clients_total");
  instruments.round_seconds = registry.histogram("net_root_round_seconds");
  return instruments;
}

}  // namespace

HierarchicalServer::HierarchicalServer(
    HierarchicalServerConfig config,
    const std::function<std::unique_ptr<defenses::AggregationStrategy>()>& strategy_factory,
    const data::Dataset& test_set, models::ClassifierArch arch,
    models::ImageGeometry geometry)
    : config_{validated(config)},
      merge_strategy_{make_merge_strategy(strategy_factory)},
      engine_{engine_config(config_), *merge_strategy_, test_set, arch, geometry,
              net_instruments()} {
  const std::size_t n = config_.expected_clients;
  const std::size_t s = config_.shards;
  shards_.reserve(s);
  for (std::size_t shard = 0; shard < s; ++shard) {
    ShardConfig shard_config;
    shard_config.shard_id = shard;
    shard_config.first_client = static_cast<int>(fl::first_owned_client(shard, s, n));
    shard_config.last_client = static_cast<int>(fl::first_owned_client(shard + 1, s, n));
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
    shards_.push_back(std::make_unique<ShardAggregator>(shard_config, strategy_factory()));
  }
  if (config_.http_port != 0) {
    http_server_ = std::make_unique<TelemetryHttpServer>(
        config_.http_port,
        make_registry_responder("net_root_rounds_total",
                                "net_root_degraded_rounds_total"));
  }
}

HierarchicalServer::~HierarchicalServer() {
  for (auto& shard : shards_) shard->kill();
}

std::size_t HierarchicalServer::shard_of(std::size_t client_id) const noexcept {
  return fl::owner_shard(client_id, config_.shards, config_.expected_clients);
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
  return engine_.run_round(round, universe_, *this);
}

bool HierarchicalServer::collect(const fl::RoundPlan& plan,
                                 std::vector<defenses::ShardPartial>& partials,
                                 fl::RoundRecord& record) {
  RoundRequest request;
  request.round = plan.round;
  request.want_decoder = merge_strategy_->wants_decoders();
  request.psi_codec = config_.psi_codec;
  request.psi_chunk = config_.psi_chunk;
  request.trace_id = plan.trace_id;
  request.global_parameters.assign(plan.global_parameters.begin(),
                                   plan.global_parameters.end());
  const auto payload =
      std::make_shared<const std::vector<std::byte>>(encode_round_request(request));
  const auto globals =
      std::make_shared<const std::vector<float>>(std::move(request.global_parameters));
  const std::size_t theta_dim =
      merge_strategy_->wants_decoders() ? merge_strategy_->decoder_parameter_count() : 0;

  reports_.resize(shards_.size());
  std::vector<bool> dispatched(shards_.size(), false);
  bool degraded = false;
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    const std::vector<std::size_t>& cohort = plan.cohorts[shard];
    if (cohort.empty()) continue;
    if (!shards_[shard]->alive()) {
      record.dropouts += cohort.size();  // a dead shard holds no links
      degraded = true;
      continue;
    }
    ShardAggregator::RoundCommand command;
    command.round = plan.round;
    for (const std::size_t k : cohort) command.cohort.push_back(plan.sampled[k]);
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
    if (!shards_[shard]->wait_report(deadline, plan.round, report)) {
      util::log_warn("hierarchical server: shard %zu missed round %zu", shard, plan.round);
      record.timeouts += plan.cohorts[shard].size();
      degraded = true;
      continue;
    }
    std::swap(partials[shard], report.partial);
    record.dropouts += report.dropouts;
    record.timeouts += report.timeouts;
    record.corrupt_frames += report.corrupt_frames;
    record.rejected_malicious += report.rejected_malicious;
    record.rejected_benign += report.rejected_benign;
    record.server_upload_bytes += report.upload_bytes;
    record.server_download_bytes += report.download_bytes;
  }
  // Ejected clients leave the sampling universe from the next round on (the
  // engine drew this round's sample before collecting); a shard that missed
  // the deadline hands its ejections over all the same.
  ejected_.clear();
  for (auto& shard : shards_) shard->take_ejected(ejected_);
  for (const int client : ejected_) {
    const auto it = std::lower_bound(universe_.begin(), universe_.end(), client);
    if (it != universe_.end() && *it == client) universe_.erase(it);
    ++record.ejected_clients;
  }
  return degraded;
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

}  // namespace fedguard::net
