#include "fl/server.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "nn/parameter_vector.hpp"
#include "util/logging.hpp"
#include "util/serialize.hpp"

namespace fedguard::fl {

namespace {

constexpr std::size_t kNoRow = std::numeric_limits<std::size_t>::max();  // straggler

RoundEngineConfig engine_config(const ServerConfig& config, std::size_t population) {
  if (population == 0) throw std::invalid_argument{"Server: no clients"};
  if (config.clients_per_round == 0 || config.clients_per_round > population) {
    throw std::invalid_argument{"Server: clients_per_round out of range"};
  }
  RoundEngineConfig engine;
  engine.clients_per_round = config.clients_per_round;
  engine.population = population;
  engine.shards = std::max<std::size_t>(1, config.shards);
  engine.server_learning_rate = config.server_learning_rate;
  engine.eval_batch_size = config.eval_batch_size;
  engine.seed = config.seed;
  engine.track_per_class_accuracy = config.track_per_class_accuracy;
  return engine;
}

// docs/OBSERVABILITY.md §fl_*: each advances by exactly its RoundRecord field.
RoundInstruments fl_instruments() {
  auto& registry = obs::Registry::global();
  RoundInstruments instruments;
  instruments.rounds = registry.counter("fl_rounds_total");
  instruments.upload_bytes = registry.counter("fl_upload_bytes_total");
  instruments.download_bytes = registry.counter("fl_download_bytes_total");
  instruments.sampled_clients = registry.counter("fl_sampled_clients_total");
  instruments.stragglers = registry.counter("fl_stragglers_total");
  // Detection tallies against ground truth: the scenario sweep derives
  // attacker-ejection precision/recall from deltas of these three.
  instruments.sampled_malicious = registry.counter("fl_sampled_malicious_total");
  instruments.rejected_malicious = registry.counter("fl_rejected_malicious_total");
  instruments.rejected_benign = registry.counter("fl_rejected_benign_total");
  instruments.round_seconds = registry.histogram("fl_round_seconds");
  return instruments;
}

}  // namespace

Server::Server(ServerConfig config, std::vector<std::unique_ptr<Client>>& clients,
               defenses::AggregationStrategy& strategy, const data::Dataset& test_set,
               models::ClassifierArch arch, models::ImageGeometry geometry)
    : config_{config},
      clients_{clients},
      strategy_{strategy},
      universe_(clients.size()),
      engine_{engine_config(config, clients.size()), strategy, test_set, arch, geometry,
              fl_instruments()},
      arena_capacity_bytes_{obs::Registry::global().gauge("obs_arena_capacity_bytes")} {
  std::iota(universe_.begin(), universe_.end(), 0);
}

double Server::evaluate_global() { return engine_.evaluate_global(); }

std::vector<double> Server::evaluate_per_class() { return engine_.evaluate_per_class(); }

RoundRecord Server::run_round(std::size_t round) {
  return engine_.run_round(round, universe_, *this);
}

bool Server::collect(const RoundPlan& plan, std::vector<defenses::ShardPartial>& partials,
                     RoundRecord& record) {
  // Straggler simulation: sampled clients may fail to respond this round, one
  // draw per sampled id in sample order. The predicate (a deterministic test
  // hook) takes priority and consumes no rng draws, keeping the sampling
  // sequence identical to a run without it.
  const bool simulate = config_.straggler_predicate || config_.straggler_probability > 0.0;
  responders_.clear();
  sample_rows_.clear();
  for (const int id : plan.sampled) {
    const bool fails =
        simulate && (config_.straggler_predicate
                         ? config_.straggler_predicate(static_cast<std::size_t>(id), plan.round)
                         : plan.rng->bernoulli(config_.straggler_probability));
    sample_rows_.push_back(fails ? kNoRow : responders_.size());
    if (!fails) responders_.push_back(id);
  }
  if (responders_.empty()) return false;  // nobody responded: no traffic either

  // Client work items run concurrently on the pool (one process per client
  // on the paper's testbed), each writing its assigned arena row in place.
  const std::span<const float> global = plan.global_parameters;
  arena_.reset(responders_.size(), global.size(),
               strategy_.wants_decoders() ? strategy_.decoder_parameter_count() : 0);
  arena_capacity_bytes_.set(static_cast<std::int64_t>(arena_.capacity_bytes()));
  parallel::parallel_for(parallel::global_pool(), 0, responders_.size(), [&](std::size_t k) {
    const defenses::UpdateRow row = arena_.row(k);
    clients_[static_cast<std::size_t>(responders_[k])]->run_round_into(global, plan.round, row);
    // Simulate the lossy ψ upload: the roundtrip helper shares its
    // arithmetic with write_q8_span / read_q8_into, so the aggregation sees
    // bit-identical updates to the socket deployment's. Fp32 is a no-op.
    util::quantize_roundtrip(config_.psi_codec, row.psi, config_.psi_chunk);
  });

  // Traffic accounting (Table V). The ψ0 broadcast always travels fp32; the
  // ψ uploads are charged at their codec's wire size.
  const defenses::UpdateView updates{arena_};
  record.server_upload_bytes = responders_.size() * nn::parameter_wire_bytes(global.size());
  record.server_download_bytes =
      responders_.size() *
      util::codec_span_wire_size(config_.psi_codec, global.size(), config_.psi_chunk);
  if (strategy_.wants_decoders()) {
    for (std::size_t k = 0; k < updates.count(); ++k) {
      record.server_download_bytes += nn::parameter_wire_bytes(updates.meta(k).theta_count);
    }
  }

  // Partial-aggregate each shard cohort's responders, in sample order; an
  // empty cohort leaves its partial cleared (skipped by the merge).
  defenses::AggregationContext context;
  context.round = plan.round;
  context.global_parameters = global;
  for (std::size_t shard = 0; shard < plan.cohorts.size(); ++shard) {
    cohort_rows_.clear();
    for (const std::size_t k : plan.cohorts[shard]) {
      if (sample_rows_[k] != kNoRow) cohort_rows_.push_back(sample_rows_[k]);
    }
    if (cohort_rows_.empty()) continue;
    const defenses::UpdateView cohort{arena_, cohort_rows_};
    strategy_.partial_aggregate_into(context, cohort, shard, partials[shard]);
    tally_rejections(cohort, partials[shard], record.rejected_malicious,
                     record.rejected_benign);
  }
  return false;
}

void Server::save_global(const std::string& path) const {
  util::save_f32_vector(path, engine_.global_parameters());
}

void Server::load_global(const std::string& path) {
  engine_.set_global_parameters(util::load_f32_vector(path));
}

RunHistory Server::run() {
  RunHistory history;
  history.strategy = strategy_.name();
  for (std::size_t round = 0; round < config_.rounds; ++round) {
    const RoundRecord record = run_round(round);
    util::log_info(
        "round %3zu | %-14s | acc %6.2f%% | sampled %zu (mal %zu) | rejected %zu "
        "(mal %zu, benign %zu) | %.2fs",
        round, history.strategy.c_str(), record.test_accuracy * 100.0,
        record.sampled_clients, record.sampled_malicious, record.rejected_clients,
        record.rejected_malicious, record.rejected_benign, record.round_seconds);
    history.rounds.push_back(record);
  }
  return history;
}

}  // namespace fedguard::fl
