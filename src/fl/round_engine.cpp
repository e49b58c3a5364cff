#include "fl/round_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/exporter.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace fedguard::fl {

std::size_t owner_shard(std::size_t client, std::size_t shards,
                        std::size_t population) noexcept {
  return client * shards / population;
}

std::size_t first_owned_client(std::size_t shard, std::size_t shards,
                               std::size_t population) noexcept {
  // The smallest c with floor(c*S/N) >= shard: ceil(shard*N/S).
  return (shard * population + shards - 1) / shards;
}

void tally_rejections(const defenses::UpdateView& cohort,
                      const defenses::ShardPartial& partial, std::size_t& malicious,
                      std::size_t& benign) {
  for (std::size_t k = 0; k < cohort.count(); ++k) {
    const defenses::UpdateMeta& meta = cohort.meta(k);
    if (std::find(partial.rejected_clients.begin(), partial.rejected_clients.end(),
                  meta.client_id) == partial.rejected_clients.end()) {
      continue;
    }
    ++(meta.truly_malicious ? malicious : benign);
  }
}

RoundEngine::RoundEngine(RoundEngineConfig config,
                         defenses::AggregationStrategy& merge_strategy,
                         const data::Dataset& test_set, models::ClassifierArch arch,
                         models::ImageGeometry geometry, RoundInstruments instruments)
    : config_{config},
      merge_strategy_{merge_strategy},
      test_set_{test_set},
      geometry_{geometry},
      eval_classifier_{std::make_unique<models::Classifier>(arch, geometry, config.seed)},
      rng_{config.seed},
      instruments_{std::move(instruments)} {
  if (config_.population == 0 || config_.shards == 0) {
    throw std::invalid_argument{"RoundEngine: population and shards must be > 0"};
  }
  // Model initialization (Alg. 1 line 15): ψ0 from the eval classifier's init.
  global_parameters_ = eval_classifier_->parameters_flat();
}

RoundRecord RoundEngine::run_round(std::size_t round, std::span<const int> universe,
                                   RoundCollector& collector) {
  // Round timing and span durations share obs::now_ns() (one steady clock),
  // so Table V and the trace can never disagree by clock domain.
  const std::uint64_t round_start_ns = obs::now_ns();
  // Install the round's trace context before the first span so every local
  // span — and, via RoundRequest, every remote one — carries the same id.
  const std::uint64_t trace_id = obs::make_trace_id(config_.seed, round);
  obs::set_trace_context({trace_id, 0, round});
  FEDGUARD_TRACE_SPAN("round", "round:" + std::to_string(round));
  RoundRecord record;
  record.round = round;

  // Uniform sampling of m participating clients (Alg. 1 line 17), then the
  // split into per-shard cohorts by client ownership, keeping sample order
  // within each cohort.
  {
    FEDGUARD_TRACE_SPAN("round", "sample");
    sample_positions_.clear();
    if (!universe.empty()) {
      rng_.sample_without_replacement(
          universe.size(), std::min(config_.clients_per_round, universe.size()),
          sample_positions_);
    }
    sampled_.clear();
    for (const std::size_t k : sample_positions_) sampled_.push_back(universe[k]);
    cohorts_.resize(config_.shards);
    for (auto& cohort : cohorts_) cohort.clear();
    for (std::size_t k = 0; k < sampled_.size(); ++k) {
      cohorts_[owner_shard(static_cast<std::size_t>(sampled_[k]), config_.shards,
                           config_.population)]
          .push_back(k);
    }
  }
  record.sampled_clients = sampled_.size();

  partials_.resize(config_.shards);
  for (auto& partial : partials_) partial.clear();
  bool degraded = false;
  {
    FEDGUARD_TRACE_SPAN("round", "collect");
    const RoundPlan plan{round, trace_id, global_parameters_, sampled_, cohorts_, &rng_};
    degraded = collector.collect(plan, partials_, record);
  }
  std::size_t responded = 0;
  for (const defenses::ShardPartial& partial : partials_) {
    responded += partial.client_count;
    record.sampled_malicious += partial.malicious_count;
  }
  record.stragglers = record.sampled_clients - responded;

  // Merge the shard partials and apply the server learning rate. Nobody
  // responding, or nothing mergeable, leaves ψ0 unchanged this round.
  bool merged = false;
  if (responded > 0) {
    FEDGUARD_TRACE_SPAN("round", "aggregate");
    defenses::AggregationContext context;
    context.round = round;
    context.global_parameters = global_parameters_;
    try {
      merge_strategy_.merge_partials_into(context, partials_, result_);
      merged = true;
    } catch (const std::invalid_argument& e) {
      util::log_warn("round %zu: merge failed (%s); keeping previous global model", round,
                     e.what());
    }
    if (merged) {
      if (result_.parameters.size() != global_parameters_.size()) {
        throw std::runtime_error{"RoundEngine: strategy returned wrong parameter dimension"};
      }
      const float eta = config_.server_learning_rate;
      for (std::size_t i = 0; i < global_parameters_.size(); ++i) {
        global_parameters_[i] += eta * (result_.parameters[i] - global_parameters_[i]);
      }
      record.rejected_clients = result_.rejected_clients.size();
    }
  }
  if (!merged) degraded = true;

  {
    FEDGUARD_TRACE_SPAN("round", "eval");
    record.test_accuracy = evaluate_global();
    if (config_.track_per_class_accuracy) record.per_class_accuracy = evaluate_per_class();
  }
  const double seconds = static_cast<double>(obs::now_ns() - round_start_ns) * 1e-9;
  record.round_seconds = seconds;
  instruments_.sampled_clients.add(record.sampled_clients);
  instruments_.sampled_malicious.add(record.sampled_malicious);
  instruments_.stragglers.add(record.stragglers);
  instruments_.upload_bytes.add(record.server_upload_bytes);
  instruments_.download_bytes.add(record.server_download_bytes);
  instruments_.dropouts.add(record.dropouts);
  instruments_.timeouts.add(record.timeouts);
  instruments_.corrupt_frames.add(record.corrupt_frames);
  instruments_.ejected_clients.add(record.ejected_clients);
  instruments_.rejected_malicious.add(record.rejected_malicious);
  instruments_.rejected_benign.add(record.rejected_benign);
  if (degraded) instruments_.degraded_rounds.add(1);
  instruments_.round_seconds.observe(seconds);
  instruments_.rounds.add(1);
  {
    // The exporter's file writes are billed to their own phase, not to eval.
    FEDGUARD_TRACE_SPAN("round", "export");
    obs::round_tick(round);
  }
  return record;
}

double RoundEngine::evaluate_global() {
  eval_classifier_->load_parameters_flat(global_parameters_);
  const std::size_t total = test_set_.size();
  if (total == 0) return 0.0;
  std::size_t correct = 0;
  for (std::size_t start = 0; start < total; start += config_.eval_batch_size) {
    const std::size_t n = std::min(config_.eval_batch_size, total - start);
    eval_indices_.resize(n);
    for (std::size_t i = 0; i < n; ++i) eval_indices_[i] = start + i;
    const data::Dataset::Batch batch = test_set_.gather(eval_indices_);
    correct += static_cast<std::size_t>(
        eval_classifier_->evaluate_accuracy(batch.images, batch.labels) *
            static_cast<double>(n) +
        0.5);
  }
  return static_cast<double>(correct) / static_cast<double>(total);
}

std::vector<double> RoundEngine::evaluate_per_class() {
  eval_classifier_->load_parameters_flat(global_parameters_);
  const std::size_t classes = geometry_.num_classes;
  std::vector<std::size_t> correct(classes, 0), total(classes, 0);
  for (std::size_t start = 0; start < test_set_.size(); start += config_.eval_batch_size) {
    const std::size_t n = std::min(config_.eval_batch_size, test_set_.size() - start);
    eval_indices_.resize(n);
    for (std::size_t i = 0; i < n; ++i) eval_indices_[i] = start + i;
    const data::Dataset::Batch batch = test_set_.gather(eval_indices_);
    const std::vector<double> recall =
        eval_classifier_->evaluate_per_class(batch.images, batch.labels);
    // Convert batch recalls back to counts to merge across batches.
    std::vector<std::size_t> batch_total(classes, 0);
    for (const int label : batch.labels) ++batch_total[static_cast<std::size_t>(label)];
    for (std::size_t c = 0; c < classes; ++c) {
      total[c] += batch_total[c];
      correct[c] += static_cast<std::size_t>(recall[c] * static_cast<double>(batch_total[c]) + 0.5);
    }
  }
  std::vector<double> out(classes, 0.0);
  for (std::size_t c = 0; c < classes; ++c) {
    if (total[c] > 0) out[c] = static_cast<double>(correct[c]) / static_cast<double>(total[c]);
  }
  return out;
}

}  // namespace fedguard::fl
