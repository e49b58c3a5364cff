#pragma once
// Experiment runner — the top-level entry point of the library. Builds the
// dataset, the client population (with the configured fraction corrupted),
// the defense strategy, and the server, then executes the federation.

#include <memory>

#include "core/experiment.hpp"
#include "defenses/aggregation.hpp"
#include "fl/metrics.hpp"
#include "fl/server.hpp"
#include "net/remote.hpp"
#include "net/shard.hpp"

namespace fedguard::core {

/// Build the aggregation strategy configured by `config`. `auxiliary` is the
/// server-side dataset required by Spectral (ignored by other strategies).
[[nodiscard]] std::unique_ptr<defenses::AggregationStrategy> make_strategy(
    const ExperimentConfig& config, const data::Dataset& auxiliary);

/// A fully wired federation, ready to run (exposed so examples/tests can
/// drive rounds manually or inspect clients).
struct Federation {
  data::Dataset train_set;
  data::Dataset test_set;
  data::Dataset auxiliary_set;
  std::unique_ptr<attacks::ModelAttack> model_attack;  // shared by malicious clients
  std::vector<std::unique_ptr<fl::Client>> clients;
  std::unique_ptr<defenses::AggregationStrategy> strategy;
  std::unique_ptr<fl::Server> server;
  ExperimentConfig config;

  [[nodiscard]] fl::RunHistory run();
};

/// Wire up a federation from a config (Alg. 1 Federation procedure), using
/// the synthetic dataset generator for train/test/auxiliary data.
[[nodiscard]] Federation build_federation(ExperimentConfig config);

/// Same wiring, but over caller-provided datasets (e.g. the real MNIST files
/// through data::load_idx_dataset). The config's *_samples fields are
/// ignored; image_size must match the data.
[[nodiscard]] Federation build_federation_with_data(ExperimentConfig config,
                                                    data::Dataset train_set,
                                                    data::Dataset test_set,
                                                    data::Dataset auxiliary_set);

/// Convenience: build and run in one call.
[[nodiscard]] fl::RunHistory run_experiment(const ExperimentConfig& config);

/// Map an ExperimentConfig onto the socket federation's knob panel (seed
/// derivation matches the in-process server, so a HierarchicalServer run and
/// an fl::Server run with the same shards draw identical samples). The port
/// stays 0 (ephemeral shard listeners); callers that need a fixed one set it.
[[nodiscard]] net::HierarchicalServerConfig hierarchical_server_config(
    const ExperimentConfig& config);

}  // namespace fedguard::core
