#include "workloads.hpp"

#include <array>
#include <atomic>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "data/dataset.hpp"
#include "data/synthetic_mnist.hpp"
#include "fl/server.hpp"
#include "models/classifier.hpp"
#include "net/remote.hpp"
#include "net/shard.hpp"
#include "obs/metrics.hpp"

namespace perfbench {
namespace {

using fedguard::core::ExperimentConfig;
using fedguard::core::Federation;

// Safety cap on the warm-up: every client trains its CVAE on its first
// participation, so with N clients and m per round the warm-up ends after a
// coupon-collector number of rounds (about 11 for the FedGuard workload).
constexpr std::size_t kMaxRounds = 2000;

/// fl::ServerConfig exactly as core::build_federation maps it, so a server
/// rebuilt around the timing wrapper is the one build_federation made.
fedguard::fl::ServerConfig server_config_of(const ExperimentConfig& config) {
  fedguard::fl::ServerConfig server;
  server.clients_per_round = config.clients_per_round;
  server.rounds = config.rounds;
  server.server_learning_rate = config.server_learning_rate;
  server.seed = config.seed ^ 0x5e12e5ULL;
  server.straggler_probability = config.straggler_probability;
  server.track_per_class_accuracy = config.track_per_class_accuracy;
  server.psi_codec = config.wire_codec;
  server.psi_chunk = config.wire_chunk_size;
  server.shards = config.shards;
  return server;
}

std::size_t count_trained(const Federation& fed) {
  std::size_t trained = 0;
  for (const auto& client : fed.clients) trained += client->cvae_trained() ? 1 : 0;
  return trained;
}

std::uint64_t degraded_rounds_total() {
  return fedguard::obs::Registry::global().counter("net_root_degraded_rounds_total").value();
}

/// Bytes the loopback interface has transmitted (each loopback packet is
/// counted once on transmit and once on receive; transmit alone is the
/// traffic). False when /proc/net/dev has no readable `lo` line.
bool loopback_tx_bytes(std::uint64_t& out) {
  std::ifstream file{"/proc/net/dev"};
  std::string line;
  while (std::getline(file, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string name = line.substr(0, colon);
    name.erase(0, name.find_first_not_of(' '));
    if (name != "lo") continue;
    std::istringstream fields{line.substr(colon + 1)};
    std::uint64_t value = 0;
    // 8 receive columns, then transmit bytes.
    for (int i = 0; i < 9; ++i) {
      if (!(fields >> value)) return false;
    }
    out = value;
    return true;
  }
  return false;
}

/// Test-set accuracy of `parameters`, computed from outside the server with
/// the same batching and rounding as HierarchicalServer's own evaluation.
double evaluate_parameters(fedguard::models::Classifier& classifier,
                           const fedguard::data::Dataset& test_set,
                           std::span<const float> parameters) {
  constexpr std::size_t kEvalBatch = 256;
  classifier.load_parameters_flat(parameters);
  std::size_t correct = 0;
  std::vector<std::size_t> indices;
  for (std::size_t start = 0; start < test_set.size(); start += kEvalBatch) {
    const std::size_t n = std::min(kEvalBatch, test_set.size() - start);
    indices.resize(n);
    for (std::size_t i = 0; i < n; ++i) indices[i] = start + i;
    const auto batch = test_set.gather(indices);
    correct += static_cast<std::size_t>(
        classifier.evaluate_accuracy(batch.images, batch.labels) * static_cast<double>(n) +
        0.5);
  }
  return test_set.empty() ? 0.0
                          : static_cast<double>(correct) / static_cast<double>(test_set.size());
}

/// Per-round bookkeeping shared by both topologies: warm-up vs steady
/// classification and the stop rule (warm-up done, then `steady_rounds`
/// CVAE-free rounds after the last warm-up round).
class RoundLedger {
 public:
  RoundLedger(FederationResult& result, std::size_t steady_rounds, std::size_t clients_to_train)
      : result_{result}, steady_rounds_{steady_rounds}, clients_to_train_{clients_to_train} {}

  [[nodiscard]] bool done(std::size_t round, std::size_t trained) const {
    if (round >= kMaxRounds) return true;
    return trained >= clients_to_train_ && steady_since_warmup_ >= steady_rounds_;
  }

  void record(double seconds, std::size_t trained_before, std::size_t trained_after) {
    result_.run_s += seconds;
    result_.round_s.push_back(seconds);
    if (trained_after > trained_before) {
      result_.warmup_s += seconds;
      result_.warmup_rounds += 1;
      result_.cvae_trainings += trained_after - trained_before;
      result_.steady.push_back(false);
      steady_since_warmup_ = 0;
    } else {
      result_.steady.push_back(true);
      steady_since_warmup_ += 1;
    }
  }

 private:
  FederationResult& result_;
  std::size_t steady_rounds_;
  std::size_t clients_to_train_;
  std::size_t steady_since_warmup_ = 0;
};

FederationResult run_in_process(const WorkloadSpec& spec, SpanRecorder* recorder) {
  FederationResult result;
  const auto setup_start = Clock::now();
  Federation fed = build_workload(spec);
  result.setup_s = seconds_since(setup_start);

  std::unique_ptr<TimedStrategy> wrapper;
  if (recorder != nullptr) {
    recorder->close("setup", "setup", setup_start);
    wrapper = std::make_unique<TimedStrategy>(*fed.strategy, *recorder);
    fed.server = std::make_unique<fedguard::fl::Server>(
        server_config_of(fed.config), fed.clients, *wrapper, fed.test_set, fed.config.arch,
        fed.config.geometry());
  }
  fedguard::fl::Server& server = *fed.server;

  const bool wants_decoders = fed.strategy->wants_decoders();
  const std::size_t psi = server.global_parameters().size();
  const std::size_t theta = wants_decoders ? fed.strategy->decoder_parameter_count() : 0;
  const std::size_t m = spec.config.clients_per_round;
  result.analytic_bytes_per_round = static_cast<double>(
      m * wire_bytes(psi) + m * (wire_bytes(psi) + (wants_decoders ? wire_bytes(theta) : 0)));

  RoundLedger ledger{result, spec.steady_rounds, wants_decoders ? fed.clients.size() : 0};
  std::size_t trained = count_trained(fed);
  for (std::size_t round = 0; !ledger.done(round, trained); ++round) {
    const auto start = Clock::now();
    fedguard::fl::RoundRecord record = server.run_round(round);
    const double seconds = recorder != nullptr
                               ? recorder->close("round", "fl", start,
                                                 static_cast<std::int64_t>(round))
                               : seconds_since(start);
    const std::size_t trained_now = count_trained(fed);
    ledger.record(seconds, trained, trained_now);
    trained = trained_now;

    if (recorder != nullptr) {
      double accuracy = 0.0;
      const double eval = recorder->time("eval", "fl", static_cast<std::int64_t>(round),
                                         [&] { accuracy = server.evaluate_global(); });
      result.extra_eval_matches = result.extra_eval_matches && accuracy == record.test_accuracy;
      const double aggregate = wrapper->take_aggregate_seconds() + wrapper->take_merge_seconds();
      result.aggregate_s.push_back(aggregate);
      result.eval_s.push_back(eval);
      result.collect_s.push_back(seconds - aggregate - eval);
    }
    result.round_bytes.push_back(record.server_upload_bytes + record.server_download_bytes);
    result.history.rounds.push_back(std::move(record));
  }
  if (wrapper) {
    result.aggregate_calls = wrapper->aggregate_calls();
    result.merge_calls = wrapper->merge_calls();
  }
  double bytes = 0.0;
  for (const std::size_t b : result.round_bytes) bytes += static_cast<double>(b);
  result.bytes_per_round =
      result.round_bytes.empty() ? 0.0 : bytes / static_cast<double>(result.round_bytes.size());
  return result;
}

/// A socket federation set up and ready for rounds: the federation's
/// clients each run net::run_remote_client on their own thread against the
/// shard that owns them. The destructor kills the shards (clients see a
/// dead peer and return; reconnects are disabled) and joins every thread.
class SocketFederation {
 public:
  SocketFederation(const WorkloadSpec& spec, SpanRecorder* recorder)
      : fed_{build_workload(spec)} {
    const fedguard::core::ExperimentConfig& config = fed_.config;
    auto factory = [&config, this, recorder]()
        -> std::unique_ptr<fedguard::defenses::AggregationStrategy> {
      auto strategy = fedguard::core::make_strategy(config, fed_.auxiliary_set);
      if (recorder == nullptr) return strategy;
      auto wrapped = std::make_unique<TimedStrategy>(std::move(strategy), *recorder);
      // The first factory call builds the root's merge instance.
      if (root_ == nullptr) root_ = wrapped.get();
      return wrapped;
    };
    server_ = std::make_unique<fedguard::net::HierarchicalServer>(
        fedguard::core::hierarchical_server_config(config), factory, fed_.test_set,
        config.arch, config.geometry());
    fedguard::net::RemoteClientOptions options;
    options.reconnect_attempts = 0;
    try {
      for (std::size_t i = 0; i < fed_.clients.size(); ++i) {
        const std::uint16_t port = server_->shard_port(server_->shard_of(i));
        fedguard::fl::Client* client = fed_.clients[i].get();
        threads_.emplace_back([this, port, client, options] {
          try {
            (void)fedguard::net::run_remote_client("127.0.0.1", port, *client, options);
          } catch (const std::exception&) {
            client_errors_.fetch_add(1);
          }
        });
      }
    } catch (...) {
      finish();  // the destructor does not run for a half-built object
      throw;
    }
  }

  ~SocketFederation() { finish(); }

  /// Kill the shards and join every client thread (idempotent).
  void finish() {
    server_.reset();
    for (auto& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
  }

  SocketFederation(const SocketFederation&) = delete;
  SocketFederation& operator=(const SocketFederation&) = delete;

  Federation& federation() noexcept { return fed_; }
  fedguard::net::HierarchicalServer& server() noexcept { return *server_; }
  TimedStrategy* root_strategy() noexcept { return root_; }
  std::size_t client_errors() const noexcept { return client_errors_.load(); }

 private:
  Federation fed_;
  TimedStrategy* root_ = nullptr;
  std::unique_ptr<fedguard::net::HierarchicalServer> server_;
  std::atomic<std::size_t> client_errors_{0};
  std::vector<std::thread> threads_;
};

FederationResult run_socket(const WorkloadSpec& spec, SpanRecorder* recorder) {
  FederationResult result;
  const auto setup_start = Clock::now();
  auto socket = std::make_unique<SocketFederation>(spec, recorder);
  const auto await_start = Clock::now();
  socket->server().await_clients();
  result.await_s = seconds_since(await_start);
  result.setup_s = seconds_since(setup_start);
  if (recorder != nullptr) {
    recorder->close("await_clients", "net", await_start);
    recorder->close("setup", "setup", setup_start);
  }

  Federation& fed = socket->federation();
  fedguard::net::HierarchicalServer& server = socket->server();
  const std::size_t psi = server.global_parameters().size();
  const std::size_t m = spec.config.clients_per_round;
  // Payload floor: each sampled client receives ψ0 and returns ψ.
  result.analytic_bytes_per_round = static_cast<double>(2 * m * wire_bytes(psi));

  std::unique_ptr<fedguard::models::Classifier> eval_classifier;
  if (recorder != nullptr) {
    eval_classifier = std::make_unique<fedguard::models::Classifier>(
        fed.config.arch, fed.config.geometry(), spec.config.seed);
  }

  RoundLedger ledger{result, spec.steady_rounds, 0};
  const std::uint64_t degraded0 = degraded_rounds_total();
  std::uint64_t lo0 = 0;
  std::uint64_t lo1 = 0;
  result.loopback_readable = loopback_tx_bytes(lo0);
  for (std::size_t round = 0; !ledger.done(round, 0); ++round) {
    const auto start = Clock::now();
    fedguard::fl::RoundRecord record = server.run_round(round);
    const double seconds = recorder != nullptr
                               ? recorder->close("round", "net", start,
                                                 static_cast<std::int64_t>(round))
                               : seconds_since(start);
    ledger.record(seconds, 0, 0);
    if (recorder != nullptr) {
      double accuracy = 0.0;
      const double eval =
          recorder->time("eval", "fl", static_cast<std::int64_t>(round), [&] {
            accuracy =
                evaluate_parameters(*eval_classifier, fed.test_set, server.global_parameters());
          });
      result.extra_eval_matches = result.extra_eval_matches && accuracy == record.test_accuracy;
      TimedStrategy* root = socket->root_strategy();
      const double merge = root->take_merge_seconds();
      const double aggregate = root->take_aggregate_seconds() + merge;
      result.merge_s.push_back(merge);
      result.aggregate_s.push_back(aggregate);
      result.eval_s.push_back(eval);
      result.collect_s.push_back(seconds - aggregate - eval);
    }
    result.history.rounds.push_back(std::move(record));
  }
  result.loopback_readable = loopback_tx_bytes(lo1) && result.loopback_readable;
  result.degraded_rounds = static_cast<std::size_t>(degraded_rounds_total() - degraded0);
  if (recorder != nullptr) {
    result.aggregate_calls = socket->root_strategy()->aggregate_calls();
    result.merge_calls = socket->root_strategy()->merge_calls();
  }
  const std::size_t rounds = result.history.rounds.size();
  result.bytes_per_round =
      rounds == 0 ? 0.0 : static_cast<double>(lo1 - lo0) / static_cast<double>(rounds);
  // Counted after teardown: a client that threw mid-run has joined by now.
  socket->finish();
  result.client_errors = socket->client_errors();
  return result;
}

}  // namespace

Datasets make_datasets(const WorkloadSpec& spec) {
  const ExperimentConfig& config = spec.config;
  fedguard::data::SyntheticMnistOptions options;
  options.image_size = config.image_size;
  const auto balanced = [&](std::size_t count, std::uint64_t seed) {
    std::array<std::size_t, 10> counts{};
    for (std::size_t c = 0; c < counts.size(); ++c) {
      counts[c] = count / 10 + (c < count % 10 ? 1 : 0);
    }
    return fedguard::data::generate_synthetic_mnist_per_class(counts, seed, options);
  };
  return Datasets{balanced(config.train_samples, spec.data_seed),
                  balanced(config.test_samples, spec.data_seed ^ 0x7e57ULL),
                  balanced(config.auxiliary_samples, spec.data_seed ^ 0xa0c5ULL)};
}

Federation build_workload(const WorkloadSpec& spec) {
  Datasets data = make_datasets(spec);
  return fedguard::core::build_federation_with_data(spec.config, std::move(data.train),
                                                    std::move(data.test),
                                                    std::move(data.auxiliary));
}

WorkloadSpec make_workload(const std::string& name, std::uint64_t seed, bool smoke) {
  WorkloadSpec spec;
  spec.name = name;
  spec.config = ExperimentConfig::small_scale();
  spec.data_seed = seed;
  ExperimentConfig& config = spec.config;
  config.seed = 42;  // the scenario seed of configs/signflip50_fedguard.conf
  spec.steady_rounds = smoke ? 3 : 100;
  if (name == "fedguard_signflip") {
    // configs/signflip50_fedguard.conf, extended past the CVAE warm-up.
    config.strategy = fedguard::core::StrategyKind::FedGuard;
    config.attack = fedguard::attacks::AttackType::SignFlip;
    config.malicious_fraction = 0.5;
    spec.accuracy_floor = smoke ? 0.30 : 0.60;
    spec.tpr_floor = smoke ? 0.50 : 0.80;
  } else if (name == "geomed_noise") {
    config.strategy = fedguard::core::StrategyKind::GeoMed;
    config.attack = fedguard::attacks::AttackType::AdditiveNoise;
    config.malicious_fraction = 0.3;
    config.num_clients = 48;
    config.clients_per_round = 32;
    config.client.local_epochs = 1;
    config.train_samples = 48 * 50;
    spec.accuracy_floor = smoke ? 0.30 : 0.80;
  } else if (name == "socket_fedavg_s2") {
    config.strategy = fedguard::core::StrategyKind::FedAvg;
    config.attack = fedguard::attacks::AttackType::None;
    config.malicious_fraction = 0.0;
    config.num_clients = 4;
    config.clients_per_round = 4;
    config.client.local_epochs = 1;
    config.train_samples = 4 * 100;
    config.shards = 2;
    config.wire_codec = fedguard::util::WireCodec::Fp32;
    spec.socket = true;
    spec.accuracy_floor = smoke ? 0.30 : 0.70;
  } else {
    throw std::invalid_argument{"unknown workload: " + name};
  }
  return spec;
}

FederationResult run_federation(const WorkloadSpec& spec, SpanRecorder* recorder) {
  return spec.socket ? run_socket(spec, recorder) : run_in_process(spec, recorder);
}

FederationResult run_in_process_reference(const WorkloadSpec& spec) {
  return run_in_process(spec, nullptr);
}

double setup_only(const WorkloadSpec& spec) {
  const auto start = Clock::now();
  if (spec.socket) {
    SocketFederation socket{spec, nullptr};
    socket.server().await_clients();
    return seconds_since(start);
  }
  const Federation fed = build_workload(spec);
  return seconds_since(start);
}

}  // namespace perfbench
