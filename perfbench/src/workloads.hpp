#pragma once
// The benchmark's workloads and the federation runs that measure them.
//
// In-process workloads drive core::build_federation + fl::Server::run_round;
// the socket workload drives net::HierarchicalServer::await_clients /
// run_round with one thread per client speaking the wire protocol over
// loopback. Neither uses a round loop of its own beyond calling run_round.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/experiment.hpp"
#include "core/runner.hpp"
#include "fl/metrics.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  /// The scenario. Its seed (partition, corruption, sampling, model init)
  /// is the fixed scenario seed, so every benchmark seed runs the same
  /// federation schedule and timings compare across seeds.
  fedguard::core::ExperimentConfig config;
  /// The benchmark's --seed: drives the synthetic images (class-balanced,
  /// so the partition sizes and the warm-up work stay the same).
  std::uint64_t data_seed = 0;
  /// Rounds with no CVAE training that must follow the warm-up.
  std::size_t steady_rounds = 100;
  bool socket = false;
  /// Correctness floors (negative = no floor for this workload).
  double accuracy_floor = -1.0;
  double tpr_floor = -1.0;
};

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] WorkloadSpec make_workload(const std::string& name, std::uint64_t seed,
                                         bool smoke);

/// Train, test and auxiliary sets of the workload, generated from data_seed.
struct Datasets {
  fedguard::data::Dataset train;
  fedguard::data::Dataset test;
  fedguard::data::Dataset auxiliary;
};
[[nodiscard]] Datasets make_datasets(const WorkloadSpec& spec);

/// make_datasets + core::build_federation_with_data: the workload's set-up.
[[nodiscard]] fedguard::core::Federation build_workload(const WorkloadSpec& spec);

/// Everything one federation (set-up + all rounds) yields.
struct FederationResult {
  double setup_s = 0.0;  // build_federation (+ server, clients, await_clients)
  double await_s = 0.0;  // socket only: HierarchicalServer::await_clients
  double run_s = 0.0;    // wall time of all rounds
  double warmup_s = 0.0;  // rounds in which some client trained its CVAE
  std::size_t warmup_rounds = 0;
  std::size_t cvae_trainings = 0;
  std::vector<double> round_s;  // per round
  std::vector<bool> steady;     // per round: no client trained its CVAE
  fedguard::fl::RunHistory history;
  std::size_t degraded_rounds = 0;
  std::size_t client_errors = 0;  // socket: client threads that threw
  // Traffic: in-process, program-reported upload + download per round;
  // socket, bytes the loopback interface carried during the rounds.
  std::vector<std::size_t> round_bytes;
  double bytes_per_round = 0.0;
  double analytic_bytes_per_round = 0.0;
  bool loopback_readable = true;
  // Traced runs only (per round; fl.collect = round - aggregate - eval).
  std::vector<double> aggregate_s;
  std::vector<double> merge_s;
  std::vector<double> eval_s;
  std::vector<double> collect_s;
  std::size_t aggregate_calls = 0;
  std::size_t merge_calls = 0;
  bool extra_eval_matches = true;
};

/// One measured federation. `recorder` null = untraced (the product path
/// exactly); non-null = strategy wrapped, spans recorded, extra eval timed.
[[nodiscard]] FederationResult run_federation(const WorkloadSpec& spec,
                                              SpanRecorder* recorder);

/// In-process fl::Server run of the socket workload's config (same shards,
/// same rounds): the reference the socket accuracy series must equal.
[[nodiscard]] FederationResult run_in_process_reference(const WorkloadSpec& spec);

/// One more set-up of the workload (torn down without rounds); seconds.
[[nodiscard]] double setup_only(const WorkloadSpec& spec);

/// Analytic fp32 wire size of a float span (u64 count + 4 bytes each).
[[nodiscard]] constexpr std::size_t wire_bytes(std::size_t count) noexcept {
  return 8 + 4 * count;
}

/// Trailing accuracy window, as run_config reports it.
[[nodiscard]] inline double trailing_accuracy(const fedguard::fl::RunHistory& history) {
  return history.trailing_accuracy(history.rounds.size() * 2 / 3).mean;
}

}  // namespace perfbench
