// Micro-benchmarks of the aggregation operators: throughput as a function of
// cohort size and parameter dimension. Relevant to the paper's Table V
// discussion — Krum's pairwise distances dominate as m grows, GeoMed's
// Weiszfeld iterations cost a small multiple of FedAvg, the medians sort per
// coordinate.

#include <benchmark/benchmark.h>

#include "defenses/fedavg.hpp"
#include "defenses/fedguard.hpp"
#include "defenses/geomed.hpp"
#include "defenses/krum.hpp"
#include "defenses/median.hpp"
#include "defenses/trimmed_mean.hpp"
#include "parallel/kernel_config.hpp"
#include "util/rng.hpp"

namespace {

using namespace fedguard;

/// One round's cohort as the servers hand it over: `count` uniform rows in
/// an arena.
defenses::UpdateMatrix make_updates(std::size_t count, std::size_t dim, std::uint64_t seed) {
  util::Rng rng{seed};
  defenses::UpdateMatrix updates;
  updates.reset(count, dim);
  for (std::size_t k = 0; k < count; ++k) {
    updates.meta(k).client_id = static_cast<int>(k);
    updates.meta(k).num_samples = 100;
    for (auto& v : updates.psi(k)) v = rng.uniform_float(-1.0f, 1.0f);
  }
  return updates;
}

template <typename Strategy, typename... Args>
void run_aggregator(benchmark::State& state, Args&&... args) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  const defenses::UpdateMatrix updates = make_updates(count, dim, 42);
  const std::vector<float> global(dim, 0.0f);
  Strategy strategy{std::forward<Args>(args)...};
  defenses::AggregationContext context;
  context.global_parameters = global;
  defenses::AggregationResult result;
  for (auto _ : state) {
    strategy.aggregate_into(context, defenses::UpdateView{updates}, result);
    benchmark::DoNotOptimize(result.parameters.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count * dim));
}

void BM_FedAvg(benchmark::State& state) {
  run_aggregator<defenses::FedAvgAggregator>(state);
}
void BM_GeoMed(benchmark::State& state) {
  run_aggregator<defenses::GeoMedAggregator>(state);
}
void BM_Krum(benchmark::State& state) {
  run_aggregator<defenses::KrumAggregator>(state, 0.25, std::size_t{1});
}
void BM_CoordinateMedian(benchmark::State& state) {
  run_aggregator<defenses::CoordinateMedianAggregator>(state);
}
void BM_TrimmedMean(benchmark::State& state) {
  run_aggregator<defenses::TrimmedMeanAggregator>(state, 0.2);
}

void aggregator_args(benchmark::internal::Benchmark* bench) {
  // (clients per round, parameter dimension). m=50 matches the paper.
  bench->Args({10, 100000})->Args({50, 100000})->Args({50, 500000})->Args({100, 100000});
  bench->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_FedAvg)->Apply(aggregator_args);
BENCHMARK(BM_GeoMed)->Apply(aggregator_args);
BENCHMARK(BM_Krum)->Apply(aggregator_args);
BENCHMARK(BM_CoordinateMedian)->Apply(aggregator_args);
BENCHMARK(BM_TrimmedMean)->Apply(aggregator_args);

// The pairwise-distance matrix in isolation, with an explicit kernel thread
// count as the LAST argument (0 thresholds so the parallel path always
// engages; threads = 1 measures the serial loop through the same dispatch).
void BM_KrumPairwise(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  parallel::KernelConfig config;
  config.threads = static_cast<std::size_t>(state.range(2));
  config.distance_min_elements = 1;
  parallel::set_kernel_config(config);
  util::Rng rng{7};
  std::vector<float> points(count * dim);
  for (auto& v : points) v = rng.uniform_float(-1.0f, 1.0f);
  const std::size_t f = count / 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(defenses::krum_scores(points, count, dim, f));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count * count * dim / 2));
  parallel::set_kernel_config(parallel::KernelConfig{});
}
BENCHMARK(BM_KrumPairwise)
    ->Args({50, 100000, 1})
    ->Args({50, 100000, 4})
    ->Args({100, 100000, 1})
    ->Args({100, 100000, 4})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
