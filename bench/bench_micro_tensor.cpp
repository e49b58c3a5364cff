// Micro-benchmarks of the numeric substrate: GEMM variants, im2col, and full
// layer forward/backward passes at the shapes used by the paper's models.

#include <benchmark/benchmark.h>

#include <string>

#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "parallel/kernel_config.hpp"
#include "tensor/kernels/kernel_arch.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace {

using namespace fedguard;
using tensor::Tensor;

Tensor random_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
  Tensor t{std::move(shape)};
  util::Rng rng{seed};
  for (auto& v : t.data()) v = rng.uniform_float(-1.0f, 1.0f);
  return t;
}

// Convention for threaded benches: the LAST benchmark argument is the kernel
// thread count; the serial-fallback thresholds are zeroed so the parallel
// dispatch path is always measured (threads = 1 still runs the serial loop
// nest — kernel_parallel_ranges collapses a single chunk).
void set_kernel_threads(std::size_t threads) {
  parallel::KernelConfig config;
  config.threads = threads;
  config.gemm_min_flops = 1;
  config.elementwise_min_size = 1;
  config.distance_min_elements = 1;
  parallel::set_kernel_config(config);
}

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  set_kernel_threads(static_cast<std::size_t>(state.range(1)));
  const Tensor a = random_tensor({n, n}, 1);
  const Tensor b = random_tensor({n, n}, 2);
  Tensor c{{n, n}};
  for (auto _ : state) {
    tensor::matmul(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
  parallel::set_kernel_config(parallel::KernelConfig{});
}
BENCHMARK(BM_Matmul)
    ->Args({64, 1})
    ->Args({128, 1})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Unit(benchmark::kMicrosecond);

// Per-ISA-tier GEMM rows: the same 256^3 single-thread shape pinned to each
// kernel tier this CPU supports, so the report shows the SIMD speedup
// (acceptance bar: widest tier >= 2x the serial GFLOP/s). The tier is
// encoded as a benchmark-name suffix (BM_Matmul_serial / _avx2 / _avx512).
void BM_MatmulKernelArch(benchmark::State& state, tensor::kernels::KernelArch arch) {
  const auto n = static_cast<std::size_t>(state.range(0));
  set_kernel_threads(static_cast<std::size_t>(state.range(1)));
  tensor::kernels::set_kernel_arch(arch);
  const Tensor a = random_tensor({n, n}, 1);
  const Tensor b = random_tensor({n, n}, 2);
  Tensor c{{n, n}};
  for (auto _ : state) {
    tensor::matmul(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
  tensor::kernels::set_kernel_arch(tensor::kernels::KernelArch::Auto);
  parallel::set_kernel_config(parallel::KernelConfig{});
}

const int register_arch_gemm = [] {
  namespace kernels = fedguard::tensor::kernels;
  for (const kernels::KernelArch arch : {kernels::KernelArch::Serial,
                                         kernels::KernelArch::Avx2,
                                         kernels::KernelArch::Avx512}) {
    if (!kernels::kernel_arch_available(arch)) continue;
    const std::string name =
        std::string{"BM_Matmul_"} + std::string{kernels::to_string(arch)};
    benchmark::RegisterBenchmark(name.c_str(),
                                 [arch](benchmark::State& s) { BM_MatmulKernelArch(s, arch); })
        ->Args({256, 1})
        ->Unit(benchmark::kMicrosecond);
  }
  return 0;
}();

void BM_MatmulTransA(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  set_kernel_threads(static_cast<std::size_t>(state.range(1)));
  const Tensor a = random_tensor({n, n}, 14);
  const Tensor b = random_tensor({n, n}, 15);
  Tensor c{{n, n}};
  for (auto _ : state) {
    tensor::matmul_trans_a(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
  parallel::set_kernel_config(parallel::KernelConfig{});
}
BENCHMARK(BM_MatmulTransA)->Args({256, 1})->Args({256, 4})->Unit(benchmark::kMicrosecond);

void BM_MatmulTransB(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  set_kernel_threads(static_cast<std::size_t>(state.range(1)));
  const Tensor a = random_tensor({n, n}, 3);
  const Tensor b = random_tensor({n, n}, 4);
  Tensor c{{n, n}};
  for (auto _ : state) {
    tensor::matmul_trans_b(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
  parallel::set_kernel_config(parallel::KernelConfig{});
}
BENCHMARK(BM_MatmulTransB)
    ->Args({64, 1})
    ->Args({256, 1})
    ->Args({256, 4})
    ->Unit(benchmark::kMicrosecond);

void BM_Im2Col(benchmark::State& state) {
  // The paper CNN's first layer geometry: 1x28x28, 5x5 kernel, pad 2.
  const tensor::ConvGeometry g{1, 28, 28, 5, 2};
  const Tensor image = random_tensor({g.in_channels, g.in_h, g.in_w}, 5);
  Tensor columns;
  for (auto _ : state) {
    tensor::im2col(image.data(), g, columns);
    benchmark::DoNotOptimize(columns.raw());
  }
}
BENCHMARK(BM_Im2Col)->Unit(benchmark::kMicrosecond);

void BM_Conv2dForward(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  util::Rng rng{6};
  nn::Conv2d conv{1, 32, 5, 28, 28, rng, 2};
  const Tensor input = random_tensor({batch, 1, 28, 28}, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(input).raw());
  }
}
BENCHMARK(BM_Conv2dForward)->Arg(1)->Arg(16)->Unit(benchmark::kMicrosecond);

void BM_Conv2dBackward(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  util::Rng rng{8};
  nn::Conv2d conv{1, 32, 5, 28, 28, rng, 2};
  const Tensor input = random_tensor({batch, 1, 28, 28}, 9);
  const Tensor output = conv.forward(input);
  const Tensor grad = random_tensor(output.shape(), 10);
  for (auto _ : state) {
    conv.zero_grad();
    benchmark::DoNotOptimize(conv.backward(grad).raw());
  }
}
BENCHMARK(BM_Conv2dBackward)->Arg(1)->Arg(16)->Unit(benchmark::kMicrosecond);

void BM_LinearForward(benchmark::State& state) {
  // The paper CNN's dominant FC layer: 3136 -> 512.
  util::Rng rng{11};
  nn::Linear linear{3136, 512, rng};
  const Tensor input = random_tensor({32, 3136}, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linear.forward(input).raw());
  }
}
BENCHMARK(BM_LinearForward)->Unit(benchmark::kMicrosecond);

void BM_Axpy(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  set_kernel_threads(static_cast<std::size_t>(state.range(1)));
  const Tensor x = random_tensor({size}, 16);
  Tensor y = random_tensor({size}, 17);
  for (auto _ : state) {
    tensor::axpy(0.001f, x.data(), y.data());
    benchmark::DoNotOptimize(y.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * size));
  parallel::set_kernel_config(parallel::KernelConfig{});
}
BENCHMARK(BM_Axpy)
    ->Args({1 << 16, 1})
    ->Args({1 << 20, 1})
    ->Args({1 << 20, 4})
    ->Unit(benchmark::kMicrosecond);

void BM_SoftmaxRows(benchmark::State& state) {
  const Tensor logits = random_tensor({256, 10}, 13);
  Tensor probs;
  for (auto _ : state) {
    tensor::softmax_rows(logits, probs);
    benchmark::DoNotOptimize(probs.raw());
  }
}
BENCHMARK(BM_SoftmaxRows)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
