#include "probes.hpp"

#include <algorithm>
#include <numeric>
#include <string>

#include "core/runner.hpp"
#include "data/partition.hpp"
#include "models/classifier.hpp"
#include "models/cvae.hpp"
#include "net/message.hpp"
#include "nn/sequential.hpp"
#include "tensor/kernels/kernel_arch.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using fedguard::tensor::Tensor;

constexpr std::size_t kFastReps = 200;  // sub-millisecond calls
constexpr std::size_t kSlowReps = 20;   // millisecond calls

/// GEMM shapes probed as tensor.matmul.<m>x<k>x<n>_us.
struct MatmulShape {
  std::size_t m;
  std::size_t k;
  std::size_t n;
  const char* role;
};
constexpr MatmulShape kMatmulShapes[] = {
    {16, 784, 128, "clf Linear 1 forward, train batch"},
    {256, 784, 128, "clf Linear 1 forward, eval batch"},
    {8, 794, 96, "cvae encoder hidden forward, cvae batch"},
    {8, 96, 794, "cvae decoder output forward, cvae batch"},
};

/// Median seconds per call of `body`, recorded as one span over all calls.
template <typename Body>
double probe(SpanRecorder& recorder, const std::string& name, std::size_t reps, Body&& body) {
  double seconds = 0.0;
  recorder.time("probe:" + name, "probe", -1,
                [&] { seconds = median_call_seconds(reps, body); });
  return seconds;
}

Tensor batch_of(const fedguard::data::Dataset& data, std::size_t count) {
  std::vector<std::size_t> indices(std::min(count, data.size()));
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  return data.gather(indices).images;
}

/// Forward then backward through every layer of `network` on `input`,
/// timing each layer call separately; metrics nn.<model>.<i>-<Layer>.{fwd,bwd}_us.
void probe_layers(fedguard::nn::Sequential& network, const Tensor& input,
                  const std::string& model, SpanRecorder& recorder, MetricMap& out) {
  const std::size_t layers = network.layer_count();
  std::vector<std::vector<double>> forward(layers);
  std::vector<std::vector<double>> backward(layers);
  recorder.time("probe:nn." + model, "probe", -1, [&] {
    for (std::size_t rep = 0; rep <= kFastReps; ++rep) {  // rep 0 warms up
      Tensor activation = input;
      for (std::size_t i = 0; i < layers; ++i) {
        const auto start = Clock::now();
        activation = network.layer(i).forward(activation);
        if (rep > 0) forward[i].push_back(seconds_since(start));
      }
      Tensor grad{activation.shape(), 1.0f / static_cast<float>(activation.size())};
      for (std::size_t i = layers; i-- > 0;) {
        const auto start = Clock::now();
        grad = network.layer(i).backward(grad);
        if (rep > 0) backward[i].push_back(seconds_since(start));
      }
    }
  });
  for (std::size_t i = 0; i < layers; ++i) {
    const std::string base =
        "nn." + model + "." + std::to_string(i) + "-" + network.layer(i).name();
    put(out, base + ".fwd_us", median(forward[i]) * 1e6, "us", "lower", kFastReps);
    put(out, base + ".bwd_us", median(backward[i]) * 1e6, "us", "lower", kFastReps);
  }
}

void probe_data(const WorkloadSpec& spec, const fedguard::data::Dataset& train,
                SpanRecorder& recorder, MetricMap& out) {
  const auto& config = spec.config;
  // The workload's three generator calls (train, test, auxiliary).
  const double synthesize =
      probe(recorder, "data.synthesize", 3, [&] { (void)make_datasets(spec); });
  put(out, "data.synthesize_s", synthesize, "s", "lower", 3);

  fedguard::data::PartitionOptions partition;
  partition.scheme = config.partition_scheme;
  partition.num_clients = config.num_clients;
  partition.alpha = config.dirichlet_alpha;
  partition.shards_per_client = config.shards_per_client;
  partition.seed = config.seed ^ 0xd17ULL;
  const double split = probe(recorder, "data.partition", kSlowReps, [&] {
    (void)fedguard::data::make_partition(train, partition);
  });
  put(out, "data.partition_ms", split * 1e3, "ms", "lower", kSlowReps);
}

void probe_models(const fedguard::core::Federation& fed,
                  SpanRecorder& recorder, MetricMap& out) {
  const auto& config = fed.config;
  const auto geometry = config.geometry();
  const fedguard::data::Dataset& local = fed.clients.front()->local_data();
  const std::span<const float> global = fed.server->global_parameters();

  // One client's CVAE training, as Client::ensure_cvae_trained runs it.
  {
    std::vector<std::size_t> all(local.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    const Tensor flat = local.gather_flat(all);
    std::uint64_t seed = config.seed;
    const double train = probe(recorder, "models.cvae_train", 2, [&] {
      fedguard::models::Cvae cvae{config.cvae, ++seed};
      (void)cvae.train(flat, local.labels(), config.client.cvae_epochs,
                       config.client.cvae_batch_size, config.client.cvae_learning_rate);
    });
    put(out, "models.cvae_train_s", train, "s", "lower", 2,
        std::to_string(local.size()) + " samples, " +
            std::to_string(config.client.cvae_epochs) + " epochs");
  }

  // Fixed per-client-round cost: fresh classifier + load of the globals.
  std::uint64_t seed = config.seed;
  const double init = probe(recorder, "models.classifier_init", kFastReps, [&] {
    fedguard::models::Classifier classifier{config.arch, geometry, ++seed};
    classifier.load_parameters_flat(global);
  });
  put(out, "models.classifier_init_us", init * 1e6, "us", "lower", kFastReps);

  fedguard::models::Classifier classifier{config.arch, geometry, config.seed};
  classifier.load_parameters_flat(global);
  {
    std::vector<std::size_t> indices(std::min(config.client.batch_size, local.size()));
    std::iota(indices.begin(), indices.end(), std::size_t{0});
    const auto batch = local.gather(indices);
    const double step = probe(recorder, "models.classifier_train_batch", kFastReps, [&] {
      (void)classifier.train_batch(batch.images, batch.labels, config.client.learning_rate,
                                   config.client.momentum, config.client.proximal_mu, global);
    });
    put(out, "models.classifier_train_batch_us", step * 1e6, "us", "lower", kFastReps,
        "batch " + std::to_string(indices.size()));
  }
  classifier.load_parameters_flat(global);

  // FedGuard's per-client synthesis (t/m rows from one decoder) and scoring
  // (one classifier on all t synthetic samples).
  const std::size_t t = config.fedguard_total_samples;
  const std::size_t m = config.clients_per_round;
  const std::size_t rows = (t + m - 1) / m;
  fedguard::util::Rng rng{config.seed ^ 0x9e0bULL};
  fedguard::models::CvaeDecoder decoder{config.cvae, config.seed};
  {
    const Tensor z = fedguard::models::sample_standard_normal(rows, config.cvae.latent, rng);
    std::vector<int> labels(rows);
    for (std::size_t i = 0; i < rows; ++i) labels[i] = static_cast<int>(i % geometry.num_classes);
    const double decode = probe(recorder, "models.decoder_decode", kFastReps,
                                [&] { (void)decoder.decode(z, labels); });
    put(out, "models.decoder_decode_us", decode * 1e6, "us", "lower", kFastReps,
        std::to_string(rows) + " rows");
  }
  {
    const Tensor z = fedguard::models::sample_standard_normal(t, config.cvae.latent, rng);
    std::vector<int> labels(t);
    for (std::size_t i = 0; i < t; ++i) labels[i] = static_cast<int>(i % geometry.num_classes);
    Tensor images = decoder.decode(z, labels);
    images.reshape({t, geometry.channels, geometry.height, geometry.width});
    const double score = probe(recorder, "models.classifier_eval_syn", kFastReps,
                               [&] { (void)classifier.evaluate_accuracy(images, labels); });
    put(out, "models.classifier_eval_syn_us", score * 1e6, "us", "lower", kFastReps,
        std::to_string(t) + " samples");
  }

  // Global-model evaluation over the test set in the servers' 256 batches.
  {
    std::vector<fedguard::data::Dataset::Batch> batches;
    for (std::size_t start = 0; start < fed.test_set.size(); start += 256) {
      std::vector<std::size_t> indices(std::min<std::size_t>(256, fed.test_set.size() - start));
      std::iota(indices.begin(), indices.end(), start);
      batches.push_back(fed.test_set.gather(indices));
    }
    const double eval = probe(recorder, "models.classifier_eval", kSlowReps, [&] {
      for (const auto& batch : batches) {
        (void)classifier.evaluate_accuracy(batch.images, batch.labels);
      }
    });
    put(out, "models.classifier_eval_ms", eval * 1e3, "ms", "lower", kSlowReps);
  }

  // Layer by layer, named with the model.
  {
    fedguard::models::Classifier probe_net{config.arch, geometry, config.seed};
    probe_layers(probe_net.network(), batch_of(local, config.client.batch_size), "clf",
                 recorder, out);
    fedguard::models::CvaeDecoder probe_decoder{config.cvae, config.seed};
    const std::size_t batch = config.client.cvae_batch_size;
    Tensor zy{{batch, config.cvae.decoder_input()}};
    for (auto& v : zy.data()) v = static_cast<float>(rng.normal());
    probe_layers(probe_decoder.network(), zy, "cvae.dec", recorder, out);
  }
}

void probe_tensor(SpanRecorder& recorder, MetricMap& out) {
  fedguard::util::Rng rng{0x7e450aULL};
  for (const MatmulShape& shape : kMatmulShapes) {
    std::vector<float> a(shape.m * shape.k);
    std::vector<float> b(shape.k * shape.n);
    std::vector<float> c(shape.m * shape.n);
    for (auto& v : a) v = static_cast<float>(rng.normal());
    for (auto& v : b) v = static_cast<float>(rng.normal());
    const std::string name = "tensor.matmul." + std::to_string(shape.m) + "x" +
                             std::to_string(shape.k) + "x" + std::to_string(shape.n);
    // b is laid out [n, k]: the Linear forward form (X · Wᵀ).
    const double seconds = probe(recorder, name, kFastReps, [&] {
      fedguard::tensor::matmul_trans_b(a.data(), b.data(), c.data(), shape.m, shape.k,
                                       shape.n);
    });
    put(out, name + "_us", seconds * 1e6, "us", "lower", kFastReps,
        std::string{shape.role} + ", tier " +
            std::string{fedguard::tensor::kernels::to_string(
                fedguard::tensor::kernels::active_kernel_arch())});
  }
}

void probe_net(const fedguard::core::Federation& fed, SpanRecorder& recorder, MetricMap& out) {
  namespace net = fedguard::net;
  const std::span<const float> global = fed.server->global_parameters();
  const bool decoders = fed.strategy->wants_decoders();
  const std::size_t theta = decoders ? fed.strategy->decoder_parameter_count() : 0;

  net::RoundRequest request;
  request.round = 7;
  request.want_decoder = decoders;
  request.psi_codec = fed.config.wire_codec;
  request.psi_chunk = fed.config.wire_chunk_size;
  request.global_parameters.assign(global.begin(), global.end());
  const double request_encode = probe(recorder, "net.request_encode", kFastReps,
                                      [&] { (void)net::encode_round_request(request); });
  put(out, "net.request_encode_us", request_encode * 1e6, "us", "lower", kFastReps);

  net::RoundReply reply;
  reply.round = 7;
  reply.psi_codec = fed.config.wire_codec;
  reply.psi_chunk = fed.config.wire_chunk_size;
  reply.update.client_id = 1;
  reply.update.num_samples = fed.clients.front()->num_samples();
  reply.update.psi.assign(global.begin(), global.end());
  reply.update.theta.assign(theta, 0.25f);
  std::vector<std::byte> payload;
  const double reply_encode = probe(recorder, "net.reply_encode", kFastReps,
                                    [&] { payload = net::encode_round_reply(reply); });
  put(out, "net.reply_encode_us", reply_encode * 1e6, "us", "lower", kFastReps,
      std::to_string(payload.size()) + " B payload");
  const double reply_decode = probe(recorder, "net.reply_decode", kFastReps,
                                    [&] { (void)net::decode_round_reply(payload); });
  put(out, "net.reply_decode_us", reply_decode * 1e6, "us", "lower", kFastReps);

  const net::Message message{net::MessageType::RoundReply, payload};
  std::vector<std::byte> frame;
  const double frame_encode = probe(recorder, "net.frame_encode", kFastReps,
                                    [&] { frame = net::encode_frame(message); });
  put(out, "net.frame_encode_us", frame_encode * 1e6, "us", "lower", kFastReps,
      std::to_string(frame.size()) + " B frame");
  const double frame_decode = probe(recorder, "net.frame_decode", kFastReps,
                                    [&] { (void)net::decode_frame(frame); });
  put(out, "net.frame_decode_us", frame_decode * 1e6, "us", "lower", kFastReps, "incl. CRC check");
}

}  // namespace

void run_probes(const WorkloadSpec& spec, SpanRecorder& recorder, MetricMap& out) {
  const fedguard::core::Federation fed = build_workload(spec);
  probe_data(spec, fed.train_set, recorder, out);
  probe_models(fed, recorder, out);
  probe_tensor(recorder, out);
  probe_net(fed, recorder, out);
}

}  // namespace perfbench
