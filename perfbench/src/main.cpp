// perfbench_e2e: runs one benchmark workload and prints one JSON report
// line. Invoked by perfbench/run.py, which builds it, prints the report and
// reduces it to the metric set declared in BENCHMARK.json.
//
//   perfbench_e2e --workload NAME --seed N --seconds S --trace 0|1
//                 [--smoke] [--trace-out FILE]
//
// --trace 0 measures untraced federations back to back while the next one
// still fits in S seconds (at least two, so the timings can take the
// federation least disturbed by host contention). --trace 1 measures pairs
// of an untraced and a traced federation (at least one), then runs the layer
// probes, and writes the recorded spans to FILE once at exit.

#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "parallel/kernel_config.hpp"
#include "parallel/thread_pool.hpp"
#include "probes.hpp"
#include "tensor/kernels/kernel_arch.hpp"
#include "util/logging.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
};

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument{"missing value for " + flag};
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument{"--trace takes 0 or 1"};
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      throw std::invalid_argument{"unknown flag " + flag};
    }
  }
  if (!have_workload || !have_seed) {
    throw std::invalid_argument{"--workload and --seed are required"};
  }
  return options;
}

struct Gate {
  std::string name;
  bool pass = false;
  std::string detail;
};

// ---- Host fingerprint ---------------------------------------------------------

std::string cpuinfo_field(const std::string& key) {
  std::ifstream file{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(file, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string value = line.substr(colon + 1);
    value.erase(0, value.find_first_not_of(' '));
    return value;
  }
  return "unknown";
}

std::string env_or(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : value;
}

std::vector<std::pair<std::string, std::string>> fingerprint() {
  // SIMD and FP flags the kernels care about, in /proc/cpuinfo order.
  std::string simd;
  {
    std::istringstream flags{cpuinfo_field("flags")};
    std::string flag;
    while (flags >> flag) {
      if (flag.rfind("avx", 0) == 0 || flag.rfind("sse", 0) == 0 || flag == "fma" ||
          flag == "f16c" || flag == "ssse3") {
        simd += (simd.empty() ? "" : " ") + flag;
      }
    }
  }
  const std::string all_flags = cpuinfo_field("flags");
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a of the full flag list
  for (const char c : all_flags) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  char hash_text[20];
  std::snprintf(hash_text, sizeof hash_text, "%016llx", static_cast<unsigned long long>(hash));
  return {
      {"cpu_model", cpuinfo_field("model name")},
      {"cpu_simd_flags", simd},
      {"cpu_flags_fnv1a", hash_text},
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"kernel_arch", std::string{fedguard::tensor::kernels::to_string(
                          fedguard::tensor::kernels::active_kernel_arch())}},
      {"global_pool_threads",
       std::to_string(fedguard::parallel::global_pool().thread_count())},
      {"kernel_pool_threads", std::to_string(fedguard::parallel::kernel_threads())},
      {"env_FEDGUARD_THREADS", env_or("FEDGUARD_THREADS", "")},
      {"env_FEDGUARD_KERNEL_ARCH", env_or("FEDGUARD_KERNEL_ARCH", "")},
      {"compiler", std::string{"gcc-compatible "} + __VERSION__},
      {"build_type", PERFBENCH_BUILD_TYPE},
  };
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- Aggregation over federations ---------------------------------------------

std::vector<double> steady_values(const FederationResult& run,
                                  const std::vector<double> FederationResult::*field) {
  std::vector<double> values;
  const std::vector<double>& series = run.*field;
  for (std::size_t r = 0; r < series.size(); ++r) {
    if (run.steady[r]) values.push_back(series[r]);
  }
  return values;
}

std::vector<double> steady_values(const std::vector<FederationResult>& runs,
                                  const std::vector<double> FederationResult::*field) {
  std::vector<double> values;
  for (const auto& run : runs) {
    const std::vector<double> part = steady_values(run, field);
    values.insert(values.end(), part.begin(), part.end());
  }
  return values;
}

double steady_round_ms(const FederationResult& run, double q) {
  return quantile(steady_values(run, &FederationResult::round_s), q) * 1e3;
}

template <typename Getter>
std::vector<double> collect(const std::vector<FederationResult>& runs, Getter get) {
  std::vector<double> values;
  for (const auto& run : runs) values.push_back(get(run));
  return values;
}

/// The lowest per-federation value of the run. Host contention on a shared
/// machine comes in windows of tens of seconds; the least-disturbed
/// federation of a run is what stays comparable from run to run.
template <typename Getter>
double best_federation(const std::vector<FederationResult>& runs, Getter get) {
  const std::vector<double> values = collect(runs, get);
  return *std::min_element(values.begin(), values.end());
}

void end_to_end_metrics(const WorkloadSpec& spec, const std::vector<FederationResult>& plain,
                        const std::vector<double>& setups, MetricMap& out) {
  const std::size_t k = plain.size();
  const std::string best_of = "best of " + std::to_string(k) + " federations";
  put(out, "setup_s", median(setups), "s", "lower", setups.size(),
      spec.socket ? "data + build_federation_with_data + server + client connect + await_clients"
                  : "data + build_federation_with_data");
  put(out, "run_s", best_federation(plain, [](const auto& r) { return r.run_s; }), "s", "lower",
      k, "all rounds, accept excluded; " + best_of);
  put(out, "run_median_s", median(collect(plain, [](const auto& r) { return r.run_s; })), "s",
      "lower", k, "median over federations");
  put(out, "warmup_s", best_federation(plain, [](const auto& r) { return r.warmup_s; }), "s",
      "lower", k, "rounds with a CVAE training; " + best_of);
  const std::size_t per_federation =
      steady_values(plain.front(), &FederationResult::round_s).size();
  for (const auto& [name, q] : {std::pair{"round_p50", 0.5}, std::pair{"round_p90", 0.9}}) {
    put(out, std::string{name} + "_ms",
        best_federation(plain, [q = q](const auto& r) { return steady_round_ms(r, q); }), "ms",
        "lower", per_federation, "steady rounds of one federation; " + best_of);
    const std::vector<double> pooled = steady_values(plain, &FederationResult::round_s);
    put(out, std::string{name} + "_pooled_ms", quantile(pooled, q) * 1e3, "ms", "lower",
        pooled.size(), "steady rounds of all federations");
  }
  const FederationResult& first = plain.front();
  put(out, "accuracy", trailing_accuracy(first.history), "share", "higher",
      first.history.rounds.size() * 2 / 3, "trailing test-accuracy mean");
  if (spec.config.attack != fedguard::attacks::AttackType::None) {
    put(out, "malicious_rejected_share", first.history.true_positive_rate(), "share",
        "higher", 1, "detection TPR");
    put(out, "benign_rejected_share", first.history.false_positive_rate(), "share", "lower",
        1, "detection FPR");
  }
  put(out, "bytes_per_round",
      median(collect(plain, [](const auto& r) { return r.bytes_per_round; })), "B", "lower",
      plain.size(),
      spec.socket ? "loopback bytes incl. TCP/IP framing" : "program-reported upload + download");
  if (spec.socket) {
    double reported = 0.0;
    for (const auto& record : first.history.rounds) {
      reported += static_cast<double>(record.server_upload_bytes + record.server_download_bytes);
    }
    put(out, "program_bytes_per_round",
        reported / static_cast<double>(first.history.rounds.size()), "B", "", 1,
        "RoundRecord upload + download as HierarchicalServer fills them");
  }
}

void layer_metrics(const WorkloadSpec& spec, const std::vector<FederationResult>& plain,
                   const std::vector<FederationResult>& traced, MetricMap& out) {
  const auto p50_ms = [&](std::vector<double> FederationResult::*field) {
    const std::vector<double> values = steady_values(traced, field);
    return std::make_pair(quantile(values, 0.5) * 1e3, values.size());
  };
  const auto [aggregate, aggregate_n] = p50_ms(&FederationResult::aggregate_s);
  put(out, "fl.aggregate_ms", aggregate, "ms", "lower", aggregate_n,
      spec.socket ? "root merge through the wrapped strategy" : "wrapped aggregate_into");
  const auto [eval, eval_n] = p50_ms(&FederationResult::eval_s);
  put(out, "fl.eval_ms", eval, "ms", "lower", eval_n, "extra evaluation from outside");
  const auto [collect_ms, collect_n] = p50_ms(&FederationResult::collect_s);
  put(out, "fl.collect_ms", collect_ms, "ms", "lower", collect_n,
      "round self time: round - aggregate - eval");
  const FederationResult& first = traced.front();
  put(out, "fl.aggregate_calls",
      static_cast<double>(first.aggregate_calls + first.merge_calls), "count", "", 1,
      "strategy calls through the wrapper, first traced federation");
  put(out, "client.cvae_trainings", static_cast<double>(first.cvae_trainings), "count", "", 1);
  put(out, "client.warmup_rounds", static_cast<double>(first.warmup_rounds), "count", "", 1);
  if (spec.socket) {
    put(out, "net.await_clients_s",
        median(collect(traced, [](const auto& r) { return r.await_s; })), "s", "lower",
        traced.size(), "billed to setup_s only");
    const auto [merge, merge_n] = p50_ms(&FederationResult::merge_s);
    put(out, "net.merge_ms", merge, "ms", "lower", merge_n);
  }
  const double traced_run = best_federation(traced, [](const auto& r) { return r.run_s; });
  const double plain_run = best_federation(plain, [](const auto& r) { return r.run_s; });
  put(out, "trace.overhead_s", traced_run - plain_run, "s", "lower", traced.size(),
      "traced run_s - untraced run_s");
}

// ---- Correctness gates ----------------------------------------------------------

bool same_series(const FederationResult& a, const FederationResult& b) {
  return a.history.accuracy_series() == b.history.accuracy_series();
}

std::vector<Gate> gates_for(const WorkloadSpec& spec, const std::vector<FederationResult>& plain,
                            const std::vector<FederationResult>& traced,
                            const FederationResult* reference) {
  std::vector<Gate> gates;
  const auto add = [&](std::string name, bool pass, std::string detail) {
    gates.push_back(Gate{std::move(name), pass, std::move(detail)});
  };
  const FederationResult& first = plain.front();

  std::size_t stragglers = 0;
  std::size_t degraded = 0;
  std::size_t client_errors = 0;
  for (const auto* runs : {&plain, &traced}) {
    for (const auto& run : *runs) {
      for (const auto& record : run.history.rounds) stragglers += record.stragglers;
      degraded += run.degraded_rounds;
      client_errors += run.client_errors;
    }
  }
  add("no_failed_updates", stragglers == 0 && degraded == 0 && client_errors == 0,
      "stragglers=" + std::to_string(stragglers) + " degraded_rounds=" +
          std::to_string(degraded) + " client_errors=" + std::to_string(client_errors));

  bool repeats_identical = true;
  for (const auto& run : plain) repeats_identical = repeats_identical && same_series(run, first);
  add("repeat_series_identical", repeats_identical,
      std::to_string(plain.size()) + " untraced federations, same seed");

  if (spec.accuracy_floor >= 0.0) {
    const double accuracy = trailing_accuracy(first.history);
    add("accuracy_floor", accuracy >= spec.accuracy_floor,
        json_number(accuracy) + " >= " + json_number(spec.accuracy_floor));
  }
  if (spec.tpr_floor >= 0.0) {
    const double tpr = first.history.true_positive_rate();
    add("tpr_floor", tpr >= spec.tpr_floor,
        json_number(tpr) + " >= " + json_number(spec.tpr_floor));
  }

  if (!spec.socket) {
    bool exact = true;
    for (const auto* runs : {&plain, &traced}) {
      for (const auto& run : *runs) {
        for (const std::size_t bytes : run.round_bytes) {
          exact = exact && static_cast<double>(bytes) == run.analytic_bytes_per_round;
        }
      }
    }
    add("bytes_match_table_v", exact,
        "every round = m*wire(psi) up + m*(wire(psi)+wire(theta)) down = " +
            json_number(first.analytic_bytes_per_round) + " B");
  } else {
    add("socket_matches_in_process",
        reference != nullptr && same_series(first, *reference),
        "accuracy series vs in-process fl::Server, shards=2, " +
            std::to_string(first.history.rounds.size()) + " rounds");
    bool covered = true;
    for (const auto& run : plain) {
      covered = covered && run.loopback_readable && run.bytes_per_round > 0.0 &&
                run.bytes_per_round >= run.analytic_bytes_per_round;
    }
    add("loopback_bytes_cover_payload", covered,
        "lo bytes/round " + json_number(first.bytes_per_round) + " >= payload floor " +
            json_number(first.analytic_bytes_per_round));
  }

  if (!traced.empty()) {
    bool identical = true;
    bool eval_matches = true;
    for (const auto& run : traced) {
      identical = identical && same_series(run, first);
      eval_matches = eval_matches && run.extra_eval_matches;
    }
    add("traced_series_identical", identical,
        std::to_string(traced.size()) + " traced federations vs untraced, bit for bit");
    add("extra_eval_matches", eval_matches, "outside evaluation == RoundRecord accuracy");
  }
  return gates;
}

// ---- Report --------------------------------------------------------------------

void print_report(const Options& options, const std::vector<Gate>& gates,
                  const MetricMap& metrics, const std::vector<FederationResult>& plain,
                  std::size_t attempted, std::size_t failed, const std::string& trace_file) {
  bool correct = failed == 0;
  for (const Gate& gate : gates) correct = correct && gate.pass;
  std::ostringstream out;
  out << "{\"workload\":" << json_string(options.workload) << ",\"seed\":" << options.seed
      << ",\"trace\":" << (options.trace ? 1 : 0)
      << ",\"smoke\":" << (options.smoke ? "true" : "false")
      << ",\"federation_run_s\":[";
  for (std::size_t i = 0; i < plain.size(); ++i) {
    out << (i > 0 ? "," : "") << json_number(plain[i].run_s);
  }
  out << "],\"federation_round_p50_ms\":[";
  for (std::size_t i = 0; i < plain.size(); ++i) {
    out << (i > 0 ? "," : "") << json_number(steady_round_ms(plain[i], 0.5));
  }
  out << "],\"fingerprint\":{";
  bool comma = false;
  for (const auto& [key, value] : fingerprint()) {
    out << (comma ? "," : "") << json_string(key) << ":" << json_string(value);
    comma = true;
  }
  out << "},\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << attempted
      << ",\"failed\":" << failed << ",\"gates\":[";
  comma = false;
  for (const Gate& gate : gates) {
    out << (comma ? "," : "") << "{\"name\":" << json_string(gate.name)
        << ",\"pass\":" << (gate.pass ? "true" : "false")
        << ",\"detail\":" << json_string(gate.detail) << "}";
    comma = true;
  }
  out << "],\"metrics\":{";
  comma = false;
  for (const auto& [name, metric] : metrics) {
    out << (comma ? "," : "") << json_string(name) << ":{\"value\":" << json_number(metric.value)
        << ",\"unit\":" << json_string(metric.unit) << ",\"better\":" << json_string(metric.better)
        << ",\"samples\":" << metric.samples << ",\"note\":" << json_string(metric.note) << "}";
    comma = true;
  }
  out << "},\"trace_file\":" << json_string(trace_file) << "}";
  std::cout << out.str() << std::endl;
}

int run(const Options& options) {
  const std::size_t min_federations = options.trace ? 1 : 2;
  fedguard::util::set_log_level(fedguard::util::LogLevel::Warn);
  const WorkloadSpec spec = make_workload(options.workload, options.seed, options.smoke);

  // The socket workload's accuracy series must equal this in-process run.
  std::optional<FederationResult> reference;
  if (spec.socket) reference = run_in_process_reference(spec);

  SpanRecorder recorder;
  std::vector<FederationResult> plain;
  std::vector<FederationResult> traced;
  const auto budget_start = Clock::now();
  for (;;) {
    const auto start = Clock::now();
    plain.push_back(run_federation(spec, nullptr));
    if (options.trace) traced.push_back(run_federation(spec, &recorder));
    const double last = seconds_since(start);
    const bool next_fits = seconds_since(budget_start) + last <= options.seconds;
    if (options.smoke || (plain.size() >= min_federations && !next_fits)) break;
  }

  std::vector<double> setups = collect(plain, [](const auto& r) { return r.setup_s; });
  while (setups.size() < 5) setups.push_back(setup_only(spec));

  MetricMap metrics;
  end_to_end_metrics(spec, plain, setups, metrics);
  if (options.trace) {
    layer_metrics(spec, plain, traced, metrics);
    run_probes(spec, recorder, metrics);
  }

  const std::vector<Gate> gates = gates_for(spec, plain, traced, reference ? &*reference : nullptr);
  std::size_t attempted = gates.size();
  std::size_t failed = 0;
  for (const auto* runs : {&plain, &traced}) {
    for (const auto& run : *runs) {
      for (const auto& record : run.history.rounds) {
        attempted += record.sampled_clients;
        failed += record.stragglers;
      }
      failed += run.degraded_rounds + run.client_errors;
    }
  }
  for (const Gate& gate : gates) failed += gate.pass ? 0 : 1;
  put(metrics, "failed_share", static_cast<double>(failed) / static_cast<double>(attempted),
      "share", "lower", attempted, "failed client updates + failed gates over attempted");
  put(metrics, "peak_rss_mb", peak_rss_mb(), "MiB", "lower", 1, "getrusage ru_maxrss");

  std::string trace_file;
  if (options.trace && !options.trace_out.empty()) {
    if (!recorder.write_perfetto(options.trace_out)) {
      throw std::runtime_error{"cannot write trace file " + options.trace_out};
    }
    trace_file = options.trace_out;
    put(metrics, "trace.spans", static_cast<double>(recorder.size()), "count", "", 1);
  }
  print_report(options, gates, metrics, plain, attempted, failed, trace_file);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_e2e: " << e.what() << "\n";
    return 1;
  }
}
