// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--size full|toy] [--dataset epinions|ciao|librarything]
//             [--out_dir DIR]
//
// Runs one workload, checks its outputs, writes a result file (metrics,
// machine-and-config block, checks, span totals) under --out_dir and, on
// traced runs, a Chrome trace-event file beside it. The last line of
// stdout is the one-line JSON summary
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Usage errors print the valid names and exit with code 2;
// failed output checks exit with code 1 after printing the summary.

#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "tensor/simd.h"
#include "util/arena.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (the self-test asserts it).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"wall_s", "s"},
    {"throughput_per_s", "1/s"}, {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},  {"peak_rss_mb", "MiB"},
    {"ok_rate", "fraction"},   {"attack_rbar", "rating"},
};

constexpr MetricSpec kPerLayer[] = {
    {"data.generate_s", "s"},
    {"attack.plan_s", "s"},
    {"attack.capacity_size", "count"},
    {"attack.plan_actions", "count"},
    {"attack.hr3", "fraction"},
    {"core.game_round_s", "s"},
    {"core.pds_build_s", "s"},
    {"core.pds_unrolled_s", "s"},
    {"core.mso_iterations", "count"},
    {"core.mso_update_s", "s"},
    {"core.opponent_plan_s", "s"},
    {"solver.cg_solves", "count"},
    {"solver.cg_iterations", "count"},
    {"solver.cg_breakdowns", "count"},
    {"solver.cg_s", "s"},
    {"tensor.hvp_calls", "count"},
    {"tensor.hvp_s", "s"},
    {"tensor.grad_s", "s"},
    {"tensor.mixed_vjp_s", "s"},
    {"tensor.arena_hit_rate", "fraction"},
    {"tensor.arena_high_water_mb", "MiB"},
    {"recsys.victim_train_s", "s"},
    {"recsys.victim_retries", "count"},
    {"recsys.eval_s", "s"},
    {"serve.snapshot_build_s", "s"},
    {"serve.publish_s", "s"},
    {"serve.publishes", "count"},
    {"serve.topk_batch_s", "s"},
    {"serve.batches", "count"},
    {"serve.mean_batch_size", "count"},
    {"serve.max_queue_depth", "count"},
    {"serve.rejected", "count"},
    {"serve.shed", "count"},
    {"serve.degraded", "count"},
    {"scale.ingest_s", "s"},
    {"scale.ingest_peak_rss_mb", "MiB"},
    {"scale.train_s", "s"},
    {"scale.train_peak_rss_mb", "MiB"},
    {"scale.shards_visited", "count"},
    {"scale.peak_shard_bytes", "bytes"},
    {"trace.overhead_s", "s"},
};

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "cell-msopds", "cell-bopds", "serve-hotswap", "shards-ooc"};
  return names;
}

const std::vector<std::string>& DatasetNames() {
  static const std::vector<std::string> names = {"epinions", "ciao",
                                                 "librarything"};
  return names;
}

std::string Join(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

bool Contains(const std::vector<std::string>& names, const std::string& x) {
  for (const std::string& name : names) {
    if (name == x) return true;
  }
  return false;
}

std::string Usage() {
  return "usage: perfbench --workload <name> --seed <n> --seconds <s> "
         "--trace <0|1> [--size full|toy] [--dataset <profile>] "
         "[--out_dir DIR]\n  workloads: " +
         Join(WorkloadNames()) + "\n  datasets: " + Join(DatasetNames()) +
         "\n";
}

msopds::Status ParseUnsigned(const std::string& flag, const std::string& text,
                             uint64_t* value) {
  if (text.empty() || text.size() > 19 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return msopds::Status::InvalidArgument(
        flag + " needs a non-negative integer, got '" + text + "'");
  }
  *value = std::stoull(text);
  return msopds::Status::Ok();
}

msopds::Status ParseArgs(int argc, char** argv, RunOptions* options) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (flag.rfind("--", 0) != 0) {
      return msopds::Status::InvalidArgument("unexpected argument '" + flag +
                                             "'");
    }
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return msopds::Status::InvalidArgument(flag + " needs a value");
    }
    if (flag == "--workload") {
      if (!Contains(WorkloadNames(), value)) {
        return msopds::Status::InvalidArgument("unknown workload '" + value +
                                               "'");
      }
      options->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      MSOPDS_RETURN_IF_ERROR(ParseUnsigned(flag, value, &options->seed));
    } else if (flag == "--seconds") {
      uint64_t seconds = 0;
      MSOPDS_RETURN_IF_ERROR(ParseUnsigned(flag, value, &seconds));
      if (seconds < 1 || seconds > 600) {
        return msopds::Status::OutOfRange("--seconds must be in [1, 600]");
      }
      options->seconds = static_cast<double>(seconds);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return msopds::Status::InvalidArgument("--trace must be 0 or 1");
      }
      options->trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "toy") {
        return msopds::Status::InvalidArgument("--size must be full or toy");
      }
      options->size = value;
    } else if (flag == "--dataset") {
      if (!Contains(DatasetNames(), value)) {
        return msopds::Status::InvalidArgument("unknown dataset '" + value +
                                               "'");
      }
      options->dataset = value;
    } else if (flag == "--out_dir") {
      if (value.empty()) {
        return msopds::Status::InvalidArgument("--out_dir must not be empty");
      }
      options->out_dir = value;
    } else {
      return msopds::Status::InvalidArgument("unknown flag '" + flag + "'");
    }
  }
  if (!have_workload) {
    return msopds::Status::InvalidArgument("--workload is required");
  }
  return msopds::Status::Ok();
}

// --- Minimal JSON output with full-precision numbers. ---

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string ReadCpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && value[0] != '\0' ? value : fallback;
}

/// Machine-and-config block of every result file.
std::string MachineJson(const RunOptions& options, int kernel_threads,
                        int extra_threads) {
  const int nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  struct utsname uts;
  const std::string kernel =
      uname(&uts) == 0 ? std::string(uts.sysname) + " " + uts.release
                       : "unknown";
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  const int threads = kernel_threads + extra_threads;
  std::ostringstream json;
  json << "{\"cores\": " << nproc << ", \"cpu_model\": "
       << Quote(ReadCpuModel()) << ", \"kernel\": " << Quote(kernel)
       << ", \"compiler\": " << Quote(compiler)
       << ", \"build_type\": " << Quote(PERFBENCH_BUILD_TYPE)
       << ", \"git_sha\": " << Quote(EnvOr("PERFBENCH_GIT_SHA", "unknown"))
       << ", \"source_sha256\": "
       << Quote(EnvOr("PERFBENCH_SOURCE_SHA256", "unknown"))
       << ", \"kernel_threads\": " << kernel_threads
       << ", \"process_threads\": " << threads
       << ", \"threads_exceed_nproc\": "
       << (threads > nproc ? "true" : "false")
       << ", \"simd_backend\": " << Quote(msopds::simd::BackendName())
       << ", \"arena\": "
       << (msopds::Arena::Global().enabled() ? "true" : "false")
       << ", \"workload\": " << Quote(options.workload)
       << ", \"seed\": " << options.seed
       << ", \"seconds\": " << Number(options.seconds)
       << ", \"trace\": " << (options.trace ? 1 : 0)
       << ", \"size\": " << Quote(options.size) << "}";
  return json.str();
}

std::string MetricsJson(const WorkloadResult& result, bool per_layer) {
  std::map<std::string, double> values(result.metrics.begin(),
                                       result.metrics.end());
  std::string out = "{";
  bool first = true;
  auto emit = [&](const MetricSpec& spec) {
    const auto it = values.find(spec.name);
    const double value = it == values.end() ? 0.0 : it->second;
    if (!first) out += ", ";
    first = false;
    out += Quote(spec.name) + ": {\"value\": " + Number(value) +
           ", \"unit\": " + Quote(spec.unit) + "}";
  };
  if (per_layer) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }
  return out + "}";
}

std::string SpansJson(const Tracer& tracer) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, totals] : tracer.Totals()) {
    if (!first) out += ", ";
    first = false;
    out += Quote(name) + ": {\"count\": " + std::to_string(totals.count) +
           ", \"total_s\": " + Number(totals.total_s) +
           ", \"self_s\": " + Number(totals.self_s) + "}";
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  RunOptions options;
  const msopds::Status parsed = ParseArgs(argc, argv, &options);
  if (!parsed.ok()) {
    std::fprintf(stderr, "perfbench: %s\n%s", parsed.ToString().c_str(),
                 Usage().c_str());
    return 2;
  }

  Tracer tracer(options.trace);
  WorkloadResult result;
  int extra_threads = 0;
  if (options.workload == "cell-msopds") {
    result = RunCellWorkload(options, /*msopds=*/true, &tracer);
  } else if (options.workload == "cell-bopds") {
    result = RunCellWorkload(options, /*msopds=*/false, &tracer);
  } else if (options.workload == "serve-hotswap") {
    result = RunServeWorkload(options, &tracer);
    extra_threads = 1;  // the engine's batcher thread
  } else {
    result = RunShardsWorkload(options, &tracer);
  }
  const int kernel_threads = msopds::ThreadPool::Global().num_threads();
  if (result.attempted < 1) {
    result.Check(false, "the timed window attempted no operation");
  }
  result.Set("peak_rss_mb", PeakRssMb());
  if (result.attempted > 0) {
    result.Set("ok_rate", static_cast<double>(result.attempted - result.failed) /
                              static_cast<double>(result.attempted));
  }
  result.Fact("spans", std::to_string(tracer.spans().size()));
  const bool correct = result.check_failures.empty();

  std::error_code error;
  std::filesystem::create_directories(options.out_dir, error);
  const std::string stem = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + "-trace" +
                           (options.trace ? "1" : "0");
  std::string trace_path;
  if (options.trace) {
    trace_path = stem + ".trace.json";
    std::ofstream(trace_path) << tracer.ChromeTraceJson() << "\n";
  }
  std::string facts = "{";
  for (size_t i = 0; i < result.facts.size(); ++i) {
    if (i > 0) facts += ", ";
    facts += Quote(result.facts[i].first) + ": " + Quote(result.facts[i].second);
  }
  facts += "}";
  std::string failures = "[";
  for (size_t i = 0; i < result.check_failures.size(); ++i) {
    if (i > 0) failures += ", ";
    failures += Quote(result.check_failures[i]);
  }
  failures += "]";
  {
    std::ofstream file(stem + ".json");
    file << "{\"machine\": " << MachineJson(options, kernel_threads, extra_threads)
         << ",\n \"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << result.attempted
         << ", \"failed\": " << result.failed
         << ",\n \"end_to_end\": " << MetricsJson(result, false)
         << ",\n \"per_layer\": " << MetricsJson(result, true)
         << ",\n \"facts\": " << facts << ",\n \"check_failures\": " << failures
         << ",\n \"spans\": " << SpansJson(tracer)
         << ",\n \"trace_file\": " << Quote(trace_path) << "}\n";
  }

  for (const std::string& failure : result.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("result file: %s.json\n", stem.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              MetricsJson(result, options.trace).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

// --- Shared helpers (workload.h). ---

void WorkloadResult::Set(const std::string& name, double value) {
  for (auto& [key, existing] : metrics) {
    if (key == name) {
      existing = value;
      return;
    }
  }
  metrics.emplace_back(name, value);
}

void WorkloadResult::Fact(const std::string& key, const std::string& value) {
  facts.emplace_back(key, value);
}

void WorkloadResult::Check(bool ok, const std::string& what) {
  if (ok) return;
  for (const std::string& existing : check_failures) {
    if (existing == what) return;
  }
  check_failures.push_back(what);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Min(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

namespace {

// VmHWM at the last ResetPeakRss(), so the process peak survives resets.
double peak_before_reset_mb = 0.0;

}  // namespace

double PhasePeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

double PeakRssMb() {
  return std::max(peak_before_reset_mb, PhasePeakRssMb());
}

bool ResetPeakRss() {
  peak_before_reset_mb = PeakRssMb();
  std::ofstream clear_refs("/proc/self/clear_refs");
  if (!clear_refs.is_open()) return false;
  clear_refs << "5";
  clear_refs.flush();
  return clear_refs.good();
}

uint64_t HashBytes(uint64_t hash, const void* data, size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::string Hex(uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
