#ifndef MSOPDS_BENCH_BENCH_UTIL_H_
#define MSOPDS_BENCH_BENCH_UTIL_H_

// Shared flag parsing and table formatting for the experiment benches.
// Every table/figure binary accepts:
//   --scale=F      synthetic dataset scale (default 0.12; paper size = 1.0)
//   --repeats=N    games averaged per cell (default 1)
//   --seed=N       base RNG seed (default 7)
//   --datasets=a,b comma list from {ciao, epinions, librarything}
//   --budgets=2,3  attacker budget levels b
//   --opponents=1,2 opponent counts (fig6) / opponent budgets (fig7)
//   --methods=a,b  override the method list
//   --threads=N    kernel thread count (0 = MSOPDS_THREADS / hardware);
//                  metrics are bit-identical at any N, timings are not
//
// Resilience-runtime flags (see DESIGN.md "Resilience runtime"):
//   --checkpoint=PATH       JSONL cell checkpoint file; completed cells are
//                           skipped on rerun, so an interrupted sweep
//                           resumes where it stopped
//   --fault_nan=P           inject NaNs into trainer + surrogate gradient
//                           steps with probability P per step
//   --fault_cg=P            simulated CG operator breakdown probability
//   --fault_seed=N          seed of the deterministic fault streams
//   --fault_crash_cell=N    simulate a harness crash (exit 42) before the
//                           N-th executed (non-resumed) cell

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <system_error>
#include <vector>

#include "core/experiment.h"
#include "serve/engine.h"
#include "util/arena.h"
#include "util/checkpoint.h"
#include "util/determinism_lint.h"
#include "util/fault.h"
#include "util/json_writer.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace msopds {

/// Writes a JSON document (plus trailing newline) to `path`, creating
/// missing parent directories first — "--json_out=out/run1/x.json" must
/// produce the file, not silently skip it. Returns false (with a stderr
/// diagnostic) when the directory or file cannot be created.
inline bool WriteJsonFile(const std::string& path,
                          const std::string& payload) {
  const std::filesystem::path target(path);
  if (target.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(target.parent_path(), ec);
    if (ec) {
      std::fprintf(stderr, "cannot create directory %s: %s\n",
                   target.parent_path().string().c_str(),
                   ec.message().c_str());
      return false;
    }
  }
  std::ofstream out(path);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << payload << '\n';
  return out.good();
}

/// Process-lifetime peak resident set in bytes (VmHWM from
/// /proc/self/status, reported by the kernel in kB). Returns 0 where
/// procfs is unavailable — the portable fallback — so callers must treat
/// 0 as "unknown", never as "tiny".
inline int64_t PeakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atoll(line.c_str() + 6) * 1024;
    }
  }
  return 0;
}

/// Resets the kernel's peak-RSS watermark (Linux: "5" into
/// /proc/self/clear_refs) so a bench can attribute peaks to phases —
/// scale_bench splits ingest from training this way. Returns false where
/// the platform does not support it; callers then report one
/// whole-process peak instead of per-phase peaks.
inline bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  if (!clear_refs.is_open()) return false;
  clear_refs << "5";
  clear_refs.flush();
  return clear_refs.good();
}

/// Point-in-time memory snapshot: process peak RSS (PeakRssBytes; 0
/// where procfs is unavailable) plus the tensor arena's counters.
/// Sample() at the end of a bench to report how much memory the run
/// actually touched alongside the arena's own accounting of live /
/// cached / high-water tape bytes.
struct MemStats {
  int64_t peak_rss_kb = 0;
  ArenaStats arena;

  static MemStats Sample() {
    MemStats stats;
    stats.arena = Arena::Global().stats();
    stats.peak_rss_kb = PeakRssBytes() / 1024;
    return stats;
  }
};

/// One BENCH_scale.json row: synthetic dataset size × storage mode, with
/// the ingest and training phases' wall time and peak RSS reported
/// separately (ResetPeakRss between the phases where supported).
struct ScaleRowStats {
  int64_t num_users = 0;
  int64_t num_items = 0;
  int64_t num_ratings = 0;
  /// "inmem" (whole dataset resident) or "ooc" (shard-at-a-time).
  std::string mode = "inmem";
  /// Shard count of the out-of-core arms; 0 for the in-memory arm.
  int64_t num_shards = 0;
  double ingest_seconds = 0.0;
  double train_seconds = 0.0;
  int64_t ingest_peak_rss_bytes = 0;
  int64_t train_peak_rss_bytes = 0;
  /// Largest single shard file; the out-of-core working-set bound.
  int64_t peak_shard_bytes = 0;
  double final_loss = 0.0;
};

/// Emits one scale-trajectory row into the current JSON object. Call
/// between Key/Value pairs of an open object, like WriteRobustnessFields.
inline void WriteScaleFields(JsonWriter* json, const ScaleRowStats& row) {
  json->Key("users").Int(row.num_users);
  json->Key("items").Int(row.num_items);
  json->Key("ratings").Int(row.num_ratings);
  json->Key("mode").String(row.mode);
  json->Key("shards").Int(row.num_shards);
  json->Key("ingest_seconds").Double(row.ingest_seconds);
  json->Key("train_seconds").Double(row.train_seconds);
  json->Key("ingest_peak_rss_bytes").Int(row.ingest_peak_rss_bytes);
  json->Key("train_peak_rss_bytes").Int(row.train_peak_rss_bytes);
  json->Key("peak_shard_bytes").Int(row.peak_shard_bytes);
  json->Key("final_loss").Double(row.final_loss);
}

/// Static-analysis posture the bench numbers were produced under: the
/// determinism linter's counts over the source tree this binary was
/// built from (DESIGN.md §13), and whether the Clang thread-safety
/// annotations were active in this build. Benches record it in their
/// JSON headers the same way they record thread counts and fault
/// plans, so a result file carries the hygiene of its build.
struct StaticCheckStats {
  /// False when the build does not know its source root (or the tree
  /// moved): the lint_* fields are then meaningless zeros.
  bool sampled = false;
  int64_t lint_files = 0;
  int64_t lint_checks = 0;
  int64_t lint_findings = 0;
  /// True when util/sync.h's annotations expand to real Clang
  /// attributes in this translation unit (Clang builds), i.e. a
  /// -Wthread-safety pass over this build would be enforceable.
  bool thread_safety_annotations = false;

  static StaticCheckStats Sample() {
    StaticCheckStats stats;
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
    stats.thread_safety_annotations = true;
#endif
#endif
#ifdef MSOPDS_SOURCE_ROOT
    const std::filesystem::path src =
        std::filesystem::path(MSOPDS_SOURCE_ROOT) / "src";
    std::error_code ec;
    if (std::filesystem::is_directory(src, ec)) {
      const LintReport report = RunDeterminismLint(src.string());
      stats.sampled = true;
      stats.lint_files = report.files_scanned;
      stats.lint_checks = report.checks_run;
      stats.lint_findings = static_cast<int64_t>(report.findings.size());
    }
#endif
    return stats;
  }
};

/// Emits one "static_checks" object into the current JSON object.
/// Call between Key/Value pairs of an open object, like
/// WriteRobustnessFields.
inline void WriteStaticChecksFields(JsonWriter* json,
                                    const StaticCheckStats& stats) {
  json->Key("static_checks").BeginObject();
  json->Key("sampled").Bool(stats.sampled);
  json->Key("lint_files").Int(stats.lint_files);
  json->Key("lint_checks").Int(stats.lint_checks);
  json->Key("lint_findings").Int(stats.lint_findings);
  json->Key("lint_clean").Bool(stats.sampled && stats.lint_findings == 0);
  json->Key("thread_safety_annotations").Bool(stats.thread_safety_annotations);
  json->EndObject();
}

/// Emits the serving engine's robustness counters (plus client-side
/// retry totals) into the current JSON object, so BENCH_serving.json
/// rows track the shed/reject/degraded trajectory the same way the perf
/// tables track latency. `precision` is the snapshot storage mode the
/// run published ("fp64" / "fp16" / "int8"), so quantized rows are
/// distinguishable from full-precision ones. Call between Key/Value
/// pairs of an open object.
inline void WriteRobustnessFields(JsonWriter* json,
                                  const serve::EngineStats& stats,
                                  int64_t retries,
                                  const std::string& precision = "fp64") {
  json->Key("precision").String(precision);
  json->Key("admitted").Int(stats.admitted);
  json->Key("rejected").Int(stats.rejected);
  json->Key("shed").Int(stats.shed);
  json->Key("degraded").Int(stats.degraded);
  json->Key("cancelled").Int(stats.cancelled);
  json->Key("retries").Int(retries);
  json->Key("deadline_misses").Int(stats.deadline_misses);
  json->Key("max_queue_depth").Int(stats.max_queue_depth);
  json->Key("publish_failures").Int(stats.publish_failures);
}

/// Summary of one benchmark cell's repetitions. The committed speedup
/// tables use the min (least-noise estimate); median and relative
/// spread ride along so a single noisy repetition is visible in the
/// JSON instead of silently shifting a claim.
struct RepStats {
  double min = 0.0;
  double median = 0.0;
  /// (max - min) / min; 0 for a single repetition.
  double spread = 0.0;

  static RepStats Of(std::vector<double> samples) {
    RepStats stats;
    if (samples.empty()) return stats;
    std::sort(samples.begin(), samples.end());
    stats.min = samples.front();
    stats.median = samples[samples.size() / 2];
    if (stats.min > 0.0) {
      stats.spread = (samples.back() - samples.front()) / stats.min;
    }
    return stats;
  }
};

/// Emits one cell's repetition statistics under `prefix` ("<prefix>_ns",
/// "<prefix>_median_ns", "<prefix>_spread") into the current object.
inline void WriteRepStatsFields(JsonWriter* json, const std::string& prefix,
                                const RepStats& stats) {
  json->Key(prefix + "_ns").Double(stats.min);
  json->Key(prefix + "_median_ns").Double(stats.median);
  json->Key(prefix + "_spread").Double(stats.spread);
}

/// A bad flag value is a usage error: names the flag, the value and what
/// was expected, then exits 2 (like an unknown flag or dataset name).
[[noreturn]] inline void BadFlagValue(const char* flag, const std::string& text,
                                      const std::string& expected) {
  std::fprintf(stderr, "%s: invalid value '%s'; expected %s\n", flag,
               text.c_str(), expected.c_str());
  std::exit(2);
}

/// Strict integer flag value: the whole token must parse and lie in
/// [min, max]; "2x", "x" and "" are usage errors, never 0 or a prefix.
inline int64_t ParseIntFlag(const char* flag, const std::string& text,
                            int64_t min, int64_t max) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno == ERANGE || value < min ||
      value > max) {
    BadFlagValue(flag, text,
                 StrFormat("an integer in [%lld, %lld]",
                           static_cast<long long>(min),
                           static_cast<long long>(max)));
  }
  return value;
}

/// Strict real flag value: the whole token must parse and satisfy
/// `in_range`, which `expected` describes.
inline double ParseRealFlag(const char* flag, const std::string& text,
                            bool (*in_range)(double), const char* expected) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || errno == ERANGE || !in_range(value)) {
    BadFlagValue(flag, text, expected);
  }
  return value;
}

struct BenchFlags {
  double scale = 0.12;
  /// 0 = "use the bench's own default" (see ResolveRepeats).
  int repeats = 0;
  uint64_t seed = 7;
  /// Empty = "use the bench's own default" (see ResolveDatasets).
  std::vector<std::string> datasets;
  std::vector<int> budgets = {2, 3, 4, 5};
  std::vector<int> opponents = {1, 2, 3, 4};
  std::vector<std::string> methods;
  /// Kernel thread count; 0 keeps the global pool's default
  /// (MSOPDS_THREADS or hardware concurrency).
  int threads = 0;

  /// Checkpoint file (JSONL); empty = no persistence.
  std::string checkpoint;
  /// Fault-injection plan (all zero/disabled by default).
  double fault_nan = 0.0;
  double fault_cg = 0.0;
  uint64_t fault_seed = 17;
  int fault_crash_cell = -1;

  static BenchFlags Parse(int argc, char** argv) {
    constexpr int64_t kIntMax = std::numeric_limits<int>::max();
    constexpr int64_t kSeedMax = std::numeric_limits<int64_t>::max();
    auto probability = [](double x) { return x >= 0.0 && x <= 1.0; };
    BenchFlags flags;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value_of = [&](const char* prefix) -> const char* {
        const size_t n = std::string(prefix).size();
        if (arg.rfind(prefix, 0) == 0) return arg.c_str() + n;
        return nullptr;
      };
      if (const char* v = value_of("--scale=")) {
        flags.scale = ParseRealFlag(
            "--scale", v, [](double x) { return x > 0.0 && x <= 1.0; },
            "a dataset fraction in (0, 1]");
      } else if (const char* v = value_of("--repeats=")) {
        flags.repeats =
            static_cast<int>(ParseIntFlag("--repeats", v, 1, kIntMax));
      } else if (const char* v = value_of("--seed=")) {
        flags.seed =
            static_cast<uint64_t>(ParseIntFlag("--seed", v, 0, kSeedMax));
      } else if (const char* v = value_of("--datasets=")) {
        flags.datasets.clear();
        for (auto& part : StrSplit(v, ',')) {
          const Status status = CheckExperimentDatasetName(part);
          if (!status.ok()) {
            std::fprintf(stderr, "--datasets: %s\n",
                         status.message().c_str());
            std::exit(2);
          }
          flags.datasets.push_back(part);
        }
      } else if (const char* v = value_of("--budgets=")) {
        flags.budgets.clear();
        for (auto& part : StrSplit(v, ','))
          flags.budgets.push_back(
              static_cast<int>(ParseIntFlag("--budgets", part, 1, 100)));
      } else if (const char* v = value_of("--opponents=")) {
        flags.opponents.clear();
        for (auto& part : StrSplit(v, ','))
          flags.opponents.push_back(
              static_cast<int>(ParseIntFlag("--opponents", part, 1, 100)));
      } else if (const char* v = value_of("--methods=")) {
        flags.methods.clear();
        for (auto& part : StrSplit(v, ',')) flags.methods.push_back(part);
      } else if (const char* v = value_of("--threads=")) {
        flags.threads = static_cast<int>(
            ParseIntFlag("--threads", v, 0, ThreadPool::kMaxThreads));
      } else if (const char* v = value_of("--checkpoint=")) {
        flags.checkpoint = v;
      } else if (const char* v = value_of("--fault_nan=")) {
        flags.fault_nan = ParseRealFlag("--fault_nan", v, probability,
                                        "a probability in [0, 1]");
      } else if (const char* v = value_of("--fault_cg=")) {
        flags.fault_cg = ParseRealFlag("--fault_cg", v, probability,
                                       "a probability in [0, 1]");
      } else if (const char* v = value_of("--fault_seed=")) {
        flags.fault_seed =
            static_cast<uint64_t>(ParseIntFlag("--fault_seed", v, 0, kSeedMax));
      } else if (const char* v = value_of("--fault_crash_cell=")) {
        flags.fault_crash_cell = static_cast<int>(
            ParseIntFlag("--fault_crash_cell", v, -1, kIntMax));
      } else {
        std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
        std::exit(2);
      }
    }
    return flags;
  }

  /// Repeats to use given this bench's default.
  int ResolveRepeats(int bench_default) const {
    return repeats > 0 ? repeats : bench_default;
  }

  /// Datasets to use given this bench's default.
  std::vector<std::string> ResolveDatasets(
      std::vector<std::string> bench_default) const {
    return datasets.empty() ? bench_default : datasets;
  }

  FaultConfig MakeFaultConfig() const {
    FaultConfig config;
    config.seed = fault_seed;
    config.trainer_nan_probability = fault_nan;
    config.surrogate_nan_probability = fault_nan;
    config.solver_breakdown_probability = fault_cg;
    config.crash_at_cell = fault_crash_cell;
    return config;
  }
};

/// Runs one sweep's cells with checkpoint/resume and fault injection
/// (the bench-layer leg of the resilience runtime). Completed cells found
/// in the checkpoint are returned without re-running the game; fresh
/// cells run through RunRepeatedCellChecked, so a cell that exhausts the
/// recovery budget degrades to an explicit recorded failure instead of a
/// silent NaN row. Installs the fault plan from the flags on
/// construction, so fault-free runs with no checkpoint behave (and
/// print) exactly as before this layer existed.
class SweepRunner {
 public:
  explicit SweepRunner(const BenchFlags& flags) : store_(flags.checkpoint) {
    FaultInjector::Global().Configure(flags.MakeFaultConfig());
    if (flags.threads > 0) {
      ThreadPool::Global().SetNumThreads(flags.threads);
    }
    threads_ = ThreadPool::Global().num_threads();
    if (store_.persistent() && store_.size() > 0) {
      std::fprintf(stderr,
                   "[checkpoint] %s: %zu completed cell(s) will be skipped\n",
                   store_.path().c_str(), store_.size());
    }
  }

  /// Runs (or restores) the cell identified by `key`. Simulates the
  /// configured harness crash (exit 42) before the crash_at_cell-th
  /// *executed* cell, so a rerun with the same checkpoint resumes past
  /// the crash point.
  CellRecord Cell(const std::string& key, const MultiplayerGame& game,
                  const std::string& method, int budget_level, uint64_t seed,
                  int repeats) {
    if (const CellRecord* cached = store_.Find(key)) {
      // Metrics are thread-count invariant, but a sweep whose timings mix
      // cells run at different thread counts is not one experiment.
      // Refuse to resume rather than produce a silently inconsistent run.
      if (cached->threads != threads_) {
        std::fprintf(stderr,
                     "[checkpoint] %s:%lld: cell '%s' was recorded at %d "
                     "thread(s) by worker %d but this run uses %d; rerun "
                     "with --threads=%d or a fresh --checkpoint file\n",
                     store_.path().c_str(),
                     static_cast<long long>(cached->source_line), key.c_str(),
                     cached->threads, cached->worker_id, threads_,
                     cached->threads);
        std::exit(2);
      }
      return *cached;
    }
    if (FaultInjector::Global().ShouldCrashAtCell(executed_cells_)) {
      std::fprintf(stderr,
                   "[fault] simulated crash before cell '%s' (executed %d); "
                   "rerun with the same --checkpoint to resume\n",
                   key.c_str(), executed_cells_);
      std::exit(42);
    }
    ++executed_cells_;
    const CellOutcome outcome =
        RunRepeatedCellChecked(game, method, budget_level, seed, repeats);
    CellRecord record;
    record.key = key;
    record.ok = outcome.ok;
    record.mean_average_rating = outcome.stats.mean_average_rating;
    record.mean_hit_rate = outcome.stats.mean_hit_rate;
    record.repeats = outcome.stats.repeats;
    record.unhealthy_repeats = outcome.unhealthy_repeats;
    record.threads = threads_;
    record.worker_id = worker_id_;
    record.error = outcome.error;
    store_.Append(record);
    return record;
  }

  /// Executed (non-resumed) cells so far.
  int executed_cells() const { return executed_cells_; }

  /// Kernel thread count this sweep runs (and records) its cells at.
  int threads() const { return threads_; }

  /// Stamps records with a sweep-orchestrator worker id (0, the
  /// default, is the single-process driver).
  void set_worker_id(int worker_id) { worker_id_ = worker_id; }

 private:
  CheckpointStore store_;
  int executed_cells_ = 0;
  int threads_ = 1;
  int worker_id_ = 0;
};

/// Prints one table row: method name then (rbar, hr) pairs per column.
inline void PrintRow(const std::string& label,
                     const std::vector<CellStats>& cells) {
  std::printf("%-22s", label.c_str());
  for (const CellStats& cell : cells) {
    std::printf("  %6.4f %6.4f", cell.mean_average_rating,
                cell.mean_hit_rate);
  }
  std::printf("\n");
}

/// Record-aware row: recorded-failure cells print as FAIL instead of a
/// bogus 0.0000 metric pair; healthy cells print exactly like PrintRow.
inline void PrintRow(const std::string& label,
                     const std::vector<CellRecord>& cells) {
  std::printf("%-22s", label.c_str());
  for (const CellRecord& cell : cells) {
    if (cell.ok) {
      std::printf("  %6.4f %6.4f", cell.mean_average_rating,
                  cell.mean_hit_rate);
    } else {
      std::printf("  %6s %6s", "FAIL", "-");
    }
  }
  std::printf("\n");
}

inline void PrintHeader(const std::string& first,
                        const std::vector<std::string>& columns) {
  std::printf("%-22s", first.c_str());
  for (const std::string& column : columns) {
    std::printf("  %13s", column.c_str());
  }
  std::printf("\n%-22s", "");
  for (size_t i = 0; i < columns.size(); ++i) {
    std::printf("  %6s %6s", "rbar", "HR@3");
  }
  std::printf("\n");
}

}  // namespace msopds

#endif  // MSOPDS_BENCH_BENCH_UTIL_H_
