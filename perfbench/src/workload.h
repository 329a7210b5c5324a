#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace msopds {
class RatingModel;
}  // namespace msopds

namespace perfbench {

/// One benchmark invocation, as parsed from the command line.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// "full" (the benchmark) or "toy" (tiny inputs for the self-test).
  std::string size = "full";
  /// Dataset profile of the cell workloads.
  std::string dataset = "epinions";
  /// Directory for the result file, the trace and scratch inputs.
  std::string out_dir = ".bench_build/perfbench/results";
  bool toy() const { return size == "toy"; }
};

/// Everything a workload reports. Metric values for names a workload does
/// not exercise stay at their defaults (per-layer metrics read 0).
struct WorkloadResult {
  /// Output checks that failed (empty = correct).
  std::vector<std::string> check_failures;
  /// Operations attempted / failed in the timed window.
  int64_t attempted = 0;
  int64_t failed = 0;
  /// (name, value) pairs; units come from the metric tables in main.cc.
  std::vector<std::pair<std::string, double>> metrics;
  /// Free-form facts for the result file (sample counts, fingerprints,
  /// re-drive outcomes).
  std::vector<std::pair<std::string, std::string>> facts;

  void Set(const std::string& name, double value);
  void Fact(const std::string& key, const std::string& value);
  void Check(bool ok, const std::string& what);
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of `values` (mean of the two middle ones for even counts).
double Median(std::vector<double> values);
/// Smallest of `values` (0 when empty).
double Min(const std::vector<double>& values);
/// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> values, double p);

/// Process high-water RSS in MiB over the whole run, 0 where procfs is
/// missing.
double PeakRssMb();
/// High-water RSS in MiB since the last ResetPeakRss().
double PhasePeakRssMb();
/// Restarts the kernel's high-water RSS mark (PeakRssMb() keeps the
/// earlier peak); false where unsupported.
bool ResetPeakRss();

/// FNV-1a over a byte range, folded into `hash`.
uint64_t HashBytes(uint64_t hash, const void* data, size_t size);
constexpr uint64_t kHashSeed = 1469598103934665603ULL;

std::string Hex(uint64_t value);

/// Bitwise equality of two doubles (distinguishes -0.0 and NaN payloads).
bool SameBits(double a, double b);

// The workloads. Each reads only its options; the tracer is enabled on
// traced runs and records the spans the per-layer metrics come from.
WorkloadResult RunCellWorkload(const RunOptions& options, bool msopds,
                               Tracer* tracer);
WorkloadResult RunServeWorkload(const RunOptions& options, Tracer* tracer);
WorkloadResult RunShardsWorkload(const RunOptions& options, Tracer* tracer);

/// The paper's rbar and HR@3 on a model no attacker touched, averaged over
/// 32 seed-drawn markets (64-user audience, one target, 4 competitors):
/// the attack metrics' None-attack value for the non-cell workloads.
void CleanMarketMetrics(msopds::RatingModel* model, int64_t num_users,
                        int64_t num_items, uint64_t seed, double* rbar,
                        double* hr3);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
