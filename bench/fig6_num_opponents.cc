// Reproduces paper Fig. 6: impact of the number of subsequent opponents
// (each running a BOPDS rating-only demotion with b_op = 2) on the
// attacker's rbar and HitRate@3, at attacker budget b = 5.
//
// Expected shape (paper): every method degrades as opponents are added,
// but MSOPDS degrades least and stays on top; baselines can collapse to
// HR@3 = 0 while MSOPDS remains positive (esp. the Epinions profile).

#include "bench/bench_util.h"

namespace msopds {
namespace {

int Main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  flags.repeats = flags.ResolveRepeats(1);
  flags.datasets = flags.ResolveDatasets(ExperimentDatasetNames());
  const std::vector<std::string> methods =
      flags.methods.empty() ? StandardMethods() : flags.methods;
  const int attacker_budget = 5;

  std::printf(
      "=== Fig. 6: number of opponents (b = %d, b_op = 2), scale %.2f ===\n",
      attacker_budget, flags.scale);

  SweepRunner runner(flags);
  for (const std::string& dataset_name : flags.datasets) {
    const Dataset base =
        MakeExperimentDataset(dataset_name, flags.scale, flags.seed);
    std::printf("\n[%s] %s\n", dataset_name.c_str(), base.Summary().c_str());
    std::vector<std::string> columns;
    for (int n : flags.opponents) columns.push_back(StrFormat("N=%d", n));
    PrintHeader("method", columns);

    std::vector<double> msopds_series;
    std::vector<double> best_baseline_series(flags.opponents.size(), 0.0);
    for (const std::string& method : methods) {
      std::vector<CellRecord> row;
      for (size_t i = 0; i < flags.opponents.size(); ++i) {
        GameConfig config = DefaultGameConfig();
        config.num_opponents = flags.opponents[i];
        MultiplayerGame game(base, config);
        const CellRecord cell = runner.Cell(
            StrFormat("%s|%s|N=%d", dataset_name.c_str(), method.c_str(),
                      flags.opponents[i]),
            game, method, attacker_budget, flags.seed + 1, flags.repeats);
        if (method == "MSOPDS") {
          msopds_series.push_back(cell.mean_average_rating);
        } else {
          best_baseline_series[i] =
              std::max(best_baseline_series[i], cell.mean_average_rating);
        }
        row.push_back(cell);
      }
      PrintRow(method, row);
    }
    if (msopds_series.size() == flags.opponents.size()) {
      std::printf("  -> MSOPDS rbar drop over opponent sweep: %.4f; best "
                  "baseline drop: %.4f (paper: MSOPDS degrades less)\n",
                  msopds_series.front() - msopds_series.back(),
                  best_baseline_series.front() - best_baseline_series.back());
    }
  }
  return 0;
}

}  // namespace
}  // namespace msopds

int main(int argc, char** argv) { return msopds::Main(argc, argv); }
