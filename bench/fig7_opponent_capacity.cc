// Reproduces paper Fig. 7: impact of the single opponent's budget b_op on
// the attacker's rbar and HitRate@3, at attacker budget b = 5.
//
// Expected shape (paper): raising the opponent's budget hurts every
// attacker, but MSOPDS degrades less than the baselines because it
// anticipated the demotion campaign; Epinions/LibraryThing profiles are
// more sensitive than Ciao (sparser ratings).

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
      "=== Fig. 7: opponent capacity sweep (b = %d, one opponent), scale "
      "%.2f ===\n",
      attacker_budget, flags.scale);

  SweepRunner runner(flags);
  for (const std::string& dataset_name : flags.datasets) {
    const Dataset base =
        MakeExperimentDataset(dataset_name, flags.scale, flags.seed);
    std::printf("\n[%s] %s\n", dataset_name.c_str(), base.Summary().c_str());
    std::vector<std::string> columns;
    for (int bop : flags.opponents)
      columns.push_back(StrFormat("b_op=%d", bop));
    PrintHeader("method", columns);

    std::vector<double> msopds_series;
    std::vector<double> baseline_best(flags.opponents.size(), 0.0);
    for (const std::string& method : methods) {
      std::vector<CellRecord> row;
      for (size_t i = 0; i < flags.opponents.size(); ++i) {
        GameConfig config = DefaultGameConfig();
        config.num_opponents = 1;
        config.opponent_budget_level = flags.opponents[i];
        MultiplayerGame game(base, config);
        const CellRecord cell = runner.Cell(
            StrFormat("%s|%s|b_op=%d", dataset_name.c_str(), method.c_str(),
                      flags.opponents[i]),
            game, method, attacker_budget, flags.seed + 1, flags.repeats);
        if (method == "MSOPDS") {
          msopds_series.push_back(cell.mean_average_rating);
        } else {
          baseline_best[i] =
              std::max(baseline_best[i], cell.mean_average_rating);
        }
        row.push_back(cell);
      }
      PrintRow(method, row);
    }
    if (msopds_series.size() == flags.opponents.size()) {
      std::printf(
          "  -> MSOPDS rbar drop across b_op sweep: %.4f; best baseline "
          "drop: %.4f (paper: MSOPDS suffers smaller degradation)\n",
          msopds_series.front() - msopds_series.back(),
          baseline_best.front() - baseline_best.back());
    }
  }
  return 0;
}

}  // namespace
}  // namespace msopds

int main(int argc, char** argv) { return msopds::Main(argc, argv); }
