// Reproduces paper Fig. 8: effect of the poisoning-action categories on
// the Epinions profile (single opponent). Variants:
//   MSOPDS-ratings        poison ratings only
//   MSOPDS-ratings+item   ratings + item-graph links
//   MSOPDS-ratings+user   ratings + social-network links
//   MSOPDS                all three categories
//
// Expected shape (paper): full MSOPDS best; item-graph actions help more
// than social-network actions (they hit the target item's embedding
// directly); each partial variant trails the full method.

#include "bench/bench_util.h"

namespace msopds {
namespace {

int Main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  flags.repeats = flags.ResolveRepeats(2);
  if (flags.methods.empty()) flags.methods = Fig8Methods();
  // The paper runs this ablation on Epinions.
  flags.datasets = flags.ResolveDatasets({"epinions"});

  std::printf(
      "=== Fig. 8: poisoning-action categories (one opponent), scale %.2f "
      "===\n",
      flags.scale);

  SweepRunner runner(flags);
  for (const std::string& dataset_name : flags.datasets) {
    const Dataset base =
        MakeExperimentDataset(dataset_name, flags.scale, flags.seed);
    std::printf("\n[%s] %s\n", dataset_name.c_str(), base.Summary().c_str());
    std::vector<std::string> columns;
    for (int b : flags.budgets) columns.push_back(StrFormat("b=%d", b));
    PrintHeader("variant", columns);

    MultiplayerGame game(base, DefaultGameConfig());
    for (const std::string& method : flags.methods) {
      std::vector<CellRecord> row;
      for (int b : flags.budgets) {
        row.push_back(runner.Cell(
            StrFormat("%s|%s|b=%d", dataset_name.c_str(), method.c_str(), b),
            game, method, b, flags.seed + 1, flags.repeats));
      }
      PrintRow(method, row);
    }
  }
  std::printf(
      "\nExpected ordering (paper): MSOPDS >= ratings+item >= ratings+user "
      ">= ratings-only on average.\n");
  return 0;
}

}  // namespace
}  // namespace msopds

int main(int argc, char** argv) { return msopds::Main(argc, argv); }
