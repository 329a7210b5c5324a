// Reproduces paper Fig. 9: poisoning via hired real users vs injected
// fake accounts on the Epinions profile (single opponent; item-graph
// actions excluded from every variant for fairness, as in the paper).
//   MSOPDS-real           hired real raters only (no fake accounts)
//   MSOPDS-fake           fake accounts + their social links only
//   MSOPDS-ratings+user   both channels (the Fig. 9 "MSOPDS" reference)
//
// Expected shape (paper): the combined variant is best, and real users
// beat fake accounts (real users are better embedded in the social
// network; fakes only reach the graph through their created links).

#include "bench/bench_util.h"

namespace msopds {
namespace {

int Main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  flags.repeats = flags.ResolveRepeats(2);
  if (flags.methods.empty()) flags.methods = Fig9Methods();
  flags.datasets = flags.ResolveDatasets({"epinions"});

  std::printf(
      "=== Fig. 9: real users vs fake accounts (one opponent), scale %.2f "
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
      "\nExpected ordering (paper): combined >= real-only >= fake-only.\n");
  return 0;
}

}  // namespace
}  // namespace msopds

int main(int argc, char** argv) { return msopds::Main(argc, argv); }
