#ifndef MSOPDS_CORE_EXPERIMENT_H_
#define MSOPDS_CORE_EXPERIMENT_H_

#include <string>
#include <vector>

#include "core/multiplayer_game.h"
#include "core/msopds.h"
#include "data/synthetic.h"
#include "util/status.h"

namespace msopds {

/// The Table III method rows in paper order (IA baselines then MSOPDS).
std::vector<std::string> StandardMethods();

/// MSOPDS ablation variants of Fig. 8 (action categories; Epinions) and
/// Fig. 9 (real vs fake accounts; Epinions).
std::vector<std::string> Fig8Methods();
std::vector<std::string> Fig9Methods();

/// Maps a method name to an attack factory. Recognized names:
/// None, Random, Popular, PGA, S-attack, RevAdv, Trial, PoisonRec (RL
/// extension baseline), BOPDS, MSOPDS, MSOPDS-ratings,
/// MSOPDS-ratings+item, MSOPDS-ratings+user, MSOPDS-real, MSOPDS-fake.
/// CHECK-fails on unknown names.
AttackFactory MakeAttackFactory(const std::string& method);

/// The synthetic dataset profile names, in paper order: "ciao",
/// "epinions", "librarything".
const std::vector<std::string>& ExperimentDatasetNames();

/// Ok when `name` is one of ExperimentDatasetNames(); otherwise an
/// InvalidArgument whose message lists the valid names, for callers that
/// report user input errors (bench flags) instead of aborting.
Status CheckExperimentDatasetName(const std::string& name);

/// Generates the named synthetic dataset profile at `scale`,
/// deterministically from `seed`. `name` must pass
/// CheckExperimentDatasetName (a fatal error otherwise).
Dataset MakeExperimentDataset(const std::string& name, double scale,
                              uint64_t seed);

/// Game configuration tuned so the full benchmark suite runs on one CPU
/// core (paper hyperparameters where feasible: eta^p = 0.005 < eta^q =
/// 0.05, L = 5, K = 20 are kept in Msopds defaults; victim/opponent sizes
/// are reduced).
GameConfig DefaultGameConfig();

/// Default MSOPDS configuration used by MakeAttackFactory("MSOPDS").
MsopdsConfig DefaultMsopdsConfig();

/// Mean metrics over `repeats` games with seeds seed, seed+1, ...
struct CellStats {
  double mean_average_rating = 0.0;
  double mean_hit_rate = 0.0;
  int repeats = 0;
};

CellStats RunRepeatedCell(const MultiplayerGame& game,
                          const std::string& method, int budget_level,
                          uint64_t seed, int repeats);

/// Health-aware cell outcome: `stats` averages only healthy repeats
/// (those whose victim training recovered to a finite model and whose
/// metrics are finite). When every repeat failed, `ok` is false, the
/// stats are zero and `error` records the last failure — the cell
/// degrades to a recorded-failure row instead of a silent NaN.
struct CellOutcome {
  CellStats stats;
  bool ok = true;
  /// Repeats excluded from the mean because they ended unhealthy.
  int unhealthy_repeats = 0;
  std::string error;
};

/// Like RunRepeatedCell but never lets a numerically-failed game poison
/// the mean; fault-free behaviour is arithmetically identical.
CellOutcome RunRepeatedCellChecked(const MultiplayerGame& game,
                                   const std::string& method,
                                   int budget_level, uint64_t seed,
                                   int repeats);

/// Machine-readable export of one game outcome (method, metrics, plan
/// composition) for downstream tooling.
std::string GameResultToJson(const GameResult& result);

}  // namespace msopds

#endif  // MSOPDS_CORE_EXPERIMENT_H_
