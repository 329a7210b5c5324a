// cell-msopds / cell-bopds: one Table III cell (plan, opponent, retrain,
// evaluate) at 1 kernel thread.
//
// Untraced runs time MultiplayerGame::Run as a user calls it. Traced runs
// play the same game once untraced and once re-driven step by step from
// the public functions it is built from (SampleDemographics, the planner's
// capacity / PdsSurrogate / MsoOptimizer pieces, Bopds::Execute,
// HetRecSys + TrainModel, the metrics), with a span around each call, and
// check that the re-drive reproduces the game bit for bit.

#include <algorithm>
#include <cmath>
#include <memory>

#include "attack/baselines.h"
#include "attack/importance_vector.h"
#include "core/bopds.h"
#include "core/experiment.h"
#include "core/losses.h"
#include "core/msopds.h"
#include "core/multiplayer_game.h"
#include "recsys/metrics.h"
#include "solver/conjugate_gradient.h"
#include "tensor/grad.h"
#include "util/arena.h"
#include "util/health.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "workload.h"

namespace perfbench {
namespace {

using msopds::ActionType;
using msopds::AttackBudget;
using msopds::Budget;
using msopds::CapacitySet;
using msopds::Dataset;
using msopds::Demographics;
using msopds::GameConfig;
using msopds::GameResult;
using msopds::ImportanceVector;
using msopds::PdsSurrogate;
using msopds::PoisonPlan;
using msopds::Rng;
using msopds::Tensor;
using msopds::Variable;

constexpr int kBudgetLevel = 5;

// The game panel: every run plays the same kPanelGames game seeds (market
// draws, planner and victim initializations) on the dataset its --seed
// generated. A fixed panel keeps the per-run mix of cheap and dear markets
// the same across seeds, so wall time and rbar track the code rather than
// the luck of the market draw.
constexpr int kPanelGames = 3;
// Each panel game is played at least this often per untraced run: three
// times in the MSOPDS cell, twice in the dearer BOPDS cell (whose runs
// would otherwise take half as long again).
constexpr int kMinPassesMsopds = 3;
constexpr int kMinPassesBopds = 2;
constexpr uint64_t kPanelSeed = 20230403;

uint64_t DeriveSeed(uint64_t seed, uint64_t index) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + index + 1);
  return rng.Next() >> 1;
}

uint64_t DatasetFingerprint(const Dataset& dataset) {
  uint64_t hash = kHashSeed;
  hash = HashBytes(hash, &dataset.num_users, sizeof(dataset.num_users));
  hash = HashBytes(hash, &dataset.num_items, sizeof(dataset.num_items));
  for (const msopds::Rating& rating : dataset.ratings) {
    hash = HashBytes(hash, &rating.user, sizeof(rating.user));
    hash = HashBytes(hash, &rating.item, sizeof(rating.item));
    hash = HashBytes(hash, &rating.value, sizeof(rating.value));
  }
  return hash;
}

bool SamePlan(const PoisonPlan& a, const PoisonPlan& b) {
  if (a.actions.size() != b.actions.size()) return false;
  for (size_t i = 0; i < a.actions.size(); ++i) {
    const msopds::PoisonAction& x = a.actions[i];
    const msopds::PoisonAction& y = b.actions[i];
    if (x.type != y.type || x.a != y.a || x.b != y.b ||
        !SameBits(x.rating, y.rating)) {
      return false;
    }
  }
  return true;
}

bool SameGame(const GameResult& a, const GameResult& b) {
  return a.method == b.method && SameBits(a.average_rating, b.average_rating) &&
         SameBits(a.hit_rate_at_3, b.hit_rate_at_3) &&
         SameBits(a.victim_final_loss, b.victim_final_loss) &&
         SamePlan(a.attacker_plan, b.attacker_plan) &&
         a.opponent_ratings == b.opponent_ratings && a.healthy == b.healthy &&
         a.victim_retries == b.victim_retries && a.failure == b.failure;
}

// ---------------------------------------------------------------------------
// Re-drives.

/// What the traced re-drive of one game measured beyond its spans.
struct RedriveStats {
  int64_t capacity_size = 0;
  int64_t plan_actions = 0;
  int64_t mso_iterations = 0;
  int64_t cg_solves = 0;
  int64_t cg_iterations = 0;
  int64_t cg_breakdowns = 0;
  int64_t victim_retries = 0;
  // One MSO iteration replayed through Grad -> CG -> mixed VJP.
  int64_t replay_cg_iterations = -1;
  int64_t replay_hvp_calls = 0;
  int64_t iteration0_cg_iterations = -1;
};

// Prediction index lists of one market (as the planners build them).
struct MarketIndices {
  std::vector<int64_t> target_users;
  std::vector<int64_t> target_items;
  std::vector<int64_t> compete_users;
  std::vector<int64_t> compete_items;
};

MarketIndices BuildMarketIndices(const Demographics& demo) {
  MarketIndices indices;
  for (int64_t user : demo.target_audience) {
    indices.target_users.push_back(user);
    indices.target_items.push_back(demo.target_item);
    for (int64_t item : demo.compete_items) {
      indices.compete_users.push_back(user);
      indices.compete_items.push_back(item);
    }
  }
  return indices;
}

/// The MSOPDS planner (Msopds::Execute) assembled from its public parts,
/// with spans around the surrogate build, every unrolled loss and the
/// optimizer, plus a replay of MSO iteration 0 through the second-order
/// kernels before the optimizer runs.
PoisonPlan RedriveMsopds(const msopds::MsopdsConfig& config,
                         const std::vector<msopds::OpponentSpec>& opponents,
                         Dataset* world, const Demographics& demo,
                         const AttackBudget& budget, Rng* rng, Tracer* tracer,
                         RedriveStats* stats) {
  PoisonPlan plan;
  std::vector<int64_t> fakes;
  if (config.inject_fake_accounts && budget.num_fake_users > 0) {
    auto injected = msopds::InjectFakeUsers(world, demo, budget);
    fakes = std::move(injected.first);
    plan = std::move(injected.second);
    plan.ApplyTo(world);
  }
  CapacitySet leader_capacity = CapacitySet::MakeComprehensive(
      *world, demo, fakes, budget.promote_rating);
  leader_capacity = leader_capacity.FilterTypes(config.include_rating_actions,
                                                config.include_social_actions,
                                                config.include_item_actions);
  stats->capacity_size = leader_capacity.size();
  if (leader_capacity.size() == 0) return plan;
  const Budget leader_budget =
      leader_capacity.ClampBudget(budget.ToCapacityBudget());

  std::vector<CapacitySet> opponent_capacities;
  std::vector<Budget> budgets = {leader_budget};
  for (const msopds::OpponentSpec& spec : opponents) {
    opponent_capacities.push_back(
        CapacitySet::MakeRatingOnly(*world, spec.demo, spec.preset_rating));
  }
  for (size_t q = 0; q < opponents.size(); ++q) {
    const AttackBudget opp_budget =
        AttackBudget::FromLevel(opponents[q].budget_level, *world);
    budgets.push_back(opponent_capacities[q].ClampBudget(
        Budget{opp_budget.hired_raters, 0, 0}));
  }
  std::vector<const CapacitySet*> capacities = {&leader_capacity};
  for (const CapacitySet& capacity : opponent_capacities) {
    capacities.push_back(&capacity);
  }

  Rng surrogate_rng = rng->Split();
  std::unique_ptr<PdsSurrogate> surrogate;
  {
    ScopedSpan span(tracer, "core.pds_build");
    surrogate = std::make_unique<PdsSurrogate>(*world, capacities, config.pds,
                                               &surrogate_rng);
  }

  std::vector<MarketIndices> markets = {BuildMarketIndices(demo)};
  std::vector<int64_t> compete_counts = {
      static_cast<int64_t>(demo.compete_items.size())};
  for (const msopds::OpponentSpec& spec : opponents) {
    markets.push_back(BuildMarketIndices(spec.demo));
    compete_counts.push_back(
        static_cast<int64_t>(spec.demo.compete_items.size()));
  }

  const char* loss_span = "core.pds_unrolled";
  msopds::MsoOptimizer::LossFn losses =
      [&](const std::vector<Variable>& xhats) {
        ScopedSpan span(tracer, loss_span);
        const PdsSurrogate::Outcome outcome = surrogate->TrainUnrolled(xhats);
        std::vector<Variable> values;
        for (size_t p = 0; p < markets.size(); ++p) {
          Variable target_preds = surrogate->Predict(
              outcome, markets[p].target_users, markets[p].target_items);
          Variable compete_preds = surrogate->Predict(
              outcome, markets[p].compete_users, markets[p].compete_items);
          values.push_back(msopds::ComprehensiveLossFromPredictions(
              target_preds, compete_preds, compete_counts[p],
              /*demote=*/p > 0));
        }
        return values;
      };

  Rng init_rng = rng->Split();
  ImportanceVector leader_iv(&leader_capacity, &init_rng);
  std::vector<std::unique_ptr<ImportanceVector>> opponent_ivs;
  std::vector<ImportanceVector*> players = {&leader_iv};
  for (const CapacitySet& capacity : opponent_capacities) {
    opponent_ivs.push_back(
        std::make_unique<ImportanceVector>(&capacity, &init_rng));
    players.push_back(opponent_ivs.back().get());
  }

  // Replay of MSO iteration 0 (Algorithm 1 steps 4-10 without the update)
  // on the initial importance vectors. It only reads the players, so the
  // optimizer below starts from the same state as in Msopds::Execute.
  {
    ScopedSpan replay(tracer, "trace.replay");
    loss_span = "trace.replay_unrolled";
    std::vector<Variable> xhats;
    for (size_t p = 0; p < players.size(); ++p) {
      xhats.push_back(players[p]->BinarizedParam(budgets[p]));
    }
    const std::vector<Variable> loss_values = losses(xhats);
    std::vector<Variable> leader_grads;
    {
      ScopedSpan span(tracer, "tensor.grad");
      leader_grads = msopds::Grad(loss_values[0], xhats);
    }
    stats->replay_cg_iterations = 0;
    for (size_t q = 1; q < players.size(); ++q) {
      Variable follower_grad;
      {
        ScopedSpan span(tracer, "tensor.grad");
        follower_grad = msopds::Grad(loss_values[q], {xhats[q]})[0];
      }
      const Tensor& rhs = leader_grads[q].value();
      if (!msopds::AllFinite(rhs) || !msopds::AllFinite(follower_grad.value()) ||
          !(rhs.MaxAbs() > 0.0) || !follower_grad.requires_grad()) {
        continue;
      }
      msopds::LinearOperator hvp = [&](const Tensor& v) {
        ScopedSpan span(tracer, "tensor.hvp");
        ++stats->replay_hvp_calls;
        return msopds::HessianVectorProduct(follower_grad, xhats[q], v);
      };
      msopds::CgResult solve;
      {
        ScopedSpan span(tracer, "solver.cg");
        solve = msopds::ConjugateGradient(hvp, rhs, config.mso.cg);
      }
      stats->replay_cg_iterations += solve.iterations;
      if (solve.outcome == msopds::CgOutcome::kBreakdown) continue;
      ScopedSpan span(tracer, "tensor.mixed_vjp");
      const Tensor implicit = msopds::MixedVectorJacobian(
          follower_grad, xhats[0], solve.solution);
      (void)implicit;
    }
    loss_span = "core.pds_unrolled";
  }

  std::vector<msopds::MsoIterationStats> history;
  {
    ScopedSpan span(tracer, "core.mso_optimize");
    const msopds::MsoOptimizer optimizer(config.mso);
    history = optimizer.Optimize(losses, players, budgets);
  }
  stats->mso_iterations = static_cast<int64_t>(history.size());
  for (const msopds::MsoIterationStats& iteration : history) {
    if (iteration.cg_iterations > 0 || iteration.cg_breakdowns > 0 ||
        iteration.cg_fallbacks > 0) {
      ++stats->cg_solves;
    }
    stats->cg_iterations += iteration.cg_iterations;
    stats->cg_breakdowns += iteration.cg_breakdowns;
  }
  if (!history.empty()) {
    stats->iteration0_cg_iterations = history.front().cg_iterations;
  }

  PoisonPlan planned = leader_iv.ExtractPlan(leader_budget);
  planned.ApplyTo(world);
  plan.actions.insert(plan.actions.end(), planned.actions.begin(),
                      planned.actions.end());
  return plan;
}

/// The BOPDS planner (Bopds::Execute) assembled from its public parts.
PoisonPlan RedriveBopds(const msopds::BopdsConfig& config, Dataset* world,
                        const Demographics& demo, const AttackBudget& budget,
                        Rng* rng, Tracer* tracer, RedriveStats* stats) {
  // Only the full-tape first-order path is re-driven; the benchmark's
  // planner config never enables gradient checkpointing.
  MSOPDS_CHECK_EQ(config.pds.checkpoint_every, 0);
  PoisonPlan plan;
  std::vector<int64_t> fakes;
  if (config.comprehensive && config.inject_fake_accounts &&
      budget.num_fake_users > 0) {
    auto injected = msopds::InjectFakeUsers(world, demo, budget);
    fakes = std::move(injected.first);
    plan = std::move(injected.second);
    plan.ApplyTo(world);
  }
  CapacitySet capacity =
      config.comprehensive
          ? CapacitySet::MakeComprehensive(*world, demo, fakes,
                                           config.preset_rating)
          : CapacitySet::MakeRatingOnly(*world, demo, config.preset_rating);
  stats->capacity_size = capacity.size();
  if (capacity.size() == 0) return plan;
  const Budget capacity_budget = capacity.ClampBudget(
      config.comprehensive ? budget.ToCapacityBudget()
                           : Budget{budget.hired_raters, 0, 0});

  Rng surrogate_rng = rng->Split();
  std::unique_ptr<PdsSurrogate> surrogate;
  {
    ScopedSpan span(tracer, "core.pds_build");
    surrogate = std::make_unique<PdsSurrogate>(
        *world, std::vector<const CapacitySet*>{&capacity}, config.pds,
        &surrogate_rng);
  }
  const MarketIndices market = BuildMarketIndices(demo);
  const int64_t num_compete = static_cast<int64_t>(demo.compete_items.size());

  Rng init_rng = rng->Split();
  ImportanceVector importance(&capacity, &init_rng);
  {
    msopds::ArenaRegion region;
    for (int iteration = 0; iteration < config.iterations; ++iteration) {
      Variable xhat = importance.BinarizedParam(capacity_budget);
      Variable loss;
      {
        ScopedSpan span(tracer, "core.pds_unrolled");
        const PdsSurrogate::Outcome outcome = surrogate->TrainUnrolled({xhat});
        loss = msopds::ComprehensiveLossFromPredictions(
            surrogate->Predict(outcome, market.target_users,
                               market.target_items),
            surrogate->Predict(outcome, market.compete_users,
                               market.compete_items),
            num_compete, config.demote);
      }
      Tensor gradient;
      {
        ScopedSpan span(tracer, "tensor.grad");
        gradient = msopds::GradValues(loss, {xhat})[0];
      }
      importance.ApplyUpdate(gradient, config.step);
    }
  }
  PoisonPlan planned = importance.ExtractPlan(capacity_budget);
  planned.ApplyTo(world);
  plan.actions.insert(plan.actions.end(), planned.actions.begin(),
                      planned.actions.end());
  return plan;
}

/// The attacker configs MakeAttackFactory("MSOPDS") / ("BOPDS") build.
msopds::BopdsConfig AttackerBopdsConfig() {
  msopds::BopdsConfig config;
  config.comprehensive = true;
  config.demote = false;
  config.variant_name = "BOPDS";
  return config;
}

std::vector<msopds::OpponentSpec> AnticipatedOpponents(
    const msopds::GameContext& context) {
  std::vector<msopds::OpponentSpec> specs;
  for (size_t q = 1; q < context.demos.size(); ++q) {
    msopds::OpponentSpec spec;
    spec.demo = context.demos[q];
    spec.budget_level = context.config.opponent_budget_level;
    spec.preset_rating = msopds::kMinRating;
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// MultiplayerGame::Run's four steps, re-driven with spans.
GameResult RedriveGame(const msopds::MultiplayerGame& game, bool msopds_attacker,
                       int budget_level, uint64_t seed, Tracer* tracer,
                       RedriveStats* stats) {
  ScopedSpan round(tracer, "core.game_round");
  const Dataset& base = game.base();
  const GameConfig& config = game.config();
  Rng rng(seed);
  msopds::GameContext context;
  context.base = &base;
  context.demos =
      msopds::SampleDemographics(base, 1 + config.num_opponents, &rng);
  context.config = config;
  context.attacker_budget = AttackBudget::FromLevel(budget_level, base);

  GameResult result;
  result.method = msopds_attacker ? msopds::DefaultMsopdsConfig().variant_name
                                  : AttackerBopdsConfig().variant_name;

  // 1) The attacker plans on the clean data.
  Dataset world = base;
  Rng attacker_rng = rng.Split();
  {
    ScopedSpan span(tracer, "attack.plan");
    if (msopds_attacker) {
      result.attacker_plan = RedriveMsopds(
          msopds::DefaultMsopdsConfig(), AnticipatedOpponents(context), &world,
          context.demos[0], context.attacker_budget, &attacker_rng, tracer,
          stats);
    } else {
      result.attacker_plan =
          RedriveBopds(AttackerBopdsConfig(), &world, context.demos[0],
                       context.attacker_budget, &attacker_rng, tracer, stats);
    }
  }
  stats->plan_actions = static_cast<int64_t>(result.attacker_plan.actions.size());

  // 2) Opponents react with BOPDS demotion plans.
  for (int q = 0; q < config.num_opponents; ++q) {
    msopds::BopdsConfig opponent_config;
    opponent_config.pds = config.opponent_pds;
    opponent_config.step = config.opponent_step;
    opponent_config.iterations = config.opponent_iterations;
    opponent_config.comprehensive = false;
    opponent_config.demote = true;
    opponent_config.preset_rating = msopds::kMinRating;
    opponent_config.variant_name = "BOPDS-opponent";
    msopds::Bopds opponent(opponent_config);
    AttackBudget opponent_budget =
        AttackBudget::FromLevel(config.opponent_budget_level, world);
    opponent_budget.promote_rating = msopds::kMinRating;
    Rng opponent_rng = rng.Split();
    ScopedSpan span(tracer, "core.opponent_plan");
    const PoisonPlan plan =
        opponent.Execute(&world, context.demos[static_cast<size_t>(q + 1)],
                         opponent_budget, &opponent_rng);
    result.opponent_ratings += plan.CountType(ActionType::kRating);
  }

  // 3) Victim training on the poisoned records.
  Rng victim_rng = rng.Split();
  {
    ScopedSpan span(tracer, "recsys.victim_train");
    msopds::HetRecSys victim(world, config.victim, &victim_rng);
    const msopds::TrainResult training =
        msopds::TrainModel(&victim, world.ratings, config.victim_training);
    result.victim_final_loss = training.final_loss;
    result.victim_retries = training.retries;
    if (!training.healthy) {
      result.healthy = false;
      result.failure = "victim training: " + training.failure;
    }
    // 4) The attacker's metrics.
    ScopedSpan eval(tracer, "recsys.eval");
    const Demographics& market = context.demos[0];
    result.average_rating = msopds::AverageTargetRating(
        &victim, market.target_audience, market.target_item);
    result.hit_rate_at_3 =
        msopds::HitRateAtK(&victim, market.target_audience, market.target_item,
                           market.compete_items, /*k=*/3);
  }
  stats->victim_retries = result.victim_retries;
  if (result.healthy && (!std::isfinite(result.average_rating) ||
                         !std::isfinite(result.hit_rate_at_3))) {
    result.healthy = false;
    result.failure = "non-finite attacker metrics";
  }
  return result;
}

}  // namespace

WorkloadResult RunCellWorkload(const RunOptions& options, bool msopds_attacker,
                               Tracer* tracer) {
  msopds::ThreadPool::Global().SetNumThreads(1);
  WorkloadResult out;
  const double scale = options.toy() ? 0.02 : (msopds_attacker ? 0.12 : 0.5);
  const std::string method = msopds_attacker ? "MSOPDS" : "BOPDS";
  out.Fact("dataset", options.dataset);
  out.Fact("scale", msopds::StrFormat("%g", scale));
  out.Fact("method", method);
  out.Fact("budget_level", std::to_string(kBudgetLevel));

  // Set-up: dataset generation plus the game (which validates and copies
  // it), nine times; every repetition must produce the same input.
  std::vector<double> setup_times;
  std::unique_ptr<msopds::MultiplayerGame> game;
  uint64_t fingerprint = 0;
  for (int rep = 0; rep < 9; ++rep) {
    const Clock::time_point start = Clock::now();
    Dataset dataset;
    {
      ScopedSpan span(rep == 0 ? tracer : nullptr, "data.generate");
      dataset = msopds::MakeExperimentDataset(options.dataset, scale,
                                              options.seed);
    }
    game = std::make_unique<msopds::MultiplayerGame>(
        dataset, msopds::DefaultGameConfig());
    setup_times.push_back(SecondsSince(start));
    const uint64_t print = DatasetFingerprint(game->base());
    if (rep > 0) out.Check(print == fingerprint, "set-up is deterministic");
    fingerprint = print;
  }
  out.Fact("input_fingerprint", Hex(fingerprint));
  out.Set("setup_s", Median(setup_times));
  out.Set("data.generate_s", tracer->TotalSeconds("data.generate"));

  const msopds::AttackFactory factory = msopds::MakeAttackFactory(method);
  std::vector<uint64_t> game_seeds;
  for (int g = 0; g < kPanelGames; ++g) {
    game_seeds.push_back(DeriveSeed(kPanelSeed, static_cast<uint64_t>(g)));
  }

  if (!tracer->enabled()) {
    // Whole passes over the panel: at least min_passes, more while the
    // window lasts. Replays must reproduce the first play bit for bit.
    std::vector<double> best(kPanelGames, 0.0);
    std::vector<GameResult> first_play(kPanelGames);
    const Clock::time_point window = Clock::now();
    int passes = 0;
    const int min_passes =
        msopds_attacker ? kMinPassesMsopds : kMinPassesBopds;
    for (; passes < min_passes || SecondsSince(window) < options.seconds;
         ++passes) {
      for (int g = 0; g < kPanelGames; ++g) {
        const Clock::time_point start = Clock::now();
        GameResult result = game->Run(factory, kBudgetLevel, game_seeds[g]);
        const double seconds = SecondsSince(start);
        best[g] = passes == 0 ? seconds : std::min(best[g], seconds);
        ++out.attempted;
        if (!result.healthy) ++out.failed;
        if (passes == 0) {
          first_play[g] = std::move(result);
        } else {
          out.Check(SameGame(result, first_play[g]),
                    "a replayed game is bit-identical to its first play");
        }
      }
    }
    double total_s = 0.0, rbar = 0.0, hr3 = 0.0;
    std::string per_game;
    for (int g = 0; g < kPanelGames; ++g) {
      const GameResult& result = first_play[g];
      out.Check(result.healthy, "game healthy: " + result.failure);
      out.Check(std::isfinite(result.average_rating) &&
                    std::isfinite(result.hit_rate_at_3),
                "rbar and HR@3 finite");
      total_s += best[g];
      rbar += result.average_rating / kPanelGames;
      hr3 += result.hit_rate_at_3 / kPanelGames;
      per_game += msopds::StrFormat("%s%.4f:%.4f:%.4f", g > 0 ? " " : "",
                                    best[g], result.average_rating,
                                    result.hit_rate_at_3);
    }
    out.Fact("game0_rbar",
             msopds::StrFormat("%.17g", first_play[0].average_rating));
    out.Fact("game0_hr3",
             msopds::StrFormat("%.17g", first_play[0].hit_rate_at_3));
    out.Fact("passes", std::to_string(passes));
    out.Fact("best_s_rbar_hr3_per_game", per_game);
    // Per game the fastest of its plays: the slower plays of a game differ
    // only by what else the host ran meanwhile.
    out.Set("wall_s", total_s / kPanelGames);
    out.Set("throughput_per_s", kPanelGames / total_s);
    out.Set("latency_p50_ms", 1e3 * Percentile(best, 50));
    out.Set("latency_p99_ms", 1e3 * Percentile(best, 99));
    out.Set("attack_rbar", rbar);
    out.Set("attack.hr3", hr3);
    return out;
  }

  // Traced run: game 0 untraced, then re-driven under spans.
  const Clock::time_point untraced_start = Clock::now();
  const GameResult reference = game->Run(factory, kBudgetLevel, game_seeds[0]);
  const double untraced_s = SecondsSince(untraced_start);

  msopds::Arena::Global().ResetStats();
  RedriveStats stats;
  const Clock::time_point traced_start = Clock::now();
  const GameResult redriven = RedriveGame(*game, msopds_attacker, kBudgetLevel,
                                          game_seeds[0], tracer, &stats);
  const double traced_s = SecondsSince(traced_start);
  const msopds::ArenaStats arena = msopds::Arena::Global().stats();
  out.attempted = 2;
  out.failed = (reference.healthy ? 0 : 1) + (redriven.healthy ? 0 : 1);

  out.Check(reference.healthy, "game healthy: " + reference.failure);
  out.Check(std::isfinite(reference.average_rating) &&
                std::isfinite(reference.hit_rate_at_3),
            "rbar and HR@3 finite");
  const bool game_match = SameGame(reference, redriven);
  out.Check(game_match,
            "re-driven MultiplayerGame::Run steps give a bit-identical "
            "GameResult");
  out.Check(SamePlan(reference.attacker_plan, redriven.attacker_plan),
            "re-driven planner gives the identical PoisonPlan");
  const bool replay_match =
      !msopds_attacker ||
      stats.replay_cg_iterations == stats.iteration0_cg_iterations;
  out.Check(replay_match,
            "CG replay gives the cg_iterations of MSO iteration 0");
  out.Fact("redrive_game_match", game_match ? "true" : "false");
  out.Fact("redrive_plan_match",
           SamePlan(reference.attacker_plan, redriven.attacker_plan) ? "true"
                                                                     : "false");
  out.Fact("redrive_cg_replay_match", replay_match ? "true" : "false");
  out.Fact("game0_rbar", msopds::StrFormat("%.17g", reference.average_rating));
  out.Fact("game0_hr3", msopds::StrFormat("%.17g", reference.hit_rate_at_3));

  const double replay_s = tracer->TotalSeconds("trace.replay");
  const double unrolled_s = tracer->TotalSeconds("core.pds_unrolled");
  const double optimize_s = tracer->TotalSeconds("core.mso_optimize");
  out.Set("trace.overhead_s", (traced_s - replay_s) - untraced_s);
  out.Set("core.game_round_s", tracer->TotalSeconds("core.game_round"));
  out.Set("attack.plan_s", tracer->TotalSeconds("attack.plan"));
  out.Set("attack.capacity_size", static_cast<double>(stats.capacity_size));
  out.Set("attack.plan_actions", static_cast<double>(stats.plan_actions));
  out.Set("attack.hr3", reference.hit_rate_at_3);
  out.Set("core.pds_build_s", tracer->TotalSeconds("core.pds_build"));
  out.Set("core.pds_unrolled_s", unrolled_s);
  out.Set("core.mso_iterations", static_cast<double>(stats.mso_iterations));
  // Optimize's children are exactly its LossFn calls, so its self time is
  // the MSO update work (binarize, Grad, CG, mixed VJP, steps).
  out.Set("core.mso_update_s",
          msopds_attacker ? optimize_s - unrolled_s : 0.0);
  out.Set("core.opponent_plan_s", tracer->TotalSeconds("core.opponent_plan"));
  out.Set("solver.cg_solves", static_cast<double>(stats.cg_solves));
  out.Set("solver.cg_iterations", static_cast<double>(stats.cg_iterations));
  out.Set("solver.cg_breakdowns", static_cast<double>(stats.cg_breakdowns));
  out.Set("solver.cg_s", tracer->TotalSeconds("solver.cg"));
  out.Set("tensor.hvp_calls", static_cast<double>(stats.replay_hvp_calls));
  out.Set("tensor.hvp_s", tracer->TotalSeconds("tensor.hvp"));
  out.Set("tensor.grad_s", tracer->TotalSeconds("tensor.grad"));
  out.Set("tensor.mixed_vjp_s", tracer->TotalSeconds("tensor.mixed_vjp"));
  out.Set("tensor.arena_hit_rate", arena.hit_rate());
  out.Set("tensor.arena_high_water_mb",
          static_cast<double>(arena.high_water_bytes) / (1024.0 * 1024.0));
  out.Set("recsys.victim_train_s", tracer->TotalSeconds("recsys.victim_train") -
                                       tracer->TotalSeconds("recsys.eval"));
  out.Set("recsys.victim_retries", static_cast<double>(stats.victim_retries));
  out.Set("recsys.eval_s", tracer->TotalSeconds("recsys.eval"));
  return out;
}

}  // namespace perfbench
