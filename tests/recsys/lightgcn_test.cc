#include "recsys/lightgcn.h"

#include <gtest/gtest.h>

#include "data/split.h"
#include "data/synthetic.h"
#include "recsys/metrics.h"
#include "recsys/trainer.h"

namespace msopds {
namespace {

Dataset GcnWorld(uint64_t seed = 51) {
  SyntheticConfig config;
  config.num_users = 60;
  config.num_items = 80;
  config.num_ratings = 700;
  config.num_social_links = 200;
  Rng rng(seed);
  return GenerateSynthetic(config, &rng);
}

TEST(LightGcnTest, TrainingLossDecreases) {
  const Dataset world = GcnWorld();
  Rng rng(1);
  LightGcn model(world, LightGcnConfig{}, &rng);
  TrainOptions options;
  options.epochs = 30;
  const TrainResult result = TrainModel(&model, world.ratings, options);
  EXPECT_LT(result.final_loss, result.loss_history.front() * 0.5);
}

TEST(LightGcnTest, FitsTrainingRatings) {
  const Dataset world = GcnWorld();
  Rng rng(2);
  LightGcn model(world, LightGcnConfig{}, &rng);
  TrainOptions options;
  options.epochs = 60;
  TrainModel(&model, world.ratings, options);
  EXPECT_LT(Rmse(&model, world.ratings), 1.2);
}

TEST(LightGcnTest, ZeroLayersIsPureMatrixFactorization) {
  const Dataset world = GcnWorld();
  LightGcnConfig config;
  config.num_layers = 0;
  Rng rng(3);
  LightGcn model(world, config, &rng);
  TrainOptions options;
  options.epochs = 20;
  const TrainResult result = TrainModel(&model, world.ratings, options);
  EXPECT_LT(result.final_loss, result.loss_history.front());
}

TEST(LightGcnTest, MoreLayersStillTrain) {
  const Dataset world = GcnWorld();
  LightGcnConfig config;
  config.num_layers = 3;
  Rng rng(4);
  LightGcn model(world, config, &rng);
  TrainOptions options;
  options.epochs = 20;
  const TrainResult result = TrainModel(&model, world.ratings, options);
  EXPECT_LT(result.final_loss, result.loss_history.front());
}

TEST(LightGcnTest, SocialWeightChangesPredictions) {
  const Dataset world = GcnWorld();
  LightGcnConfig with_social;
  LightGcnConfig without_social;
  without_social.social_weight = 0.0;
  Rng rng_a(5), rng_b(5);
  LightGcn a(world, with_social, &rng_a);
  LightGcn b(world, without_social, &rng_b);
  const std::vector<int64_t> users = {0, 1, 2};
  const std::vector<int64_t> items = {0, 1, 2};
  // Same initialization (same rng seed), different propagation.
  EXPECT_FALSE(
      AllClose(a.PredictPairs(users, items), b.PredictPairs(users, items)));
}

TEST(LightGcnTest, HeldOutRmseIsReasonable) {
  const Dataset world = GcnWorld();
  Rng split_rng(6);
  const RatingSplit split = SplitRatings(world, &split_rng);
  Rng rng(7);
  LightGcn model(world, LightGcnConfig{}, &rng);
  TrainOptions options;
  options.epochs = 50;
  TrainModel(&model, split.train, options);
  // Generalization sanity: better than predicting the extremes.
  EXPECT_LT(Rmse(&model, split.test), 1.8);
}

}  // namespace
}  // namespace msopds
