#include "scale/block_trainer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "scale/sharded_dataset.h"
#include "tensor/tensor.h"
#include "util/arena.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace msopds {
namespace scale {
namespace {

constexpr uint64_t kInitSeed = 2024;

Dataset TrainingDataset() {
  SyntheticConfig config;
  config.name = "ooc-train";
  config.num_users = 60;
  config.num_items = 45;
  config.num_ratings = 500;
  config.num_social_links = 200;
  Rng rng(77);
  return GenerateSynthetic(config, &rng);
}

/// Ratings for four reduction chunks, the fewest whose pairwise fold
/// ((c0 + c1) + (c2 + c3)) differs in order from a running sum, with the
/// chunk edges falling inside shards.
Dataset MultiChunkDataset() {
  SyntheticConfig config;
  config.name = "ooc-multichunk";
  config.num_users = 600;
  config.num_items = 400;
  config.num_ratings = 3 * kReduceGrain + 1000;
  config.num_social_links = 800;
  Rng rng(78);
  return GenerateSynthetic(config, &rng);
}

std::string FreshDir(const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

MatrixFactorization FreshModel(const Dataset& dataset) {
  Rng init_rng(kInitSeed);
  return MatrixFactorization(dataset.num_users, dataset.num_items, MfConfig(),
                             3.0, &init_rng);
}

/// Bitwise tensor equality (memcmp, so NaN payloads and signed zeros
/// count too — this is the determinism contract, not a tolerance check).
void ExpectParamsBitIdentical(MatrixFactorization* expected,
                              MatrixFactorization* actual,
                              const std::string& context) {
  std::vector<Variable>* expected_params = expected->MutableParams();
  std::vector<Variable>* actual_params = actual->MutableParams();
  ASSERT_EQ(expected_params->size(), actual_params->size()) << context;
  const char* names[] = {"user_factors", "item_factors", "user_bias",
                         "item_bias"};
  for (size_t p = 0; p < expected_params->size(); ++p) {
    const Tensor& want = (*expected_params)[p].value();
    const Tensor& got = (*actual_params)[p].value();
    ASSERT_EQ(want.size(), got.size()) << context << " param " << names[p];
    EXPECT_EQ(std::memcmp(want.data(), got.data(),
                          static_cast<size_t>(want.size()) * sizeof(double)),
              0)
        << context << ": param " << names[p] << " differs bitwise";
  }
}

/// Trains the whole-dataset reference (TrainModel over the canonical
/// user-major view) and the shard-streaming driver from identical
/// initializations, each under a fresh copy of the fault plan `faults`,
/// then asserts bitwise parameter identity plus an identical loss and
/// retry trace. Returns the reference run's retry count.
int CheckBitIdentity(const Dataset& dataset,
                     const std::vector<std::string>& shard_paths,
                     const TrainOptions& options, bool resident,
                     const std::string& context,
                     const FaultConfig& faults = {}) {
  MatrixFactorization reference = FreshModel(dataset);
  TrainResult expected;
  {
    ScopedFaultInjection scope(faults);
    expected = TrainModel(&reference, UserMajorRatings(dataset), options);
  }
  EXPECT_TRUE(expected.healthy) << context << ": " << expected.failure;

  MatrixFactorization streamed = FreshModel(dataset);
  ScopedFaultInjection scope(faults);
  auto result = TrainMfOutOfCore(&streamed, shard_paths, options, resident);
  EXPECT_TRUE(result.ok()) << context << ": " << result.status().ToString();
  if (!result.ok()) return expected.retries;
  const OutOfCoreResult& ooc = result.value();
  EXPECT_TRUE(ooc.healthy) << context << ": " << ooc.failure;
  EXPECT_EQ(ooc.retries, expected.retries) << context;
  EXPECT_EQ(ooc.fault_events, expected.fault_events) << context;

  EXPECT_EQ(ooc.loss_history, expected.loss_history) << context;
  EXPECT_EQ(ooc.final_loss, expected.final_loss) << context;
  ExpectParamsBitIdentical(&reference, &streamed, context);
  return expected.retries;
}

TEST(BlockTrainerTest, BitIdenticalAcrossShardCountsThreadsAndArena) {
  const Dataset small = TrainingDataset();
  const Dataset multi_chunk = MultiChunkDataset();
  ASSERT_GT(static_cast<int64_t>(multi_chunk.ratings.size()), kReduceGrain);
  for (const Dataset* dataset : {&small, &multi_chunk}) {
    for (int64_t shards : {1, 4}) {
      const std::string dir =
          FreshDir(StrFormat("ooc_%s_shards_%lld", dataset->name.c_str(),
                             static_cast<long long>(shards)));
      auto paths = WriteShards(*dataset, dir, shards);
      ASSERT_TRUE(paths.ok()) << paths.status().ToString();
      for (int threads : {1, 4}) {
        for (bool arena_on : {false, true}) {
          const bool previous = Arena::Global().SetEnabled(arena_on);
          TrainOptions options;
          options.epochs = 4;
          options.num_threads = threads;
          CheckBitIdentity(
              *dataset, paths.value(), options, /*resident=*/false,
              StrFormat("%s shards=%lld threads=%d arena=%d",
                        dataset->name.c_str(), static_cast<long long>(shards),
                        threads, arena_on ? 1 : 0));
          Arena::Global().SetEnabled(previous);
        }
      }
    }
  }
}

// Seeded NaN faults on some epochs: the shared driver must roll back and
// retry both trainers through the same trace, so retries, losses and
// parameters still match to the bit.
TEST(BlockTrainerTest, FaultInjectedRetriesAreBitIdentical) {
  const Dataset dataset = TrainingDataset();
  const std::string dir = FreshDir("ooc_faults");
  auto paths = WriteShards(dataset, dir, 4);
  ASSERT_TRUE(paths.ok()) << paths.status().ToString();
  FaultConfig faults;
  faults.seed = 11;
  faults.trainer_nan_probability = 0.3;
  TrainOptions options;
  options.epochs = 12;
  options.max_retries = 100;  // ample budget: both runs must stay healthy
  const int retries =
      CheckBitIdentity(dataset, paths.value(), options, /*resident=*/false,
                       "faults", faults);
  EXPECT_GT(retries, 0) << "the fault plan never fired";
}

TEST(BlockTrainerTest, ResidentModeIsAlsoBitIdentical) {
  const Dataset dataset = TrainingDataset();
  const std::string dir = FreshDir("ooc_resident");
  auto paths = WriteShards(dataset, dir, 4);
  ASSERT_TRUE(paths.ok()) << paths.status().ToString();
  TrainOptions options;
  options.epochs = 3;
  CheckBitIdentity(dataset, paths.value(), options, /*resident=*/true,
                   "resident");
}

TEST(BlockTrainerTest, ReportsShardTraffic) {
  const Dataset dataset = TrainingDataset();
  const std::string dir = FreshDir("ooc_traffic");
  auto paths = WriteShards(dataset, dir, 4);
  ASSERT_TRUE(paths.ok()) << paths.status().ToString();
  MatrixFactorization model = FreshModel(dataset);
  TrainOptions options;
  options.epochs = 3;
  auto result = TrainMfOutOfCore(&model, paths.value(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Each of the 3 epochs streams all 4 shards, plus the final loss pass.
  EXPECT_EQ(result.value().shards_visited, (3 + 1) * 4);
  EXPECT_GT(result.value().peak_shard_bytes, 0);
}

TEST(BlockTrainerTest, RejectsModelShapeMismatch) {
  const Dataset dataset = TrainingDataset();
  const std::string dir = FreshDir("ooc_shape");
  auto paths = WriteShards(dataset, dir, 2);
  ASSERT_TRUE(paths.ok()) << paths.status().ToString();
  Rng init_rng(kInitSeed);
  MatrixFactorization wrong_shape(dataset.num_users + 3, dataset.num_items,
                                  MfConfig(), 3.0, &init_rng);
  TrainOptions options;
  options.epochs = 1;
  auto result = TrainMfOutOfCore(&wrong_shape, paths.value(), options);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace scale
}  // namespace msopds
