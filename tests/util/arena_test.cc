// Tensor-buffer arena: size classes, free-list recycling, scoped bulk
// release, cross-thread frees, stats accounting, and the Debug/ASan
// poison contract for recycled blocks (DESIGN.md "Memory model").

#include "util/arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>

#include "tensor/tensor.h"

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MSOPDS_TEST_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define MSOPDS_TEST_ASAN 1
#endif

namespace msopds {
namespace {

// The arena is process-global and other suites switch recycling off
// for their unpooled reference twins, so every test forces recycling
// on and restores the previous mode (these tests exercise the
// allocator itself; determinism with the pool off is
// memory_determinism_test's job).
class ArenaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_ = Arena::Global().SetEnabled(true);
    Arena::Global().Trim();
    Arena::Global().ResetStats();
  }
  void TearDown() override {
    Arena::Global().SetEnabled(previous_);
    Arena::Global().Trim();
  }

 private:
  bool previous_ = true;
};

TEST_F(ArenaTest, SizeClassesRoundUpToPowersOfTwo) {
  EXPECT_EQ(Arena::SizeClassCapacity(1), Arena::kMinClassDoubles);
  EXPECT_EQ(Arena::SizeClassCapacity(64), 64);
  EXPECT_EQ(Arena::SizeClassCapacity(65), 128);
  EXPECT_EQ(Arena::SizeClassCapacity(1000), 1024);
  EXPECT_EQ(Arena::SizeClassCapacity(1024), 1024);
  EXPECT_EQ(Arena::SizeClassCapacity(1025), 2048);
}

TEST_F(ArenaTest, RecyclesBlocksOfTheSameClass) {
  Arena& arena = Arena::Global();
  double* first = arena.Allocate(100);
  arena.Deallocate(first, 100);
  // 100 and 120 share the 128-double class, so the cached block is
  // handed back out.
  double* second = arena.Allocate(120);
  EXPECT_EQ(second, first);
  const ArenaStats stats = arena.stats();
  EXPECT_EQ(stats.alloc_calls, 2);
  EXPECT_EQ(stats.pool_hits, 1);
  EXPECT_EQ(stats.heap_allocs(), 1);
  arena.Deallocate(second, 120);
}

TEST_F(ArenaTest, DifferentClassesDoNotShareBlocks) {
  Arena& arena = Arena::Global();
  double* small = arena.Allocate(64);
  arena.Deallocate(small, 64);
  double* large = arena.Allocate(512);
  EXPECT_NE(large, small);
  EXPECT_EQ(arena.stats().pool_hits, 0);
  arena.Deallocate(large, 512);
}

TEST_F(ArenaTest, DisabledModeBypassesThePool) {
  Arena& arena = Arena::Global();
  arena.SetEnabled(false);
  double* block = arena.Allocate(256);
  arena.Deallocate(block, 256);
  const ArenaStats stats = arena.stats();
  EXPECT_EQ(stats.pool_hits, 0);
  EXPECT_EQ(stats.bytes_cached, 0);
  double* again = arena.Allocate(256);
  EXPECT_EQ(arena.stats().pool_hits, 0);
  arena.Deallocate(again, 256);
}

TEST_F(ArenaTest, StatsTrackLiveAndHighWaterBytes) {
  Arena& arena = Arena::Global();
  double* a = arena.Allocate(64);   // 512 payload bytes
  double* b = arena.Allocate(128);  // 1024 payload bytes
  ArenaStats stats = arena.stats();
  EXPECT_EQ(stats.bytes_live, 512 + 1024);
  EXPECT_EQ(stats.high_water_bytes, 512 + 1024);
  arena.Deallocate(b, 128);
  stats = arena.stats();
  EXPECT_EQ(stats.bytes_live, 512);
  EXPECT_EQ(stats.high_water_bytes, 512 + 1024);
  arena.ResetPeak();
  EXPECT_EQ(arena.stats().high_water_bytes, 512);
  arena.Deallocate(a, 64);
}

TEST_F(ArenaTest, TrimReturnsCachedBlocksToTheHeap) {
  Arena& arena = Arena::Global();
  double* block = arena.Allocate(64);
  arena.Deallocate(block, 64);
  EXPECT_GT(arena.stats().bytes_cached, 0);
  arena.Trim();
  const ArenaStats stats = arena.stats();
  EXPECT_EQ(stats.bytes_cached, 0);
  EXPECT_EQ(stats.trims, 1);
}

TEST_F(ArenaTest, RegionTrimsOnOutermostExitOnly) {
  Arena& arena = Arena::Global();
  {
    ArenaRegion outer;
    double* block = arena.Allocate(64);
    arena.Deallocate(block, 64);
    {
      ArenaRegion inner;
      // Nested exit must not release the cache the outer phase is
      // still recycling from.
    }
    EXPECT_GT(arena.stats().bytes_cached, 0);
  }
  EXPECT_EQ(arena.stats().bytes_cached, 0);
}

TEST_F(ArenaTest, BlocksFreedOnAnotherThreadAreRecycled) {
  Arena& arena = Arena::Global();
  double* block = arena.Allocate(1024);
  std::thread worker([&] { arena.Deallocate(block, 1024); });
  worker.join();
  double* again = arena.Allocate(1024);
  EXPECT_EQ(again, block);
  EXPECT_EQ(arena.stats().pool_hits, 1);
  arena.Deallocate(again, 1024);
}

TEST_F(ArenaTest, TensorBuffersComeFromTheArena) {
  Arena& arena = Arena::Global();
  const ArenaStats before = arena.stats();
  {
    Tensor t({64});
    EXPECT_GT(arena.stats().bytes_live, before.bytes_live);
  }
  // The tensor's storage went back to the free lists, not the heap.
  EXPECT_EQ(arena.stats().bytes_live, before.bytes_live);
  EXPECT_GT(arena.stats().bytes_cached, before.bytes_cached);
}

#if !defined(NDEBUG) || defined(MSOPDS_TEST_ASAN)
TEST_F(ArenaTest, RecycledBlocksCarryThePoisonPattern) {
  Arena& arena = Arena::Global();
  double* block = arena.Allocate(64);
  for (int i = 0; i < 64; ++i) block[i] = 1.0;
  arena.Deallocate(block, 64);
  // Reading through the re-allocation is legal (the block is unpoisoned
  // again); the Debug scribble from the free must still be there, so a
  // kernel that relied on stale contents would have seen NaNs.
  double* again = arena.Allocate(64);
  ASSERT_EQ(again, block);
  const uint64_t* words = reinterpret_cast<const uint64_t*>(again);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(words[i], Arena::PoisonPattern()) << "word " << i;
  }
  arena.Deallocate(again, 64);
}
#endif

#ifdef MSOPDS_TEST_ASAN
TEST_F(ArenaTest, UseAfterFreeOfCachedBlockDiesUnderAsan) {
  // A stale pointer into a cached (recycled-but-unclaimed) block must
  // fault loudly instead of silently reading the free list's memory.
  EXPECT_DEATH(
      {
        Arena& arena = Arena::Global();
        double* block = arena.Allocate(64);
        arena.Deallocate(block, 64);
        volatile double stale = block[0];
        (void)stale;
      },
      "use-after-poison");
}
#endif

}  // namespace
}  // namespace msopds
