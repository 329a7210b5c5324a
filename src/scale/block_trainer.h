#ifndef MSOPDS_SCALE_BLOCK_TRAINER_H_
#define MSOPDS_SCALE_BLOCK_TRAINER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "recsys/matrix_factorization.h"
#include "recsys/trainer.h"
#include "util/status.h"

namespace msopds {
namespace scale {

/// Outcome of an out-of-core training run: the shared driver's
/// TrainResult plus what the shard-at-a-time pass actually touched.
struct OutOfCoreResult : TrainResult {
  /// Shard loads across all epochs (including the final-loss pass).
  int64_t shards_visited = 0;
  /// Largest single shard file touched — the out-of-core working set is
  /// bounded by this plus the model parameters, not by the dataset.
  int64_t peak_shard_bytes = 0;
};

/// Full-batch MF training that streams the dataset one shard at a time
/// instead of holding it in memory, bit-identical to
/// TrainModel(model, UserMajorRatings(dataset), options) at any shard
/// count (the equivalence contract of DESIGN.md §17, asserted by
/// ctest -L scale):
///
///  - the epochs, rollback, retries and fault injection run in
///    TrainFullBatch, the driver TrainModel uses;
///  - the shard CSR enumerates ratings in exactly the canonical
///    user-major order, so the manual gradient loop replays the tape's
///    per-rating accumulation sequence;
///  - the loss sums through ChunkedSum, the streaming form of
///    Tensor::Sum, across shard boundaries, so the scalar loss — and
///    with it the divergence detector and the retry trace — matches to
///    the last bit.
///
/// `resident` keeps every shard mapped for the whole run (the in-memory
/// comparison arm of BENCH_scale); the default re-maps one shard at a
/// time, bounding peak RSS by the largest shard.
///
/// For LightGCN / HetRecSys victims the graph propagation couples users
/// across shard cuts, so shard-local training is an approximation there;
/// the documented equivalence bound lives in DESIGN.md §17. This driver
/// is exact for MF.
StatusOr<OutOfCoreResult> TrainMfOutOfCore(
    MatrixFactorization* model, const std::vector<std::string>& shard_paths,
    const TrainOptions& options, bool resident = false);

}  // namespace scale
}  // namespace msopds

#endif  // MSOPDS_SCALE_BLOCK_TRAINER_H_
