#include "scale/block_trainer.h"

#include <algorithm>
#include <utility>

#include "scale/shard_io.h"
#include "scale/sharded_dataset.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "util/string_util.h"

namespace msopds {
namespace scale {
namespace {

double SquaredNormChunked(const Tensor& t) {
  ChunkedSum sum;
  const double* x = t.data();
  for (int64_t j = 0; j < t.size(); ++j) sum.Push(x[j] * x[j]);
  return sum.Result();
}

}  // namespace

StatusOr<OutOfCoreResult> TrainMfOutOfCore(
    MatrixFactorization* model, const std::vector<std::string>& shard_paths,
    const TrainOptions& options, bool resident) {
  if (model == nullptr) {
    return Status::InvalidArgument("model must not be null");
  }
  if (shard_paths.empty()) {
    return Status::InvalidArgument("no shard paths given");
  }

  int64_t shards_visited = 0;
  int64_t peak_shard_bytes = 0;

  // Validate the shard set once up front (complete, consistent, ranges
  // canonical) and record the global dimensions.
  int64_t num_users = 0, num_items = 0, total_ratings = 0;
  {
    std::vector<bool> seen(shard_paths.size(), false);
    int64_t ratings_across = 0;
    for (size_t k = 0; k < shard_paths.size(); ++k) {
      auto reader = ShardReader::Open(shard_paths[k]);
      if (!reader.ok()) return reader.status();
      const ShardReader& shard = reader.value();
      if (k == 0) {
        num_users = shard.num_users();
        num_items = shard.num_items();
        total_ratings = shard.total_ratings();
      }
      if (shard.num_shards() != static_cast<int64_t>(shard_paths.size()) ||
          shard.num_users() != num_users ||
          shard.num_items() != num_items ||
          shard.total_ratings() != total_ratings ||
          seen[static_cast<size_t>(shard.shard_index())]) {
        return Status::InvalidArgument(
            shard.path() + ": not a complete consistent shard set");
      }
      seen[static_cast<size_t>(shard.shard_index())] = true;
      ratings_across += shard.num_ratings();
      peak_shard_bytes = std::max(peak_shard_bytes, shard.file_bytes());
    }
    if (ratings_across != total_ratings) {
      return Status::InvalidArgument(
          "shard set holds a different rating count than its headers claim");
    }
  }

  const int64_t latent_dim = model->config().latent_dim;
  const double l2 = model->config().l2;
  const double mu = model->global_mean();
  std::vector<Variable>* params = model->MutableParams();
  if ((*params)[0].value().shape() !=
          std::vector<int64_t>{num_users, latent_dim} ||
      (*params)[1].value().shape() !=
          std::vector<int64_t>{num_items, latent_dim}) {
    return Status::InvalidArgument(
        StrFormat("model shape does not match shard set (%lld users, "
                  "%lld items)",
                  static_cast<long long>(num_users),
                  static_cast<long long>(num_items)));
  }

  std::vector<ShardReader> resident_readers;
  if (resident) {
    for (const std::string& path : shard_paths) {
      auto reader = ShardReader::Open(path);
      if (!reader.ok()) return reader.status();
      resident_readers.push_back(std::move(reader).value());
    }
    shards_visited += static_cast<int64_t>(resident_readers.size());
  }

  const double inv_n = 1.0 / static_cast<double>(total_ratings);

  // One full pass over all shards: streams the canonical user-major
  // rating order (shards ascending, owned users ascending, within-user
  // CSR order) through the streaming sum and — when `grads` is set —
  // the manual gradient loop, which replays the tape's accumulation
  // sequence exactly (see the prototype note in DESIGN.md §17).
  auto epoch_pass = [&](std::vector<Tensor>* grads) -> StatusOr<double> {
    const double* P = (*params)[0].value().data();
    const double* Q = (*params)[1].value().data();
    const double* BU = (*params)[2].value().data();
    const double* BI = (*params)[3].value().data();
    double* Pg = nullptr;
    double* Qg = nullptr;
    double* BUg = nullptr;
    double* BIg = nullptr;
    if (grads != nullptr) {
      for (const Variable& param : *params) {
        grads->push_back(Tensor::Zeros(param.value().shape()));
      }
      Pg = (*grads)[0].data();
      Qg = (*grads)[1].data();
      BUg = (*grads)[2].data();
      BIg = (*grads)[3].data();
    }

    ChunkedSum squared_errors;
    auto consume = [&](const ShardReader& shard) {
      for (int64_t u = shard.user_begin(); u < shard.user_end(); ++u) {
        const int64_t row_begin =
            shard.rating_offsets()[u - shard.user_begin()];
        const int64_t row_end =
            shard.rating_offsets()[u - shard.user_begin() + 1];
        const double* pu = P + u * latent_dim;
        for (int64_t row = row_begin; row < row_end; ++row) {
          const int64_t i = shard.rating_items()[row];
          const double* qi = Q + i * latent_dim;
          const double dot = simd::Dot(pu, qi, latent_dim);
          const double pred = ((dot + BU[u]) + BI[i]) + mu;
          const double e = pred - shard.rating_values()[row];
          squared_errors.Push(e * e);
          if (grads != nullptr) {
            const double half = inv_n * e;
            const double dpred = half + half;
            simd::Axpy(dpred, qi, Pg + u * latent_dim, latent_dim);
            simd::Axpy(dpred, pu, Qg + i * latent_dim, latent_dim);
            BUg[u] += dpred;
            BIg[i] += dpred;
          }
        }
      }
    };
    if (resident) {
      for (const ShardReader& shard : resident_readers) consume(shard);
    } else {
      for (const std::string& path : shard_paths) {
        auto reader = ShardReader::Open(path);
        if (!reader.ok()) return reader.status();
        ++shards_visited;
        consume(reader.value());
        // reader unmaps here: at most one shard resident at a time
      }
    }

    // loss = Mean(Square(errors)) [+ ScalarMul(reg, l2)], replicating
    // MfLoss's composition order; each SquaredNorm is a chunked
    // Tensor::Sum over the squared parameter block.
    double loss = squared_errors.Result() * inv_n;
    if (l2 > 0.0) {
      const double reg =
          ((SquaredNormChunked((*params)[0].value()) +
            SquaredNormChunked((*params)[1].value())) +
           SquaredNormChunked((*params)[2].value())) +
          SquaredNormChunked((*params)[3].value());
      loss = loss + reg * l2;
      if (grads != nullptr) {
        // Tape accumulation order: the L2 term's contribution
        // (l2*x + l2*x) is folded in before the scatter-accumulated
        // data gradient for every element.
        for (size_t p = 0; p < params->size(); ++p) {
          const double* x = (*params)[p].value().data();
          double* g = (*grads)[p].data();
          for (int64_t j = 0; j < (*grads)[p].size(); ++j) {
            g[j] = (l2 * x[j] + l2 * x[j]) + g[j];
          }
        }
      }
    }
    return loss;
  };

  auto trained = TrainFullBatch(params, options, epoch_pass);
  if (!trained.ok()) return trained.status();
  return OutOfCoreResult{std::move(trained).value(), shards_visited,
                         peak_shard_bytes};
}

}  // namespace scale
}  // namespace msopds
