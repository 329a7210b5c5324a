// serve-hotswap: top-K serving of an MF snapshot under a closed loop
// whose window equals the micro-batch size, with a pre-built alternate
// snapshot hot-swapped in every kPublishEvery requests (by count, never by
// clock). One kernel thread; the engine adds its batcher thread.

#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <map>
#include <memory>

#include "recsys/matrix_factorization.h"
#include "recsys/metrics.h"
#include "recsys/trainer.h"
#include "serve/engine.h"
#include "serve/model_snapshot.h"
#include "serve/topk.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload.h"

namespace perfbench {

void CleanMarketMetrics(msopds::RatingModel* model, int64_t num_users,
                        int64_t num_items, uint64_t seed, double* rbar,
                        double* hr3) {
  // kMarkets seed-drawn markets (audience, target, competitors), scored
  // with the paper's rbar and HR@3 on a model no attacker touched.
  constexpr int kMarkets = 32;
  constexpr int64_t kAudience = 64;
  constexpr int64_t kCompetitors = 4;
  msopds::Rng rng(seed ^ 0x5eed5eedULL);
  *rbar = 0.0;
  *hr3 = 0.0;
  for (int m = 0; m < kMarkets; ++m) {
    std::vector<int64_t> audience;
    for (int64_t a = 0; a < std::min(kAudience, num_users); ++a) {
      audience.push_back(rng.UniformInt(num_users));
    }
    const int64_t target = rng.UniformInt(num_items);
    std::vector<int64_t> compete;
    while (static_cast<int64_t>(compete.size()) < kCompetitors) {
      const int64_t item = rng.UniformInt(num_items);
      if (item != target) compete.push_back(item);
    }
    *rbar += msopds::AverageTargetRating(model, audience, target) / kMarkets;
    *hr3 += msopds::HitRateAtK(model, audience, target, compete, 3) / kMarkets;
  }
}

namespace {

using msopds::serve::ModelSnapshot;

constexpr int kBatch = 64;
constexpr int kTopK = 10;
// Requests per measured round and per hot-swap.
constexpr int64_t kRoundRequests = 4096;
constexpr int64_t kPublishEvery = 1024;
// Every kSampleStride-th response is kept and checked against offline
// top-K after the timed window.
constexpr int64_t kSampleStride = 61;

struct Shape {
  int64_t users, items, dim, ratings_per_user;
  int epochs;
};

/// A learnable rating set: a planted rank-4 preference model plus noise,
/// ~ratings_per_user distinct items per user.
msopds::Dataset MakeRatings(const Shape& shape, uint64_t seed) {
  msopds::Rng rng(seed);
  constexpr int kRank = 4;
  std::vector<double> user_taste(static_cast<size_t>(shape.users * kRank));
  std::vector<double> item_taste(static_cast<size_t>(shape.items * kRank));
  for (double& x : user_taste) x = rng.Normal(0.0, 0.6);
  for (double& x : item_taste) x = rng.Normal(0.0, 0.6);
  msopds::Dataset dataset;
  dataset.name = "serve-hotswap";
  dataset.num_users = shape.users;
  dataset.num_items = shape.items;
  for (int64_t u = 0; u < shape.users; ++u) {
    std::vector<int64_t> seen;
    while (static_cast<int64_t>(seen.size()) < shape.ratings_per_user) {
      const int64_t item = rng.UniformInt(shape.items);
      if (std::find(seen.begin(), seen.end(), item) != seen.end()) continue;
      seen.push_back(item);
      double value = 3.5 + rng.Normal(0.0, 0.3);
      for (int r = 0; r < kRank; ++r) {
        value += user_taste[static_cast<size_t>(u * kRank + r)] *
                 item_taste[static_cast<size_t>(item * kRank + r)];
      }
      dataset.ratings.push_back(
          {u, item, std::clamp(std::round(value), 1.0, 5.0)});
    }
  }
  return dataset;
}

struct Served {
  std::shared_ptr<const ModelSnapshot> snapshot;
  double rbar = 0.0;
  double hr3 = 0.0;
};

/// Trains one MF model and exports it as snapshot `version`.
Served TrainAndSnapshot(const msopds::Dataset& dataset, const Shape& shape,
                        uint64_t seed, uint64_t version, Tracer* tracer) {
  msopds::Rng rng(seed);
  msopds::MfConfig config;
  config.latent_dim = shape.dim;
  msopds::MatrixFactorization model(shape.users, shape.items, config, 3.5,
                                    &rng);
  msopds::TrainOptions options;
  options.epochs = shape.epochs;
  options.learning_rate = 0.05;
  msopds::TrainModel(&model, dataset.ratings, options);
  Served served;
  CleanMarketMetrics(&model, shape.users, shape.items, seed, &served.rbar,
                     &served.hr3);
  msopds::serve::SnapshotOptions snapshot_options;
  snapshot_options.version = version;
  snapshot_options.source = "mf";
  ScopedSpan span(tracer, "serve.snapshot_build");
  served.snapshot = ModelSnapshot::FromModel(&model, dataset, snapshot_options);
  return served;
}

uint64_t SnapshotFingerprint(const ModelSnapshot& snapshot) {
  uint64_t hash = kHashSeed;
  for (int64_t u = 0; u < snapshot.num_users(); ++u) {
    hash = HashBytes(hash, snapshot.UserRow(u),
                     sizeof(double) * static_cast<size_t>(snapshot.dim()));
  }
  for (int64_t i = 0; i < snapshot.num_items(); ++i) {
    hash = HashBytes(hash, snapshot.ItemRow(i),
                     sizeof(double) * static_cast<size_t>(snapshot.dim()));
  }
  return hash;
}

struct Sample {
  int64_t user = 0;
  msopds::serve::ServeResponse response;
};

/// The closed-loop generator. Submits a window of kBatch requests, then
/// waits for all of them, so every batch flushes full and never on the
/// timer. Every kPublishEvery submissions it publishes the other snapshot
/// halfway through filling a window: the requests already queued wait for
/// the publish, so its cost reaches request latency. Records round times,
/// per-round latency percentiles and sampled responses.
class LoadLoop {
 public:
  LoadLoop(msopds::serve::ServingEngine* engine,
           const std::vector<std::shared_ptr<const ModelSnapshot>>* snapshots,
           int64_t num_users, uint64_t seed)
      : engine_(engine), snapshots_(snapshots), num_users_(num_users),
        rng_(seed) {}

  /// Serves `rounds` rounds (or rounds until `seconds` elapse when rounds
  /// is 0), tracing publishes when `tracer` is enabled.
  void Run(int rounds, double seconds, Tracer* tracer) {
    const Clock::time_point window = Clock::now();
    for (int done = 0;
         rounds > 0 ? done < rounds : SecondsSince(window) < seconds;
         ++done) {
      const Clock::time_point round_start = Clock::now();
      const size_t round_first = latencies_ms_.size();
      for (int64_t step = 0; step < kRoundRequests / kBatch; ++step) {
        for (int i = 0; i < kBatch; ++i) Submit(tracer);
        while (!in_flight_.empty()) Complete();
      }
      round_times_.push_back(SecondsSince(round_start));
      const std::vector<double> round(
          latencies_ms_.begin() + static_cast<std::ptrdiff_t>(round_first),
          latencies_ms_.end());
      round_p50_ms_.push_back(Percentile(round, 50));
      round_p99_ms_.push_back(Percentile(round, 99));
    }
  }

  const std::vector<double>& round_times() const { return round_times_; }
  const std::vector<double>& latencies_ms() const { return latencies_ms_; }
  const std::vector<double>& round_p50_ms() const { return round_p50_ms_; }
  const std::vector<double>& round_p99_ms() const { return round_p99_ms_; }
  const std::vector<Sample>& samples() const { return samples_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  int64_t publishes() const { return publishes_; }

 private:
  void Submit(Tracer* tracer) {
    if (submitted_ % kPublishEvery == kBatch / 2) {
      ScopedSpan span(tracer, "serve.publish");
      const size_t next = static_cast<size_t>(++publishes_) % snapshots_->size();
      engine_->Publish((*snapshots_)[next]);
    }
    msopds::serve::ServeRequest request;
    request.user = rng_.UniformInt(num_users_);
    request.k = kTopK;
    in_flight_.push_back({request.user, engine_->Submit(request)});
    ++submitted_;
  }

  void Complete() {
    auto [user, future] = std::move(in_flight_.front());
    in_flight_.pop_front();
    msopds::serve::ServeResponse response = future.get();
    ++attempted_;
    const bool ok = response.status == msopds::serve::ServeStatus::kOk &&
                    !response.served_degraded;
    if (!ok) {
      ++failed_;
      return;
    }
    latencies_ms_.push_back(static_cast<double>(response.total_us) * 1e-3);
    if (attempted_ % kSampleStride == 0) {
      samples_.push_back({user, std::move(response)});
    }
  }

  msopds::serve::ServingEngine* engine_;
  const std::vector<std::shared_ptr<const ModelSnapshot>>* snapshots_;
  int64_t num_users_;
  msopds::Rng rng_;
  std::deque<std::pair<int64_t, std::future<msopds::serve::ServeResponse>>>
      in_flight_;
  int64_t submitted_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t publishes_ = 0;
  std::vector<double> round_times_;
  std::vector<double> latencies_ms_;
  std::vector<double> round_p50_ms_;
  std::vector<double> round_p99_ms_;
  std::vector<Sample> samples_;
};

/// Every sampled response must equal offline TopKForUsers on the snapshot
/// version that served it.
void CheckSamples(const std::vector<Sample>& samples,
                  const std::vector<std::shared_ptr<const ModelSnapshot>>&
                      snapshots,
                  WorkloadResult* out) {
  std::map<uint64_t, const ModelSnapshot*> by_version;
  for (const auto& snapshot : snapshots) {
    by_version[snapshot->version()] = snapshot.get();
  }
  std::map<uint64_t, std::vector<const Sample*>> groups;
  for (const Sample& sample : samples) {
    groups[sample.response.snapshot_version].push_back(&sample);
  }
  for (const auto& [version, group] : groups) {
    const auto it = by_version.find(version);
    if (it == by_version.end()) {
      out->Check(false, "a response names an unpublished snapshot version");
      continue;
    }
    std::vector<int64_t> users;
    for (const Sample* sample : group) users.push_back(sample->user);
    msopds::serve::TopKOptions options;
    options.k = kTopK;
    const msopds::serve::TopKResult offline =
        msopds::serve::TopKForUsers(*it->second, users, options);
    for (size_t s = 0; s < group.size(); ++s) {
      const int64_t count = offline.counts[s];
      const msopds::serve::ServeResponse& served = group[s]->response;
      bool same = static_cast<int64_t>(served.items.size()) == count &&
                  static_cast<int64_t>(served.scores.size()) == count;
      for (int64_t j = 0; same && j < count; ++j) {
        same = served.items[static_cast<size_t>(j)] ==
                   offline.ItemsForUser(static_cast<int64_t>(s))[j] &&
               served.scores[static_cast<size_t>(j)] ==
                   offline.ScoresForUser(static_cast<int64_t>(s))[j];
      }
      out->Check(same, "served top-K equals offline TopKForUsers on the "
                       "serving snapshot");
    }
  }
  out->Fact("checked_samples", std::to_string(samples.size()));
  out->Fact("checked_versions", std::to_string(groups.size()));
}

}  // namespace

WorkloadResult RunServeWorkload(const RunOptions& options, Tracer* tracer) {
  msopds::ThreadPool::Global().SetNumThreads(1);
  WorkloadResult out;
  const Shape shape = options.toy() ? Shape{300, 600, 8, 10, 4}
                                    : Shape{4000, 8000, 32, 20, 8};
  out.Fact("snapshot", std::to_string(shape.users) + "x" +
                           std::to_string(shape.items) + "x" +
                           std::to_string(shape.dim));

  // Set-up: ratings, two trained models and their snapshots (v1, v2),
  // three times; every repetition must produce the same snapshots.
  std::vector<double> setup_times;
  std::vector<Served> served;
  uint64_t fingerprint = 0;
  for (int rep = 0; rep < 3; ++rep) {
    Tracer* setup_tracer = rep == 0 ? tracer : nullptr;
    const Clock::time_point start = Clock::now();
    const msopds::Dataset dataset = MakeRatings(shape, options.seed);
    served.clear();
    for (uint64_t version = 1; version <= 2; ++version) {
      served.push_back(TrainAndSnapshot(dataset, shape,
                                        options.seed * 16 + version, version,
                                        setup_tracer));
    }
    setup_times.push_back(SecondsSince(start));
    uint64_t print = kHashSeed;
    for (const Served& s : served) {
      const uint64_t one = SnapshotFingerprint(*s.snapshot);
      print = HashBytes(print, &one, sizeof(one));
    }
    if (rep > 0) out.Check(print == fingerprint, "set-up is deterministic");
    fingerprint = print;
  }
  out.Fact("input_fingerprint", Hex(fingerprint));
  out.Set("setup_s", Median(setup_times));
  out.Set("serve.snapshot_build_s",
          tracer->TotalSeconds("serve.snapshot_build") / 2.0);
  std::vector<std::shared_ptr<const ModelSnapshot>> snapshots;
  for (const Served& s : served) snapshots.push_back(s.snapshot);

  msopds::serve::EngineOptions engine_options;
  engine_options.max_batch_size = kBatch;
  // The generator submits whole windows of kBatch requests, so a batch
  // fills as soon as its window is submitted; the flush timer is only a
  // backstop and never sets the pace.
  engine_options.max_wait_us = 50000;
  msopds::serve::ServingEngine engine(engine_options);
  engine.Publish(snapshots[0]);
  LoadLoop loop(&engine, &snapshots, shape.users, options.seed * 7 + 3);

  if (!tracer->enabled()) {
    loop.Run(/*rounds=*/0, options.seconds, nullptr);
  } else {
    // One untraced round, one traced round: the difference is the
    // tracing overhead.
    loop.Run(/*rounds=*/1, 0.0, nullptr);
    const double untraced_s = loop.round_times().back();
    {
      ScopedSpan span(tracer, "serve.round");
      loop.Run(/*rounds=*/1, 0.0, tracer);
    }
    out.Set("trace.overhead_s", loop.round_times().back() - untraced_s);
    out.Set("serve.publish_s", tracer->TotalSeconds("serve.publish") /
                                   std::max<int64_t>(1, tracer->Count("serve.publish")));
  }
  const msopds::serve::EngineStats stats = engine.Stats();
  engine.Stop();

  out.attempted = loop.attempted();
  out.failed = loop.failed();
  CheckSamples(loop.samples(), snapshots, &out);
  out.Check(loop.publishes() > 0, "the run hot-swapped at least once");
  out.Check(stats.rejected == 0 && stats.shed == 0 && stats.degraded == 0,
            "no request was rejected, shed or degraded");
  out.Fact("rounds", std::to_string(loop.round_times().size()));
  out.Fact("latency_samples", std::to_string(loop.latencies_ms().size()));
  out.Fact("publishes", std::to_string(loop.publishes()));

  // Best round: host slowdowns only ever add time, so the fastest of the
  // run's rounds is the steadiest reading of what the code costs.
  const double round_s = Min(loop.round_times());
  out.Set("wall_s", round_s);
  out.Set("throughput_per_s", static_cast<double>(kRoundRequests) / round_s);
  out.Set("latency_p50_ms", Min(loop.round_p50_ms()));
  out.Set("latency_p99_ms", Min(loop.round_p99_ms()));
  out.Set("attack_rbar", served[0].rbar);
  out.Set("attack.hr3", served[0].hr3);

  out.Set("serve.publishes", static_cast<double>(stats.publishes));
  out.Set("serve.batches", static_cast<double>(stats.batches));
  out.Set("serve.mean_batch_size", stats.mean_batch_size);
  out.Set("serve.max_queue_depth", static_cast<double>(stats.max_queue_depth));
  out.Set("serve.rejected", static_cast<double>(stats.rejected));
  out.Set("serve.shed", static_cast<double>(stats.shed));
  out.Set("serve.degraded", static_cast<double>(stats.degraded));

  if (tracer->enabled()) {
    // Standalone batch scoring: TopKForUsers on batch-sized user sets.
    msopds::Rng rng(options.seed + 11);
    std::vector<double> batch_times;
    msopds::serve::TopKOptions topk;
    topk.k = kTopK;
    for (int b = 0; b < 32; ++b) {
      std::vector<int64_t> users;
      for (int u = 0; u < kBatch; ++u) users.push_back(rng.UniformInt(shape.users));
      const Clock::time_point start = Clock::now();
      ScopedSpan span(tracer, "serve.topk_batch");
      const msopds::serve::TopKResult result =
          msopds::serve::TopKForUsers(*snapshots[0], users, topk);
      batch_times.push_back(SecondsSince(start));
      out.Check(static_cast<int64_t>(result.counts.size()) == kBatch,
                "standalone TopKForUsers answers every user");
    }
    out.Set("serve.topk_batch_s", Median(batch_times));
  }
  return out;
}

}  // namespace perfbench
