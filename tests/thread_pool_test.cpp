// ThreadPool / parallel_for unit tests, plus the substrate determinism
// contract: every parallelized kernel must produce bitwise-identical output
// at every thread count (docs/PROTOCOL.md).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/nn/batchnorm.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/pool.hpp"
#include "src/tensor/gemm.hpp"
#include "src/tensor/im2col.hpp"
#include "src/tensor/tensor.hpp"

namespace splitmed {
namespace {

/// Restores the pool default when a test finishes so thread-count tweaks
/// never leak into other tests.
struct PoolGuard {
  ~PoolGuard() { set_global_threads(0); }
};

TEST(ThreadPool, RunsEveryChunkExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::atomic<int>> counts(64);
  pool.run(64, [&](int c) { ++counts[static_cast<std::size_t>(c)]; });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, SingleThreadPoolSpawnsNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  int calls = 0;
  pool.run(5, [&](int) { ++calls; });  // runs inline on this thread
  EXPECT_EQ(calls, 5);
}

TEST(ThreadPool, PropagatesChunkExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.run(8,
               [&](int c) {
                 if (c == 3) throw InvalidArgument("boom");
               }),
      InvalidArgument);
  // The pool survives a throwing job.
  std::atomic<int> done{0};
  pool.run(8, [&](int) { ++done; });
  EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPool, BackToBackJobsNeverShareChunks) {
  // Regression: a worker still draining job G could claim chunks of job
  // G+1 with G's callable and chunk count, running G+1's indices against
  // the wrong bound (and, once G's callable was gone, crashing or leaving
  // run() waiting forever). Short jobs of alternating width published back
  // to back make that window wide; each must still run every index in
  // [0, n) exactly once.
  ThreadPool pool(3);
  constexpr int kJobs = 200000;
  std::array<std::atomic<int>, 3> counts{};
  std::atomic<std::uint64_t> sink{0};
  int bad_jobs = 0;
  for (int job = 0; job < kJobs; ++job) {
    const int n = job % 2 == 0 ? 3 : 2;
    for (auto& c : counts) c.store(0, std::memory_order_relaxed);
    pool.run(n, [&](int c) {
      std::uint64_t x = static_cast<std::uint64_t>(c) + 1;
      for (int i = 0; i < 2000; ++i) x = x * 6364136223846793005ULL + 1;
      sink.fetch_add(x, std::memory_order_relaxed);
      counts[static_cast<std::size_t>(c)].fetch_add(1);
    });
    for (int c = 0; c < 3; ++c) {
      if (counts[static_cast<std::size_t>(c)].load() != (c < n ? 1 : 0)) {
        ++bad_jobs;
        break;
      }
    }
  }
  EXPECT_EQ(bad_jobs, 0);
}

TEST(ParallelFor, CoversRangeWithDisjointChunks) {
  PoolGuard guard;
  set_global_threads(4);
  std::vector<int> touched(1000, 0);
  parallel_for(0, 1000, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      ++touched[static_cast<std::size_t>(i)];
    }
  });
  for (const int t : touched) EXPECT_EQ(t, 1);
}

TEST(ParallelFor, RespectsGrainAndEmptyRange) {
  PoolGuard guard;
  set_global_threads(4);
  int calls = 0;
  // range 10 with grain 100 -> single inline chunk.
  parallel_for(0, 10, 100, [&](std::int64_t lo, std::int64_t hi) {
    ++calls;
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 10);
  });
  EXPECT_EQ(calls, 1);
  parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 1);  // empty range never invokes the body
}

TEST(ParallelFor, NestedCallsRunSerially) {
  PoolGuard guard;
  set_global_threads(4);
  std::vector<int> touched(256, 0);
  parallel_for(0, 16, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      EXPECT_TRUE(in_parallel_region());
      // Nested loop must run inline (a fork-join pool waiting on itself
      // would deadlock) and still cover its range exactly once.
      parallel_for(0, 16, 1, [&](std::int64_t lo2, std::int64_t hi2) {
        for (std::int64_t j = lo2; j < hi2; ++j) {
          ++touched[static_cast<std::size_t>(i * 16 + j)];
        }
      });
    }
  });
  for (const int t : touched) EXPECT_EQ(t, 1);
}

TEST(ParallelFor, SetGlobalThreadsOneForcesSerial) {
  PoolGuard guard;
  set_global_threads(1);
  EXPECT_EQ(global_threads(), 1);
  parallel_for(0, 100, 1, [&](std::int64_t lo, std::int64_t hi) {
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 100);
  });
}

/// Runs `compute` at 1, 2, 4, and 7 threads and expects the float outputs to
/// be bitwise identical across all runs.
void expect_thread_invariant(
    const std::function<std::vector<float>()>& compute) {
  PoolGuard guard;
  set_global_threads(1);
  const std::vector<float> serial = compute();
  for (const int threads : {2, 4, 7}) {
    set_global_threads(threads);
    const std::vector<float> parallel = compute();
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(parallel[i], serial[i])
          << "element " << i << " diverged at " << threads << " threads";
    }
  }
}

TEST(SubstrateDeterminism, GemmVariantsBitwiseInvariant) {
  Rng rng(11);
  const Tensor a = Tensor::normal(Shape{37, 53}, rng);
  const Tensor b = Tensor::normal(Shape{53, 29}, rng);
  const Tensor at = Tensor::normal(Shape{53, 37}, rng);
  const Tensor bt = Tensor::normal(Shape{29, 53}, rng);
  expect_thread_invariant([&] {
    std::vector<float> c(37 * 29 * 3);
    std::span<float> all(c);
    gemm_nn(37, 29, 53, a.data(), b.data(), all.subspan(0, 37 * 29));
    gemm_tn(37, 29, 53, at.data(), b.data(), all.subspan(37 * 29, 37 * 29));
    gemm_nt(37, 29, 53, a.data(), bt.data(), all.subspan(2 * 37 * 29, 37 * 29));
    return c;
  });
}

TEST(SubstrateDeterminism, Im2colCol2imBitwiseInvariant) {
  ConvGeometry g{6, 13, 13, 3, 3, 2, 1};
  Rng rng(13);
  const Tensor img = Tensor::normal(Shape{6, 13, 13}, rng);
  const Tensor colsrc =
      Tensor::normal(Shape{g.col_rows(), g.col_cols()}, rng);
  expect_thread_invariant([&] {
    std::vector<float> col(
        static_cast<std::size_t>(g.col_rows() * g.col_cols()));
    std::vector<float> back(static_cast<std::size_t>(6 * 13 * 13), 0.0F);
    im2col_rows(g, img.data(), col);
    col2im(g, colsrc.data(), back);
    col.insert(col.end(), back.begin(), back.end());
    return col;
  });
}

TEST(SubstrateDeterminism, ConvForwardBackwardBitwiseInvariant) {
  expect_thread_invariant([] {
    Rng rng(17);
    nn::Conv2d conv(3, 8, 3, 1, 1, rng);
    const Tensor x = Tensor::normal(Shape{6, 3, 10, 10}, rng);
    const Tensor y = conv.forward(x, /*training=*/true);
    const Tensor g = Tensor::normal(y.shape(), rng);
    const Tensor gi = conv.backward(g);
    std::vector<float> out(y.data().begin(), y.data().end());
    out.insert(out.end(), gi.data().begin(), gi.data().end());
    for (const nn::Parameter* p : conv.parameters()) {
      out.insert(out.end(), p->grad.data().begin(), p->grad.data().end());
    }
    return out;
  });
}

TEST(SubstrateDeterminism, BatchNormAndPoolBitwiseInvariant) {
  expect_thread_invariant([] {
    Rng rng(19);
    nn::BatchNorm2d bn(5);
    nn::MaxPool2d maxp(2);
    const Tensor x = Tensor::normal(Shape{4, 5, 8, 8}, rng);
    const Tensor y = bn.forward(x, /*training=*/true);
    const Tensor g = Tensor::normal(y.shape(), rng);
    const Tensor gi = bn.backward(g);
    const Tensor my = maxp.forward(x, true);
    const Tensor mg = maxp.backward(Tensor::ones(my.shape()));
    std::vector<float> out;
    for (const Tensor* t : {&y, &gi, &my, &mg}) {
      out.insert(out.end(), t->data().begin(), t->data().end());
    }
    for (const nn::Parameter* p : bn.parameters()) {
      out.insert(out.end(), p->grad.data().begin(), p->grad.data().end());
    }
    return out;
  });
}

}  // namespace
}  // namespace splitmed
