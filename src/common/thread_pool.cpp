#include "src/common/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>

#include "src/common/error.hpp"

namespace splitmed {
namespace {

thread_local bool tls_in_parallel_region = false;

/// RAII guard marking the current thread as inside a parallel body.
struct ParallelRegionScope {
  bool saved = tls_in_parallel_region;
  ParallelRegionScope() { tls_in_parallel_region = true; }
  ~ParallelRegionScope() { tls_in_parallel_region = saved; }
};

}  // namespace

int ThreadPool::default_threads() {
  if (const char* env = std::getenv("SPLITMED_THREADS")) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) threads = default_threads();
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int t = 1; t < threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

int ThreadPool::drain_job(const FunctionRef<void(int)>& fn, int num_chunks,
                          std::uint64_t generation) {
  int done = 0;
  for (;;) {
    int chunk;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // A late worker may get here after its job finished and the next one
      // was published: it must not claim the new job's chunks with the old
      // job's callable and count.
      if (generation_ != generation || next_chunk_ >= num_chunks) return done;
      chunk = next_chunk_++;
    }
    try {
      fn(chunk);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    ++done;
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    const FunctionRef<void(int)>* fn = nullptr;
    int num_chunks = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return stop_ || (job_ != nullptr && generation_ != seen_generation);
      });
      if (stop_) return;
      seen_generation = generation_;
      fn = job_;
      num_chunks = job_chunks_;
    }
    const int done = drain_job(*fn, num_chunks, seen_generation);
    if (done > 0) {
      std::lock_guard<std::mutex> lock(mu_);
      chunks_done_ += done;
      if (chunks_done_ == num_chunks) done_cv_.notify_all();
    }
  }
}

void ThreadPool::run(int num_chunks, FunctionRef<void(int)> chunk_fn) {
  SPLITMED_CHECK(num_chunks >= 0, "ThreadPool::run: negative chunk count");
  if (num_chunks == 0) return;
  if (workers_.empty() || num_chunks == 1) {
    for (int c = 0; c < num_chunks; ++c) chunk_fn(c);
    return;
  }
  std::uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SPLITMED_ASSERT(job_ == nullptr, "ThreadPool::run is not reentrant");
    job_ = &chunk_fn;
    job_chunks_ = num_chunks;
    next_chunk_ = 0;
    chunks_done_ = 0;
    first_error_ = nullptr;
    generation = ++generation_;
  }
  work_cv_.notify_all();
  const int done = drain_job(chunk_fn, num_chunks, generation);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    chunks_done_ += done;
    done_cv_.wait(lock, [&] { return chunks_done_ == job_chunks_; });
    job_ = nullptr;
    error = first_error_;
    first_error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

namespace {

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;  // guarded by g_pool_mutex

}  // namespace

ThreadPool& global_thread_pool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>();
  return *g_pool;
}

void set_global_threads(int n) {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  const int target = n <= 0 ? ThreadPool::default_threads() : n;
  if (g_pool && g_pool->size() == target) return;
  g_pool = std::make_unique<ThreadPool>(target);
}

int global_threads() { return global_thread_pool().size(); }

bool in_parallel_region() { return tls_in_parallel_region; }

void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  FunctionRef<void(std::int64_t, std::int64_t)> body) {
  const std::int64_t range = end - begin;
  if (range <= 0) return;
  grain = std::max<std::int64_t>(grain, 1);
  if (tls_in_parallel_region) {  // nested: the outer loop owns the lanes
    body(begin, end);
    return;
  }
  ThreadPool& pool = global_thread_pool();
  const std::int64_t max_chunks = (range + grain - 1) / grain;
  const int chunks =
      static_cast<int>(std::min<std::int64_t>(pool.size(), max_chunks));
  if (chunks <= 1) {
    body(begin, end);
    return;
  }
  // Balanced contiguous partition: chunk c covers [lo, hi) with the first
  // `rem` chunks one iteration longer. The split depends only on (range,
  // chunks), never on scheduling — and the body contract makes the output
  // independent of the split itself.
  const std::int64_t base = range / chunks;
  const std::int64_t rem = range % chunks;
  pool.run(chunks, [&](int c) {
    const std::int64_t lo =
        begin + c * base + std::min<std::int64_t>(c, rem);
    const std::int64_t hi = lo + base + (c < rem ? 1 : 0);
    ParallelRegionScope scope;
    body(lo, hi);
  });
}

}  // namespace splitmed
