// Deterministic fork-join thread pool for the tensor substrate.
//
// Parallelism in splitmed must never change results: byte accounting, RNG
// streams, and training curves are required to be invariant to the thread
// count (docs/PROTOCOL.md "Determinism contract"). parallel_for therefore
// only partitions loops whose iterations are independent and write disjoint
// outputs — each subrange runs the exact serial code, so every output value
// is bitwise identical to a single-threaded run regardless of how the range
// is chunked. No atomics or locks ever sit on an accumulation path.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/function_ref.hpp"

namespace splitmed {

/// Fixed-size fork-join pool. `threads` counts the calling thread too, so a
/// pool of size 1 spawns no workers and run() degenerates to a plain loop.
class ThreadPool {
 public:
  /// threads <= 0 selects the default (SPLITMED_THREADS env var if set,
  /// otherwise std::thread::hardware_concurrency).
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes (workers + the calling thread).
  [[nodiscard]] int size() const {
    return static_cast<int>(workers_.size()) + 1;
  }

  /// Executes chunk_fn(c) for every c in [0, num_chunks), distributed over
  /// the workers and the calling thread; blocks until all chunks finished.
  /// Each chunk runs exactly once. The first exception thrown by any chunk
  /// is rethrown on the calling thread (remaining chunks still run).
  /// Not reentrant: must not be called from inside a chunk (parallel_for
  /// handles nesting by running nested loops serially).
  ///
  /// Takes a FunctionRef, not std::function: run() always outlives the
  /// callable's use (it blocks until every chunk finished), and the
  /// non-owning reference keeps heap allocation off this hot path —
  /// parallel_for sits under every kernel in the tensor substrate.
  void run(int num_chunks, FunctionRef<void(int)> chunk_fn);

  /// The pool's default size given the environment (never < 1).
  static int default_threads();

 private:
  void worker_loop();
  /// Claims and executes chunks of job `generation` until it is exhausted or
  /// superseded; returns the number of chunks this thread completed. `fn` is
  /// taken by reference and only invoked after a claim succeeded, which
  /// keeps run() — and so the callable — alive.
  int drain_job(const FunctionRef<void(int)>& fn, int num_chunks,
                std::uint64_t generation);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;   // signals workers: new job / shutdown
  std::condition_variable done_cv_;   // signals caller: all chunks finished
  // Guarded by mu_; points at run()'s parameter. It stays valid while a
  // claimed chunk of the job is uncounted (run() waits for every chunk), so
  // a worker dereferences it only after claiming a chunk of generation_.
  const FunctionRef<void(int)>* job_ = nullptr;
  int job_chunks_ = 0;                             // guarded by mu_
  int next_chunk_ = 0;                             // guarded by mu_
  int chunks_done_ = 0;                            // guarded by mu_
  std::uint64_t generation_ = 0;                   // guarded by mu_
  std::exception_ptr first_error_;                 // guarded by mu_
  bool stop_ = false;                              // guarded by mu_
};

/// Process-wide pool used by parallel_for. Initialized lazily with
/// ThreadPool::default_threads(); replaced by set_global_threads().
ThreadPool& global_thread_pool();

/// Resizes the global pool. n <= 0 restores the environment default; n == 1
/// makes every parallel_for run serially on the calling thread. Must not be
/// called while a parallel_for is executing on another thread.
void set_global_threads(int n);

/// Current size of the global pool (>= 1).
int global_threads();

/// True while the calling thread is executing a parallel_for body; nested
/// parallel_for calls detect this and run serially (fork-join pools would
/// otherwise deadlock waiting on their own lane).
bool in_parallel_region();

/// Runs body(lo, hi) over disjoint contiguous subranges covering
/// [begin, end). At most global_threads() chunks are formed and no chunk is
/// smaller than `grain` iterations (except the last); if only one chunk
/// results — small range, single-thread pool, or nested call — the body runs
/// inline on the calling thread. Safe only for bodies whose iterations are
/// independent and write disjoint outputs; under that contract the result is
/// bitwise identical for every thread count. The body is borrowed, never
/// copied (see FunctionRef) — parallel_for itself performs no allocation.
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  FunctionRef<void(std::int64_t, std::int64_t)> body);

}  // namespace splitmed
