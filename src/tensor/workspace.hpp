// Thread-local, high-water-mark workspace arena for kernel scratch memory.
//
// The hot path of the system — im2col + GEMM inside Conv2d, the GEMM pack
// buffers, the per-sample weight-gradient slabs — needs large scratch
// buffers whose sizes repeat exactly from step to step. Allocating them
// with malloc/std::vector put the allocator on every training step. The
// arena replaces that with stack-disciplined checkout from a per-thread
// block list that only ever grows to its high-water mark: after one warm-up
// step, steady-state training performs ZERO heap allocations for kernel
// scratch (asserted by workspace_test via the counters below).
//
// Usage (strictly scoped, LIFO):
//
//   ws::WorkspaceScope ws;                   // marks the arena
//   std::span<float> col = ws.floats(n);     // 64-byte aligned, UNINITIALIZED
//   ...                                      // scope destructor releases all
//
// Scopes nest (Conv2d opens one, the GEMM inside it opens another); each
// scope releases exactly what was checked out after its mark. Every thread
// — the caller and each pool worker — owns an independent arena, so
// checkout is lock-free and parallel_for bodies can grab scratch without
// synchronization.
//
// Determinism: the arena hands out UNINITIALIZED memory; callers must fully
// overwrite what they read (the GEMM/im2col contracts guarantee this).
// Nothing about placement, growth, or reuse feeds back into any computed
// value, so the arena is bitwise inert by construction.
//
// Observability: global byte totals are mirrored into the obs gauges
// `splitmed_workspace_reserved_bytes` / `splitmed_workspace_in_use_bytes`
// whenever a session is active (src/obs/obs.hpp pre-registers them; the
// disabled path is one relaxed load and a branch).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace splitmed::ws {

/// Point-in-time accounting for one thread's arena.
struct WorkspaceStats {
  std::size_t bytes_reserved = 0;  ///< Sum of block capacities.
  std::size_t bytes_in_use = 0;    ///< Bytes currently checked out.
  std::size_t high_water = 0;      ///< Max bytes_in_use ever seen.
  std::size_t blocks = 0;          ///< Live block count (1 in steady state).
  std::uint64_t block_allocs = 0;  ///< Lifetime heap allocations.
  std::uint64_t checkouts = 0;     ///< Lifetime spans handed out.
};

/// One thread's arena: a list of 64-byte-aligned blocks with bump-pointer
/// checkout. Obtain via Workspace::local(); never share across threads.
class Workspace {
 public:
  Workspace() = default;
  ~Workspace();
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// The calling thread's arena (created on first use, lives until thread
  /// exit).
  static Workspace& local();

  [[nodiscard]] WorkspaceStats stats() const;

  /// Frees every block (requires no open scope). Test helper — production
  /// code keeps the high-water blocks alive for reuse.
  void trim();

 private:
  friend class WorkspaceScope;

  struct Block {
    float* data = nullptr;
    std::size_t capacity = 0;  // floats
    std::size_t used = 0;      // floats, bump offset
  };

  /// Checks out `n` floats (64-byte aligned, uninitialized).
  std::span<float> checkout(std::int64_t n);
  /// Restores the bump state captured by a scope; on outermost release,
  /// coalesces a fragmented block list into one high-water block.
  void release_to(std::size_t block_index, std::size_t block_used);

  void add_block(std::size_t min_floats);
  void free_blocks();

  std::vector<Block> blocks_;
  std::size_t current_ = 0;        // index of the block being bumped
  std::size_t in_use_floats_ = 0;  // total checked-out floats (incl. padding)
  std::size_t high_water_floats_ = 0;
  int scope_depth_ = 0;
  std::uint64_t block_allocs_ = 0;
  std::uint64_t checkouts_ = 0;
};

/// RAII checkout scope on the calling thread's arena. All spans obtained
/// from a scope are released together when it destructs; scopes must nest
/// LIFO (automatic with block scoping).
class WorkspaceScope {
 public:
  WorkspaceScope();
  ~WorkspaceScope();
  WorkspaceScope(const WorkspaceScope&) = delete;
  WorkspaceScope& operator=(const WorkspaceScope&) = delete;

  /// `n` floats, 64-byte aligned, UNINITIALIZED. n == 0 returns an empty
  /// span. The span stays valid until this scope destructs (later checkouts
  /// never move earlier ones).
  std::span<float> floats(std::int64_t n);

  /// `n` bytes of scratch carved from the float arena (64-byte aligned,
  /// UNINITIALIZED). The wire codecs pack i8 bodies here before one bulk
  /// append. Write-only until copied out — never read back as floats.
  std::span<std::uint8_t> bytes(std::int64_t n) {
    const auto f = floats((n + 3) / 4);
    return {reinterpret_cast<std::uint8_t*>(f.data()),
            static_cast<std::size_t>(n)};
  }

  /// `n` uint16 scratch slots, same contract as bytes() (f16 pack buffer).
  std::span<std::uint16_t> u16s(std::int64_t n) {
    const auto f = floats((n + 1) / 2);
    return {reinterpret_cast<std::uint16_t*>(f.data()),
            static_cast<std::size_t>(n)};
  }

  /// `n` uint32 scratch slots, 64-byte aligned, UNINITIALIZED (the
  /// whole-plane conv lowering's lane masks).
  std::span<std::uint32_t> u32s(std::int64_t n) {
    const auto f = floats(n);
    return {reinterpret_cast<std::uint32_t*>(f.data()),
            static_cast<std::size_t>(n)};
  }

 private:
  Workspace& arena_;
  std::size_t mark_block_;
  std::size_t mark_used_;
};

/// Process-wide totals across every thread's arena (lock-free reads).
[[nodiscard]] std::size_t global_bytes_reserved();
[[nodiscard]] std::size_t global_bytes_in_use();
/// Lifetime count of arena block heap allocations across all threads — the
/// steady-state zero-allocation assertion watches this stand still.
[[nodiscard]] std::uint64_t global_block_allocs();

/// Max of global_bytes_in_use() observed since the last reset_step_peak():
/// the peak concurrent arena footprint of a step (all threads combined),
/// mirrored into the `splitmed_workspace_step_peak_bytes` gauge. The
/// execution planner's depth-flat memory claim is measured against this.
[[nodiscard]] std::size_t global_step_peak_bytes();
/// Restarts the step-peak watermark (call at a step/measurement boundary).
void reset_step_peak();

}  // namespace splitmed::ws
