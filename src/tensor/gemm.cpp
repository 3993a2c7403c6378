// Packed, register-blocked GEMM.
//
// Each product has three stages:
//   1. Pick the micro-kernel tile from n (gemmk::kernel_for) and pack A once
//      into MR-row blocks (pack_lhs), k-major with the MR rows interleaved,
//      tail rows zero-padded. gemm_nn/tn/nt pack their own A; Conv2d packs
//      its weights once per layer call and runs every sample against them
//      (gemm_lhs).
//   2. Pack B once into NR-column panels, k-major with the NR columns
//      interleaved, tail columns zero-padded, split across threads by panel
//      (pack_b; Bᵀ moves in 4x4 tiles). Conv2d's whole-plane lowering
//      writes this layout itself (gemm_panels).
//   3. The one tile loop: parallel_for over the MR×NR tiles of C, row-block
//      major; an MR×NR micro-kernel (src/tensor/gemm_kernels.hpp) computes
//      each tile with one register accumulator per element, write-first.
//
// Determinism: every C element is the strict left fold
//   c = a[i,0]*b[0,j]; c += a[i,1]*b[1,j]; ... (k ascending)
// exactly as in the *_ref kernels — packing is pure data movement, each
// element is written by exactly one micro-kernel call whatever the tile
// partition, and the micro-kernel keeps one accumulator per element.
// Results are bitwise identical for any thread count and any dispatched ISA
// variant; gemm_test asserts this against the reference.
#include "src/tensor/gemm.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/common/error.hpp"
#include "src/common/thread_pool.hpp"
#include "src/obs/obs.hpp"
#include "src/tensor/gemm_kernels.hpp"
#include "src/tensor/workspace.hpp"

namespace splitmed {
namespace {

/// Accounts one gemm call against the pre-registered observability counters.
/// gemm runs inside parallel_for bodies (conv2d parallelizes over the
/// batch), so this must never touch the registry mutex: the counters are
/// fetched as single atomic pointer loads, null when observability is off —
/// the disabled path is two relaxed loads and two branches, no clock read.
class GemmTimer {
 public:
  GemmTimer()
      : seconds_(obs::gemm_seconds_counter()),
        calls_(obs::gemm_calls_counter()) {
    if (seconds_ != nullptr) begin_ = std::chrono::steady_clock::now();
  }
  ~GemmTimer() {
    if (calls_ != nullptr) calls_->inc();
    if (seconds_ != nullptr) {
      seconds_->inc(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - begin_)
                        .count());
    }
  }
  GemmTimer(const GemmTimer&) = delete;
  GemmTimer& operator=(const GemmTimer&) = delete;

 private:
  obs::Counter* seconds_;
  obs::Counter* calls_;
  std::chrono::steady_clock::time_point begin_;
};

// Matrices below this many multiply-adds are not worth a fork-join; also
// sets the minimum per-chunk work when partitioning tiles across threads.
constexpr std::int64_t kParallelFlops = 32 * 1024;

/// Multiplies non-negative int64 dims, throwing instead of overflowing.
std::int64_t checked_mul(std::int64_t x, std::int64_t y) {
  std::int64_t out = 0;
  SPLITMED_CHECK(!__builtin_mul_overflow(x, y, &out),
                 "gemm: dimension product " << x << " * " << y
                                            << " overflows int64");
  return out;
}

void check_sizes(std::int64_t m, std::int64_t n, std::int64_t k,
                 std::size_t a, std::size_t b, std::size_t c) {
  SPLITMED_CHECK(m >= 0 && n >= 0 && k >= 0, "gemm: negative dimension");
  SPLITMED_CHECK(a >= static_cast<std::size_t>(checked_mul(m, k)) &&
                     b >= static_cast<std::size_t>(checked_mul(k, n)) &&
                     c >= static_cast<std::size_t>(checked_mul(m, n)),
                 "gemm: span smaller than m/n/k imply");
}

/// Minimum tiles per parallel chunk so each chunk does >= kParallelFlops
/// multiply-adds (tiles below that run serially inline).
std::int64_t tile_grain(std::int64_t k, std::int64_t mr, std::int64_t nr) {
  const std::int64_t per_tile = std::max<std::int64_t>(mr * nr * k, 1);
  return std::max<std::int64_t>(1, kParallelFlops / per_tile);
}

/// Handles the degenerate shapes every kernel shares: nothing to write when
/// m or n is zero; an empty reduction writes zeros (the write-first kernels
/// need k >= 1). Returns true when the call is fully handled.
bool handle_empty(std::int64_t m, std::int64_t n, std::int64_t k, float* c) {
  if (m <= 0 || n <= 0) return true;
  if (k <= 0) {
    std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
    return true;
  }
  return false;
}

/// Scalar epilogue pass over all of C, used only for the degenerate k <= 0
/// shape (where no micro-kernel runs): the same per-element op sequence as
/// gemmk's epilogue_apply, applied to the zeroed C. This TU compiles with
/// the project's default flags (generic x86-64, no FMA), so each step stays
/// one separately-rounded op exactly like the kernel write-back path.
void apply_epilogue_full(std::int64_t m, std::int64_t n, float* c,
                         const gemmk::Epilogue& ep) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      const std::int64_t p = ep.per_row ? i : j;
      float x = c[i * n + j];
      if (ep.bias != nullptr) x = x + ep.bias[p];
      if (ep.bn_gamma != nullptr) {
        x = ((ep.bn_gamma[p] * (x - ep.bn_mean[p])) * ep.bn_inv_std[p]) +
            ep.bn_beta[p];
      }
      if (ep.relu) x = x > 0.0F ? x : 0.0F;
      c[i * n + j] = x;
    }
  }
}

// B's element (kk, j) lives at b[kk*n + j] (kNormal, B is [k,n]) or at
// b[j*k + kk] (kTransposed, B is [n,k]).
enum class BKind { kNormal, kTransposed };

// Packs below this many floats are not worth a fork-join; also sets the
// minimum per-chunk size when packing panels across threads.
constexpr std::int64_t kParallelPackFloats = 16 * 1024;

/// Packs one kTransposed panel: its nr live columns are the nr contiguous
/// k-float rows at `rows`. Full 4x4 tiles load four rows at four k and
/// store them transposed into four panel rows, four floats per store where
/// a column-by-column copy makes one strided store per float; the nr % 4
/// and k % 4 tails go one float at a time, then the zero-padded columns.
/// Plain copies, no arithmetic: every float keeps its bits.
void pack_bt_panel(const float* rows, std::int64_t k, std::int64_t nr,
                   std::int64_t nr_max, float* dst) {
  const std::int64_t nr4 = nr / 4 * 4;
  const std::int64_t k4 = k / 4 * 4;
  for (std::int64_t j = 0; j < nr4; j += 4) {
    const float* src = rows + j * k;
    for (std::int64_t kk = 0; kk < k4; kk += 4) {
      float t[4][4];
      for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < 4; ++c) t[r][c] = src[r * k + kk + c];
      }
      for (int c = 0; c < 4; ++c) {
        float* d = dst + (kk + c) * nr_max + j;
        for (int r = 0; r < 4; ++r) d[r] = t[r][c];
      }
    }
  }
  for (std::int64_t kk = 0; kk < k; ++kk) {
    float* d = dst + kk * nr_max;
    const std::int64_t j_from = kk < k4 ? nr4 : 0;
    for (std::int64_t j = j_from; j < nr; ++j) d[j] = rows[j * k + kk];
    for (std::int64_t j = nr; j < nr_max; ++j) d[j] = 0.0F;
  }
}

/// Packs all of B into ceil(n/NR) panels; panel jp holds columns
/// [jp*NR, jp*NR+NR) as k-major rows of NR interleaved floats, tail columns
/// zero-padded so the micro-kernel never branches on column bounds. Panels
/// are disjoint and packing only copies, so splitting them across threads
/// leaves every byte where a serial pack puts it.
void pack_b(BKind kind, std::int64_t n, std::int64_t k, const float* b,
            std::int64_t nr_max, float* bp) {
  const std::int64_t panels = (n + nr_max - 1) / nr_max;
  const std::int64_t grain = std::max<std::int64_t>(
      1, kParallelPackFloats / std::max<std::int64_t>(k * nr_max, 1));
  parallel_for(0, panels, grain, [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t jp = p0; jp < p1; ++jp) {
      const std::int64_t j0 = jp * nr_max;
      const std::int64_t nr = std::min(nr_max, n - j0);
      float* dst = bp + jp * k * nr_max;
      if (kind == BKind::kTransposed) {
        pack_bt_panel(b + j0 * k, k, nr, nr_max, dst);
        continue;
      }
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float* src = b + kk * n + j0;
        float* d = dst + kk * nr_max;
        for (std::int64_t j = 0; j < nr; ++j) d[j] = src[j];
        for (std::int64_t j = nr; j < nr_max; ++j) d[j] = 0.0F;
      }
    }
  });
}

/// Floats of B in the panel layout the tile loop reads for `a`: ceil(n/NR)
/// panels of k rows of NR floats.
std::int64_t panel_floats(const PackedLhs& a) {
  const std::int64_t nr = a.kernel->panel_cols;
  return checked_mul((a.n + nr - 1) / nr * nr, a.k);
}

/// Finishes the shapes no micro-kernel runs on (m or n zero, or k zero:
/// zeros, then the epilogue). Returns true when C is done.
bool finish_empty(const PackedLhs& a, float* c, const gemmk::Epilogue* ep) {
  if (!handle_empty(a.m, a.n, a.k, c)) return false;
  if (ep != nullptr && a.m > 0 && a.n > 0) {
    apply_epilogue_full(a.m, a.n, c, *ep);
  }
  return true;
}

/// The one tile loop behind gemm_nn/tn/nt, gemm_lhs and gemm_panels, over
/// B in pack_b's panel layout for a.kernel; `ep` (nullable) is applied at
/// write-back. C's tiles are numbered row-block major and split across
/// threads in contiguous runs, so a run keeps its A block (k*MR floats) hot
/// in L1 while the B panels stream by, and a small m still splits: its
/// tiles differ by panel. Each C element belongs to one tile, so any
/// partition is bitwise identical to serial execution. The panels are read
/// by every worker; the pool's fork ordering publishes them before any
/// chunk runs.
void run_tiles(const PackedLhs& a, const float* bp, float* c,
               const gemmk::Epilogue* ep) {
  const std::int64_t m = a.m, n = a.n, k = a.k;
  const gemmk::MicroKernel& mk = *a.kernel;
  const std::int64_t mr_max = mk.block_rows;
  const std::int64_t nr_max = mk.panel_cols;
  const std::int64_t panels = (n + nr_max - 1) / nr_max;
  const std::int64_t tiles = (m + mr_max - 1) / mr_max * panels;
  parallel_for(0, tiles, tile_grain(k, mr_max, nr_max),
               [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t i0 = t / panels * mr_max;
      const std::int64_t j0 = t % panels * nr_max;
      mk.fn(k, a.blocks + i0 * k, bp + j0 * k, c + i0 * n + j0, n,
            std::min(mr_max, m - i0), std::min(nr_max, n - j0), ep, i0, j0);
    }
  });
}

/// gemm_nn/tn/nt and gemm_lhs: B is packed once, then the tile loop runs.
void gemm_packed(const PackedLhs& a, BKind bk, std::span<const float> b,
                 std::span<float> c, const gemmk::Epilogue* ep) {
  check_sizes(a.m, a.n, a.k, static_cast<std::size_t>(a.m * a.k), b.size(),
              c.size());
  if (finish_empty(a, c.data(), ep)) return;
  ws::WorkspaceScope bscope;
  float* bp = bscope.floats(panel_floats(a)).data();
  pack_b(bk, a.n, a.k, b.data(), a.kernel->panel_cols, bp);
  run_tiles(a, bp, c.data(), ep);
}

/// gemm_nn/tn/nt(_ep): A is packed into this call's own scope, then the
/// tile loop runs.
void gemm_self_packed(bool a_transposed, BKind bk, std::int64_t m,
                      std::int64_t n, std::int64_t k, std::span<const float> a,
                      std::span<const float> b, std::span<float> c,
                      const gemmk::Epilogue* ep) {
  const GemmTimer timer;
  ws::WorkspaceScope scope;
  gemm_packed(pack_lhs(a_transposed, m, n, k, a, scope), bk, b, c, ep);
}

/// Picks the widest micro-kernel variant this CPU supports;
/// SPLITMED_GEMM_ISA narrows it (values: base, avx2, avx512 — unsupported
/// requests fall back to the best available, never up).
gemmk::KernelSet pick_kernels() {
#if defined(__x86_64__) && defined(__GNUC__)
  const char* env = std::getenv("SPLITMED_GEMM_ISA");
  const std::string want = (env != nullptr) ? env : "";
  const bool has_avx2 = __builtin_cpu_supports("avx2") != 0;
  const bool has_avx512 = __builtin_cpu_supports("avx512f") != 0;
  if (want == "base") return gemmk::base_kernels();
  if (want == "avx2" && has_avx2) return gemmk::avx2_kernels();
  if (want != "avx2" && has_avx512) return gemmk::avx512_kernels();
  if (has_avx2) return gemmk::avx2_kernels();
#endif
  return gemmk::base_kernels();
}

}  // namespace

namespace gemmk {

const KernelSet& active_kernels() {
  static const KernelSet kernels = pick_kernels();
  return kernels;
}

const MicroKernel& kernel_for(std::int64_t n) {
  const KernelSet& set = active_kernels();
  return n <= set.narrow.panel_cols ? set.narrow : set.wide;
}

}  // namespace gemmk

const char* gemm_kernel_isa() { return gemmk::active_kernels().wide.isa; }

PackedLhs pack_lhs(bool transposed, std::int64_t m, std::int64_t n,
                   std::int64_t k, std::span<const float> a,
                   ws::WorkspaceScope& scope) {
  SPLITMED_CHECK(m >= 0 && n >= 0 && k >= 0, "gemm: negative dimension");
  SPLITMED_CHECK(a.size() >= static_cast<std::size_t>(checked_mul(m, k)),
                 "pack_lhs: span smaller than m*k");
  PackedLhs out;
  out.m = m;
  out.n = n;
  out.k = k;
  out.kernel = &gemmk::kernel_for(n);
  // A's element (i, kk) is a[i*k + kk] ([m,k]) or a[kk*m + i] ([k,m] read
  // transposed). Block ib holds rows [ib*MR, +MR) as k-major groups of MR
  // interleaved floats, tail rows zero-padded.
  const std::int64_t mr_max = out.kernel->block_rows;
  const std::int64_t blocks = (m + mr_max - 1) / mr_max;
  float* ap = scope.floats(checked_mul(blocks * mr_max, k)).data();
  for (std::int64_t ib = 0; ib < blocks; ++ib) {
    const std::int64_t i0 = ib * mr_max;
    const std::int64_t mr = std::min(mr_max, m - i0);
    float* dst = ap + ib * k * mr_max;
    if (!transposed) {
      for (std::int64_t r = 0; r < mr; ++r) {
        const float* src = a.data() + (i0 + r) * k;
        for (std::int64_t kk = 0; kk < k; ++kk) dst[kk * mr_max + r] = src[kk];
      }
      for (std::int64_t r = mr; r < mr_max; ++r) {
        for (std::int64_t kk = 0; kk < k; ++kk) dst[kk * mr_max + r] = 0.0F;
      }
    } else {
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float* src = a.data() + kk * m + i0;
        float* d = dst + kk * mr_max;
        for (std::int64_t r = 0; r < mr; ++r) d[r] = src[r];
        for (std::int64_t r = mr; r < mr_max; ++r) d[r] = 0.0F;
      }
    }
  }
  out.blocks = ap;
  return out;
}

void gemm_lhs(const PackedLhs& a, std::span<const float> b, std::span<float> c,
              const gemmk::Epilogue* ep) {
  const GemmTimer timer;
  SPLITMED_CHECK(a.kernel != nullptr, "gemm_lhs: operand was never packed");
  gemm_packed(a, BKind::kNormal, b, c, ep);
}

void gemm_panels(const PackedLhs& a, std::span<const float> panels,
                 std::span<float> c, const gemmk::Epilogue* ep) {
  const GemmTimer timer;
  SPLITMED_CHECK(a.kernel != nullptr, "gemm_panels: operand was never packed");
  SPLITMED_CHECK(
      panels.size() >= static_cast<std::size_t>(panel_floats(a)) &&
          c.size() >= static_cast<std::size_t>(checked_mul(a.m, a.n)),
      "gemm_panels: span smaller than the panels or m*n");
  if (finish_empty(a, c.data(), ep)) return;
  run_tiles(a, panels.data(), c.data(), ep);
}

void gemm_nn(std::int64_t m, std::int64_t n, std::int64_t k,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c) {
  gemm_self_packed(false, BKind::kNormal, m, n, k, a, b, c, nullptr);
}

void gemm_tn(std::int64_t m, std::int64_t n, std::int64_t k,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c) {
  gemm_self_packed(true, BKind::kNormal, m, n, k, a, b, c, nullptr);
}

void gemm_nt(std::int64_t m, std::int64_t n, std::int64_t k,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c) {
  gemm_self_packed(false, BKind::kTransposed, m, n, k, a, b, c, nullptr);
}

void gemm_nt_ep(std::int64_t m, std::int64_t n, std::int64_t k,
                std::span<const float> a, std::span<const float> b,
                std::span<float> c, const gemmk::Epilogue& ep) {
  gemm_self_packed(false, BKind::kTransposed, m, n, k, a, b, c, &ep);
}

// ---------------------------------------------------------------------------
// Reference kernels: the ground-truth fold, serial and pack-free. The first
// k term is WRITTEN (never read-modify-write of stale C), later terms are
// added in ascending k — exactly what the packed path reproduces.

void gemm_nn_ref(std::int64_t m, std::int64_t n, std::int64_t k,
                 std::span<const float> a, std::span<const float> b,
                 std::span<float> c) {
  check_sizes(m, n, k, a.size(), b.size(), c.size());
  if (handle_empty(m, n, k, c.data())) return;
  for (std::int64_t i = 0; i < m; ++i) {
    const float* ai = a.data() + i * k;
    float* ci = c.data() + i * n;
    const float ai0 = ai[0];
    const float* b0 = b.data();
    for (std::int64_t j = 0; j < n; ++j) ci[j] = ai0 * b0[j];
    for (std::int64_t kk = 1; kk < k; ++kk) {
      const float aik = ai[kk];
      const float* bk = b.data() + kk * n;
      for (std::int64_t j = 0; j < n; ++j) ci[j] += aik * bk[j];
    }
  }
}

void gemm_tn_ref(std::int64_t m, std::int64_t n, std::int64_t k,
                 std::span<const float> a, std::span<const float> b,
                 std::span<float> c) {
  check_sizes(m, n, k, a.size(), b.size(), c.size());
  if (handle_empty(m, n, k, c.data())) return;
  // A is [k, m]; k outermost keeps both A and B rows contiguous.
  const float* a0 = a.data();
  const float* b0 = b.data();
  for (std::int64_t i = 0; i < m; ++i) {
    const float a0i = a0[i];
    float* ci = c.data() + i * n;
    for (std::int64_t j = 0; j < n; ++j) ci[j] = a0i * b0[j];
  }
  for (std::int64_t kk = 1; kk < k; ++kk) {
    const float* ak = a.data() + kk * m;
    const float* bk = b.data() + kk * n;
    for (std::int64_t i = 0; i < m; ++i) {
      const float aki = ak[i];
      float* ci = c.data() + i * n;
      for (std::int64_t j = 0; j < n; ++j) ci[j] += aki * bk[j];
    }
  }
}

void gemm_nt_ref(std::int64_t m, std::int64_t n, std::int64_t k,
                 std::span<const float> a, std::span<const float> b,
                 std::span<float> c) {
  check_sizes(m, n, k, a.size(), b.size(), c.size());
  if (handle_empty(m, n, k, c.data())) return;
  // B is [n, k]; dot products over contiguous rows of A and B.
  for (std::int64_t i = 0; i < m; ++i) {
    const float* ai = a.data() + i * k;
    float* ci = c.data() + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* bj = b.data() + j * k;
      float acc = ai[0] * bj[0];
      for (std::int64_t kk = 1; kk < k; ++kk) acc += ai[kk] * bj[kk];
      ci[j] = acc;
    }
  }
}

}  // namespace splitmed
