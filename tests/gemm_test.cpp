// Property tests for the blocked GEMM kernels against a naive reference,
// parameterized across a sweep of (m, n, k) shapes including degenerate ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/tensor/gemm.hpp"

namespace splitmed {
namespace {

using Dims = std::tuple<std::int64_t, std::int64_t, std::int64_t>;

void naive_nn(std::int64_t m, std::int64_t n, std::int64_t k,
              const std::vector<float>& a, const std::vector<float>& b,
              std::vector<float>& c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(a[i * k + kk]) * b[kk * n + j];
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

class GemmSweep : public ::testing::TestWithParam<Dims> {};

TEST_P(GemmSweep, NnMatchesNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 10007 + n * 101 + k));
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  std::vector<float> c(static_cast<std::size_t>(m * n), -1.0F);
  std::vector<float> ref(static_cast<std::size_t>(m * n));
  gemm_nn(m, n, k, a, b, c);
  naive_nn(m, n, k, a, b, ref);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], ref[i], 1e-3F * (1.0F + std::abs(ref[i])));
  }
}

TEST_P(GemmSweep, TnMatchesTransposedNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m + n * 31 + k * 977));
  // A stored [k, m].
  std::vector<float> at(static_cast<std::size_t>(k * m));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  for (auto& v : at) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  // Build row-major A [m, k] from At for the naive reference.
  std::vector<float> a(static_cast<std::size_t>(m * k));
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      a[i * k + kk] = at[kk * m + i];
    }
  }
  std::vector<float> c(static_cast<std::size_t>(m * n));
  std::vector<float> ref(static_cast<std::size_t>(m * n));
  gemm_tn(m, n, k, at, b, c);
  naive_nn(m, n, k, a, b, ref);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], ref[i], 1e-3F * (1.0F + std::abs(ref[i])));
  }
}

TEST_P(GemmSweep, NtMatchesTransposedNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 3 + n * 7 + k * 11));
  std::vector<float> a(static_cast<std::size_t>(m * k));
  // B stored [n, k].
  std::vector<float> bt(static_cast<std::size_t>(n * k));
  for (auto& v : a) v = rng.normal();
  for (auto& v : bt) v = rng.normal();
  std::vector<float> b(static_cast<std::size_t>(k * n));
  for (std::int64_t kk = 0; kk < k; ++kk) {
    for (std::int64_t j = 0; j < n; ++j) {
      b[kk * n + j] = bt[j * k + kk];
    }
  }
  std::vector<float> c(static_cast<std::size_t>(m * n));
  std::vector<float> ref(static_cast<std::size_t>(m * n));
  gemm_nt(m, n, k, a, bt, c);
  naive_nn(m, n, k, a, b, ref);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], ref[i], 1e-3F * (1.0F + std::abs(ref[i])));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSweep,
    ::testing::Values(Dims{1, 1, 1}, Dims{1, 7, 3}, Dims{5, 1, 2},
                      Dims{4, 4, 4}, Dims{3, 5, 7}, Dims{17, 19, 23},
                      Dims{32, 32, 32}, Dims{33, 65, 70}, Dims{64, 2, 128},
                      Dims{2, 64, 128}));

// Restores the environment-default pool size on scope exit so thread-count
// sweeps don't leak into later tests.
class PoolGuard {
 public:
  PoolGuard() = default;
  ~PoolGuard() { set_global_threads(0); }
  PoolGuard(const PoolGuard&) = delete;
  PoolGuard& operator=(const PoolGuard&) = delete;
};

bool bitwise_equal(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0);
}

// The sweep's input sets: normal draws, or IEEE special values with the
// non-finite ones in A or in B.
enum class Values { kNormal, kSpecialInA, kSpecialInB };

// A finite value of the special sets: a signed zero or a denormal one time
// in three, a normal draw otherwise.
float finite_special(Rng& rng) {
  const float pool[] = {-0.0F, 0.0F, std::numeric_limits<float>::denorm_min(),
                        -0x1.8p-140F, 0x1.fffffcp-127F /* largest denormal */};
  constexpr std::uint64_t kPool = sizeof(pool) / sizeof(pool[0]);
  const std::uint64_t pick = rng.uniform_u64(3 * kPool);
  return pick < kPool ? pool[pick] : rng.normal();
}

// The non-finite value of row or column `line`: +Inf, -Inf, or a quiet NaN
// whose payload (and sign, every other line) is that line's own.
float non_finite(std::int64_t line, Rng& rng) {
  switch (rng.uniform_u64(4)) {
    case 0: return std::numeric_limits<float>::infinity();
    case 1: return -std::numeric_limits<float>::infinity();
    default: {
      const std::uint32_t sign = (line % 2 == 0) ? 0U : 0x80000000U;
      return std::bit_cast<float>(
          sign | 0x7FC00000U | static_cast<std::uint32_t>(line + 1));
    }
  }
}

// The logical operands of one sweep product, A [m,k] and B [k,n].
//
// In a special set every row of A or every column of B (the side named)
// holds one non-finite value at a random k, among finite specials; the
// other side holds finite specials only. So a NaN reaches C with its own
// payload, and a misplaced one shows as another line's payload. No fold
// meets two different NaNs: x86 returns the first operand's payload when
// both are NaN, and the compiler orders a commutative multiply or add as
// it likes, so such a fold's bits follow code generation, not the source.
//
// Every fourth row of A (i % 4 == 1) is +0.0 and every fourth column of B
// (j % 4 == 1) holds -0.0 and negative finite values, so each C element
// where they meet is a fold of -0.0 products: -0.0 exactly, and +0.0 if
// anything on the way (a pack, a kernel) turns a -0.0 of B into +0.0.
struct SweepOperands {
  std::vector<float> a;  ///< a[i*k + kk]
  std::vector<float> b;  ///< b[kk*n + j]
};

SweepOperands sweep_operands(std::int64_t m, std::int64_t n, std::int64_t k,
                             Values values, Rng& rng) {
  SweepOperands out{std::vector<float>(static_cast<std::size_t>(m * k)),
                    std::vector<float>(static_cast<std::size_t>(k * n))};
  const bool special = values != Values::kNormal;
  for (std::int64_t i = 0; i < m; ++i) {
    float* row = out.a.data() + i * k;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      row[kk] = !special ? rng.normal()
                         : (i % 4 == 1 ? 0.0F : finite_special(rng));
    }
    if (values == Values::kSpecialInA && i % 4 != 1) {
      row[rng.uniform_u64(static_cast<std::uint64_t>(k))] = non_finite(i, rng);
    }
  }
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      float& v = out.b[static_cast<std::size_t>(kk * n + j)];
      if (!special) {
        v = rng.normal();
      } else if (j % 4 == 1) {
        v = rng.bernoulli(0.5) ? -0.0F : -std::abs(rng.normal());
      } else {
        v = finite_special(rng);
      }
    }
    if (values == Values::kSpecialInB && j % 4 != 1) {
      const std::uint64_t kk = rng.uniform_u64(static_cast<std::uint64_t>(k));
      out.b[static_cast<std::size_t>(kk) * static_cast<std::size_t>(n) +
            static_cast<std::size_t>(j)] = non_finite(j, rng);
    }
  }
  return out;
}

// The determinism contract (docs/PERFORMANCE.md): the packed, parallel,
// possibly-SIMD kernels must reproduce the serial naive reference BITWISE —
// same strict k-ascending write-first fold per element — for every shape
// (padded tails, partial blocks) and every thread count (row partitioning
// never regroups a fold). EXPECT_NEAR would hide regressions here; only
// memcmp proves the fold was preserved.
//
// n also takes 4, 8 and 16: one full vector at each of the base, AVX2 and
// AVX-512 widths, where gemm switches to the narrow 8-row tile.
// gemm_lhs (A packed once by pack_lhs) must match the same references.
// Each shape runs on normal draws and on the two special-value sets, where
// the packs must carry -0.0, infinities, denormals and NaN payloads
// through bit for bit.
TEST(GemmBitwise, PackedMatchesReferenceAcrossShapesAndThreads) {
  const std::int64_t dims[] = {1, 3, 7, 17, 33, 64, 130};
  const std::int64_t ns[] = {1, 3, 4, 7, 8, 16, 17, 33, 64, 130};
  PoolGuard guard;
  for (const int threads : {1, 2, 8}) {
    set_global_threads(threads);
    for (const Values values :
         {Values::kNormal, Values::kSpecialInA, Values::kSpecialInB}) {
      for (const std::int64_t m : dims) {
        for (const std::int64_t n : ns) {
          for (const std::int64_t k : dims) {
            Rng rng(static_cast<std::uint64_t>((m * 131 + n) * 131 + k) +
                    1000003U * static_cast<std::uint64_t>(values));
            const SweepOperands ops = sweep_operands(m, n, k, values, rng);
            // The same logical A and B in the other storage orders.
            std::vector<float> akm(static_cast<std::size_t>(k * m));
            std::vector<float> bnk(static_cast<std::size_t>(n * k));
            for (std::int64_t kk = 0; kk < k; ++kk) {
              for (std::int64_t i = 0; i < m; ++i) {
                akm[static_cast<std::size_t>(kk * m + i)] =
                    ops.a[static_cast<std::size_t>(i * k + kk)];
              }
              for (std::int64_t j = 0; j < n; ++j) {
                bnk[static_cast<std::size_t>(j * k + kk)] =
                    ops.b[static_cast<std::size_t>(kk * n + j)];
              }
            }
            const std::vector<float>& amk = ops.a;
            const std::vector<float>& bkn = ops.b;
            const std::string tag =
                std::to_string(m) + 'x' + std::to_string(n) + 'x' +
                std::to_string(k) + " threads=" + std::to_string(threads) +
                " isa=" + gemm_kernel_isa() + " values=" +
                std::to_string(static_cast<int>(values));
            std::vector<float> c(static_cast<std::size_t>(m * n), -2.0F);
            std::vector<float> ref(static_cast<std::size_t>(m * n), -3.0F);

            gemm_nn(m, n, k, amk, bkn, c);
            gemm_nn_ref(m, n, k, amk, bkn, ref);
            EXPECT_TRUE(bitwise_equal(c, ref)) << "nn " << tag;
            {
              ws::WorkspaceScope scope;
              std::fill(c.begin(), c.end(), -2.0F);
              gemm_lhs(pack_lhs(false, m, n, k, amk, scope), bkn, c);
              EXPECT_TRUE(bitwise_equal(c, ref)) << "lhs nn " << tag;
            }

            gemm_tn(m, n, k, akm, bkn, c);
            gemm_tn_ref(m, n, k, akm, bkn, ref);
            EXPECT_TRUE(bitwise_equal(c, ref)) << "tn " << tag;
            {
              ws::WorkspaceScope scope;
              std::fill(c.begin(), c.end(), -2.0F);
              gemm_lhs(pack_lhs(true, m, n, k, akm, scope), bkn, c);
              EXPECT_TRUE(bitwise_equal(c, ref)) << "lhs tn " << tag;
            }

            gemm_nt(m, n, k, amk, bnk, c);
            gemm_nt_ref(m, n, k, amk, bnk, ref);
            EXPECT_TRUE(bitwise_equal(c, ref)) << "nt " << tag;
            if (values != Values::kNormal && m > 1 && n > 1) {
              // The fold of -0.0 products in the +0.0 row and the
              // negative column.
              const float row1_col1 = c[static_cast<std::size_t>(n + 1)];
              EXPECT_EQ(std::bit_cast<std::uint32_t>(row1_col1), 0x80000000U)
                  << "nt " << tag;
            }
          }
        }
      }
    }
  }
}

// Degenerate dimensions: packed and reference paths must agree that
// m==0 / n==0 write nothing and k==0 writes zeros.
TEST(GemmBitwise, ZeroDimsMatchReference) {
  const std::int64_t shapes[][3] = {
      {0, 5, 4}, {5, 0, 4}, {5, 4, 0}, {0, 0, 0}, {1, 1, 0}};
  for (const auto& s : shapes) {
    const std::int64_t m = s[0], n = s[1], k = s[2];
    std::vector<float> a(static_cast<std::size_t>(m * k), 1.0F);
    std::vector<float> b(static_cast<std::size_t>(k * n), 1.0F);
    std::vector<float> c(static_cast<std::size_t>(m * n), -1.0F);
    std::vector<float> ref(static_cast<std::size_t>(m * n), -1.0F);
    gemm_nn(m, n, k, a, b, c);
    gemm_nn_ref(m, n, k, a, b, ref);
    EXPECT_TRUE(bitwise_equal(c, ref)) << m << 'x' << n << 'x' << k;
    ws::WorkspaceScope scope;
    std::fill(c.begin(), c.end(), -1.0F);
    gemm_lhs(pack_lhs(false, m, n, k, a, scope), b, c);
    EXPECT_TRUE(bitwise_equal(c, ref)) << "lhs " << m << 'x' << n << 'x' << k;
  }
}

// Applies the epilogue sequence to an already-computed GEMM result with the
// exact scalar expressions the unfused layer code uses (bias add, then the
// left-associated eval-BN map, then ReLU). The fused kernels must reproduce
// this BITWISE — the epilogue runs per element on the finished fold, so
// fusion must never change a single rounding.
void apply_epilogue_ref(std::int64_t m, std::int64_t n, std::vector<float>& c,
                        const gemmk::Epilogue& ep) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      const std::int64_t p = ep.per_row ? i : j;
      float x = c[static_cast<std::size_t>(i * n + j)];
      if (ep.bias != nullptr) x = x + ep.bias[p];
      if (ep.bn_gamma != nullptr) {
        x = ((ep.bn_gamma[p] * (x - ep.bn_mean[p])) * ep.bn_inv_std[p]) +
            ep.bn_beta[p];
      }
      if (ep.relu) x = x > 0.0F ? x : 0.0F;
      c[static_cast<std::size_t>(i * n + j)] = x;
    }
  }
}

// Fused-epilogue bitwise sweep: gemm_lhs / gemm_nt_ep against plain GEMM +
// the scalar reference epilogue, across shapes (full tiles, padded tails),
// thread counts, bias orientation, and every legal epilogue composition.
// Run under all three ISA variants via the gemm_test_base_isa / avx dispatch
// (same mechanism as the GemmBitwise sweep above).
TEST(GemmEpilogue, FusedWriteBackMatchesUnfusedBitwise) {
  const std::int64_t dims[] = {1, 3, 7, 17, 33, 64, 130};
  PoolGuard guard;
  for (const int threads : {1, 2, 8}) {
    set_global_threads(threads);
    for (const std::int64_t m : dims) {
      for (const std::int64_t n : dims) {
        for (const std::int64_t k : dims) {
          Rng rng(static_cast<std::uint64_t>((m * 151 + n) * 151 + k));
          std::vector<float> a(static_cast<std::size_t>(m * k));
          std::vector<float> bkn(static_cast<std::size_t>(k * n));
          std::vector<float> bnk(static_cast<std::size_t>(n * k));
          for (auto& v : a) v = rng.normal();
          for (auto& v : bkn) v = rng.normal();
          for (auto& v : bnk) v = rng.normal();
          const std::size_t pmax = static_cast<std::size_t>(std::max(m, n));
          std::vector<float> bias(pmax), g(pmax), mean(pmax), inv(pmax),
              beta(pmax);
          for (std::size_t p = 0; p < pmax; ++p) {
            bias[p] = rng.normal();
            g[p] = rng.normal();
            mean[p] = rng.normal();
            inv[p] = 1.0F + 0.25F * rng.normal();  // plausible 1/sqrt scale
            beta[p] = rng.normal();
          }
          gemmk::Epilogue eps[3];
          // conv-style: per-row bias + relu
          eps[0].bias = bias.data();
          eps[0].relu = true;
          eps[0].per_row = true;
          // conv+bn+relu: the full inference stack
          eps[1] = eps[0];
          eps[1].bn_gamma = g.data();
          eps[1].bn_mean = mean.data();
          eps[1].bn_inv_std = inv.data();
          eps[1].bn_beta = beta.data();
          // linear-style: per-COLUMN bias + relu
          eps[2].bias = bias.data();
          eps[2].relu = true;
          eps[2].per_row = false;
          std::vector<float> c(static_cast<std::size_t>(m * n), -2.0F);
          std::vector<float> ref(static_cast<std::size_t>(m * n), -3.0F);
          for (int e = 0; e < 3; ++e) {
            {
              ws::WorkspaceScope scope;
              gemm_lhs(pack_lhs(false, m, n, k, a, scope), bkn, c, &eps[e]);
            }
            gemm_nn(m, n, k, a, bkn, ref);
            apply_epilogue_ref(m, n, ref, eps[e]);
            EXPECT_TRUE(bitwise_equal(c, ref))
                << "lhs_ep[" << e << "] " << m << 'x' << n << 'x' << k
                << " threads=" << threads << " isa=" << gemm_kernel_isa();

            gemm_nt_ep(m, n, k, a, bnk, c, eps[e]);
            gemm_nt(m, n, k, a, bnk, ref);
            apply_epilogue_ref(m, n, ref, eps[e]);
            EXPECT_TRUE(bitwise_equal(c, ref))
                << "nt_ep[" << e << "] " << m << 'x' << n << 'x' << k
                << " threads=" << threads << " isa=" << gemm_kernel_isa();
          }
        }
      }
    }
  }
}

TEST(GemmEpilogue, ZeroKAppliesEpilogueToZeroMatrix) {
  // k == 0: the unfused sequence is "zero the output, then run the tail" —
  // the fused entry point must match (bias/BN/ReLU of 0, not untouched 0).
  const std::vector<float> bias = {1.5F, -2.0F, 0.25F};
  gemmk::Epilogue ep;
  ep.bias = bias.data();
  ep.relu = true;
  ep.per_row = false;
  std::vector<float> c(2 * 3, -7.0F);
  ws::WorkspaceScope scope;
  gemm_lhs(pack_lhs(false, 2, 3, 0, {}, scope), {}, c, &ep);
  std::vector<float> ref(2 * 3, 0.0F);
  apply_epilogue_ref(2, 3, ref, ep);
  EXPECT_TRUE(bitwise_equal(c, ref));
  for (std::size_t j = 0; j < 3; ++j) {
    const float expect = bias[j] > 0.0F ? bias[j] : 0.0F;
    EXPECT_EQ(c[j], expect);
    EXPECT_EQ(c[3 + j], expect);
  }
}

TEST(GemmEpilogue, NegativeZeroAndNanFollowScalarRelu) {
  // The vector select lane must match the scalar `x > 0 ? x : 0` exactly in
  // the edge cases: -0.0 is not > 0 (→ +0.0 out), NaN is not > 0 (→ 0 out).
  // Build a k=1 product that lands -0.0 and NaN in C, with a wide n so the
  // vectorized full-tile path (not just the scalar edge) sees them.
  const std::int64_t n = 64;
  std::vector<float> a = {1.0F};
  std::vector<float> b(static_cast<std::size_t>(n), 1.0F);
  b[3] = -0.0F;
  b[7] = std::numeric_limits<float>::quiet_NaN();
  b[11] = -5.0F;
  std::vector<float> zero_bias(static_cast<std::size_t>(n), 0.0F);
  gemmk::Epilogue ep;
  ep.bias = zero_bias.data();
  ep.relu = true;
  ep.per_row = false;
  std::vector<float> c(static_cast<std::size_t>(n), -1.0F);
  {
    ws::WorkspaceScope scope;
    gemm_lhs(pack_lhs(false, 1, n, 1, a, scope), b, c, &ep);
  }
  std::vector<float> ref(static_cast<std::size_t>(n), -1.0F);
  gemm_nn(1, n, 1, a, b, ref);
  apply_epilogue_ref(1, n, ref, ep);
  EXPECT_TRUE(bitwise_equal(c, ref)) << "isa=" << gemm_kernel_isa();
  EXPECT_EQ(c[3], 0.0F);
  EXPECT_FALSE(std::signbit(c[3]));  // -0.0 + 0 bias → +0.0, relu keeps +0.0
  EXPECT_EQ(c[7], 0.0F);             // NaN is not > 0 → clamped to 0
  EXPECT_EQ(c[11], 0.0F);
  EXPECT_EQ(c[0], 1.0F);
}

TEST(Gemm, KernelIsaIsReported) {
  const std::string isa = gemm_kernel_isa();
  EXPECT_TRUE(isa == "base" || isa == "avx2" || isa == "avx512f" ||
              isa == "scalar")
      << isa;
}

TEST(Gemm, ZeroKProducesZeroMatrix) {
  std::vector<float> a, b;
  std::vector<float> c(6, 5.0F);
  gemm_nn(2, 3, 0, a, b, c);
  for (const float v : c) EXPECT_EQ(v, 0.0F);
}

TEST(Gemm, OverflowingDimensionProductThrows) {
  // m * k overflows int64; before the overflow check this wrapped to a small
  // (even negative) product and the size precondition silently passed.
  const std::int64_t big = std::int64_t{1} << 32;
  std::vector<float> a(1), b(1), c(1);
  EXPECT_THROW(gemm_nn(big, big, big, a, b, c), InvalidArgument);
  EXPECT_THROW(gemm_tn(big, 1, big, a, b, c), InvalidArgument);
  EXPECT_THROW(gemm_nt(big, big, 1, a, b, c), InvalidArgument);
}

}  // namespace
}  // namespace splitmed
