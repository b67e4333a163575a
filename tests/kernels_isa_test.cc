// Cross-ISA bitwise-equivalence suite for the dispatched kernel hot set
// (nn/cpu_dispatch.h). The scalar table is the pinned reference; when this
// build carries the AVX2 table and the host CPU can run it, every kernel is
// exercised over shapes chosen to hit the vector bodies, the 8-wide panels,
// and the scalar remainder tails, and the outputs must match the reference
// bit for bit — EXPECT_EQ on floats, not a tolerance.
//
// The dispatch-pinning test must run first in this binary: it sets
// EHNA_KERNEL_ISA before any kernel call so that the process-wide one-shot
// resolution observes the override. gtest runs tests in declaration order
// within a file, and this file's binary links no other test file.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "gtest/gtest.h"
#include "nn/cpu_dispatch.h"
#include "nn/kernels.h"
#include "nn/kernels_common.h"
#include "util/rng.h"

namespace ehna::kernels {
namespace {

// ---------------------------------------------------------------- dispatch

TEST(KernelDispatchPinning, EnvScalarPinsScalarTable) {
  // First kernel-touching test in the binary: the resolver has not yet run.
  ASSERT_EQ(setenv("EHNA_KERNEL_ISA", "scalar", /*overwrite=*/1), 0);
  EXPECT_EQ(ActiveIsa(), KernelIsa::kScalar);
  EXPECT_EQ(&ActiveKernels(), &ScalarKernels());
  // The public entry points now go through the pinned table.
  const float x[3] = {1.0f, 2.0f, 3.0f};
  const float y[3] = {4.0f, 5.0f, 6.0f};
  EXPECT_EQ(Dot(x, y, 3), ScalarKernels().dot(x, y, 3));
}

TEST(KernelDispatchPolicy, ForcedScalar) {
  const IsaDecision d = ResolveKernelIsa("scalar", true, true);
  EXPECT_TRUE(d.ok);
  EXPECT_TRUE(d.forced);
  EXPECT_EQ(d.isa, KernelIsa::kScalar);
}

TEST(KernelDispatchPolicy, ForcedAvx2RequiresCpuAndBuild) {
  EXPECT_TRUE(ResolveKernelIsa("avx2", true, true).ok);
  EXPECT_EQ(ResolveKernelIsa("avx2", true, true).isa, KernelIsa::kAvx2);
  EXPECT_FALSE(ResolveKernelIsa("avx2", false, true).ok);
  EXPECT_FALSE(ResolveKernelIsa("avx2", true, false).ok);
  EXPECT_FALSE(ResolveKernelIsa("AVX2", false, false).ok);  // case-folded
}

TEST(KernelDispatchPolicy, AutoPrefersAvx2WhenAvailable) {
  EXPECT_EQ(ResolveKernelIsa(nullptr, true, true).isa, KernelIsa::kAvx2);
  EXPECT_EQ(ResolveKernelIsa("auto", true, true).isa, KernelIsa::kAvx2);
  EXPECT_EQ(ResolveKernelIsa(nullptr, false, true).isa, KernelIsa::kScalar);
  EXPECT_EQ(ResolveKernelIsa(nullptr, true, false).isa, KernelIsa::kScalar);
  EXPECT_FALSE(ResolveKernelIsa(nullptr, false, false).forced);
}

TEST(KernelDispatchPolicy, UnrecognizedValueFallsBackToAuto) {
  const IsaDecision d = ResolveKernelIsa("sse9", true, true);
  EXPECT_TRUE(d.ok);
  EXPECT_FALSE(d.forced);
  EXPECT_EQ(d.isa, KernelIsa::kAvx2);
  EXPECT_EQ(d.note.rfind("unrecognized", 0), 0u);
}

// ------------------------------------------------------- pinned math sanity

TEST(PinnedTranscendentals, CloseToLibmAndSymmetric) {
  Rng rng(11);
  for (int t = 0; t < 2000; ++t) {
    const float x = static_cast<float>(rng.Uniform(-12.0, 12.0));
    EXPECT_NEAR(detail::SigmoidPinned(x), 1.0 / (1.0 + std::exp(-(double)x)),
                3e-7);
    EXPECT_NEAR(detail::TanhPinned(x), std::tanh((double)x), 5e-6);
    EXPECT_EQ(detail::TanhPinned(-x), -detail::TanhPinned(x));
  }
  EXPECT_EQ(detail::TanhPinned(0.0f), 0.0f);
  EXPECT_EQ(detail::SigmoidPinned(0.0f), 0.5f);
  // Saturation stays bounded and finite far outside the exp clamp: the
  // positive side reaches exactly 1, the negative side bottoms out at
  // 1/(1+e^87.3) ~ 1.2e-38 rather than a true zero.
  EXPECT_EQ(detail::SigmoidPinned(200.0f), 1.0f);
  EXPECT_LT(detail::SigmoidPinned(-200.0f), 1e-37f);
  EXPECT_GT(detail::SigmoidPinned(-200.0f), 0.0f);
  EXPECT_EQ(detail::TanhPinned(90.0f), 1.0f);
  EXPECT_EQ(detail::TanhPinned(-90.0f), -1.0f);
}

// ------------------------------------------------- segmented GemmTN oracle
//
// GemmTNSegments must equal its definition: per segment, GemmTN from +0
// into a fresh tensor, then an elementwise Add into C — or a copy, for the
// first segment of a non-accumulating call, as Var::AccumulateGrad copies
// its first contribution. The oracle below is that per-unit sequence.

// Per-segment A/B operands, contiguous per segment.
struct SegmentData {
  std::vector<std::vector<float>> a, b;
  std::vector<GemmTNSegment> segs;
};

/// Random operands for segments of `rows[s]` rows each, in list order.
SegmentData MakeSegments(int64_t m, int64_t n,
                         const std::vector<int64_t>& rows, Rng* rng) {
  SegmentData d;
  for (const int64_t k : rows) {
    std::vector<float> a(static_cast<size_t>(k * m));
    std::vector<float> b(static_cast<size_t>(k * n));
    for (auto& x : a) x = static_cast<float>(rng->Uniform(-2.0, 2.0));
    for (auto& x : b) x = static_cast<float>(rng->Uniform(-2.0, 2.0));
    d.a.push_back(std::move(a));
    d.b.push_back(std::move(b));
  }
  for (size_t s = 0; s < rows.size(); ++s) {
    d.segs.push_back({d.a[s].data(), d.b[s].data(), rows[s]});
  }
  return d;
}

std::vector<float> PerUnitOracle(int64_t m, int64_t n, const SegmentData& d,
                                 std::vector<float> c, bool accumulate) {
  std::vector<float> u(static_cast<size_t>(m * n));
  for (size_t s = 0; s < d.segs.size(); ++s) {
    ScalarKernels().gemm_tn(m, n, d.segs[s].k, d.segs[s].a, d.segs[s].b,
                            u.data(), /*accumulate=*/false);
    if (s == 0 && !accumulate) {
      c = u;
    } else {
      Add(m * n, c.data(), u.data(), c.data());
    }
  }
  return c;
}

// 10-row (node-level) and 1-row (walk-level, fuse) segments, a mix, and a
// list long enough to span several of the AVX2 kernel's segment blocks.
std::vector<std::vector<int64_t>> SegmentRowPatterns() {
  return {{10}, {1, 1, 1}, {10, 1, 10, 1, 10}, std::vector<int64_t>(40, 10)};
}

bool BitwiseEqual(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

TEST(GemmTNSegmentsTest, ScalarMatchesPerUnitGemmTNAndAdd) {
  Rng rng(48);
  for (int64_t m = 1; m <= 33; m += 4) {
    for (int64_t n = 1; n <= 33; n += 2) {
      for (const auto& rows : SegmentRowPatterns()) {
        const SegmentData d = MakeSegments(m, n, rows, &rng);
        std::vector<float> c0(static_cast<size_t>(m * n));
        for (auto& x : c0) x = static_cast<float>(rng.Uniform(-2.0, 2.0));
        for (const bool acc : {false, true}) {
          const auto want = PerUnitOracle(m, n, d, c0, acc);
          auto got = c0;
          ScalarKernels().gemm_tn_segments(m, n, d.segs.data(),
                                           static_cast<int64_t>(d.segs.size()),
                                           got.data(), acc);
          ASSERT_TRUE(BitwiseEqual(want, got))
              << "m=" << m << " n=" << n << " segs=" << rows.size()
              << " accumulate=" << acc;
        }
      }
    }
  }
}

TEST(GemmTNSegmentsTest, FirstSegmentIsStoredNotAddedToZero) {
  // An fma chain from +0 yields -0 when every product underflows to a
  // negative zero. A non-accumulating call must keep that -0 (as a copy
  // does) rather than produce 0 + -0 = +0; an accumulating call adds. The
  // shape reaches every AVX2 path: one- and two-row segments, the 16- and
  // 8-column panels, row remainders and the scalar column tail.
  const int64_t m = 7, n = 27;
  std::vector<const KernelTable*> tables = {&ScalarKernels()};
  if (Avx2KernelsCompiled() && CpuSupportsAvx2Fma()) {
    tables.push_back(Avx2KernelsOrNull());
  }
  for (const int64_t rows : {1, 2}) {
    const std::vector<float> a(static_cast<size_t>(rows * m), -1e-30f);
    const std::vector<float> b(static_cast<size_t>(rows * n), 1e-30f);
    const GemmTNSegment seg{a.data(), b.data(), rows};
    for (const KernelTable* t : tables) {
      std::vector<float> c(static_cast<size_t>(m * n), 7.0f);
      t->gemm_tn_segments(m, n, &seg, 1, c.data(), /*accumulate=*/false);
      for (const float x : c) {
        ASSERT_TRUE(x == 0.0f && std::signbit(x)) << "rows=" << rows;
      }
      std::vector<float> z(static_cast<size_t>(m * n), 0.0f);
      t->gemm_tn_segments(m, n, &seg, 1, z.data(), /*accumulate=*/true);
      for (const float x : z) {
        ASSERT_TRUE(x == 0.0f && !std::signbit(x)) << "rows=" << rows;
      }
    }
  }
  // No segments: zero-fill without accumulate, untouched with it.
  for (const KernelTable* t : tables) {
    float e[2] = {3.0f, 3.0f};
    t->gemm_tn_segments(1, 2, nullptr, 0, e, /*accumulate=*/true);
    EXPECT_EQ(e[0], 3.0f);
    t->gemm_tn_segments(1, 2, nullptr, 0, e, /*accumulate=*/false);
    EXPECT_EQ(e[0], 0.0f);
    EXPECT_EQ(e[1], 0.0f);
  }
}

// ------------------------------------------------------ bitwise equivalence

class IsaEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!Avx2KernelsCompiled()) {
      GTEST_SKIP() << "AVX2 kernels not compiled into this build "
                      "(EHNA_DISABLE_AVX2 or non-x86 target)";
    }
    if (!CpuSupportsAvx2Fma()) {
      GTEST_SKIP() << "host CPU lacks AVX2/FMA";
    }
    avx2_ = Avx2KernelsOrNull();
    ASSERT_NE(avx2_, nullptr);
  }

  std::vector<float> Random(int64_t n, Rng* rng, double lo = -2.0,
                            double hi = 2.0) {
    std::vector<float> v(static_cast<size_t>(n));
    for (auto& x : v) x = static_cast<float>(rng->Uniform(lo, hi));
    return v;
  }

  // EXPECT_EQ element-by-element: reports the first offending index
  // instead of a blob, and treats NaN mismatch as failure via bit pattern.
  static void ExpectBitwiseEq(const std::vector<float>& ref,
                              const std::vector<float>& got,
                              const char* what) {
    ASSERT_EQ(ref.size(), got.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      if (std::memcmp(&ref[i], &got[i], sizeof(float)) != 0) {
        ADD_FAILURE() << what << ": first mismatch at [" << i
                      << "]: scalar=" << ref[i] << " avx2=" << got[i];
        return;
      }
    }
  }

  const KernelTable* avx2_ = nullptr;
};

// Shapes chosen to cover full 16-wide strips, the 8-wide panel, and scalar
// tails: n mod 16 ∈ {0, 1, 7, 8, 9, 15}, tiny k < 16, single rows/columns.
constexpr int64_t kDims[] = {1, 2, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100};

TEST_F(IsaEquivalenceTest, GemmAllVariants) {
  Rng rng(42);
  for (const int64_t m : {1, 3, 5, 6, 7, 13, 24}) {
    for (const int64_t n : kDims) {
      for (const int64_t k : {1, 4, 15, 16, 17, 48}) {
        const auto a = Random(m * k, &rng);
        const auto b_nn = Random(k * n, &rng);
        const auto b_nt = Random(n * k, &rng);
        const auto a_tn = Random(k * m, &rng);
        for (const bool acc : {false, true}) {
          const auto c0 = Random(m * n, &rng);
          for (int variant = 0; variant < 3; ++variant) {
            auto ref = c0;
            auto got = c0;
            switch (variant) {
              case 0:
                ScalarKernels().gemm_nn(m, n, k, a.data(), b_nn.data(),
                                        ref.data(), acc);
                avx2_->gemm_nn(m, n, k, a.data(), b_nn.data(), got.data(),
                               acc);
                break;
              case 1:
                ScalarKernels().gemm_nt(m, n, k, a.data(), b_nt.data(),
                                        ref.data(), acc);
                avx2_->gemm_nt(m, n, k, a.data(), b_nt.data(), got.data(),
                               acc);
                break;
              default:
                ScalarKernels().gemm_tn(m, n, k, a_tn.data(), b_nn.data(),
                                        ref.data(), acc);
                avx2_->gemm_tn(m, n, k, a_tn.data(), b_nn.data(), got.data(),
                               acc);
                break;
            }
            ExpectBitwiseEq(ref, got, "gemm");
            if (HasFailure()) return;
          }
        }
      }
    }
  }
}

TEST_F(IsaEquivalenceTest, GemmTNSegmentsAllTails) {
  // Every m and n in 1..33: the 3×16 and 6×8 register tiles, each row
  // remainder, and the scalar column tail; from a zero and a filled C.
  Rng rng(49);
  for (int64_t m = 1; m <= 33; ++m) {
    for (int64_t n = 1; n <= 33; ++n) {
      for (const auto& rows : SegmentRowPatterns()) {
        const SegmentData d = MakeSegments(m, n, rows, &rng);
        const int64_t ns = static_cast<int64_t>(d.segs.size());
        std::vector<float> c0(static_cast<size_t>(m * n));
        for (auto& x : c0) x = static_cast<float>(rng.Uniform(-2.0, 2.0));
        for (const bool acc : {false, true}) {
          const auto want = PerUnitOracle(m, n, d, c0, acc);
          auto ref = c0;
          auto got = c0;
          ScalarKernels().gemm_tn_segments(m, n, d.segs.data(), ns,
                                           ref.data(), acc);
          avx2_->gemm_tn_segments(m, n, d.segs.data(), ns, got.data(), acc);
          ExpectBitwiseEq(want, ref, "gemm_tn_segments scalar vs per-unit");
          ExpectBitwiseEq(ref, got, "gemm_tn_segments");
          if (HasFailure()) {
            ADD_FAILURE() << "m=" << m << " n=" << n << " segs=" << ns
                          << " accumulate=" << acc;
            return;
          }
        }
      }
    }
  }
}

TEST_F(IsaEquivalenceTest, GemvBothOrientationsAndDot) {
  Rng rng(43);
  for (const int64_t m : {1, 2, 3, 4, 5, 9, 33}) {
    for (const int64_t n : kDims) {
      const auto a = Random(m * n, &rng);
      const auto x = Random(n, &rng);
      const auto xt = Random(m, &rng);
      for (const bool acc : {false, true}) {
        const auto y0 = Random(m, &rng);
        auto ref = y0;
        auto got = y0;
        ScalarKernels().gemv(m, n, a.data(), x.data(), ref.data(), acc);
        avx2_->gemv(m, n, a.data(), x.data(), got.data(), acc);
        ExpectBitwiseEq(ref, got, "gemv");

        const auto z0 = Random(n, &rng);
        auto reft = z0;
        auto gott = z0;
        ScalarKernels().gemv_t(m, n, a.data(), xt.data(), reft.data(), acc);
        avx2_->gemv_t(m, n, a.data(), xt.data(), gott.data(), acc);
        ExpectBitwiseEq(reft, gott, "gemv_t");
      }
      const float ds = ScalarKernels().dot(a.data(), a.data() + (m - 1) * n, n);
      const float dv = avx2_->dot(a.data(), a.data() + (m - 1) * n, n);
      EXPECT_EQ(std::memcmp(&ds, &dv, sizeof(float)), 0)
          << "dot n=" << n << " scalar=" << ds << " avx2=" << dv;
    }
  }
}

// Reduced-precision serving kernels (DESIGN.md §14): same bitwise bar as
// the fp32 hot set, over the same dim sweep — int8 covers the 32- and
// 16-wide vector bodies plus the scalar tail, bf16 the 16-wide fma strips
// plus the widening tail. Row counts off the 4-row (int8) / 2-row (bf16)
// panel width exercise the per-row fallback.
TEST_F(IsaEquivalenceTest, Int8DotAndGemvAllTails) {
  Rng rng(46);
  auto random_i8 = [&](int64_t n) {
    std::vector<int8_t> v(static_cast<size_t>(n));
    for (auto& x : v) {
      x = static_cast<int8_t>(
          static_cast<int64_t>(rng.UniformInt(uint64_t{255})) - 127);
    }
    return v;
  };
  for (const int64_t rows : {1, 2, 3, 4, 5, 7, 8, 9, 33}) {
    for (const int64_t n : kDims) {
      const auto a = random_i8(rows * n);
      const auto x = random_i8(n);
      EXPECT_EQ(ScalarKernels().dot_i8(a.data(), x.data(), n),
                avx2_->dot_i8(a.data(), x.data(), n))
          << "dot_i8 n=" << n;
      std::vector<int32_t> ref(static_cast<size_t>(rows));
      std::vector<int32_t> got(static_cast<size_t>(rows));
      ScalarKernels().gemv_i8(rows, n, a.data(), x.data(), ref.data());
      avx2_->gemv_i8(rows, n, a.data(), x.data(), got.data());
      for (int64_t r = 0; r < rows; ++r) {
        EXPECT_EQ(ref[static_cast<size_t>(r)], got[static_cast<size_t>(r)])
            << "gemv_i8 rows=" << rows << " n=" << n << " row=" << r;
      }
    }
  }
  // Extremes: saturated codes at the documented exact-accumulation bound's
  // working sizes must still agree (and not wrap in any lane pattern).
  for (const int64_t n : {33, 64, 257}) {
    std::vector<int8_t> hi(static_cast<size_t>(n), int8_t{127});
    std::vector<int8_t> lo(static_cast<size_t>(n), int8_t{-127});
    EXPECT_EQ(ScalarKernels().dot_i8(hi.data(), lo.data(), n),
              avx2_->dot_i8(hi.data(), lo.data(), n));
    EXPECT_EQ(ScalarKernels().dot_i8(hi.data(), hi.data(), n),
              static_cast<int32_t>(n) * 127 * 127);
  }
}

TEST_F(IsaEquivalenceTest, Bf16DotAndGemvAllTails) {
  Rng rng(47);
  auto random_bf16 = [&](int64_t n) {
    std::vector<uint16_t> v(static_cast<size_t>(n));
    for (auto& x : v) {
      const float f = static_cast<float>(rng.Uniform(-2.0, 2.0));
      x = static_cast<uint16_t>(std::bit_cast<uint32_t>(f) >> 16);
    }
    return v;
  };
  for (const int64_t rows : {1, 2, 3, 4, 5, 9, 33}) {
    for (const int64_t n : kDims) {
      const auto a = random_bf16(rows * n);
      const auto x = Random(n, &rng);
      const float ds = ScalarKernels().dot_bf16(a.data(), x.data(), n);
      const float dv = avx2_->dot_bf16(a.data(), x.data(), n);
      EXPECT_EQ(std::memcmp(&ds, &dv, sizeof(float)), 0)
          << "dot_bf16 n=" << n << " scalar=" << ds << " avx2=" << dv;
      std::vector<float> ref(static_cast<size_t>(rows));
      std::vector<float> got(static_cast<size_t>(rows));
      ScalarKernels().gemv_bf16(rows, n, a.data(), x.data(), ref.data());
      avx2_->gemv_bf16(rows, n, a.data(), x.data(), got.data());
      ExpectBitwiseEq(ref, got, "gemv_bf16");
    }
  }
}

TEST_F(IsaEquivalenceTest, LstmGatesForwardBackward) {
  Rng rng(44);
  for (const int64_t b : {1, 3}) {
    for (const int64_t h : {1, 5, 8, 13, 16, 33, 64}) {
      const auto z = Random(b * 4 * h, &rng, -6.0, 6.0);
      const auto c_prev = Random(b * h, &rng);
      std::vector<float> ifgo_r(b * 4 * h), tanh_r(b * h), hc_r(b * 2 * h);
      std::vector<float> ifgo_v(b * 4 * h), tanh_v(b * h), hc_v(b * 2 * h);
      ScalarKernels().lstm_gate_forward(b, h, z.data(), c_prev.data(),
                                        ifgo_r.data(), tanh_r.data(),
                                        hc_r.data());
      avx2_->lstm_gate_forward(b, h, z.data(), c_prev.data(), ifgo_v.data(),
                               tanh_v.data(), hc_v.data());
      ExpectBitwiseEq(ifgo_r, ifgo_v, "lstm fwd ifgo");
      ExpectBitwiseEq(tanh_r, tanh_v, "lstm fwd tanh_c");
      ExpectBitwiseEq(hc_r, hc_v, "lstm fwd hc");

      const auto ghc = Random(b * 2 * h, &rng);
      std::vector<float> gz_r(b * 4 * h), gcp_r(b * h);
      std::vector<float> gz_v(b * 4 * h), gcp_v(b * h);
      ScalarKernels().lstm_gate_backward(b, h, ghc.data(), ifgo_r.data(),
                                         tanh_r.data(), c_prev.data(),
                                         gz_r.data(), gcp_r.data());
      avx2_->lstm_gate_backward(b, h, ghc.data(), ifgo_r.data(),
                                tanh_r.data(), c_prev.data(), gz_v.data(),
                                gcp_v.data());
      ExpectBitwiseEq(gz_r, gz_v, "lstm bwd gz");
      ExpectBitwiseEq(gcp_r, gcp_v, "lstm bwd gc_prev");
    }
  }
}

TEST_F(IsaEquivalenceTest, AttentionSoftmaxForwardBackward) {
  Rng rng(45);
  for (const int64_t l : {1, 3, 9}) {
    for (const int64_t d : {1, 7, 8, 17, 64, 100}) {
      const auto emb = Random(l * d, &rng);
      const auto target = Random(d, &rng);
      auto neg = Random(l, &rng, -1.0, -0.01);
      std::vector<float> alpha_r(l), alpha_v(l);
      ScalarKernels().attention_softmax_forward(
          l, d, emb.data(), target.data(), neg.data(), alpha_r.data());
      avx2_->attention_softmax_forward(l, d, emb.data(), target.data(),
                                       neg.data(), alpha_v.data());
      ExpectBitwiseEq(alpha_r, alpha_v, "attention fwd alpha");

      const auto g = Random(l, &rng);
      const auto gemb0 = Random(l * d, &rng);
      const auto gtgt0 = Random(d, &rng);
      auto gemb_r = gemb0, gemb_v = gemb0;
      auto gtgt_r = gtgt0, gtgt_v = gtgt0;
      ScalarKernels().attention_softmax_backward(
          l, d, g.data(), alpha_r.data(), emb.data(), target.data(),
          neg.data(), gemb_r.data(), gtgt_r.data());
      avx2_->attention_softmax_backward(l, d, g.data(), alpha_v.data(),
                                        emb.data(), target.data(), neg.data(),
                                        gemb_v.data(), gtgt_v.data());
      ExpectBitwiseEq(gemb_r, gemb_v, "attention bwd gemb");
      ExpectBitwiseEq(gtgt_r, gtgt_v, "attention bwd gtarget");
    }
  }
}

}  // namespace
}  // namespace ehna::kernels
