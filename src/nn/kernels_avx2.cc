// Hand-written AVX2/FMA microkernels for the dispatched hot set
// (DESIGN.md §9). Compiled with -mavx2 -mfma -ffp-contract=off; executed
// only when cpuid reports AVX2+FMA (src/nn/cpu_dispatch.cc).
//
// Bitwise contract with kernels_scalar.cc: every kernel realizes the same
// fixed accumulation order with the same fused ops, so outputs are
// identical bit-for-bit.
//  - Inner-product kernels (Dot, GemmNT, Gemv, the attention distances) run
//    the documented 16 vertical lanes as two 256-bit fma accumulators; the
//    pairwise 8/4/2/1 combine tree maps onto ymm+ymm, the 128-bit half add,
//    and two shuffles — the exact pairings of the scalar tree — and the
//    remainder tail reuses the scalar ascending-fma helpers.
//  - Rank-1-update kernels (GemmNN, GemmTN, GemvT) keep one fma chain per
//    output element in strictly ascending k. The register tile only changes
//    *which* elements advance together, never the per-element order, and
//    the load/store round-trip at tile boundaries is exact in fp32.
//  - The LSTM/attention transcendentals run the pinned polynomial recipe of
//    kernels_common.h lane-for-lane (same clamps, same round-to-nearest,
//    same fma sequence, same IEEE division), so vector lanes equal the
//    scalar helper on every element.

#if !defined(__AVX2__) || !defined(__FMA__)
#error "kernels_avx2.cc must be compiled with -mavx2 -mfma"
#endif

#include <immintrin.h>

#include <cmath>
#include <cstring>

#include "nn/cpu_dispatch.h"
#include "nn/kernels.h"
#include "nn/kernels_common.h"

namespace ehna::kernels::avx2 {

namespace {

using detail::AttnBackwardSpan;
using detail::DotTail;
using detail::LstmGateBackwardSpan;
using detail::LstmGateForwardSpan;
using detail::SqDistTail;

// ------------------------------------------------------------- reductions

/// The fixed 16-lane pairwise tree (8, 4, 2, 1) over two ymm accumulators;
/// bit-identical to the scalar loop in detail::DotLanes16.
inline float ReduceLanes16(__m256 acc0, __m256 acc1) {
  const __m256 s8 = _mm256_add_ps(acc0, acc1);  // lane l += lane l+8
  const __m128 s4 = _mm_add_ps(_mm256_castps256_ps128(s8),
                               _mm256_extractf128_ps(s8, 1));  // l += l+4
  const __m128 s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));     // l += l+2
  const __m128 s1 =
      _mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 0x55));            // 0 += 1
  return _mm_cvtss_f32(s1);
}

inline float DotAvx2(const float* x, const float* y, int64_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 8),
                           _mm256_loadu_ps(y + i + 8), acc1);
  }
  return DotTail(ReduceLanes16(acc0, acc1), x, y, i, n);
}

// ------------------------------------------------- GEMM register microtiles
//
// R×16 (or R×8) C tile held in registers across one full ascending-k fma
// sweep. Parameterized over the A indexing so GemmNN (A row-major, step 1
// in k) and GemmTN (A k-major, step m in k) share the kernel: the element
// for tile row r at step kk is a[r * a_row_stride + kk * a_k_stride].

template <int R>
inline void MicroNx16(int64_t k, const float* a, int64_t a_row_stride,
                      int64_t a_k_stride, const float* b, int64_t ldb,
                      float* c, int64_t ldc) {
  __m256 acc0[R], acc1[R];
  for (int r = 0; r < R; ++r) {
    acc0[r] = _mm256_loadu_ps(c + r * ldc);
    acc1[r] = _mm256_loadu_ps(c + r * ldc + 8);
  }
  const float* ak = a;
  for (int64_t kk = 0; kk < k; ++kk, ak += a_k_stride) {
    const __m256 b0 = _mm256_loadu_ps(b + kk * ldb);
    const __m256 b1 = _mm256_loadu_ps(b + kk * ldb + 8);
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(ak + r * a_row_stride);
      acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
      acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
    }
  }
  for (int r = 0; r < R; ++r) {
    _mm256_storeu_ps(c + r * ldc, acc0[r]);
    _mm256_storeu_ps(c + r * ldc + 8, acc1[r]);
  }
}

template <int R>
inline void MicroNx8(int64_t k, const float* a, int64_t a_row_stride,
                     int64_t a_k_stride, const float* b, int64_t ldb, float* c,
                     int64_t ldc) {
  __m256 acc[R];
  for (int r = 0; r < R; ++r) acc[r] = _mm256_loadu_ps(c + r * ldc);
  const float* ak = a;
  for (int64_t kk = 0; kk < k; ++kk, ak += a_k_stride) {
    const __m256 b0 = _mm256_loadu_ps(b + kk * ldb);
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(ak + r * a_row_stride);
      acc[r] = _mm256_fmadd_ps(av, b0, acc[r]);
    }
  }
  for (int r = 0; r < R; ++r) _mm256_storeu_ps(c + r * ldc, acc[r]);
}

/// Columns [j0, n): per-element scalar fma chain, ascending k (bit-equal to
/// both the scalar kernel and the vector tiles).
inline void ColsTail(int64_t m, int64_t n, int64_t k, int64_t j0,
                     const float* a, int64_t a_row_stride, int64_t a_k_stride,
                     const float* b, int64_t ldb, float* c, int64_t ldc) {
  for (int64_t i = 0; i < m; ++i) {
    const float* ai = a + i * a_row_stride;
    for (int64_t j = j0; j < n; ++j) {
      float ci = c[i * ldc + j];
      for (int64_t kk = 0; kk < k; ++kk) {
        ci = std::fmaf(ai[kk * a_k_stride], b[kk * ldb + j], ci);
      }
      c[i * ldc + j] = ci;
    }
  }
}

template <void (*Micro6)(int64_t, const float*, int64_t, int64_t,
                         const float*, int64_t, float*, int64_t),
          int Cols>
inline void GemmPanelRows(int64_t m, int64_t k, const float* a,
                          int64_t a_row_stride, int64_t a_k_stride,
                          const float* b, int64_t ldb, float* c, int64_t ldc);

/// Shared GemmNN/GemmTN driver: 16-column panels of R<=6-row register
/// tiles, then an 8-column panel, then the scalar column tail.
inline void GemmRank1(int64_t m, int64_t n, int64_t k, const float* a,
                      int64_t a_row_stride, int64_t a_k_stride, const float* b,
                      float* c, bool accumulate) {
  if (!accumulate) std::memset(c, 0, static_cast<size_t>(m * n) * 4);
  int64_t jc = 0;
  for (; jc + 16 <= n; jc += 16) {
    int64_t i = 0;
    for (; i + 6 <= m; i += 6) {
      MicroNx16<6>(k, a + i * a_row_stride, a_row_stride, a_k_stride, b + jc,
                   n, c + i * n + jc, n);
    }
    const float* at = a + i * a_row_stride;
    float* ct = c + i * n + jc;
    switch (m - i) {
      case 5:
        MicroNx16<5>(k, at, a_row_stride, a_k_stride, b + jc, n, ct, n);
        break;
      case 4:
        MicroNx16<4>(k, at, a_row_stride, a_k_stride, b + jc, n, ct, n);
        break;
      case 3:
        MicroNx16<3>(k, at, a_row_stride, a_k_stride, b + jc, n, ct, n);
        break;
      case 2:
        MicroNx16<2>(k, at, a_row_stride, a_k_stride, b + jc, n, ct, n);
        break;
      case 1:
        MicroNx16<1>(k, at, a_row_stride, a_k_stride, b + jc, n, ct, n);
        break;
      default:
        break;
    }
  }
  if (n - jc >= 8) {
    int64_t i = 0;
    for (; i + 6 <= m; i += 6) {
      MicroNx8<6>(k, a + i * a_row_stride, a_row_stride, a_k_stride, b + jc, n,
                  c + i * n + jc, n);
    }
    const float* at = a + i * a_row_stride;
    float* ct = c + i * n + jc;
    switch (m - i) {
      case 5:
        MicroNx8<5>(k, at, a_row_stride, a_k_stride, b + jc, n, ct, n);
        break;
      case 4:
        MicroNx8<4>(k, at, a_row_stride, a_k_stride, b + jc, n, ct, n);
        break;
      case 3:
        MicroNx8<3>(k, at, a_row_stride, a_k_stride, b + jc, n, ct, n);
        break;
      case 2:
        MicroNx8<2>(k, at, a_row_stride, a_k_stride, b + jc, n, ct, n);
        break;
      case 1:
        MicroNx8<1>(k, at, a_row_stride, a_k_stride, b + jc, n, ct, n);
        break;
      default:
        break;
    }
    jc += 8;
  }
  if (jc < n) {
    ColsTail(m, n, k, jc, a, a_row_stride, a_k_stride, b, n, c, n);
  }
}

// ------------------------------------------------- segmented GemmTN tiles
//
// Each segment gets a fresh R×(8V) u tile from +0, runs its fma chain over
// the segment's rows in ascending order, and is then added into the C tile
// (or stored, for a non-accumulating first segment) — the scalar
// reference's per-element sequence; the tiling only picks which elements
// advance together. Two shapes share the code:
//  - kHoldC: C also stays in registers across the block's segments, which
//    suits one-row segments (one fma per u register, then the add). R·V·2
//    accumulators + V B rows + one broadcast fit the 16 ymm registers for
//    (R, V) = (3, 2) and (6, 1).
//  - otherwise C round-trips through L1 once per segment, which frees the
//    registers for a 6×16 u tile: 12 independent fma chains cover the fma
//    latency on multi-row segments.

/// Segments are folded in blocks of about this many bytes of A and B rows,
/// so a block stays cache-resident while every C tile sweeps it.
constexpr int64_t kSegmentBlockBytes = 32 << 10;

template <int R, int V, bool kHoldC>
inline void SegmentTile(int64_t m, int64_t n, int64_t i0, int64_t j0,
                        const GemmTNSegment* segs, int64_t num_segs,
                        bool store_first, float* c) {
  float* ct = c + i0 * n + j0;
  [[maybe_unused]] __m256 acc[kHoldC ? R : 1][V];  // kHoldC only
  if constexpr (kHoldC) {
    for (int r = 0; r < R; ++r) {
      for (int v = 0; v < V; ++v) {
        acc[r][v] = store_first ? _mm256_setzero_ps()
                                : _mm256_loadu_ps(ct + r * n + 8 * v);
      }
    }
  }
  for (int64_t s = 0; s < num_segs; ++s) {
    __m256 u[R][V];
    for (int r = 0; r < R; ++r) {
      for (int v = 0; v < V; ++v) u[r][v] = _mm256_setzero_ps();
    }
    const float* a = segs[s].a + i0;
    const float* b = segs[s].b + j0;
    for (int64_t kk = 0; kk < segs[s].k; ++kk, a += m, b += n) {
      __m256 bv[V];
      for (int v = 0; v < V; ++v) bv[v] = _mm256_loadu_ps(b + 8 * v);
      for (int r = 0; r < R; ++r) {
        const __m256 av = _mm256_broadcast_ss(a + r);
        for (int v = 0; v < V; ++v) {
          u[r][v] = _mm256_fmadd_ps(av, bv[v], u[r][v]);
        }
      }
    }
    const bool store = store_first && s == 0;
    for (int r = 0; r < R; ++r) {
      for (int v = 0; v < V; ++v) {
        if constexpr (kHoldC) {
          acc[r][v] = store ? u[r][v] : _mm256_add_ps(acc[r][v], u[r][v]);
        } else {
          float* cp = ct + r * n + 8 * v;
          const __m256 sum =
              store ? u[r][v] : _mm256_add_ps(_mm256_loadu_ps(cp), u[r][v]);
          _mm256_storeu_ps(cp, sum);
        }
      }
    }
  }
  if constexpr (kHoldC) {
    for (int r = 0; r < R; ++r) {
      for (int v = 0; v < V; ++v) {
        _mm256_storeu_ps(ct + r * n + 8 * v, acc[r][v]);
      }
    }
  }
}

/// Rows [i0, i0 + rows) with rows <= R, as one tile of exactly `rows` rows.
template <int R, int V, bool kHoldC>
inline void SegmentRowTail(int64_t rows, int64_t m, int64_t n, int64_t i0,
                           int64_t j0, const GemmTNSegment* segs,
                           int64_t num_segs, bool store_first, float* c) {
  if (rows == R) {
    SegmentTile<R, V, kHoldC>(m, n, i0, j0, segs, num_segs, store_first, c);
  } else if constexpr (R > 1) {
    SegmentRowTail<R - 1, V, kHoldC>(rows, m, n, i0, j0, segs, num_segs,
                                     store_first, c);
  }
}

/// One 8V-column panel: R-row tiles, then the row remainder.
template <int R, int V, bool kHoldC>
inline void SegmentPanel(int64_t m, int64_t n, int64_t j0,
                         const GemmTNSegment* segs, int64_t num_segs,
                         bool store_first, float* c) {
  int64_t i = 0;
  for (; i + R <= m; i += R) {
    SegmentTile<R, V, kHoldC>(m, n, i, j0, segs, num_segs, store_first, c);
  }
  if (i < m) {
    SegmentRowTail<R - 1, V, kHoldC>(m - i, m, n, i, j0, segs, num_segs,
                                     store_first, c);
  }
}

/// Columns [j0, n): the scalar reference's per-element sequence.
inline void SegmentColsTail(int64_t m, int64_t n, int64_t j0,
                            const GemmTNSegment* segs, int64_t num_segs,
                            bool store_first, float* c) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = j0; j < n; ++j) {
      float ci = store_first ? 0.0f : c[i * n + j];
      for (int64_t s = 0; s < num_segs; ++s) {
        float u = 0.0f;
        for (int64_t kk = 0; kk < segs[s].k; ++kk) {
          u = std::fmaf(segs[s].a[kk * m + i], segs[s].b[kk * n + j], u);
        }
        ci = (store_first && s == 0) ? u : ci + u;
      }
      c[i * n + j] = ci;
    }
  }
}

// --------------------------------------------- pinned vector exp/sigmoid/tanh
//
// Lane-for-lane mirror of detail::ExpPinned / SigmoidPinned / TanhPinned.

inline __m256 ExpV(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  x = _mm256_min_ps(_mm256_max_ps(x, _mm256_set1_ps(detail::kExpLo)),
                    _mm256_set1_ps(detail::kExpHi));
  const __m256 t = _mm256_mul_ps(x, _mm256_set1_ps(detail::kLog2e));
  const __m256 nf =
      _mm256_round_ps(t, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fmadd_ps(nf, _mm256_set1_ps(detail::kNegLn2Hi), x);
  r = _mm256_fmadd_ps(nf, _mm256_set1_ps(detail::kNegLn2Lo), r);
  __m256 p = _mm256_set1_ps(detail::kExpP0);
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(detail::kExpP1));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(detail::kExpP2));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(detail::kExpP3));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(detail::kExpP4));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(detail::kExpP5));
  const __m256 r2 = _mm256_mul_ps(r, r);
  __m256 e = _mm256_fmadd_ps(r2, p, r);
  e = _mm256_add_ps(e, one);
  const __m256i n = _mm256_cvtps_epi32(nf);
  const __m256i sc =
      _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(e, _mm256_castsi256_ps(sc));
}

inline __m256 SigmoidV(__m256 x) {
  const __m256 e = ExpV(_mm256_xor_ps(x, _mm256_set1_ps(-0.0f)));
  const __m256 one = _mm256_set1_ps(1.0f);
  return _mm256_div_ps(one, _mm256_add_ps(one, e));
}

inline __m256 TanhV(__m256 x) {
  const __m256 absmask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 ax = _mm256_and_ps(x, absmask);
  const __m256 e = ExpV(_mm256_mul_ps(ax, _mm256_set1_ps(2.0f)));
  const __m256 t =
      _mm256_div_ps(_mm256_sub_ps(e, one), _mm256_add_ps(e, one));
  return _mm256_or_ps(t, _mm256_andnot_ps(absmask, x));
}

// ------------------------------------------- reduced-precision primitives
//
// int8: sign-extend 16 bytes to epi16 and multiply-accumulate pairs with
// vpmaddwd (exact: |x|,|y| <= 127, so each pairwise int32 sum is bounded by
// 2*127^2 with no int16 saturation — this is why the widened madd is used
// instead of vpmaddubsw). All arithmetic is exact int32, so the horizontal
// sum order is free and matches the scalar reference bit-for-bit as long
// as the documented n <= 2^17 overflow bound holds.
//
// bf16: each stored uint16 widens to fp32 by an exact left shift of 16;
// the fma tree then runs the identical 16-lane order as DotAvx2.

/// Horizontal sum of 8 exact int32 lanes.
inline int32_t ReduceI32(__m256i acc) {
  const __m128i s4 = _mm_add_epi32(_mm256_castsi256_si128(acc),
                                   _mm256_extracti128_si256(acc, 1));
  const __m128i s2 = _mm_add_epi32(s4, _mm_unpackhi_epi64(s4, s4));
  const __m128i s1 = _mm_add_epi32(s2, _mm_shuffle_epi32(s2, 0x55));
  return _mm_cvtsi128_si32(s1);
}

/// 16 int8 values sign-extended to one ymm of epi16.
inline __m256i LoadI8x16(const int8_t* p) {
  return _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

inline int32_t DotI8Avx2(const int8_t* x, const int8_t* y, int64_t n) {
  __m256i acc = _mm256_setzero_si256();
  int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc = _mm256_add_epi32(
        acc, _mm256_madd_epi16(LoadI8x16(x + i), LoadI8x16(y + i)));
    acc = _mm256_add_epi32(
        acc, _mm256_madd_epi16(LoadI8x16(x + i + 16), LoadI8x16(y + i + 16)));
  }
  if (i + 16 <= n) {
    acc = _mm256_add_epi32(
        acc, _mm256_madd_epi16(LoadI8x16(x + i), LoadI8x16(y + i)));
    i += 16;
  }
  return detail::DotI8Tail(ReduceI32(acc), x, y, i, n);
}

/// 8 bf16 values widened to fp32 lanes by the exact bit shift.
inline __m256 LoadBf16x8(const uint16_t* p) {
  const __m128i h = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  return _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_cvtepu16_epi32(h), 16));
}

inline float DotBf16Avx2(const uint16_t* x, const float* y, int64_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(LoadBf16x8(x + i), _mm256_loadu_ps(y + i), acc0);
    acc1 = _mm256_fmadd_ps(LoadBf16x8(x + i + 8), _mm256_loadu_ps(y + i + 8),
                           acc1);
  }
  return detail::DotBf16Tail(ReduceLanes16(acc0, acc1), x, y, i, n);
}

}  // namespace

// ------------------------------------------------------------- entry points

void GemmNN(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
            float* c, bool accumulate) {
  GemmRank1(m, n, k, a, /*a_row_stride=*/k, /*a_k_stride=*/1, b, c,
            accumulate);
}

void GemmTN(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
            float* c, bool accumulate) {
  GemmRank1(m, n, k, a, /*a_row_stride=*/1, /*a_k_stride=*/m, b, c,
            accumulate);
}

void GemmTNSegments(int64_t m, int64_t n, const GemmTNSegment* segs,
                    int64_t num_segs, float* c, bool accumulate) {
  if (num_segs == 0) {
    if (!accumulate) std::memset(c, 0, static_cast<size_t>(m * n) * 4);
    return;
  }
  const int64_t row_bytes = (m + n) * 4;
  for (int64_t s0 = 0; s0 < num_segs;) {
    int64_t s1 = s0 + 1;
    int64_t rows = segs[s0].k;
    while (s1 < num_segs &&
           (rows + segs[s1].k) * row_bytes <= kSegmentBlockBytes) {
      rows += segs[s1++].k;
    }
    const GemmTNSegment* block = segs + s0;
    const int64_t nb = s1 - s0;
    const bool store_first = !accumulate && s0 == 0;
    const bool one_row_segments = rows < 2 * nb;
    int64_t jc = 0;
    for (; jc + 16 <= n; jc += 16) {
      if (one_row_segments) {
        SegmentPanel<3, 2, true>(m, n, jc, block, nb, store_first, c);
      } else {
        SegmentPanel<6, 2, false>(m, n, jc, block, nb, store_first, c);
      }
    }
    if (n - jc >= 8) {
      SegmentPanel<6, 1, true>(m, n, jc, block, nb, store_first, c);
      jc += 8;
    }
    if (jc < n) SegmentColsTail(m, n, jc, block, nb, store_first, c);
    s0 = s1;
  }
}

void GemmNT(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
            float* c, bool accumulate) {
  int64_t i = 0;
  for (; i + 2 <= m; i += 2) {
    const float* a0 = a + i * k;
    const float* a1 = a0 + k;
    float* c0 = c + i * n;
    float* c1 = c0 + n;
    int64_t j = 0;
    for (; j + 2 <= n; j += 2) {
      const float* b0 = b + j * k;
      const float* b1 = b0 + k;
      __m256 acc00l = _mm256_setzero_ps(), acc00h = _mm256_setzero_ps();
      __m256 acc01l = _mm256_setzero_ps(), acc01h = _mm256_setzero_ps();
      __m256 acc10l = _mm256_setzero_ps(), acc10h = _mm256_setzero_ps();
      __m256 acc11l = _mm256_setzero_ps(), acc11h = _mm256_setzero_ps();
      int64_t kk = 0;
      for (; kk + 16 <= k; kk += 16) {
        const __m256 a0l = _mm256_loadu_ps(a0 + kk);
        const __m256 a0h = _mm256_loadu_ps(a0 + kk + 8);
        const __m256 a1l = _mm256_loadu_ps(a1 + kk);
        const __m256 a1h = _mm256_loadu_ps(a1 + kk + 8);
        const __m256 b0l = _mm256_loadu_ps(b0 + kk);
        const __m256 b0h = _mm256_loadu_ps(b0 + kk + 8);
        const __m256 b1l = _mm256_loadu_ps(b1 + kk);
        const __m256 b1h = _mm256_loadu_ps(b1 + kk + 8);
        acc00l = _mm256_fmadd_ps(a0l, b0l, acc00l);
        acc00h = _mm256_fmadd_ps(a0h, b0h, acc00h);
        acc01l = _mm256_fmadd_ps(a0l, b1l, acc01l);
        acc01h = _mm256_fmadd_ps(a0h, b1h, acc01h);
        acc10l = _mm256_fmadd_ps(a1l, b0l, acc10l);
        acc10h = _mm256_fmadd_ps(a1h, b0h, acc10h);
        acc11l = _mm256_fmadd_ps(a1l, b1l, acc11l);
        acc11h = _mm256_fmadd_ps(a1h, b1h, acc11h);
      }
      const float d00 = DotTail(ReduceLanes16(acc00l, acc00h), a0, b0, kk, k);
      const float d01 = DotTail(ReduceLanes16(acc01l, acc01h), a0, b1, kk, k);
      const float d10 = DotTail(ReduceLanes16(acc10l, acc10h), a1, b0, kk, k);
      const float d11 = DotTail(ReduceLanes16(acc11l, acc11h), a1, b1, kk, k);
      c0[j] = accumulate ? c0[j] + d00 : d00;
      c0[j + 1] = accumulate ? c0[j + 1] + d01 : d01;
      c1[j] = accumulate ? c1[j] + d10 : d10;
      c1[j + 1] = accumulate ? c1[j + 1] + d11 : d11;
    }
    for (; j < n; ++j) {
      const float d0 = DotAvx2(a0, b + j * k, k);
      const float d1 = DotAvx2(a1, b + j * k, k);
      c0[j] = accumulate ? c0[j] + d0 : d0;
      c1[j] = accumulate ? c1[j] + d1 : d1;
    }
  }
  for (; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float d = DotAvx2(arow, b + j * k, k);
      crow[j] = accumulate ? crow[j] + d : d;
    }
  }
}

void Gemv(int64_t m, int64_t n, const float* a, const float* x, float* y,
          bool accumulate) {
  int64_t i = 0;
  for (; i + 4 <= m; i += 4) {
    __m256 accl[4], acch[4];
    for (int r = 0; r < 4; ++r) {
      accl[r] = _mm256_setzero_ps();
      acch[r] = _mm256_setzero_ps();
    }
    int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
      const __m256 xl = _mm256_loadu_ps(x + j);
      const __m256 xh = _mm256_loadu_ps(x + j + 8);
      for (int r = 0; r < 4; ++r) {
        const float* arow = a + (i + r) * n;
        accl[r] = _mm256_fmadd_ps(_mm256_loadu_ps(arow + j), xl, accl[r]);
        acch[r] = _mm256_fmadd_ps(_mm256_loadu_ps(arow + j + 8), xh, acch[r]);
      }
    }
    for (int r = 0; r < 4; ++r) {
      const float d =
          DotTail(ReduceLanes16(accl[r], acch[r]), a + (i + r) * n, x, j, n);
      y[i + r] = accumulate ? y[i + r] + d : d;
    }
  }
  for (; i < m; ++i) {
    const float d = DotAvx2(a + i * n, x, n);
    y[i] = accumulate ? y[i] + d : d;
  }
}

namespace {

/// V×8-column panel of y held in registers across the full ascending-i
/// sweep (one fma chain per y element, same order as the scalar kernel).
template <int V>
inline void GemvTPanel(int64_t m, int64_t lda, const float* a, const float* x,
                       float* y) {
  __m256 acc[V];
  for (int v = 0; v < V; ++v) acc[v] = _mm256_loadu_ps(y + 8 * v);
  for (int64_t i = 0; i < m; ++i) {
    const __m256 xv = _mm256_broadcast_ss(x + i);
    const float* arow = a + i * lda;
    for (int v = 0; v < V; ++v) {
      acc[v] = _mm256_fmadd_ps(xv, _mm256_loadu_ps(arow + 8 * v), acc[v]);
    }
  }
  for (int v = 0; v < V; ++v) _mm256_storeu_ps(y + 8 * v, acc[v]);
}

}  // namespace

void GemvT(int64_t m, int64_t n, const float* a, const float* x, float* y,
           bool accumulate) {
  if (!accumulate) std::memset(y, 0, static_cast<size_t>(n) * 4);
  int64_t jc = 0;
  for (; jc + 64 <= n; jc += 64) GemvTPanel<8>(m, n, a + jc, x, y + jc);
  for (; jc + 8 <= n; jc += 8) GemvTPanel<1>(m, n, a + jc, x, y + jc);
  for (; jc < n; ++jc) {
    float acc = y[jc];
    for (int64_t i = 0; i < m; ++i) acc = std::fmaf(x[i], a[i * n + jc], acc);
    y[jc] = acc;
  }
}

float Dot(const float* x, const float* y, int64_t n) {
  return DotAvx2(x, y, n);
}

int32_t DotI8(const int8_t* x, const int8_t* y, int64_t n) {
  return DotI8Avx2(x, y, n);
}

void GemvI8(int64_t rows, int64_t n, const int8_t* a, const int8_t* x,
            int32_t* y) {
  // 4-row panel: every sign-extended query block is reused across four
  // matrix rows, quartering the dominant widen+load traffic of the scan.
  int64_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const int8_t* a0 = a + r * n;
    const int8_t* a1 = a0 + n;
    const int8_t* a2 = a1 + n;
    const int8_t* a3 = a2 + n;
    __m256i c0 = _mm256_setzero_si256();
    __m256i c1 = _mm256_setzero_si256();
    __m256i c2 = _mm256_setzero_si256();
    __m256i c3 = _mm256_setzero_si256();
    int64_t i = 0;
    for (; i + 16 <= n; i += 16) {
      const __m256i xv = LoadI8x16(x + i);
      c0 = _mm256_add_epi32(c0, _mm256_madd_epi16(LoadI8x16(a0 + i), xv));
      c1 = _mm256_add_epi32(c1, _mm256_madd_epi16(LoadI8x16(a1 + i), xv));
      c2 = _mm256_add_epi32(c2, _mm256_madd_epi16(LoadI8x16(a2 + i), xv));
      c3 = _mm256_add_epi32(c3, _mm256_madd_epi16(LoadI8x16(a3 + i), xv));
    }
    y[r + 0] = detail::DotI8Tail(ReduceI32(c0), a0, x, i, n);
    y[r + 1] = detail::DotI8Tail(ReduceI32(c1), a1, x, i, n);
    y[r + 2] = detail::DotI8Tail(ReduceI32(c2), a2, x, i, n);
    y[r + 3] = detail::DotI8Tail(ReduceI32(c3), a3, x, i, n);
  }
  for (; r < rows; ++r) y[r] = DotI8Avx2(a + r * n, x, n);
}

float DotBf16(const uint16_t* x, const float* y, int64_t n) {
  return DotBf16Avx2(x, y, n);
}

void GemvBf16(int64_t rows, int64_t n, const uint16_t* a, const float* x,
              float* y) {
  // 2-row panel (4 accumulators): fp32 query loads shared across rows while
  // each row keeps its own two-accumulator 16-lane tree, so per-row bits
  // match DotBf16 exactly.
  int64_t r = 0;
  for (; r + 2 <= rows; r += 2) {
    const uint16_t* a0 = a + r * n;
    const uint16_t* a1 = a0 + n;
    __m256 c00 = _mm256_setzero_ps();
    __m256 c01 = _mm256_setzero_ps();
    __m256 c10 = _mm256_setzero_ps();
    __m256 c11 = _mm256_setzero_ps();
    int64_t i = 0;
    for (; i + 16 <= n; i += 16) {
      const __m256 x0 = _mm256_loadu_ps(x + i);
      const __m256 x1 = _mm256_loadu_ps(x + i + 8);
      c00 = _mm256_fmadd_ps(LoadBf16x8(a0 + i), x0, c00);
      c01 = _mm256_fmadd_ps(LoadBf16x8(a0 + i + 8), x1, c01);
      c10 = _mm256_fmadd_ps(LoadBf16x8(a1 + i), x0, c10);
      c11 = _mm256_fmadd_ps(LoadBf16x8(a1 + i + 8), x1, c11);
    }
    y[r + 0] = detail::DotBf16Tail(ReduceLanes16(c00, c01), a0, x, i, n);
    y[r + 1] = detail::DotBf16Tail(ReduceLanes16(c10, c11), a1, x, i, n);
  }
  for (; r < rows; ++r) y[r] = DotBf16Avx2(a + r * n, x, n);
}

void LstmGateForward(int64_t b, int64_t h, const float* z, const float* c_prev,
                     float* ifgo, float* tanh_c, float* hc) {
  for (int64_t r = 0; r < b; ++r) {
    const float* zr = z + r * 4 * h;
    const float* cp = c_prev + r * h;
    float* ar = ifgo + r * 4 * h;
    float* tc = tanh_c + r * h;
    float* hr = hc + r * 2 * h;
    float* cr = hr + h;
    int64_t j = 0;
    for (; j + 8 <= h; j += 8) {
      const __m256 iv = SigmoidV(_mm256_loadu_ps(zr + j));
      const __m256 fv = SigmoidV(_mm256_loadu_ps(zr + h + j));
      const __m256 gv = TanhV(_mm256_loadu_ps(zr + 2 * h + j));
      const __m256 ov = SigmoidV(_mm256_loadu_ps(zr + 3 * h + j));
      const __m256 ig = _mm256_mul_ps(iv, gv);
      const __m256 cv = _mm256_fmadd_ps(fv, _mm256_loadu_ps(cp + j), ig);
      const __m256 tv = TanhV(cv);
      _mm256_storeu_ps(ar + j, iv);
      _mm256_storeu_ps(ar + h + j, fv);
      _mm256_storeu_ps(ar + 2 * h + j, gv);
      _mm256_storeu_ps(ar + 3 * h + j, ov);
      _mm256_storeu_ps(tc + j, tv);
      _mm256_storeu_ps(cr + j, cv);
      _mm256_storeu_ps(hr + j, _mm256_mul_ps(ov, tv));
    }
    LstmGateForwardSpan(j, h, h, zr, cp, ar, tc, hr, cr);
  }
}

void LstmGateBackward(int64_t b, int64_t h, const float* ghc,
                      const float* ifgo, const float* tanh_c,
                      const float* c_prev, float* gz, float* gc_prev) {
  const __m256 one = _mm256_set1_ps(1.0f);
  for (int64_t r = 0; r < b; ++r) {
    const float* gh = ghc + r * 2 * h;
    const float* gc = gh + h;
    const float* ar = ifgo + r * 4 * h;
    const float* tc = tanh_c + r * h;
    const float* cp = c_prev + r * h;
    float* gzr = gz + r * 4 * h;
    float* gcp = gc_prev + r * h;
    int64_t j = 0;
    for (; j + 8 <= h; j += 8) {
      const __m256 iv = _mm256_loadu_ps(ar + j);
      const __m256 fv = _mm256_loadu_ps(ar + h + j);
      const __m256 gv = _mm256_loadu_ps(ar + 2 * h + j);
      const __m256 ov = _mm256_loadu_ps(ar + 3 * h + j);
      const __m256 tv = _mm256_loadu_ps(tc + j);
      const __m256 ghv = _mm256_loadu_ps(gh + j);
      const __m256 one_m_tv2 = _mm256_fnmadd_ps(tv, tv, one);
      const __m256 gho = _mm256_mul_ps(ghv, ov);
      const __m256 dc =
          _mm256_fmadd_ps(gho, one_m_tv2, _mm256_loadu_ps(gc + j));
      const __m256 do_ = _mm256_mul_ps(ghv, tv);
      const __m256 dcg = _mm256_mul_ps(dc, gv);
      const __m256 dcc = _mm256_mul_ps(dc, _mm256_loadu_ps(cp + j));
      const __m256 dci = _mm256_mul_ps(dc, iv);
      _mm256_storeu_ps(
          gzr + j,
          _mm256_mul_ps(dcg, _mm256_mul_ps(iv, _mm256_sub_ps(one, iv))));
      _mm256_storeu_ps(
          gzr + h + j,
          _mm256_mul_ps(dcc, _mm256_mul_ps(fv, _mm256_sub_ps(one, fv))));
      _mm256_storeu_ps(gzr + 2 * h + j,
                       _mm256_mul_ps(dci, _mm256_fnmadd_ps(gv, gv, one)));
      _mm256_storeu_ps(
          gzr + 3 * h + j,
          _mm256_mul_ps(do_, _mm256_mul_ps(ov, _mm256_sub_ps(one, ov))));
      _mm256_storeu_ps(gcp + j, _mm256_mul_ps(dc, fv));
    }
    LstmGateBackwardSpan(j, h, h, gh, gc, ar, tc, cp, gzr, gcp);
  }
}

void AttentionSoftmaxForward(int64_t l, int64_t d, const float* emb,
                             const float* target, const float* neg_coeffs,
                             float* alpha) {
  for (int64_t i = 0; i < l; ++i) {
    const float* er = emb + i * d;
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    int64_t j = 0;
    for (; j + 16 <= d; j += 16) {
      const __m256 d0 =
          _mm256_sub_ps(_mm256_loadu_ps(er + j), _mm256_loadu_ps(target + j));
      const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(er + j + 8),
                                      _mm256_loadu_ps(target + j + 8));
      acc0 = _mm256_fmadd_ps(d0, d0, acc0);
      acc1 = _mm256_fmadd_ps(d1, d1, acc1);
    }
    const float s = SqDistTail(ReduceLanes16(acc0, acc1), er, target, j, d);
    alpha[i] = neg_coeffs[i] * s;
  }
  // ISA-independent stable softmax (single implementation in kernels.cc).
  SoftmaxForward(l, alpha, alpha);
}

void AttentionSoftmaxBackward(int64_t l, int64_t d, const float* g,
                              const float* alpha, const float* emb,
                              const float* target, const float* neg_coeffs,
                              float* gemb, float* gtarget) {
  const float dot = DotAvx2(g, alpha, l);
  for (int64_t i = 0; i < l; ++i) {
    const float ds = alpha[i] * (g[i] - dot);
    const float ddist = ds * neg_coeffs[i];
    const float two_ddist = 2.0f * ddist;
    const float* er = emb + i * d;
    float* ger = gemb + i * d;
    const __m256 td = _mm256_set1_ps(two_ddist);
    int64_t j = 0;
    for (; j + 8 <= d; j += 8) {
      const __m256 diff =
          _mm256_sub_ps(_mm256_loadu_ps(er + j), _mm256_loadu_ps(target + j));
      _mm256_storeu_ps(ger + j,
                       _mm256_fmadd_ps(td, diff, _mm256_loadu_ps(ger + j)));
      _mm256_storeu_ps(
          gtarget + j,
          _mm256_fnmadd_ps(td, diff, _mm256_loadu_ps(gtarget + j)));
    }
    AttnBackwardSpan(j, d, two_ddist, er, target, ger, gtarget);
  }
}

}  // namespace ehna::kernels::avx2

namespace ehna::kernels {

const KernelTable* Avx2KernelsOrNull() {
  static const KernelTable table = {
      avx2::GemmNN,
      avx2::GemmNT,
      avx2::GemmTN,
      avx2::GemmTNSegments,
      avx2::Gemv,
      avx2::GemvT,
      avx2::Dot,
      avx2::LstmGateForward,
      avx2::LstmGateBackward,
      avx2::AttentionSoftmaxForward,
      avx2::AttentionSoftmaxBackward,
      avx2::DotI8,
      avx2::GemvI8,
      avx2::DotBf16,
      avx2::GemvBf16,
  };
  return &table;
}

}  // namespace ehna::kernels
