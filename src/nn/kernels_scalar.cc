#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "nn/cpu_dispatch.h"
#include "nn/kernels.h"
#include "nn/kernels_common.h"

// Pinned-scalar reference implementations of the dispatched kernel hot set
// (DESIGN.md §9). This translation unit is the ground truth the AVX2 TU
// must match bit-for-bit: every multiply-accumulate is an explicit
// std::fmaf in the documented order, and the build compiles this file with
// -fno-tree-vectorize -ffp-contract=off so the compiler neither widens the
// loops nor re-fuses any arithmetic — what is written here is exactly what
// executes, on any host. (On CPUs with hardware FMA, fmaf inlines to the
// scalar fused instruction; without one, libm's correctly-rounded software
// fmaf keeps the results identical, merely slower.)

namespace ehna::kernels::scalar {

namespace {

// Cache panels, as in the pre-dispatch blocked kernels: kNc-column B/C
// panels stay L1-resident across a k sweep, kKc bounds the k panel.
constexpr int64_t kNc = 256;
constexpr int64_t kKc = 256;
constexpr int64_t kMr = 4;

}  // namespace

void GemmNN(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
            float* c, bool accumulate) {
  if (!accumulate) std::memset(c, 0, static_cast<size_t>(m * n) * 4);
  for (int64_t jc = 0; jc < n; jc += kNc) {
    const int64_t jend = std::min(jc + kNc, n);
    for (int64_t kc = 0; kc < k; kc += kKc) {
      const int64_t kend = std::min(kc + kKc, k);
      int64_t i = 0;
      // kMr-row tile: every B row read feeds kMr output rows. Per output
      // element the accumulation is one fma chain in ascending k.
      for (; i + kMr <= m; i += kMr) {
        const float* __restrict a0 = a + (i + 0) * k;
        const float* __restrict a1 = a + (i + 1) * k;
        const float* __restrict a2 = a + (i + 2) * k;
        const float* __restrict a3 = a + (i + 3) * k;
        float* __restrict c0 = c + (i + 0) * n;
        float* __restrict c1 = c + (i + 1) * n;
        float* __restrict c2 = c + (i + 2) * n;
        float* __restrict c3 = c + (i + 3) * n;
        for (int64_t kk = kc; kk < kend; ++kk) {
          const float* __restrict brow = b + kk * n;
          const float v0 = a0[kk], v1 = a1[kk], v2 = a2[kk], v3 = a3[kk];
          for (int64_t j = jc; j < jend; ++j) {
            const float bj = brow[j];
            c0[j] = std::fmaf(v0, bj, c0[j]);
            c1[j] = std::fmaf(v1, bj, c1[j]);
            c2[j] = std::fmaf(v2, bj, c2[j]);
            c3[j] = std::fmaf(v3, bj, c3[j]);
          }
        }
      }
      for (; i < m; ++i) {
        const float* __restrict arow = a + i * k;
        float* __restrict crow = c + i * n;
        for (int64_t kk = kc; kk < kend; ++kk) {
          const float* __restrict brow = b + kk * n;
          const float v = arow[kk];
          for (int64_t j = jc; j < jend; ++j) {
            crow[j] = std::fmaf(v, brow[j], crow[j]);
          }
        }
      }
    }
  }
}

void GemmNT(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
            float* c, bool accumulate) {
  for (int64_t i = 0; i < m; ++i) {
    const float* __restrict arow = a + i * k;
    float* __restrict crow = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float dot = detail::DotLanes16(arow, b + j * k, k);
      crow[j] = accumulate ? crow[j] + dot : dot;
    }
  }
}

void GemmTN(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
            float* c, bool accumulate) {
  if (!accumulate) std::memset(c, 0, static_cast<size_t>(m * n) * 4);
  // Rank-1 updates in ascending k; i/j panels keep the updated C tile hot.
  for (int64_t ic = 0; ic < m; ic += kNc) {
    const int64_t iend = std::min(ic + kNc, m);
    for (int64_t jc = 0; jc < n; jc += kNc) {
      const int64_t jend = std::min(jc + kNc, n);
      for (int64_t kk = 0; kk < k; ++kk) {
        const float* __restrict arow = a + kk * m;
        const float* __restrict brow = b + kk * n;
        for (int64_t i = ic; i < iend; ++i) {
          const float v = arow[i];
          float* __restrict crow = c + i * n;
          for (int64_t j = jc; j < jend; ++j) {
            crow[j] = std::fmaf(v, brow[j], crow[j]);
          }
        }
      }
    }
  }
}

void GemmTNSegments(int64_t m, int64_t n, const GemmTNSegment* segs,
                    int64_t num_segs, float* c, bool accumulate) {
  const size_t size = static_cast<size_t>(m * n);
  if (num_segs == 0) {
    if (!accumulate) std::memset(c, 0, size * 4);
    return;
  }
  // The definition, literally: each segment's GemmTN from +0 into u, then
  // c = c + u (or c = u for a non-accumulating first segment).
  std::vector<float> u(size);
  for (int64_t s = 0; s < num_segs; ++s) {
    GemmTN(m, n, segs[s].k, segs[s].a, segs[s].b, u.data(),
           /*accumulate=*/false);
    if (s == 0 && !accumulate) {
      std::memcpy(c, u.data(), size * 4);
    } else {
      for (size_t e = 0; e < size; ++e) c[e] = c[e] + u[e];
    }
  }
}

void Gemv(int64_t m, int64_t n, const float* a, const float* x, float* y,
          bool accumulate) {
  for (int64_t i = 0; i < m; ++i) {
    const float dot = detail::DotLanes16(a + i * n, x, n);
    y[i] = accumulate ? y[i] + dot : dot;
  }
}

void GemvT(int64_t m, int64_t n, const float* a, const float* x, float* y,
           bool accumulate) {
  if (!accumulate) std::memset(y, 0, static_cast<size_t>(n) * 4);
  for (int64_t i = 0; i < m; ++i) {
    const float* __restrict arow = a + i * n;
    const float v = x[i];
    for (int64_t j = 0; j < n; ++j) y[j] = std::fmaf(v, arow[j], y[j]);
  }
}

float Dot(const float* x, const float* y, int64_t n) {
  return detail::DotLanes16(x, y, n);
}

void LstmGateForward(int64_t b, int64_t h, const float* z, const float* c_prev,
                     float* ifgo, float* tanh_c, float* hc) {
  for (int64_t r = 0; r < b; ++r) {
    detail::LstmGateForwardSpan(0, h, h, z + r * 4 * h, c_prev + r * h,
                                ifgo + r * 4 * h, tanh_c + r * h,
                                hc + r * 2 * h, hc + r * 2 * h + h);
  }
}

void LstmGateBackward(int64_t b, int64_t h, const float* ghc,
                      const float* ifgo, const float* tanh_c,
                      const float* c_prev, float* gz, float* gc_prev) {
  for (int64_t r = 0; r < b; ++r) {
    const float* gh = ghc + r * 2 * h;
    detail::LstmGateBackwardSpan(0, h, h, gh, gh + h, ifgo + r * 4 * h,
                                 tanh_c + r * h, c_prev + r * h, gz + r * 4 * h,
                                 gc_prev + r * h);
  }
}

int32_t DotI8(const int8_t* x, const int8_t* y, int64_t n) {
  return detail::DotI8Tail(0, x, y, 0, n);
}

void GemvI8(int64_t rows, int64_t n, const int8_t* a, const int8_t* x,
            int32_t* y) {
  for (int64_t r = 0; r < rows; ++r) {
    y[r] = detail::DotI8Tail(0, a + r * n, x, 0, n);
  }
}

float DotBf16(const uint16_t* x, const float* y, int64_t n) {
  return detail::DotBf16Lanes16(x, y, n);
}

void GemvBf16(int64_t rows, int64_t n, const uint16_t* a, const float* x,
              float* y) {
  for (int64_t r = 0; r < rows; ++r) {
    y[r] = detail::DotBf16Lanes16(a + r * n, x, n);
  }
}

void AttentionSoftmaxForward(int64_t l, int64_t d, const float* emb,
                             const float* target, const float* neg_coeffs,
                             float* alpha) {
  for (int64_t i = 0; i < l; ++i) {
    alpha[i] = neg_coeffs[i] * detail::SqDistLanes16(emb + i * d, target, d);
  }
  // Stable softmax in place; ISA-independent (single implementation in
  // kernels.cc), so both tables share its bits exactly.
  SoftmaxForward(l, alpha, alpha);
}

void AttentionSoftmaxBackward(int64_t l, int64_t d, const float* g,
                              const float* alpha, const float* emb,
                              const float* target, const float* neg_coeffs,
                              float* gemb, float* gtarget) {
  const float dot = detail::DotLanes16(g, alpha, l);
  for (int64_t i = 0; i < l; ++i) {
    const float ds = alpha[i] * (g[i] - dot);
    const float ddist = ds * neg_coeffs[i];
    const float two_ddist = 2.0f * ddist;
    detail::AttnBackwardSpan(0, d, two_ddist, emb + i * d, target, gemb + i * d,
                             gtarget);
  }
}

}  // namespace ehna::kernels::scalar

namespace ehna::kernels {

const KernelTable& ScalarKernels() {
  static const KernelTable table = {
      scalar::GemmNN,
      scalar::GemmNT,
      scalar::GemmTN,
      scalar::GemmTNSegments,
      scalar::Gemv,
      scalar::GemvT,
      scalar::Dot,
      scalar::LstmGateForward,
      scalar::LstmGateBackward,
      scalar::AttentionSoftmaxForward,
      scalar::AttentionSoftmaxBackward,
      scalar::DotI8,
      scalar::GemvI8,
      scalar::DotBf16,
      scalar::GemvBf16,
  };
  return table;
}

}  // namespace ehna::kernels
