#include "nn/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "nn/cpu_dispatch.h"
#include "util/metrics.h"

// The dense hot set (GEMM/GEMV/Dot, LSTM gates, attention softmax) lives in
// per-ISA translation units — kernels_scalar.cc and kernels_avx2.cc — and
// the entry points here are thin wrappers that count metrics and jump
// through the runtime-dispatched table (nn/cpu_dispatch.h). Both tables
// honor the same fixed accumulation orders, so which one runs is invisible
// in the output bits. Everything below the wrappers is ISA-independent
// elementwise code that the compiler vectorizes fine on its own.

namespace ehna::kernels {

namespace {

Counter* GemmCalls() {
  static Counter* const c =
      MetricsRegistry::Global().GetCounter("kernels.gemm.calls");
  return c;
}
Counter* GemmFlops() {
  static Counter* const c =
      MetricsRegistry::Global().GetCounter("kernels.gemm.flops");
  return c;
}
Counter* GemvCalls() {
  static Counter* const c =
      MetricsRegistry::Global().GetCounter("kernels.gemv.calls");
  return c;
}
Counter* LstmGateCalls() {
  static Counter* const c =
      MetricsRegistry::Global().GetCounter("kernels.lstm_gate.calls");
  return c;
}
Counter* AttentionCalls() {
  static Counter* const c =
      MetricsRegistry::Global().GetCounter("kernels.attention.calls");
  return c;
}

inline void CountGemm(int64_t m, int64_t n, int64_t k) {
  GemmCalls()->Add(1);
  GemmFlops()->Add(static_cast<uint64_t>(2 * m * n * k));
}

}  // namespace

void GemmNN(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
            float* c, bool accumulate) {
  CountGemm(m, n, k);
  ActiveKernels().gemm_nn(m, n, k, a, b, c, accumulate);
}

void GemmNT(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
            float* c, bool accumulate) {
  CountGemm(m, n, k);
  ActiveKernels().gemm_nt(m, n, k, a, b, c, accumulate);
}

void GemmTN(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
            float* c, bool accumulate) {
  CountGemm(m, n, k);
  ActiveKernels().gemm_tn(m, n, k, a, b, c, accumulate);
}

void GemmTNSegments(int64_t m, int64_t n, const GemmTNSegment* segs,
                    int64_t num_segs, float* c, bool accumulate) {
  int64_t rows = 0;
  for (int64_t s = 0; s < num_segs; ++s) rows += segs[s].k;
  CountGemm(m, n, rows);
  ActiveKernels().gemm_tn_segments(m, n, segs, num_segs, c, accumulate);
}

void Gemv(int64_t m, int64_t n, const float* a, const float* x, float* y,
          bool accumulate) {
  GemvCalls()->Add(1);
  ActiveKernels().gemv(m, n, a, x, y, accumulate);
}

void GemvT(int64_t m, int64_t n, const float* a, const float* x, float* y,
           bool accumulate) {
  GemvCalls()->Add(1);
  ActiveKernels().gemv_t(m, n, a, x, y, accumulate);
}

float Dot(const float* x, const float* y, int64_t n) {
  return ActiveKernels().dot(x, y, n);
}

int32_t DotI8(const int8_t* x, const int8_t* y, int64_t n) {
  return ActiveKernels().dot_i8(x, y, n);
}

void GemvI8(int64_t rows, int64_t n, const int8_t* a, const int8_t* x,
            int32_t* y) {
  ActiveKernels().gemv_i8(rows, n, a, x, y);
}

float DotBf16(const uint16_t* x, const float* y, int64_t n) {
  return ActiveKernels().dot_bf16(x, y, n);
}

void GemvBf16(int64_t rows, int64_t n, const uint16_t* a, const float* x,
              float* y) {
  ActiveKernels().gemv_bf16(rows, n, a, x, y);
}

void Fill(float* x, int64_t n, float value) {
  if (value == 0.0f) {
    std::memset(x, 0, static_cast<size_t>(n) * sizeof(float));
  } else {
    for (int64_t i = 0; i < n; ++i) x[i] = value;
  }
}

void Copy(const float* src, float* dst, int64_t n) {
  std::memcpy(dst, src, static_cast<size_t>(n) * sizeof(float));
}

void Axpy(int64_t n, float alpha, const float* __restrict x,
          float* __restrict y) {
  for (int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void Scale(int64_t n, float alpha, float* x) {
  for (int64_t i = 0; i < n; ++i) x[i] *= alpha;
}

void ScaledCopy(int64_t n, float alpha, const float* x, float* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = alpha * x[i];
}

void Lerp(int64_t n, float w, const float* a, const float* b, float* out) {
  // Endpoint fast paths: mask rows blend with w ∈ {0, 1} almost always, and
  // a straight copy is both faster and exact (no 0*x term that could
  // perturb signed zeros differently between callers).
  if (w == 1.0f) {
    Copy(a, out, n);
    return;
  }
  if (w == 0.0f) {
    Copy(b, out, n);
    return;
  }
  const float wb = 1.0f - w;
  for (int64_t i = 0; i < n; ++i) out[i] = w * a[i] + wb * b[i];
}

void InvSqrt(int64_t n, const float* x, float eps, float* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = 1.0f / std::sqrt(x[i] + eps);
}

void BatchNormApplyRow(int64_t f, const float* x, const float* mean,
                       const float* inv_std, const float* gamma,
                       const float* beta, float* out) {
  for (int64_t j = 0; j < f; ++j) {
    out[j] = gamma[j] * (x[j] - mean[j]) * inv_std[j] + beta[j];
  }
}

void NormalizeRow(int64_t f, const float* x, const float* mean,
                  const float* inv_std, float* xhat) {
  for (int64_t j = 0; j < f; ++j) xhat[j] = (x[j] - mean[j]) * inv_std[j];
}

void BatchNormBackwardRow(int64_t f, float batch, float inv_b, const float* g,
                          const float* gamma, const float* xhat,
                          const float* inv_std, const float* sum_dxhat,
                          const float* sum_dxhat_xhat, float* dx) {
  for (int64_t j = 0; j < f; ++j) {
    const float dxh = g[j] * gamma[j];
    dx[j] = inv_std[j] * inv_b *
            (batch * dxh - sum_dxhat[j] - xhat[j] * sum_dxhat_xhat[j]);
  }
}

void AdamUpdate(int64_t n, float lr, float beta1, float beta2, float eps,
                float bc1, float bc2, const float* g, float* m, float* v,
                float* p) {
  for (int64_t j = 0; j < n; ++j) {
    m[j] = beta1 * m[j] + (1.0f - beta1) * g[j];
    v[j] = beta2 * v[j] + (1.0f - beta2) * g[j] * g[j];
    const float mhat = m[j] / bc1;
    const float vhat = v[j] / bc2;
    p[j] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

void Add(int64_t n, const float* a, const float* b, float* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void Sub(int64_t n, const float* a, const float* b, float* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void Mul(int64_t n, const float* a, const float* b, float* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void MulAdd(int64_t n, const float* a, const float* b, const float* c,
            float* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] * b[i] + c[i];
}

void AddScalar(int64_t n, const float* x, float value, float* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = x[i] + value;
}

float Sum(const float* x, int64_t n) {
  float s = 0.0f;
  for (int64_t i = 0; i < n; ++i) s += x[i];
  return s;
}

double SumSquares(const float* x, int64_t n) {
  double s = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    s += static_cast<double>(x[i]) * x[i];
  }
  return s;
}

void SigmoidForward(int64_t n, const float* x, float* out) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = 1.0f / (1.0f + std::exp(-x[i]));
  }
}

void SigmoidBackward(int64_t n, const float* g, const float* y, float* gx) {
  for (int64_t i = 0; i < n; ++i) gx[i] = g[i] * y[i] * (1.0f - y[i]);
}

void TanhForward(int64_t n, const float* x, float* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = std::tanh(x[i]);
}

void TanhBackward(int64_t n, const float* g, const float* y, float* gx) {
  for (int64_t i = 0; i < n; ++i) gx[i] = g[i] * (1.0f - y[i] * y[i]);
}

void ReluForward(int64_t n, const float* x, float* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void ReluBackward(int64_t n, const float* g, const float* y, float* gx) {
  for (int64_t i = 0; i < n; ++i) gx[i] = y[i] > 0.0f ? g[i] : 0.0f;
}

void ExpForward(int64_t n, const float* x, float* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = std::exp(x[i]);
}

void ExpBackward(int64_t n, const float* g, const float* y, float* gx) {
  for (int64_t i = 0; i < n; ++i) gx[i] = g[i] * y[i];
}

void LogForward(int64_t n, const float* x, float* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = std::log(x[i]);
}

void LogBackward(int64_t n, const float* g, const float* x, float* gx) {
  for (int64_t i = 0; i < n; ++i) gx[i] = g[i] / x[i];
}

void LogSigmoidForward(int64_t n, const float* x, float* out) {
  for (int64_t i = 0; i < n; ++i) {
    // log sigmoid(x) = -softplus(-x) = min(x,0) - log(1 + exp(-|x|)).
    const float v = x[i];
    out[i] = std::min(v, 0.0f) - std::log1p(std::exp(-std::abs(v)));
  }
}

void LogSigmoidBackward(int64_t n, const float* g, const float* x,
                        float* gx) {
  for (int64_t i = 0; i < n; ++i) {
    // d/dx log sigmoid(x) = sigmoid(-x), in the overflow-safe branch form.
    const float v = x[i];
    const float s = v >= 0.0f ? std::exp(-v) / (1.0f + std::exp(-v))
                              : 1.0f / (1.0f + std::exp(v));
    gx[i] = g[i] * s;
  }
}

void SoftmaxForward(int64_t n, const float* x, float* out) {
  float mx = x[0];
  for (int64_t i = 1; i < n; ++i) mx = std::max(mx, x[i]);
  float total = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    out[i] = std::exp(x[i] - mx);
    total += out[i];
  }
  Scale(n, 1.0f / total, out);
}

void SoftmaxBackward(int64_t n, const float* g, const float* y, float* gx) {
  const float dot = Dot(g, y, n);
  for (int64_t i = 0; i < n; ++i) gx[i] = y[i] * (g[i] - dot);
}

void LstmGateForward(int64_t b, int64_t h, const float* z,
                     const float* c_prev, float* ifgo, float* tanh_c,
                     float* hc) {
  LstmGateCalls()->Add(1);
  ActiveKernels().lstm_gate_forward(b, h, z, c_prev, ifgo, tanh_c, hc);
}

void LstmGateBackward(int64_t b, int64_t h, const float* ghc,
                      const float* ifgo, const float* tanh_c,
                      const float* c_prev, float* gz, float* gc_prev) {
  ActiveKernels().lstm_gate_backward(b, h, ghc, ifgo, tanh_c, c_prev, gz,
                                     gc_prev);
}

void AttentionSoftmaxForward(int64_t l, int64_t d, const float* emb,
                             const float* target, const float* neg_coeffs,
                             float* alpha) {
  AttentionCalls()->Add(1);
  ActiveKernels().attention_softmax_forward(l, d, emb, target, neg_coeffs,
                                            alpha);
}

void AttentionSoftmaxBackward(int64_t l, int64_t d, const float* g,
                              const float* alpha, const float* emb,
                              const float* target, const float* neg_coeffs,
                              float* gemb, float* gtarget) {
  ActiveKernels().attention_softmax_backward(l, d, g, alpha, emb, target,
                                             neg_coeffs, gemb, gtarget);
}

}  // namespace ehna::kernels
