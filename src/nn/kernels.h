#ifndef EHNA_NN_KERNELS_H_
#define EHNA_NN_KERNELS_H_

#include <cstdint>

namespace ehna::kernels {

// Compute layer under the autodiff stack (DESIGN.md §9). Every dense loop
// in nn/ and core/ routes through these kernels; op code holds no matmul
// or activation loops of its own. The kernels operate on raw row-major
// float32 buffers so they are reusable from forward passes, backward
// closures, and optimizers alike, and are trivially benchmarkable
// (bench/bench_nn_kernels.cc).
//
// Determinism contract: each kernel uses one fixed, documented
// accumulation order, independent of data values (no zero-skipping) and
// of how many trainer threads exist (kernels are single-threaded; the
// trainer parallelizes across replicas, never inside a kernel). Two
// orders are used:
//  - GEMM/GEMV/reduction kernels that write one output element per inner
//    product accumulate partial products with 16 vertical fp32 lanes
//    (lane l sums elements i where i mod 16 == l, each lane in strictly
//    increasing i) combined in a fixed pairwise tree (8, 4, 2, 1), with a
//    strictly-increasing tail; or
//  - kernels that stream rank-1 updates into an output row (GemmNN,
//    GemmTN, GemvT) add contributions in strictly increasing k per output
//    element; GemmTNSegments runs one such chain per segment and adds the
//    segments' results in list order.
// Given identical inputs the outputs are bitwise identical run-to-run,
// across thread counts, and across batch shards.
//
// ISA dispatch: the hot set below (the GEMM/GEMV/Dot group, the fused LSTM
// gates, and the fused attention softmax) is implemented once per ISA —
// a pinned-scalar reference and hand-written AVX2/FMA microkernels — and
// routed through a per-process function-pointer table selected at first
// use (nn/cpu_dispatch.h; override with EHNA_KERNEL_ISA=scalar|avx2). Both
// implementations realize the accumulation orders above with identical
// fused-multiply-add placement, so the determinism contract extends across
// ISAs: scalar and AVX2 runs produce bitwise-identical outputs, enforced
// by tests/kernels_isa_test.cc and the kernel-isa-equivalence CI job. The
// fused LSTM/attention kernels evaluate exp/sigmoid/tanh with a pinned
// polynomial (kernels_common.h), not libm, as libm's scalar curves cannot
// be reproduced lanewise in vector code.

// ------------------------------------------------------------------ GEMM

/// c[m,n] (+)= a[m,k] @ b[k,n]. Cache-blocked over k and n panels;
/// accumulation order per output element is strictly increasing k.
void GemmNN(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
            float* c, bool accumulate);

/// c[m,n] (+)= a[m,k] @ b[n,k]^T (rows of b are the reduction vectors).
void GemmNT(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
            float* c, bool accumulate);

/// c[m,n] (+)= a[k,m]^T @ b[k,n].
void GemmTN(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
            float* c, bool accumulate);

/// One row block of GemmTNSegments: a[k,m] and b[k,n], row-major.
struct GemmTNSegment {
  const float* a;
  const float* b;
  int64_t k;
};

/// c[m,n] (+)= Σ_s a_s^T @ b_s, folded one segment at a time in list
/// order. Per output element, segment s contributes u_s — one fma chain
/// over its rows in ascending order, starting from +0 — via c = c + u_s;
/// with `accumulate` false the first segment is stored (c = u_0) instead.
/// Bitwise equal to, per segment, GemmTN(accumulate=false) into a fresh
/// tensor followed by an elementwise Add into c (or a copy, for the first
/// segment when not accumulating). No segments and no `accumulate` zeroes c.
void GemmTNSegments(int64_t m, int64_t n, const GemmTNSegment* segs,
                    int64_t num_segs, float* c, bool accumulate);

/// y[m] (+)= a[m,n] @ x[n].
void Gemv(int64_t m, int64_t n, const float* a, const float* x, float* y,
          bool accumulate);

/// y[n] (+)= a[m,n]^T @ x[m].
void GemvT(int64_t m, int64_t n, const float* a, const float* x, float* y,
           bool accumulate);

/// <x, y> with the documented 16-lane vertical accumulation order.
float Dot(const float* x, const float* y, int64_t n);

// ------------------------------------------- reduced-precision (serving)
//
// Scoring kernels for the quantized serving tier (nn/quant.h, DESIGN.md
// §14). ISA-dispatched like the hot set above, with the same bitwise
// cross-ISA guarantee: the int8 kernels accumulate exactly in int32 (any
// lane arrangement gives identical bits; callers keep n <= 2^17 so the
// sum cannot wrap), and the bf16 kernels widen each stored uint16 to fp32
// by an exact bit shift and then run the documented 16-lane fma order.

/// Σ x_i · y_i in int32 over int8 operands.
int32_t DotI8(const int8_t* x, const int8_t* y, int64_t n);

/// y[r] = <a_row_r, x> for `rows` contiguous int8 rows of width n.
void GemvI8(int64_t rows, int64_t n, const int8_t* a, const int8_t* x,
            int32_t* y);

/// Σ widen(x_i) · y_i over a bf16 row and an fp32 query.
float DotBf16(const uint16_t* x, const float* y, int64_t n);

/// y[r] = <widen(a_row_r), x> for `rows` contiguous bf16 rows of width n.
void GemvBf16(int64_t rows, int64_t n, const uint16_t* a, const float* x,
              float* y);

// ---------------------------------------------------- elementwise / BLAS1

void Fill(float* x, int64_t n, float value);
void Copy(const float* src, float* dst, int64_t n);
/// y += alpha * x.
void Axpy(int64_t n, float alpha, const float* x, float* y);
/// out = alpha * x (write, not accumulate; `out` may alias `x`).
void ScaledCopy(int64_t n, float alpha, const float* x, float* out);
/// out = w*a + (1-w)*b for a scalar weight w (row select/blend).
void Lerp(int64_t n, float w, const float* a, const float* b, float* out);
/// x *= alpha.
void Scale(int64_t n, float alpha, float* x);
/// out = a + b / a - b / a * b (elementwise; `out` may alias `a` or `b`).
void Add(int64_t n, const float* a, const float* b, float* out);
void Sub(int64_t n, const float* a, const float* b, float* out);
void Mul(int64_t n, const float* a, const float* b, float* out);
/// out = a * b + c (elementwise fused chain; `out` may alias inputs).
void MulAdd(int64_t n, const float* a, const float* b, const float* c,
            float* out);
/// out = x + value.
void AddScalar(int64_t n, const float* x, float value, float* out);
/// Strictly-increasing-index scalar sum.
float Sum(const float* x, int64_t n);
/// Σ x_i^2 accumulated in double, increasing index.
double SumSquares(const float* x, int64_t n);

// -------------------------------------------------------------- optimizer

/// Fused Adam update, one pass over the parameter: given the gradient g and
/// precomputed bias corrections bc1/bc2, updates the moments m, v and the
/// parameter p in place:
///   m = beta1*m + (1-beta1)*g
///   v = beta2*v + (1-beta2)*g^2
///   p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)
void AdamUpdate(int64_t n, float lr, float beta1, float beta2, float eps,
                float bc1, float bc2, const float* g, float* m, float* v,
                float* p);

// ------------------------------------------------------------ activations

/// Forward maps (out may alias x); backward maps compute gx from the
/// upstream gradient g and the forward *output* y (or input x for Log /
/// LogSigmoid), writing (not accumulating) into gx, which may alias g.
void SigmoidForward(int64_t n, const float* x, float* out);
void SigmoidBackward(int64_t n, const float* g, const float* y, float* gx);
void TanhForward(int64_t n, const float* x, float* out);
void TanhBackward(int64_t n, const float* g, const float* y, float* gx);
void ReluForward(int64_t n, const float* x, float* out);
void ReluBackward(int64_t n, const float* g, const float* y, float* gx);
void ExpForward(int64_t n, const float* x, float* out);
void ExpBackward(int64_t n, const float* g, const float* y, float* gx);
void LogForward(int64_t n, const float* x, float* out);
void LogBackward(int64_t n, const float* g, const float* x, float* gx);
void LogSigmoidForward(int64_t n, const float* x, float* out);
void LogSigmoidBackward(int64_t n, const float* g, const float* x, float* gx);

/// Numerically stable softmax over a length-n vector (max-shifted).
void SoftmaxForward(int64_t n, const float* x, float* out);
/// gx = y * (g - <g, y>).
void SoftmaxBackward(int64_t n, const float* g, const float* y, float* gx);

// ------------------------------------------------------- batch-norm rows

/// out = 1 / sqrt(x + eps), elementwise.
void InvSqrt(int64_t n, const float* x, float eps, float* out);

/// out = gamma * (x - mean) * inv_std + beta over one feature row.
void BatchNormApplyRow(int64_t f, const float* x, const float* mean,
                       const float* inv_std, const float* gamma,
                       const float* beta, float* out);

/// xhat = (x - mean) * inv_std over one feature row.
void NormalizeRow(int64_t f, const float* x, const float* mean,
                  const float* inv_std, float* xhat);

/// Fused per-row batch-norm input gradient (training statistics):
///   dx = inv_std * inv_b * (batch * g*gamma - sum_dxhat
///                           - xhat * sum_dxhat_xhat)
void BatchNormBackwardRow(int64_t f, float batch, float inv_b, const float* g,
                          const float* gamma, const float* xhat,
                          const float* inv_std, const float* sum_dxhat,
                          const float* sum_dxhat_xhat, float* dx);

// ------------------------------------------------------- fused LSTM gates

/// Fused LSTM gate kernel: one pass over the batch computing the i/f/g/o
/// activations and the cell update (Algorithm 1's stacked-LSTM step).
///
///   z [b,4h] : pre-activations, column blocks i|f|g|o
///   c_prev [b,h]
///   ifgo [b,4h] : OUT, activated gates (stashed for backward)
///   tanh_c [b,h]: OUT, tanh of the new cell state (stashed for backward)
///   hc [b,2h]   : OUT, columns [0,h) = new hidden state h', columns
///                 [h,2h) = new cell state c'
void LstmGateForward(int64_t b, int64_t h, const float* z,
                     const float* c_prev, float* ifgo, float* tanh_c,
                     float* hc);

/// Backward of LstmGateForward. `ghc` [b,2h] packs dL/dh' | dL/dc'.
/// Writes dL/dz into gz [b,4h] and dL/dc_prev into gc_prev [b,h].
void LstmGateBackward(int64_t b, int64_t h, const float* ghc,
                      const float* ifgo, const float* tanh_c,
                      const float* c_prev, float* gz, float* gc_prev);

// -------------------------------------------------- fused attention score

/// Fused node/walk attention weights (Eqs. 3-4): for each of the l rows of
/// emb [l,d], computes the squared distance to target [d], scales by
/// neg_coeffs [l] (the negated temporal coefficients), and applies a
/// stable softmax over the l logits. Writes the attention weights to
/// alpha [l] in one pass.
void AttentionSoftmaxForward(int64_t l, int64_t d, const float* emb,
                             const float* target, const float* neg_coeffs,
                             float* alpha);

/// Backward of AttentionSoftmaxForward: given upstream g [l] and the
/// forward output alpha, accumulates (+=) into gemb [l,d] and gtarget [d].
/// The squared-distance rows are recomputed from emb/target rather than
/// stashed.
void AttentionSoftmaxBackward(int64_t l, int64_t d, const float* g,
                              const float* alpha, const float* emb,
                              const float* target, const float* neg_coeffs,
                              float* gemb, float* gtarget);

}  // namespace ehna::kernels

#endif  // EHNA_NN_KERNELS_H_
