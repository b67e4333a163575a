#ifndef EHNA_NN_CPU_DISPATCH_H_
#define EHNA_NN_CPU_DISPATCH_H_

#include <cstdint>
#include <string>

// Runtime CPU-feature dispatch for the dense kernel hot set (DESIGN.md §9).
// One binary carries several implementations of the kernels below — a
// portable pinned-scalar reference and, when compiled in, hand-written
// AVX2/FMA microkernels — and picks one per-process function-pointer table
// at first use. Both tables implement the same fixed accumulation orders,
// so the choice never changes a single output bit; it only changes speed
// (tests/kernels_isa_test.cc and the kernel-isa-equivalence CI job enforce
// this bitwise).
//
// Selection policy (resolved once, at the first kernel call):
//   EHNA_KERNEL_ISA=scalar   force the scalar reference table
//   EHNA_KERNEL_ISA=avx2     force AVX2 (fatal if the CPU lacks AVX2/FMA or
//                            the build omitted the AVX2 TU — a forced run
//                            must never silently fall back, or the CI
//                            equivalence gate would compare scalar against
//                            itself)
//   unset / "auto"           AVX2 when compiled in and the CPU supports
//                            AVX2+FMA, scalar otherwise
// The selected ISA is logged once and exported through the metrics registry
// as the gauge "kernels.isa.avx2" (1 when the AVX2 table is active).

namespace ehna::kernels {

enum class KernelIsa { kScalar = 0, kAvx2 = 1 };

struct GemmTNSegment;  // nn/kernels.h

const char* KernelIsaName(KernelIsa isa);

/// Per-kernel function pointers for the dispatched hot set. Signatures
/// mirror the public kernels.h entry points (which are now thin wrappers
/// around the active table).
struct KernelTable {
  void (*gemm_nn)(int64_t m, int64_t n, int64_t k, const float* a,
                  const float* b, float* c, bool accumulate);
  void (*gemm_nt)(int64_t m, int64_t n, int64_t k, const float* a,
                  const float* b, float* c, bool accumulate);
  void (*gemm_tn)(int64_t m, int64_t n, int64_t k, const float* a,
                  const float* b, float* c, bool accumulate);
  void (*gemm_tn_segments)(int64_t m, int64_t n, const GemmTNSegment* segs,
                           int64_t num_segs, float* c, bool accumulate);
  void (*gemv)(int64_t m, int64_t n, const float* a, const float* x, float* y,
               bool accumulate);
  void (*gemv_t)(int64_t m, int64_t n, const float* a, const float* x,
                 float* y, bool accumulate);
  float (*dot)(const float* x, const float* y, int64_t n);
  void (*lstm_gate_forward)(int64_t b, int64_t h, const float* z,
                            const float* c_prev, float* ifgo, float* tanh_c,
                            float* hc);
  void (*lstm_gate_backward)(int64_t b, int64_t h, const float* ghc,
                             const float* ifgo, const float* tanh_c,
                             const float* c_prev, float* gz, float* gc_prev);
  void (*attention_softmax_forward)(int64_t l, int64_t d, const float* emb,
                                    const float* target,
                                    const float* neg_coeffs, float* alpha);
  void (*attention_softmax_backward)(int64_t l, int64_t d, const float* g,
                                     const float* alpha, const float* emb,
                                     const float* target,
                                     const float* neg_coeffs, float* gemb,
                                     float* gtarget);
  // Reduced-precision serving kernels (DESIGN.md §14). The int8 kernels
  // accumulate exactly in int32 (integer addition is associative, so any
  // lane arrangement yields the same bits; inputs are bounded so the sum
  // cannot overflow below n = 2^17). The bf16 kernels widen each stored
  // uint16 to fp32 exactly (bit shift) and then run the documented 16-lane
  // fma reduction, so scalar and AVX2 agree bitwise like the fp32 dot.
  int32_t (*dot_i8)(const int8_t* x, const int8_t* y, int64_t n);
  void (*gemv_i8)(int64_t rows, int64_t n, const int8_t* a, const int8_t* x,
                  int32_t* y);
  float (*dot_bf16)(const uint16_t* x, const float* y, int64_t n);
  void (*gemv_bf16)(int64_t rows, int64_t n, const uint16_t* a,
                    const float* x, float* y);
};

/// The pinned-scalar reference table (always available).
const KernelTable& ScalarKernels();

/// The AVX2/FMA table, or nullptr when the build omitted kernels_avx2.cc
/// (EHNA_DISABLE_AVX2=ON or a non-x86 target). Callers must still check
/// CpuSupportsAvx2Fma() before executing through a non-null pointer.
const KernelTable* Avx2KernelsOrNull();

/// True when this build compiled the AVX2 translation unit.
bool Avx2KernelsCompiled();

/// cpuid probe: does the host support both AVX2 and FMA?
bool CpuSupportsAvx2Fma();

/// Pure selection policy, unit-testable without touching process state.
/// `env` is the EHNA_KERNEL_ISA value (may be null). On a forced ISA that
/// is unavailable, `ok` is false and `note` says why; the process-level
/// resolver treats that as fatal.
struct IsaDecision {
  KernelIsa isa = KernelIsa::kScalar;
  bool forced = false;
  bool ok = true;
  std::string note;
};
IsaDecision ResolveKernelIsa(const char* env, bool cpu_ok, bool compiled);

/// The process-wide active table, resolved once from the environment and
/// cpuid on first call (fatal on a forced-but-unavailable ISA).
const KernelTable& ActiveKernels();

/// The ISA behind ActiveKernels().
KernelIsa ActiveIsa();

}  // namespace ehna::kernels

#endif  // EHNA_NN_CPU_DISPATCH_H_
