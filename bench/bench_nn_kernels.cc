// Micro-benchmarks of the blocked nn kernel layer (src/nn/kernels.h,
// DESIGN.md §9): GEMM/GEMV GFLOP/s for the naive triple-loop formulation
// vs the blocked kernels, and per-step LSTM latency for the pre-refactor
// op-by-op graph chain vs the fused LstmPreact/LstmGates pair (with and
// without the tape arena). Results print as TableWriter tables plus the
// kernel-call counters from the observability layer.
//
// EHNA_BENCH_SMOKE=1 shrinks the shapes and timing windows so the whole
// binary finishes in a couple of seconds — that mode runs in CI as a
// regression tripwire (the assertions that kernel paths match the naive
// reference still execute), while the default mode produces the numbers
// recorded in EXPERIMENTS.md.
// With the ISA dispatch layer (nn/cpu_dispatch.h) the binary also times the
// scalar and AVX2 kernel tables side by side — calling the tables directly,
// so one process measures both ISAs regardless of what the dispatcher
// picked — and asserts their outputs bitwise identical while at it.
//
// --json=PATH writes the per-ISA GFLOP/s records as a small JSON array
// ({bench, shape, isa, metric, value}); CI uploads it as an artifact and
// diffs it against bench/baselines/nn_kernels_ci.json
// (bench/check_bench_regression.py).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "nn/arena.h"
#include "nn/cpu_dispatch.h"
#include "nn/init.h"
#include "nn/kernels.h"
#include "nn/ops.h"
#include "util/metrics.h"
#include "util/table_writer.h"

namespace {

using ehna::Rng;
using ehna::TableWriter;
using ehna::Tensor;
using ehna::TensorArena;
using ehna::UniformInit;
using ehna::Var;
using ehna::kernels::KernelTable;

bool SmokeMode() {
  const char* s = std::getenv("EHNA_BENCH_SMOKE");
  return s != nullptr && s[0] != '\0' && s[0] != '0';
}

// ------------------------------------------------------------- JSON output

struct JsonRecord {
  std::string bench;
  std::string shape;
  std::string isa;
  std::string metric;
  double value;
};

std::vector<JsonRecord>& JsonRecords() {
  static std::vector<JsonRecord> records;
  return records;
}

void AddJsonRecord(const std::string& bench, const std::string& shape,
                   const std::string& isa, const std::string& metric,
                   double value) {
  JsonRecords().push_back({bench, shape, isa, metric, value});
}

void WriteJson(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_nn_kernels: cannot write " << path << "\n";
    std::exit(1);
  }
  out << "[\n";
  const auto& records = JsonRecords();
  for (size_t i = 0; i < records.size(); ++i) {
    const JsonRecord& r = records[i];
    out << "  {\"bench\": \"" << r.bench << "\", \"shape\": \"" << r.shape
        << "\", \"isa\": \"" << r.isa << "\", \"metric\": \"" << r.metric
        << "\", \"value\": " << TableWriter::FormatDouble(r.value, 3) << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "]\n";
}

/// Repeats `fn` until the wall-clock window elapses (at least once) and
/// returns seconds per call. Takes the fastest of three windows: a single
/// averaging window is vulnerable to one scheduler hiccup, which at smoke
/// window sizes is enough to trip the CI perf-regression gate on the
/// smallest shapes.
double TimePerCall(const std::function<void()>& fn, double window_s) {
  fn();  // warm-up, also faults in pages.
  constexpr int kRounds = 3;
  double best = std::numeric_limits<double>::infinity();
  for (int round = 0; round < kRounds; ++round) {
    int iters = 0;
    const auto t0 = std::chrono::steady_clock::now();
    std::chrono::duration<double> elapsed{0.0};
    do {
      fn();
      ++iters;
      elapsed = std::chrono::steady_clock::now() - t0;
    } while (elapsed.count() < window_s);
    best = std::min(best, elapsed.count() / iters);
  }
  return best;
}

/// Reference triple-loop GEMM: the formulation the op layer used before the
/// kernel refactor. Kept here both as the "scalar path" baseline and as a
/// correctness oracle for the blocked kernel.
void NaiveGemm(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
               float* c) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc += a[i * k + kk] * b[kk * n + j];
      c[i * n + j] = acc;
    }
  }
}

void NaiveGemv(int64_t m, int64_t n, const float* a, const float* x,
               float* y) {
  for (int64_t i = 0; i < m; ++i) {
    float acc = 0.0f;
    for (int64_t j = 0; j < n; ++j) acc += a[i * n + j] * x[j];
    y[i] = acc;
  }
}

double MaxAbsDiff(const float* a, const float* b, int64_t n) {
  double max_diff = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    max_diff = std::max(max_diff, std::abs(static_cast<double>(a[i]) - b[i]));
  }
  return max_diff;
}

// GEMM + GEMV throughput, naive vs blocked, one table row per shape.
void BM_KernelGemmGemv(benchmark::State& state) {
  const bool smoke = SmokeMode();
  const double window = smoke ? 0.02 : 0.25;
  const std::vector<int64_t> gemm_sizes =
      smoke ? std::vector<int64_t>{32, 64} : std::vector<int64_t>{64, 128, 256};
  const std::vector<int64_t> gemv_sizes =
      smoke ? std::vector<int64_t>{64} : std::vector<int64_t>{256, 1024};
  Rng rng(11);

  for (auto _ : state) {
    TableWriter table("nn kernels — GEMM/GEMV throughput (GFLOP/s)",
                      {"Kernel", "Shape", "naive", "blocked", "speedup"});
    double last_gemm_speedup = 0.0;

    for (const int64_t n : gemm_sizes) {
      Tensor a(n, n), b(n, n), c_naive(n, n), c_kernel(n, n);
      UniformInit(&a, -1, 1, &rng);
      UniformInit(&b, -1, 1, &rng);
      const double flops = 2.0 * static_cast<double>(n) * n * n;

      const double naive_s = TimePerCall(
          [&] { NaiveGemm(n, n, n, a.data(), b.data(), c_naive.data()); },
          window);
      const double kernel_s = TimePerCall(
          [&] {
            ehna::kernels::GemmNN(n, n, n, a.data(), b.data(), c_kernel.data(),
                                  /*accumulate=*/false);
          },
          window);
      // Same fixed accumulation order contract aside, the two paths must
      // agree to float tolerance — this doubles as a correctness check.
      const double diff = MaxAbsDiff(c_naive.data(), c_kernel.data(), n * n);
      EHNA_CHECK_LT(diff, 1e-3 * n);

      last_gemm_speedup = naive_s / kernel_s;
      table.AddRow({"GemmNN", std::to_string(n) + "^3",
                    TableWriter::FormatDouble(flops / naive_s / 1e9, 2),
                    TableWriter::FormatDouble(flops / kernel_s / 1e9, 2),
                    TableWriter::FormatDouble(last_gemm_speedup, 2)});
    }

    double last_gemv_speedup = 0.0;
    for (const int64_t n : gemv_sizes) {
      Tensor a(n, n), x(n), y_naive(n), y_kernel(n);
      UniformInit(&a, -1, 1, &rng);
      UniformInit(&x, -1, 1, &rng);
      const double flops = 2.0 * static_cast<double>(n) * n;

      const double naive_s = TimePerCall(
          [&] { NaiveGemv(n, n, a.data(), x.data(), y_naive.data()); }, window);
      const double kernel_s = TimePerCall(
          [&] {
            ehna::kernels::Gemv(n, n, a.data(), x.data(), y_kernel.data(),
                                /*accumulate=*/false);
          },
          window);
      EHNA_CHECK_LT(MaxAbsDiff(y_naive.data(), y_kernel.data(), n), 1e-3);

      last_gemv_speedup = naive_s / kernel_s;
      table.AddRow({"Gemv", std::to_string(n) + "x" + std::to_string(n),
                    TableWriter::FormatDouble(flops / naive_s / 1e9, 2),
                    TableWriter::FormatDouble(flops / kernel_s / 1e9, 2),
                    TableWriter::FormatDouble(last_gemv_speedup, 2)});
    }
    table.Print(std::cout);
    state.counters["gemm_speedup"] = last_gemm_speedup;
    state.counters["gemv_speedup"] = last_gemv_speedup;
  }
}
BENCHMARK(BM_KernelGemmGemv)->Iterations(1)->Unit(benchmark::kSecond);

// One LSTM cell step (forward + backward through the tape), three ways:
//  - "op chain":   the pre-refactor graph — MatMul/Add/AddRowBroadcast,
//                  four SliceCols + activations, Mul/Add cell update
//                  (~14 graph nodes per step);
//  - "fused":      LstmPreact + LstmGates (2 nodes), heap tensors;
//  - "fused+arena": same with the tape arena active, as the trainer runs it.
void BM_LstmStepLatency(benchmark::State& state) {
  const bool smoke = SmokeMode();
  const double window = smoke ? 0.05 : 0.5;
  const int64_t batch = smoke ? 4 : 8;
  const int64_t in = smoke ? 16 : 64;
  const int64_t h = smoke ? 16 : 64;
  Rng rng(13);

  Tensor x0(batch, in), wi0(in, 4 * h), h0(batch, h), wh0(h, 4 * h),
      bias0(4 * h), c0(batch, h);
  for (Tensor* t : {&x0, &wi0, &h0, &wh0, &bias0, &c0}) {
    UniformInit(t, -0.5, 0.5, &rng);
  }

  Var wi = Var::Leaf(wi0, true), wh = Var::Leaf(wh0, true);
  Var bias = Var::Leaf(bias0, true);
  const auto zero_grads = [&] {
    wi.ZeroGrad();
    wh.ZeroGrad();
    bias.ZeroGrad();
  };

  const auto chain_step = [&] {
    Var x = Var::Leaf(x0), hp = Var::Leaf(h0), c = Var::Leaf(c0);
    Var gates = ehna::ag::AddRowBroadcast(
        ehna::ag::Add(ehna::ag::MatMul(x, wi), ehna::ag::MatMul(hp, wh)),
        bias);
    Var ig = ehna::ag::Sigmoid(ehna::ag::SliceCols(gates, 0, h));
    Var fg = ehna::ag::Sigmoid(ehna::ag::SliceCols(gates, h, h));
    Var gg = ehna::ag::Tanh(ehna::ag::SliceCols(gates, 2 * h, h));
    Var og = ehna::ag::Sigmoid(ehna::ag::SliceCols(gates, 3 * h, h));
    Var cn = ehna::ag::Add(ehna::ag::Mul(fg, c), ehna::ag::Mul(ig, gg));
    Var hn = ehna::ag::Mul(og, ehna::ag::Tanh(cn));
    Backward(ehna::ag::Sum(hn));
    zero_grads();
  };
  const auto fused_step = [&] {
    Var x = Var::Leaf(x0), hp = Var::Leaf(h0), c = Var::Leaf(c0);
    Var hc = ehna::ag::LstmGates(ehna::ag::LstmPreact(x, wi, hp, wh, bias), c);
    Backward(ehna::ag::Sum(ehna::ag::SliceCols(hc, 0, h)));
    zero_grads();
  };

  for (auto _ : state) {
    const double chain_s = TimePerCall(chain_step, window);
    const double fused_s = TimePerCall(fused_step, window);
    TensorArena arena;
    const double fused_arena_s = TimePerCall(
        [&] {
          {
            TensorArena::Scope scope(&arena);
            fused_step();
          }
          arena.Reset();
        },
        window);

    TableWriter table("nn kernels — LSTM step forward+backward latency (us)",
                      {"Path", "us/step", "speedup vs chain"});
    table.AddRow({"op chain (pre-refactor)",
                  TableWriter::FormatDouble(chain_s * 1e6, 1),
                  TableWriter::FormatDouble(1.0, 2)});
    table.AddRow({"fused kernels", TableWriter::FormatDouble(fused_s * 1e6, 1),
                  TableWriter::FormatDouble(chain_s / fused_s, 2)});
    table.AddRow({"fused kernels + arena",
                  TableWriter::FormatDouble(fused_arena_s * 1e6, 1),
                  TableWriter::FormatDouble(chain_s / fused_arena_s, 2)});
    table.Print(std::cout);

    // The kernel-call counters (DESIGN.md §9) accumulated over this whole
    // process — a quick sanity read on what the paths above dispatched.
    const ehna::MetricsSnapshot snap =
        ehna::MetricsRegistry::Global().Snapshot();
    TableWriter counters("nn kernels — call counters (this process)",
                         {"Counter", "Value"});
    for (const char* name :
         {"kernels.gemm.calls", "kernels.gemm.flops", "kernels.gemv.calls",
          "kernels.lstm_gate.calls", "kernels.attention.calls"}) {
      counters.AddRow({name, std::to_string(static_cast<long long>(
                                 snap.CounterValue(name)))});
    }
    counters.Print(std::cout);

    state.counters["chain_us"] = chain_s * 1e6;
    state.counters["fused_us"] = fused_s * 1e6;
    state.counters["fused_arena_us"] = fused_arena_s * 1e6;
    state.counters["lstm_speedup"] = chain_s / fused_arena_s;
  }
}
BENCHMARK(BM_LstmStepLatency)->Iterations(1)->Unit(benchmark::kSecond);

// The packed-aggregation LSTM step (DESIGN.md §10): several row-blocks
// ("aggregations") either run one cell step each on their own tape, or
// share one packed step over the concatenated rows, with the weight
// gradients replayed per row-slice afterwards — exactly the shape of the
// minibatch-packed trainer hot path. Doubles as a correctness oracle: the
// packed forward rows and the replayed per-slice weight gradients must be
// BITWISE identical to the per-block run (row-local kernels + slice-local
// GemmTN), which is the property the batched trainer's bitwise equivalence
// rests on. The oracle asserts in smoke mode too, so CI trips on any
// kernel change that breaks row locality.
void BM_PackedLstmStep(benchmark::State& state) {
  const bool smoke = SmokeMode();
  const double window = smoke ? 0.05 : 0.5;
  const int64_t in = smoke ? 16 : 64;
  const int64_t h = in;
  const std::vector<int64_t> block_rows = {2, 3, 4};  // ragged pack.
  int64_t total_rows = 0;
  for (int64_t k : block_rows) total_rows += k;
  Rng rng(17);

  Tensor x0(total_rows, in), h0(total_rows, h), c0(total_rows, h);
  Tensor wi0(in, 4 * h), wh0(h, 4 * h), bias0(4 * h);
  for (Tensor* t : {&x0, &h0, &c0, &wi0, &wh0, &bias0}) {
    UniformInit(t, -0.5, 0.5, &rng);
  }
  Var wi = Var::Leaf(wi0, true), wh = Var::Leaf(wh0, true);
  Var bias = Var::Leaf(bias0, true);

  // Runs one LstmPreactNoWeightGrad+LstmGates step over rows
  // [row_off, row_off + rows), then replays the weight gradients from the
  // retained pre-activation grad the way the aggregation sentinel does:
  // slice-local GemmTN into a fresh tensor, Axpy into the accumulator.
  const auto step_block = [&](int64_t row_off, int64_t rows, Tensor* h_out,
                              Tensor* gwi_acc, Tensor* gwh_acc) {
    Tensor xb = Tensor::Uninit(rows, in), hb = Tensor::Uninit(rows, h),
           cb = Tensor::Uninit(rows, h);
    ehna::kernels::Copy(x0.Row(row_off), xb.data(), rows * in);
    ehna::kernels::Copy(h0.Row(row_off), hb.data(), rows * h);
    ehna::kernels::Copy(c0.Row(row_off), cb.data(), rows * h);
    // The inputs require grad (as the real pack's embedding-derived rows
    // do), so gradient reaches z and the replay below has a gz to read.
    Var x = Var::Leaf(std::move(xb), /*requires_grad=*/true);
    Var hp = Var::Leaf(std::move(hb), /*requires_grad=*/true);
    Var c = Var::Leaf(std::move(cb), /*requires_grad=*/true);
    Var z = ehna::ag::LstmPreactNoWeightGrad(x, hp, wi, wh, bias);
    Var hc = ehna::ag::LstmGates(z, c);
    Var hn = ehna::ag::SliceCols(hc, 0, h);
    if (h_out != nullptr) *h_out = hn.value();
    Backward(ehna::ag::Sum(hn));
    const Tensor& gz = z.grad();
    for (int64_t b = 0; b < rows; ++b) {  // each slice replays separately.
      Tensor gwi_s(in, 4 * h), gwh_s(h, 4 * h);
      ehna::kernels::GemmTN(in, 4 * h, 1, x.value().Row(b), gz.Row(b),
                            gwi_s.data(), /*accumulate=*/false);
      ehna::kernels::GemmTN(h, 4 * h, 1, hp.value().Row(b), gz.Row(b),
                            gwh_s.data(), /*accumulate=*/false);
      if (gwi_acc != nullptr) {
        ehna::kernels::Axpy(gwi_s.numel(), 1.0f, gwi_s.data(),
                            gwi_acc->data());
        ehna::kernels::Axpy(gwh_s.numel(), 1.0f, gwh_s.data(),
                            gwh_acc->data());
      }
    }
  };

  // Correctness oracle: per-block vs one packed step, bitwise.
  Tensor h_blocks(total_rows, h), gwi_blocks(in, 4 * h), gwh_blocks(h, 4 * h);
  {
    int64_t off = 0;
    for (int64_t rows : block_rows) {
      Tensor hb;
      step_block(off, rows, &hb, &gwi_blocks, &gwh_blocks);
      ehna::kernels::Copy(hb.data(), h_blocks.Row(off), rows * h);
      off += rows;
    }
  }
  Tensor h_packed, gwi_packed(in, 4 * h), gwh_packed(h, 4 * h);
  step_block(0, total_rows, &h_packed, &gwi_packed, &gwh_packed);
  EHNA_CHECK_EQ(MaxAbsDiff(h_blocks.data(), h_packed.data(), total_rows * h),
                0.0);
  EHNA_CHECK_EQ(
      MaxAbsDiff(gwi_blocks.data(), gwi_packed.data(), gwi_packed.numel()),
      0.0);
  EHNA_CHECK_EQ(
      MaxAbsDiff(gwh_blocks.data(), gwh_packed.data(), gwh_packed.numel()),
      0.0);

  for (auto _ : state) {
    const double per_block_s = TimePerCall(
        [&] {
          int64_t off = 0;
          for (int64_t rows : block_rows) {
            step_block(off, rows, nullptr, nullptr, nullptr);
            off += rows;
          }
        },
        window);
    const double packed_s = TimePerCall(
        [&] { step_block(0, total_rows, nullptr, nullptr, nullptr); }, window);

    TableWriter table(
        "nn kernels — packed LSTM step forward+backward latency (us)",
        {"Path", "us/step", "speedup"});
    table.AddRow({"per-aggregation tapes",
                  TableWriter::FormatDouble(per_block_s * 1e6, 1),
                  TableWriter::FormatDouble(1.0, 2)});
    table.AddRow({"one packed tape",
                  TableWriter::FormatDouble(packed_s * 1e6, 1),
                  TableWriter::FormatDouble(per_block_s / packed_s, 2)});
    table.Print(std::cout);

    state.counters["per_block_us"] = per_block_s * 1e6;
    state.counters["packed_us"] = packed_s * 1e6;
    state.counters["packed_speedup"] = per_block_s / packed_s;
  }
}
BENCHMARK(BM_PackedLstmStep)->Iterations(1)->Unit(benchmark::kSecond);

// -------------------------------------------------- per-ISA kernel tables
//
// Times the scalar and AVX2 dispatch tables head to head by calling the
// tables directly (no dispatcher involved), so a single process measures
// both ISAs, and enforces the cross-ISA bitwise contract on every timed
// shape before timing it — the CI regression run trips immediately if the
// tables ever diverge by one bit.

void ExpectBitwiseEqual(const char* what, const float* ref, const float* got,
                        int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    if (std::memcmp(ref + i, got + i, sizeof(float)) != 0) {
      std::cerr << "FATAL: scalar/avx2 bitwise mismatch in " << what << " at ["
                << i << "]: scalar=" << ref[i] << " avx2=" << got[i] << "\n";
      std::exit(1);
    }
  }
}

void BM_IsaKernelTables(benchmark::State& state) {
  const bool smoke = SmokeMode();
  const double window = smoke ? 0.02 : 0.25;
  const KernelTable& scalar = ehna::kernels::ScalarKernels();
  const KernelTable* avx2 = ehna::kernels::CpuSupportsAvx2Fma()
                                ? ehna::kernels::Avx2KernelsOrNull()
                                : nullptr;
  if (avx2 == nullptr) {
    std::cout << "bench: AVX2 table unavailable on this host — per-ISA rows "
                 "cover scalar only\n";
  }
  Rng rng(19);

  const std::vector<int64_t> gemm_sizes =
      smoke ? std::vector<int64_t>{32, 64} : std::vector<int64_t>{64, 128, 256};

  for (auto _ : state) {
    TableWriter table("nn kernels — ISA dispatch tables (GFLOP/s)",
                      {"Kernel", "Shape", "scalar", "avx2", "speedup"});
    double last_gemm_speedup = 0.0;

    struct GemmVariant {
      const char* name;
      void (*KernelTable::*fn)(int64_t, int64_t, int64_t, const float*,
                               const float*, float*, bool);
    };
    const GemmVariant variants[] = {
        {"gemm_nn", &KernelTable::gemm_nn},
        {"gemm_nt", &KernelTable::gemm_nt},
        {"gemm_tn", &KernelTable::gemm_tn},
    };
    for (const auto& variant : variants) {
      for (const int64_t n : gemm_sizes) {
        Tensor a(n, n), b(n, n), c_ref(n, n), c_avx(n, n);
        UniformInit(&a, -1, 1, &rng);
        UniformInit(&b, -1, 1, &rng);
        const double flops = 2.0 * static_cast<double>(n) * n * n;
        const std::string shape = std::to_string(n) + "^3";
        auto scalar_fn = scalar.*(variant.fn);
        const double scalar_s = TimePerCall(
            [&] { scalar_fn(n, n, n, a.data(), b.data(), c_ref.data(), false); },
            window);
        AddJsonRecord(variant.name, shape, "scalar", "gflops",
                      flops / scalar_s / 1e9);
        std::string avx_cell = "-";
        std::string speedup_cell = "-";
        if (avx2 != nullptr) {
          auto avx2_fn = avx2->*(variant.fn);
          const double avx2_s = TimePerCall(
              [&] {
                avx2_fn(n, n, n, a.data(), b.data(), c_avx.data(), false);
              },
              window);
          ExpectBitwiseEqual(variant.name, c_ref.data(), c_avx.data(), n * n);
          AddJsonRecord(variant.name, shape, "avx2", "gflops",
                        flops / avx2_s / 1e9);
          avx_cell = TableWriter::FormatDouble(flops / avx2_s / 1e9, 2);
          last_gemm_speedup = scalar_s / avx2_s;
          speedup_cell = TableWriter::FormatDouble(last_gemm_speedup, 2);
        }
        table.AddRow({variant.name, shape,
                      TableWriter::FormatDouble(flops / scalar_s / 1e9, 2),
                      avx_cell, speedup_cell});
      }
    }

    // Segmented GemmTN at the paper's LSTM weight-gradient shape (dim 64:
    // w_hh is 64×256): 100 node-level units of k = 10 rows, or 100
    // walk-level units of one row each, folded in one call.
    for (const int64_t rows : {10, 1}) {
      const int64_t m = 64, n = 256, num_segs = 100;
      Tensor a(num_segs * rows, m), b(num_segs * rows, n);
      Tensor c_ref(m, n), c_avx(m, n);
      UniformInit(&a, -1, 1, &rng);
      UniformInit(&b, -1, 1, &rng);
      std::vector<ehna::kernels::GemmTNSegment> segs;
      for (int64_t s = 0; s < num_segs; ++s) {
        segs.push_back({a.Row(s * rows), b.Row(s * rows), rows});
      }
      const double flops = 2.0 * m * n * static_cast<double>(num_segs * rows);
      const std::string shape =
          "64x256 " + std::to_string(num_segs) + "x" + std::to_string(rows);
      const auto run = [&](const KernelTable& t, float* c) {
        t.gemm_tn_segments(m, n, segs.data(), num_segs, c, false);
      };
      const double scalar_s =
          TimePerCall([&] { run(scalar, c_ref.data()); }, window);
      AddJsonRecord("gemm_tn_segments", shape, "scalar", "gflops",
                    flops / scalar_s / 1e9);
      std::string avx_cell = "-";
      std::string speedup_cell = "-";
      if (avx2 != nullptr) {
        const double avx2_s =
            TimePerCall([&] { run(*avx2, c_avx.data()); }, window);
        ExpectBitwiseEqual("gemm_tn_segments", c_ref.data(), c_avx.data(),
                           m * n);
        AddJsonRecord("gemm_tn_segments", shape, "avx2", "gflops",
                      flops / avx2_s / 1e9);
        avx_cell = TableWriter::FormatDouble(flops / avx2_s / 1e9, 2);
        speedup_cell = TableWriter::FormatDouble(scalar_s / avx2_s, 2);
      }
      table.AddRow({"gemm_tn_segments", shape,
                    TableWriter::FormatDouble(flops / scalar_s / 1e9, 2),
                    avx_cell, speedup_cell});
    }

    // Gemv / GemvT over a square operand.
    for (const int64_t n : gemm_sizes) {
      Tensor a(n, n), x(n), y_ref(n), y_avx(n);
      UniformInit(&a, -1, 1, &rng);
      UniformInit(&x, -1, 1, &rng);
      const double flops = 2.0 * static_cast<double>(n) * n;
      const std::string shape = std::to_string(n) + "x" + std::to_string(n);
      for (const bool transposed : {false, true}) {
        const char* name = transposed ? "gemv_t" : "gemv";
        const auto run = [&](const KernelTable& t, float* y) {
          if (transposed) {
            t.gemv_t(n, n, a.data(), x.data(), y, false);
          } else {
            t.gemv(n, n, a.data(), x.data(), y, false);
          }
        };
        const double scalar_s =
            TimePerCall([&] { run(scalar, y_ref.data()); }, window);
        AddJsonRecord(name, shape, "scalar", "gflops", flops / scalar_s / 1e9);
        std::string avx_cell = "-";
        std::string speedup_cell = "-";
        if (avx2 != nullptr) {
          const double avx2_s =
              TimePerCall([&] { run(*avx2, y_avx.data()); }, window);
          ExpectBitwiseEqual(name, y_ref.data(), y_avx.data(), n);
          AddJsonRecord(name, shape, "avx2", "gflops", flops / avx2_s / 1e9);
          avx_cell = TableWriter::FormatDouble(flops / avx2_s / 1e9, 2);
          speedup_cell = TableWriter::FormatDouble(scalar_s / avx2_s, 2);
        }
        table.AddRow({name, shape,
                      TableWriter::FormatDouble(flops / scalar_s / 1e9, 2),
                      avx_cell, speedup_cell});
      }
    }

    // Fused-LSTM tile: the trainer's per-step kernel sequence — input and
    // recurrent GEMMs, the fused gate forward/backward, then the four
    // backward GEMMs — all through one ISA table. GFLOP/s over the GEMM
    // flops (identical divisor for both ISAs, so the ratio is honest).
    struct LstmTile {
      int64_t b, in, h;
    };
    const std::vector<LstmTile> tiles =
        smoke ? std::vector<LstmTile>{{4, 16, 16}}
              : std::vector<LstmTile>{{8, 64, 64}, {32, 128, 128}};
    double last_lstm_speedup = 0.0;
    for (const LstmTile tile : tiles) {
      const int64_t b = tile.b, in = tile.in, h = tile.h;
      Tensor x(b, in), wi(in, 4 * h), hp(b, h), wh(h, 4 * h), cp(b, h);
      Tensor ghc(b, 2 * h);
      for (Tensor* t : {&x, &wi, &hp, &wh, &cp, &ghc}) {
        UniformInit(t, -0.5, 0.5, &rng);
      }
      Tensor z(b, 4 * h), ifgo(b, 4 * h), tanh_c(b, h), hc(b, 2 * h);
      Tensor gz(b, 4 * h), gcp(b, h), gx(b, in), ghp(b, h);
      Tensor gwi(in, 4 * h), gwh(h, 4 * h);
      const double gemm_flops =
          2.0 * b * 4 * h * (in + h)   // forward preactivation
          + 2.0 * b * 4 * h * (in + h)  // dx, dh_prev
          + 2.0 * b * 4 * h * (in + h);  // dwi, dwh
      const std::string shape = "b" + std::to_string(b) + " in" +
                                std::to_string(in) + " h" + std::to_string(h);
      const auto step = [&](const KernelTable& t) {
        t.gemm_nn(b, 4 * h, in, x.data(), wi.data(), z.data(), false);
        t.gemm_nn(b, 4 * h, h, hp.data(), wh.data(), z.data(), true);
        t.lstm_gate_forward(b, h, z.data(), cp.data(), ifgo.data(),
                            tanh_c.data(), hc.data());
        t.lstm_gate_backward(b, h, ghc.data(), ifgo.data(), tanh_c.data(),
                             cp.data(), gz.data(), gcp.data());
        t.gemm_nt(b, in, 4 * h, gz.data(), wi.data(), gx.data(), false);
        t.gemm_nt(b, h, 4 * h, gz.data(), wh.data(), ghp.data(), false);
        t.gemm_tn(in, 4 * h, b, x.data(), gz.data(), gwi.data(), false);
        t.gemm_tn(h, 4 * h, b, hp.data(), gz.data(), gwh.data(), false);
      };
      const double scalar_s = TimePerCall([&] { step(scalar); }, window);
      Tensor hc_ref = hc, gz_ref = gz, gwi_ref = gwi;
      AddJsonRecord("lstm_tile", shape, "scalar", "gflops",
                    gemm_flops / scalar_s / 1e9);
      std::string avx_cell = "-";
      std::string speedup_cell = "-";
      if (avx2 != nullptr) {
        const double avx2_s = TimePerCall([&] { step(*avx2); }, window);
        ExpectBitwiseEqual("lstm_tile hc", hc_ref.data(), hc.data(),
                           hc.numel());
        ExpectBitwiseEqual("lstm_tile gz", gz_ref.data(), gz.data(),
                           gz.numel());
        ExpectBitwiseEqual("lstm_tile gwi", gwi_ref.data(), gwi.data(),
                           gwi.numel());
        AddJsonRecord("lstm_tile", shape, "avx2", "gflops",
                      gemm_flops / avx2_s / 1e9);
        avx_cell = TableWriter::FormatDouble(gemm_flops / avx2_s / 1e9, 2);
        last_lstm_speedup = scalar_s / avx2_s;
        speedup_cell = TableWriter::FormatDouble(last_lstm_speedup, 2);
      }
      table.AddRow({"lstm_tile", shape,
                    TableWriter::FormatDouble(gemm_flops / scalar_s / 1e9, 2),
                    avx_cell, speedup_cell});
    }

    table.Print(std::cout);
    std::cout << "active dispatch ISA: "
              << ehna::kernels::KernelIsaName(ehna::kernels::ActiveIsa())
              << "\n";
    state.counters["gemm_avx2_speedup"] = last_gemm_speedup;
    state.counters["lstm_avx2_speedup"] = last_lstm_speedup;
  }
}
BENCHMARK(BM_IsaKernelTables)->Iterations(1)->Unit(benchmark::kSecond);

}  // namespace

// Custom main: peel off --json=PATH (not a google-benchmark flag) before
// Initialize(), run everything, then dump the collected records.
int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      args.push_back(argv[i]);
    }
  }
  int ac = static_cast<int>(args.size());
  benchmark::Initialize(&ac, args.data());
  if (benchmark::ReportUnrecognizedArguments(ac, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty()) {
    WriteJson(json_path);
    std::cout << "wrote " << JsonRecords().size() << " bench records to "
              << json_path << "\n";
  }
  return 0;
}
