// Reproduces Table VIII of the paper: average training time per epoch for
// every method on every dataset, including the multi-threaded variants of
// the walk-based baselines ("Node2Vec 10" / "CTDNE 10" in the paper; the
// thread count here is EHNA_BENCH_THREADS, default 4). Absolute numbers are
// incomparable (authors' testbed vs this machine, full-scale vs substitute
// datasets); the shape to reproduce is the *relative* cost ordering:
// HTNE fastest, EHNA mid-pack (cheaper per epoch than single-threaded
// Node2Vec/CTDNE at paper scale), multi-threading helping the SGNS methods.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>

#include "bench/bench_common.h"
#include "bench/paper_reference.h"
#include "core/checkpoint.h"
#include "core/model.h"
#include "util/metrics.h"
#include "util/table_writer.h"

namespace {

using ehna::PaperDataset;
using ehna::TableWriter;
using ehna::bench::BuildDataset;
using ehna::bench::Method;
using ehna::bench::PaperTimingTable;
using ehna::bench::TrainMethodTimed;

int BenchThreads() {
  if (const char* s = std::getenv("EHNA_BENCH_THREADS")) {
    const int v = std::atoi(s);
    if (v > 0) return v;
  }
  return 4;
}

void BM_Table8_TrainingTime(benchmark::State& state) {
  const std::vector<PaperDataset> datasets{
      PaperDataset::kDigg, PaperDataset::kYelp, PaperDataset::kTmall,
      PaperDataset::kDblp};
  const int threads = BenchThreads();
  struct RowSpec {
    std::string label;
    Method method;
    int threads;
  };
  const std::vector<RowSpec> rows{
      {"Node2Vec", Method::kNode2Vec, 1},
      {"Node2Vec " + std::to_string(threads), Method::kNode2Vec, threads},
      {"CTDNE", Method::kCtdne, 1},
      {"CTDNE " + std::to_string(threads), Method::kCtdne, threads},
      {"LINE", Method::kLine, 1},
      {"HTNE", Method::kHtne, 1},
      {"EHNA", Method::kEhna, 1},
      {"EHNA " + std::to_string(threads), Method::kEhna, threads},
  };

  for (auto _ : state) {
    TableWriter table(
        "Table VIII — avg. training seconds per epoch "
        "(measured; paper reference in EXPERIMENTS.md)",
        {"Method", "Digg", "Yelp", "Tmall", "DBLP"});
    std::map<std::string, std::vector<double>> seconds;
    for (PaperDataset d : datasets) {
      const ehna::TemporalGraph graph = BuildDataset(d);
      for (const RowSpec& spec : rows) {
        double s = 0.0;
        TrainMethodTimed(spec.method, graph, /*seed=*/5, spec.threads, &s);
        seconds[spec.label].push_back(s);
      }
    }
    for (const RowSpec& spec : rows) {
      std::vector<std::string> cells{spec.label};
      for (double s : seconds[spec.label]) {
        cells.push_back(TableWriter::FormatDouble(s, 3));
      }
      table.AddRow(std::move(cells));
    }
    table.Print(std::cout);

    TableWriter paper_table("Table VIII — paper-reported seconds per epoch",
                            {"Method", "Digg", "Yelp", "Tmall", "DBLP"});
    for (const auto& row : PaperTimingTable()) {
      std::vector<std::string> cells{row.method};
      for (double s : row.seconds) {
        cells.push_back(TableWriter::FormatDouble(s, 0));
      }
      paper_table.AddRow(std::move(cells));
    }
    paper_table.Print(std::cout);

    state.counters["ehna_digg_s"] = seconds["EHNA"][0];
    state.counters["ehna_mt_digg_s"] =
        seconds["EHNA " + std::to_string(threads)][0];
    state.counters["htne_digg_s"] = seconds["HTNE"][0];
    state.counters["node2vec_digg_s"] = seconds["Node2Vec"][0];
  }
}
BENCHMARK(BM_Table8_TrainingTime)->Iterations(1)->Unit(benchmark::kSecond);

// Checkpoint overhead companion row: the same EHNA training epoch with
// per-epoch snapshots enabled, plus the one-time cost of restoring. The
// interesting numbers are `ckpt_save_s` (amortized per-epoch tax of
// crash-safety, paid at every `checkpoint_every` boundary) and
// `ckpt_restore_s` (startup latency of a resumed run).
void BM_Table8_CheckpointOverhead(benchmark::State& state) {
  const ehna::TemporalGraph graph = BuildDataset(PaperDataset::kDigg);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "ehna_bench_ckpt").string();

  for (auto _ : state) {
    std::filesystem::remove_all(dir);
    ehna::EhnaConfig plain = ehna::bench::BenchEhnaConfigFor(
        PaperDataset::kDigg, /*seed=*/5);
    plain.epochs = 1;

    ehna::EhnaModel baseline(&graph, plain);
    const auto base_stats = baseline.Train(1);

    ehna::EhnaConfig ckpt = plain;
    ckpt.checkpoint_dir = dir;
    ckpt.checkpoint_every = 1;
    ehna::EhnaModel snapshotting(&graph, ckpt);
    const auto ckpt_stats = snapshotting.Train(1);

    const auto t0 = std::chrono::steady_clock::now();
    ehna::EhnaModel resumed(&graph, ckpt);
    ehna::CheckpointManager manager(dir, ckpt.checkpoint_keep);
    const ehna::Status st = manager.RestoreLatest(&resumed);
    const double restore_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      break;
    }

    state.counters["epoch_plain_s"] = base_stats.back().seconds;
    state.counters["epoch_ckpt_s"] = ckpt_stats.back().seconds;
    state.counters["ckpt_save_s"] =
        ckpt_stats.back().seconds - base_stats.back().seconds;
    state.counters["ckpt_restore_s"] = restore_s;

    TableWriter table("Checkpointing — resume overhead (EHNA, Digg)",
                      {"Metric", "Seconds"});
    table.AddRow({"epoch, no checkpointing",
                  TableWriter::FormatDouble(base_stats.back().seconds, 3)});
    table.AddRow({"epoch + snapshot",
                  TableWriter::FormatDouble(ckpt_stats.back().seconds, 3)});
    table.AddRow({"restore from snapshot",
                  TableWriter::FormatDouble(restore_s, 3)});
    table.Print(std::cout);
    std::filesystem::remove_all(dir);
  }
}
BENCHMARK(BM_Table8_CheckpointOverhead)
    ->Iterations(1)
    ->Unit(benchmark::kSecond);

// Where an EHNA epoch's time actually goes (the breakdown Table VIII's
// headline number hides): per-phase seconds from the observability layer
// (util/metrics.h, DESIGN.md §8) for a serial and a multi-threaded run on
// Digg, with checkpointing enabled so every phase appears. Also measures the
// telemetry tax itself — the same epoch with recording disabled — which the
// acceptance bar caps at 2%. Dumps the full snapshot to
// metrics_table8.{tsv,json} beside the process for offline inspection.
void BM_Table8_PhaseBreakdown(benchmark::State& state) {
  const ehna::TemporalGraph graph = BuildDataset(PaperDataset::kDigg);
  const int threads = BenchThreads();
  const std::string dir =
      (std::filesystem::temp_directory_path() / "ehna_bench_phase_ckpt")
          .string();
  ehna::MetricsRegistry& registry = ehna::MetricsRegistry::Global();

  struct PhaseRow {
    const char* label;
    const char* metric;
  };
  const std::vector<PhaseRow> phases{
      {"walk sampling (within fwd+bwd)", "train.phase.walk_sampling"},
      {"forward + backward", "train.phase.forward_backward"},
      {"weight-grad replay (within fwd+bwd)", "train.phase.grad_replay"},
      {"gradient reduction", "train.phase.grad_reduce"},
      {"optimizer step", "train.phase.optimizer_step"},
      {"checkpoint save", "train.phase.checkpoint_save"},
  };

  for (auto _ : state) {
    ehna::EhnaConfig cfg =
        ehna::bench::BenchEhnaConfigFor(PaperDataset::kDigg, /*seed=*/5);
    cfg.epochs = 1;
    cfg.checkpoint_dir = dir;
    cfg.checkpoint_every = 1;

    TableWriter table(
        "Table VIII companion — EHNA epoch phase breakdown (Digg, seconds)",
        {"Phase", "serial", std::to_string(threads) + " threads"});
    std::map<std::string, std::vector<std::string>> cells;
    double epoch_serial_s = 0.0;

    for (const int nt : {1, threads}) {
      std::filesystem::remove_all(dir);
      registry.Reset();
      cfg.num_threads = nt;
      ehna::EhnaModel model(&graph, cfg);
      const auto stats = model.Train(1);
      const ehna::MetricsSnapshot snap = registry.Snapshot();
      if (nt == 1) epoch_serial_s = stats.back().seconds;

      for (const PhaseRow& row : phases) {
        cells[row.metric].push_back(
            TableWriter::FormatDouble(snap.PhaseSeconds(row.metric), 3));
      }
      cells["epoch"].push_back(
          TableWriter::FormatDouble(stats.back().seconds, 3));
      cells["walks_per_sec"].push_back(
          TableWriter::FormatDouble(snap.GaugeValue("train.walks_per_sec"), 0));
      cells["edges_per_sec"].push_back(
          TableWriter::FormatDouble(snap.GaugeValue("train.edges_per_sec"), 1));

      if (nt == threads) {
        // The multi-threaded run's full snapshot is the richer one; export
        // it in both formats next to the binary.
        const ehna::Status tsv = snap.WriteTsv("metrics_table8.tsv");
        const ehna::Status json = snap.WriteJson("metrics_table8.json");
        if (!tsv.ok() || !json.ok()) {
          std::cerr << "metrics export failed: " << (tsv.ok() ? json : tsv)
                    << "\n";
        }
        state.counters["fwd_bwd_s"] =
            snap.PhaseSeconds("train.phase.forward_backward");
        state.counters["grad_reduce_s"] =
            snap.PhaseSeconds("train.phase.grad_reduce");
        state.counters["optimizer_s"] =
            snap.PhaseSeconds("train.phase.optimizer_step");
        state.counters["ckpt_save_s"] =
            snap.PhaseSeconds("train.phase.checkpoint_save");
        state.counters["walk_sampling_s"] =
            snap.PhaseSeconds("train.phase.walk_sampling");
        state.counters["grad_replay_s"] =
            snap.PhaseSeconds("train.phase.grad_replay");
      }
    }

    for (const PhaseRow& row : phases) {
      table.AddRow({row.label, cells[row.metric][0], cells[row.metric][1]});
    }
    table.AddRow({"whole epoch", cells["epoch"][0], cells["epoch"][1]});
    table.AddRow({"walks/sec", cells["walks_per_sec"][0],
                  cells["walks_per_sec"][1]});
    table.AddRow({"edges/sec", cells["edges_per_sec"][0],
                  cells["edges_per_sec"][1]});
    table.Print(std::cout);

    // Telemetry tax: the identical serial epoch with recording off. Both
    // runs include checkpointing, so the only difference is the counters,
    // histogram records, and clock reads the instrumentation performs.
    std::filesystem::remove_all(dir);
    cfg.num_threads = 1;
    ehna::MetricsRegistry::SetEnabled(false);
    ehna::EhnaModel dark(&graph, cfg);
    const auto dark_stats = dark.Train(1);
    ehna::MetricsRegistry::SetEnabled(true);
    const double dark_s = dark_stats.back().seconds;
    const double overhead_pct =
        dark_s > 0.0 ? (epoch_serial_s - dark_s) / dark_s * 100.0 : 0.0;

    TableWriter tax("Telemetry overhead (EHNA serial epoch, Digg)",
                    {"Metric", "Value"});
    tax.AddRow({"epoch, metrics on (s)",
                TableWriter::FormatDouble(epoch_serial_s, 3)});
    tax.AddRow({"epoch, metrics off (s)", TableWriter::FormatDouble(dark_s, 3)});
    tax.AddRow({"overhead (%)", TableWriter::FormatDouble(overhead_pct, 2)});
    tax.Print(std::cout);

    state.counters["epoch_metrics_on_s"] = epoch_serial_s;
    state.counters["epoch_metrics_off_s"] = dark_s;
    state.counters["overhead_pct"] = overhead_pct;
    std::filesystem::remove_all(dir);
  }
}
BENCHMARK(BM_Table8_PhaseBreakdown)->Iterations(1)->Unit(benchmark::kSecond);

}  // namespace

BENCHMARK_MAIN();
