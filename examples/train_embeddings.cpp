// A small command-line trainer: load (or generate) a temporal network,
// train any of the implemented embedding methods, and save the embedding
// matrix — the "adopt this library without writing C++" path.
//
// Usage:
//   train_embeddings --method=ehna|htne|ctdne|node2vec|line
//                    [--input=edges.txt | --dataset=digg|yelp|tmall|dblp]
//                    [--scale=0.1] [--dim=64] [--epochs=3]
//                    [--output=embeddings.txt] [--binary] [--seed=1]
//                    [--threads=1]
//                    [--checkpoint-dir=DIR] [--checkpoint-every=1]
//
// Every flag is parsed as a whole token: an unknown flag, a malformed
// number, or a negative count exits with status 2 and the usage line before
// any graph is loaded or thread started. --threads=0 means all cores.
//
// With --checkpoint-dir (EHNA only) the trainer snapshots its full state
// into DIR after every --checkpoint-every epochs and, on startup, resumes
// from the last good snapshot found there — a run killed at any instant and
// restarted produces bitwise-identical embeddings to an uninterrupted one.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>

#include "baselines/ctdne.h"
#include "baselines/htne.h"
#include "baselines/line.h"
#include "baselines/node2vec.h"
#include "core/checkpoint.h"
#include "core/model.h"
#include "graph/edgelist_io.h"
#include "graph/generators/generators.h"
#include "nn/serialize.h"

namespace {

constexpr char kUsage[] =
    "usage: train_embeddings --method=ehna|htne|ctdne|node2vec|line "
    "[--input=FILE | --dataset=digg|yelp|tmall|dblp] [--scale=X] [--dim=N] "
    "[--epochs=N] [--output=FILE] [--binary] [--seed=N] [--threads=N] "
    "[--checkpoint-dir=DIR] [--checkpoint-every=N]";

// More worker threads than this is a typo, not a machine.
constexpr int kMaxThreads = 1024;

struct Args {
  std::string method = "ehna";
  std::string input;
  ehna::PaperDataset dataset = ehna::PaperDataset::kDblp;
  std::string output = "embeddings.txt";
  std::string checkpoint_dir;
  double scale = 0.1;
  int64_t dim = 64;
  int epochs = 3;
  int checkpoint_every = 1;
  int threads = 1;
  bool binary = false;
  uint64_t seed = 1;
};

// Whole-token parse: trailing characters, a sign on an unsigned value, or
// an out-of-range number fail rather than reading as 0 the way atoi does.
template <typename T>
bool ParseToken(const std::string& token, T* out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

template <typename T>
bool ParseInRange(const std::string& token, T min, T max, T* out) {
  T v{};
  if (!ParseToken(token, &v) || v < min || v > max) return false;
  *out = v;
  return true;
}

std::optional<ehna::PaperDataset> DatasetByName(const std::string& name) {
  using ehna::PaperDataset;
  if (name == "digg") return PaperDataset::kDigg;
  if (name == "yelp") return PaperDataset::kYelp;
  if (name == "tmall") return PaperDataset::kTmall;
  if (name == "dblp") return PaperDataset::kDblp;
  return std::nullopt;
}

bool KnownMethod(const std::string& m) {
  return m == "ehna" || m == "htne" || m == "ctdne" || m == "node2vec" ||
         m == "line";
}

// Returns nullopt (after printing what is wrong and the usage line) on any
// unknown flag or bad value.
std::optional<Args> ParseArgs(int argc, char** argv) {
  constexpr int kIntMax = std::numeric_limits<int>::max();
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--binary") {
      args.binary = true;
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const std::string v = eq == std::string::npos ? "" : arg.substr(eq + 1);
    bool ok = true;
    if (name == "--method") {
      ok = KnownMethod(v);
      args.method = v;
    } else if (name == "--input") {
      ok = !v.empty();
      args.input = v;
    } else if (name == "--dataset") {
      const auto d = DatasetByName(v);
      ok = d.has_value();
      if (ok) args.dataset = *d;
    } else if (name == "--output") {
      ok = !v.empty();
      args.output = v;
    } else if (name == "--checkpoint-dir") {
      args.checkpoint_dir = v;
    } else if (name == "--scale") {
      ok = ParseToken(v, &args.scale) && std::isfinite(args.scale) &&
           args.scale > 0.0;
    } else if (name == "--dim") {
      ok = ParseInRange<int64_t>(v, 1, int64_t{1} << 20, &args.dim);
    } else if (name == "--epochs") {
      ok = ParseInRange(v, 0, kIntMax, &args.epochs);
    } else if (name == "--checkpoint-every") {
      ok = ParseInRange(v, 1, kIntMax, &args.checkpoint_every);
    } else if (name == "--threads") {
      ok = ParseInRange(v, 0, kMaxThreads, &args.threads);
    } else if (name == "--seed") {
      ok = ParseToken(v, &args.seed);
    } else {
      std::fprintf(stderr, "train_embeddings: unknown flag '%s'\n%s\n",
                   arg.c_str(), kUsage);
      return std::nullopt;
    }
    if (!ok || eq == std::string::npos) {
      std::fprintf(stderr, "train_embeddings: bad value in '%s'\n%s\n",
                   arg.c_str(), kUsage);
      return std::nullopt;
    }
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ehna;
  const std::optional<Args> parsed = ParseArgs(argc, argv);
  if (!parsed.has_value()) return 2;
  const Args& args = *parsed;

  Result<TemporalGraph> graph_or =
      args.input.empty()
          ? MakePaperDataset(args.dataset, args.scale, args.seed)
          : LoadTemporalGraph(args.input);
  if (!graph_or.ok()) {
    std::fprintf(stderr, "failed to load graph: %s\n",
                 graph_or.status().ToString().c_str());
    return 1;
  }
  TemporalGraph graph = std::move(graph_or).value();
  std::printf("graph: %u nodes, %zu temporal edges (span %.0f)\n",
              graph.num_nodes(), graph.num_edges(), graph.TimeSpan());

  Tensor embeddings;
  if (args.method == "ehna") {
    EhnaConfig cfg;
    cfg.dim = args.dim;
    cfg.epochs = args.epochs;
    cfg.seed = args.seed;
    cfg.num_walks = 4;
    cfg.walk_length = 5;
    cfg.num_negatives = 2;
    cfg.num_threads = args.threads;
    cfg.checkpoint_dir = args.checkpoint_dir;
    cfg.checkpoint_every = args.checkpoint_every;
    EhnaModel model(&graph, cfg);
    if (!cfg.checkpoint_dir.empty()) {
      CheckpointManager manager(cfg.checkpoint_dir, cfg.checkpoint_keep);
      const Status st = manager.RestoreLatest(&model);
      if (st.ok()) {
        std::printf("resumed from %s at epoch %llu\n",
                    cfg.checkpoint_dir.c_str(),
                    static_cast<unsigned long long>(model.completed_epochs()));
      } else if (st.code() != StatusCode::kNotFound) {
        std::fprintf(stderr, "cannot resume: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    model.Train(0, [](int e, const EhnaModel::EpochStats& s) {
      std::printf("epoch %d: loss %.4f (%.1fs)\n", e, s.avg_loss, s.seconds);
    });
    embeddings = model.FinalizeEmbeddings();
  } else if (args.method == "htne") {
    HtneConfig cfg;
    cfg.dim = args.dim;
    cfg.epochs = args.epochs;
    cfg.seed = args.seed;
    embeddings = HtneEmbedder(cfg).Fit(graph);
  } else if (args.method == "ctdne") {
    CtdneConfig cfg;
    cfg.sgns.dim = args.dim;
    cfg.epochs = args.epochs;
    cfg.seed = args.seed;
    embeddings = CtdneEmbedder(cfg).Fit(graph);
  } else if (args.method == "node2vec") {
    Node2VecConfig cfg;
    cfg.sgns.dim = args.dim;
    cfg.epochs = args.epochs;
    cfg.seed = args.seed;
    embeddings = Node2VecEmbedder(cfg).Fit(graph);
  } else {
    LineConfig cfg;
    cfg.dim = args.dim;
    cfg.epochs = args.epochs;
    cfg.seed = args.seed;
    embeddings = LineEmbedder(cfg).Fit(graph);
  }

  const Status st = args.binary
                        ? WriteTensorBinary(args.output, embeddings)
                        : WriteTensorText(args.output, embeddings);
  if (!st.ok()) {
    std::fprintf(stderr, "failed to save: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %lldx%lld embeddings (%s) to %s\n",
              static_cast<long long>(embeddings.rows()),
              static_cast<long long>(embeddings.cols()), args.method.c_str(),
              args.output.c_str());
  return 0;
}
