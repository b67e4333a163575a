#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "util/alias_sampler.h"
#include "util/atomic_file.h"
#include "util/crc32.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/table_writer.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ehna {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(StatusTest, ResourceExhaustedFactoryAndName) {
  const Status s = Status::ResourceExhausted("too many nodes");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(s.ToString(), "ResourceExhausted: too many nodes");
}

TEST(StatusTest, StreamOperatorRendersToString) {
  std::ostringstream os;
  os << Status::NotFound("missing");
  EXPECT_EQ(os.str(), "NotFound: missing");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, OkStatusNormalizedToInternalError) {
  Result<int> r{Status::OK()};
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterEven(int x) {
  EHNA_ASSIGN_OR_RETURN(int half, HalveEven(x));
  EHNA_ASSIGN_OR_RETURN(int quarter, HalveEven(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnMacroPropagates) {
  auto ok = QuarterEven(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 2);
  auto err = QuarterEven(6);  // 6 -> 3 -> odd.
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------------ Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(5);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(6);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.UniformInt(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit.
}

TEST(RngTest, SignedUniformIntInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMomentsRoughlyStandard) {
  Rng rng(8);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(9);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(10);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, PowerLawWithinRangeAndSkewed) {
  Rng rng(11);
  int small = 0;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t k = rng.PowerLaw(2.0, 100);
    ASSERT_GE(k, 1u);
    ASSERT_LE(k, 100u);
    small += k <= 3;
  }
  // A 2.0-exponent power law concentrates mass on small values.
  EXPECT_GT(small, 2500);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(12);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(13);
  for (size_t k : {size_t{1}, size_t{5}, size_t{50}, size_t{99}}) {
    auto s = rng.SampleWithoutReplacement(100, k);
    EXPECT_EQ(s.size(), k);
    std::set<size_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), k);
    for (size_t x : s) EXPECT_LT(x, 100u);
  }
}

TEST(RngTest, SampleWithoutReplacementAllWhenKTooLarge) {
  Rng rng(14);
  auto s = rng.SampleWithoutReplacement(10, 50);
  EXPECT_EQ(s.size(), 10u);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(15);
  Rng b = a.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 4);
}

// -------------------------------------------------------- AliasSampler

TEST(AliasSamplerTest, EmptyWeightsYieldEmptySampler) {
  AliasSampler s{std::vector<double>{}};
  EXPECT_TRUE(s.empty());
  AliasSampler zero{std::vector<double>{0.0, 0.0}};
  EXPECT_TRUE(zero.empty());
}

TEST(AliasSamplerTest, SingleOutcome) {
  AliasSampler s{std::vector<double>{3.0}};
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(s.Sample(&rng), 0u);
}

TEST(AliasSamplerTest, MatchesTargetDistribution) {
  const std::vector<double> weights{1.0, 2.0, 3.0, 4.0};
  AliasSampler s(weights);
  Rng rng(2);
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[s.Sample(&rng)];
  for (size_t i = 0; i < weights.size(); ++i) {
    EXPECT_NEAR(counts[i] / static_cast<double>(n), weights[i] / 10.0, 0.01)
        << "outcome " << i;
  }
}

TEST(AliasSamplerTest, ZeroWeightNeverSampled) {
  AliasSampler s{std::vector<double>{1.0, 0.0, 1.0}};
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) EXPECT_NE(s.Sample(&rng), 1u);
}

TEST(AliasSamplerTest, RebuildReplacesDistribution) {
  AliasSampler s{std::vector<double>{1.0, 0.0}};
  s.Build({0.0, 1.0});
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(s.Sample(&rng), 1u);
}

// ----------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

// ---------------------------------------------------------------- Timer

TEST(TimerTest, MeasuresElapsedMonotonically) {
  Timer t;
  const double a = t.ElapsedSeconds();
  const double b = t.ElapsedSeconds();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

TEST(TimerTest, RestartResets) {
  Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(i);
  t.Restart();
  EXPECT_LT(t.ElapsedSeconds(), 0.5);
}

// ---------------------------------------------------------- TableWriter

TEST(TableWriterTest, PrintsAlignedTable) {
  TableWriter tw("Demo", {"name", "value"});
  tw.AddRow({"alpha", "1"});
  tw.AddRow({"b", "22"});
  std::ostringstream os;
  tw.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Demo"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("| b    "), std::string::npos);  // padded cell.
}

TEST(TableWriterTest, FormatDouble) {
  EXPECT_EQ(TableWriter::FormatDouble(0.123456, 4), "0.1235");
  EXPECT_EQ(TableWriter::FormatDouble(2.0, 1), "2.0");
}

TEST(TableWriterTest, WritesTsv) {
  TableWriter tw("T", {"a", "b"});
  tw.AddRow({"1", "2"});
  const std::string path =
      (std::filesystem::temp_directory_path() / "ehna_table_test.tsv")
          .string();
  ASSERT_TRUE(tw.WriteTsv(path).ok());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a\tb");
  std::getline(in, line);
  EXPECT_EQ(line, "1\t2");
  std::filesystem::remove(path);
}

TEST(TableWriterTest, TsvToMissingDirectoryFails) {
  TableWriter tw("T", {"a"});
  EXPECT_FALSE(tw.WriteTsv("/nonexistent_dir_zzz/file.tsv").ok());
}

// ------------------------------------------------------------ RNG state

TEST(RngStateTest, SnapshotRestoreContinuesExactSequence) {
  Rng rng(42);
  for (int i = 0; i < 100; ++i) rng.Next();
  rng.Normal();  // leaves a cached Box-Muller spare in the state.
  const Rng::State snapshot = rng.state();

  std::vector<double> expected;
  for (int i = 0; i < 50; ++i) expected.push_back(rng.Normal());

  Rng other(7);  // arbitrary diverged generator.
  other.set_state(snapshot);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(other.Normal(), expected[i]);
}

// ---------------------------------------------------------------- CRC-32

TEST(Crc32Test, KnownVectorAndIncrementalEquivalence) {
  // The canonical IEEE test vector.
  const char kCheck[] = "123456789";
  EXPECT_EQ(Crc32(kCheck, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  // Incremental over a split buffer matches one shot.
  const uint32_t part = Crc32(kCheck, 4);
  EXPECT_EQ(Crc32(kCheck + 4, 5, part), 0xCBF43926u);
  // A single flipped bit changes the sum.
  const char kFlipped[] = "123456788";
  EXPECT_NE(Crc32(kFlipped, 9), 0xCBF43926u);
}

// ----------------------------------------------------------- Atomic write

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Temp files share the destination's directory and name prefix; any left
/// behind would start with "<name>.tmp.".
size_t CountTempFiles(const std::string& dir, const std::string& name) {
  size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind(name + ".tmp.", 0) == 0) ++n;
  }
  return n;
}

TEST(AtomicFileTest, WritesContentAndReplacesExisting) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string path = (dir / "ehna_atomic_ok.txt").string();
  ASSERT_TRUE(AtomicWriteFile(path, std::string("first")).ok());
  EXPECT_EQ(Slurp(path), "first");
  ASSERT_TRUE(AtomicWriteFile(path, std::string("second")).ok());
  EXPECT_EQ(Slurp(path), "second");
  EXPECT_EQ(CountTempFiles(dir.string(), "ehna_atomic_ok.txt"), 0u);
  std::filesystem::remove(path);
}

TEST(AtomicFileTest, WriterErrorLeavesDestinationUntouched) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string path = (dir / "ehna_atomic_err.txt").string();
  ASSERT_TRUE(AtomicWriteFile(path, std::string("precious")).ok());
  // The writer streams half its output and then reports failure —
  // simulating a crash/abort mid-write. The destination must keep its old
  // complete content, never a truncated hybrid, and the temp must be gone.
  const Status st = AtomicWriteFile(path, [](std::ostream& out) -> Status {
    out << "partial garbage";
    return Status::IoError("simulated mid-write failure");
  });
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(Slurp(path), "precious");
  EXPECT_EQ(CountTempFiles(dir.string(), "ehna_atomic_err.txt"), 0u);
  std::filesystem::remove(path);
}

TEST(AtomicFileTest, FailedRenameCleansUpTempAndReportsError) {
  const auto dir = std::filesystem::temp_directory_path();
  // A directory at the destination makes the final rename itself fail
  // after a fully successful temp write.
  const std::string path = (dir / "ehna_atomic_dir_dest").string();
  std::filesystem::create_directories(path);
  std::filesystem::create_directories(path + "/occupant");  // non-empty.
  const Status st = AtomicWriteFile(path, std::string("content"));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_TRUE(std::filesystem::is_directory(path));
  EXPECT_EQ(CountTempFiles(dir.string(), "ehna_atomic_dir_dest"), 0u);
  std::filesystem::remove_all(path);
}

TEST(AtomicFileTest, UnwritableTemporaryFails) {
  EXPECT_FALSE(
      AtomicWriteFile("/nonexistent_dir_zzz/file", std::string("x")).ok());
}

// -------------------------------------------------------------- Log level

/// Restores the log level on scope exit so these tests cannot leak
/// verbosity changes into the rest of the suite.
class ScopedLogLevel {
 public:
  ScopedLogLevel() : saved_(GetLogLevel()) {}
  ~ScopedLogLevel() { SetLogLevel(saved_); }

 private:
  LogLevel saved_;
};

TEST(LogLevelTest, SetFromStringAcceptsNamesAndNumbers) {
  ScopedLogLevel restore;
  EXPECT_TRUE(SetLogLevelFromString("debug"));
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);
  EXPECT_TRUE(SetLogLevelFromString("WARNING"));  // case-insensitive.
  EXPECT_EQ(GetLogLevel(), LogLevel::kWarning);
  EXPECT_TRUE(SetLogLevelFromString("warn"));
  EXPECT_EQ(GetLogLevel(), LogLevel::kWarning);
  EXPECT_TRUE(SetLogLevelFromString("3"));
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  EXPECT_TRUE(SetLogLevelFromString("1"));
  EXPECT_EQ(GetLogLevel(), LogLevel::kInfo);
}

TEST(LogLevelTest, InvalidSpecLeavesLevelUnchanged) {
  ScopedLogLevel restore;
  SetLogLevel(LogLevel::kWarning);
  EXPECT_FALSE(SetLogLevelFromString(nullptr));
  EXPECT_FALSE(SetLogLevelFromString(""));
  EXPECT_FALSE(SetLogLevelFromString("verbose"));
  EXPECT_FALSE(SetLogLevelFromString("42"));
  EXPECT_EQ(GetLogLevel(), LogLevel::kWarning);
}

TEST(LogLevelTest, InitFromEnvHonorsVariable) {
  ScopedLogLevel restore;
  SetLogLevel(LogLevel::kInfo);
  ASSERT_EQ(setenv("EHNA_LOG_LEVEL", "error", /*overwrite=*/1), 0);
  InitLogLevelFromEnv();
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // An invalid value is ignored, keeping the current level.
  ASSERT_EQ(setenv("EHNA_LOG_LEVEL", "bogus", 1), 0);
  InitLogLevelFromEnv();
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  ASSERT_EQ(unsetenv("EHNA_LOG_LEVEL"), 0);
  InitLogLevelFromEnv();  // no variable: also a no-op.
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
}

TEST(LogLevelTest, ConcurrentGetSetIsSafe) {
  // The level lives in a std::atomic: hammering Get/Set from pool workers
  // must neither tear nor deadlock (TSan-clean under the CI tsan job).
  ScopedLogLevel restore;
  ThreadPool pool(4);
  for (int t = 0; t < 16; ++t) {
    pool.Submit([t] {
      for (int i = 0; i < 1000; ++i) {
        if (t % 2 == 0) {
          SetLogLevel(i % 2 == 0 ? LogLevel::kDebug : LogLevel::kError);
        } else {
          const LogLevel level = GetLogLevel();
          ASSERT_GE(static_cast<int>(level), 0);
          ASSERT_LE(static_cast<int>(level), 3);
        }
      }
    });
  }
  pool.Wait();
}

// -------------------------------------------- AliasSampler degenerate use

TEST(AliasSamplerDeathTest, SampleFromDegenerateSamplerAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Rng rng(1);
  AliasSampler empty;
  EXPECT_DEATH(empty.Sample(&rng), "degenerate");
  // All-zero weights build an empty sampler: also a checked, hard error in
  // Release builds (previously UB guarded only by a DCHECK).
  AliasSampler zeros(std::vector<double>{0.0, 0.0, 0.0});
  EXPECT_TRUE(zeros.empty());
  EXPECT_DEATH(zeros.Sample(&rng), "degenerate");
}

}  // namespace
}  // namespace ehna
