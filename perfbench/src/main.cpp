// perfbench: end-to-end benchmark program for shhpass.
//
//   perfbench --workload large-800|batch-mixed|sweep-netlist --seed N
//             --seconds S --trace 0|1
//             [--toy] [--wrong-expectation] [--dump-inputs PATH]
//             [--trace-dir DIR] [--commit SHA] [--source-hash HEX]
//
// One process, one closed-loop client: the next call into the library is
// made only after the previous one returned. Inputs come from --seed
// alone. All runs use the production defaults; the only settings changed
// are the gemm kernel width and the batch worker count, never above the
// CPUs this process may run on.
//
// --trace 0 measures the end-to-end metrics (library telemetry off, no
// spans). --trace 1 is a separate run that records the program's own spans
// around every call into a layer, replays the Fig.-1 stages through their
// public functions, and reports per-layer self times and counters; it
// writes the spans as a Chrome trace to --trace-dir.
//
// Every analysis is checked against its generator's expected verdict and
// stage, and batch and sweep results against a sequential analyze() of
// the same items. Violations count as failed, and any violation makes the
// result read "correct": false. The last stdout line is the result object
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
// preceded by a provenance line and a sample-statistics line. A run that
// printed its result exits 0, correct or not; a run that could not be made
// (bad arguments, a refused environment, unusable inputs) exits nonzero
// and prints no result.
//
// --toy shrinks every input (self-test); --wrong-expectation corrupts one
// expected verdict (the self-test's proof that the gate trips);
// --dump-inputs writes the generated input bytes and exits.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/analyzer.hpp"
#include "api/ingest.hpp"
#include "circuits/generators.hpp"
#include "circuits/spice_parser.hpp"
#include "circuits/sweep.hpp"
#include "core/margin.hpp"
#include "inputs.hpp"
#include "linalg/blas.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "replay.hpp"
#include "spans.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_COMPILER
#define PERFBENCH_CXX_COMPILER "unknown"
#endif

namespace {

using namespace shhpass;
using perfbench::Expectation;
using perfbench::nowNs;
using perfbench::secondsBetween;
using perfbench::SpanRecorder;

// ------------------------------------------------------------- arguments

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool toy = false;
  bool wrongExpectation = false;
  std::string dumpInputs;
  std::string traceDir = ".";
  std::string commit = "unknown";
  std::string sourceHash = "unknown";
};

bool parseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool hasValue = i + 1 < argc;
    if (k == "--toy") {
      a.toy = true;
    } else if (k == "--wrong-expectation") {
      a.wrongExpectation = true;
    } else if (!hasValue) {
      return false;
    } else if (k == "--workload") {
      a.workload = argv[++i];
    } else if (k == "--seed") {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (k == "--trace") {
      a.trace = std::atoi(argv[++i]);
    } else if (k == "--dump-inputs") {
      a.dumpInputs = argv[++i];
    } else if (k == "--trace-dir") {
      a.traceDir = argv[++i];
    } else if (k == "--commit") {
      a.commit = argv[++i];
    } else if (k == "--source-hash") {
      a.sourceHash = argv[++i];
    } else {
      return false;
    }
  }
  return (a.workload == "large-800" || a.workload == "batch-mixed" ||
          a.workload == "sweep-netlist") &&
         (a.trace == 0 || a.trace == 1 || !a.dumpInputs.empty()) &&
         (a.seconds > 0.0 || !a.dumpInputs.empty());
}

// ------------------------------------------------------------ machine

std::size_t affinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

/// Peak resident set so far. The untraced runs read it once, after the
/// first timed iteration, so it does not grow with the number of
/// iterations the machine's speed fits into the run.
double peakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ------------------------------------------------------------ statistics

struct Stats {
  std::size_t n = 0;
  double q1 = 0, median = 0, q3 = 0;
};

double quantile(const std::vector<double>& sorted, double p) {
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

Stats stats(std::vector<double> v) {
  Stats s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.q1 = quantile(v, 0.25);
  s.median = quantile(v, 0.5);
  s.q3 = quantile(v, 0.75);
  return s;
}

// ------------------------------------------------------------- checking

/// Correctness gate: one entry per analysis attempted, failed when any
/// check on it did not hold.
class Checker {
 public:
  void record(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (notes_.size() < 20) notes_.push_back(what);
  }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> notes_;
};

/// Empty when `r` meets `e`; otherwise why it does not.
std::string verdictMismatch(const api::Result<api::AnalysisReport>& r,
                            const Expectation& e) {
  if (!r.ok()) return "error status " + r.status().toString();
  const api::AnalysisReport& rep = *r;
  if (rep.verdict != e.verdict)
    return std::string("verdict ") + api::errorCodeName(rep.verdict) +
           ", expected " + api::errorCodeName(e.verdict);
  const bool stageAgrees =
      rep.failure == core::FailureStage::None
          ? rep.verdict == api::ErrorCode::Ok && rep.passive
          : api::errorCodeFromFailureStage(rep.failure) == rep.verdict &&
                !rep.passive;
  if (!stageAgrees) return "failure stage disagrees with the verdict";
  if (rep.stages.size() != e.stages)
    return "ran " + std::to_string(rep.stages.size()) + " stages, expected " +
           std::to_string(e.stages);
  if (e.checkProperOrder && rep.properOrder != e.properOrder)
    return "properOrder " + std::to_string(rep.properOrder) + ", expected " +
           std::to_string(e.properOrder);
  if (rep.reorder.rejectedSwaps != 0)
    return std::to_string(rep.reorder.rejectedSwaps) + " rejected swaps";
  return {};
}

/// Empty when the traced replay reached the same decision as `rep`.
std::string replayMismatch(const perfbench::ReplayResult& rr,
                           const api::AnalysisReport& rep) {
  if (rr.threw) return "replay threw: " + rr.error;
  if (rr.verdict != rep.verdict)
    return std::string("replay verdict ") + api::errorCodeName(rr.verdict) +
           " vs " + api::errorCodeName(rep.verdict);
  if (rr.stagesRun != rep.stages.size()) return "replay stage count differs";
  if (rr.properOrder != rep.properOrder) return "replay properOrder differs";
  if (rr.reorder.swaps != rep.reorder.swaps ||
      rr.reorder.rejectedSwaps != rep.reorder.rejectedSwaps)
    return "replay reorder swaps differ";
  return {};
}

// -------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The per-layer metrics every traced run reports, in BENCHMARK.json
/// order. Span-time metrics are self times summed over the run; a layer
/// the workload never calls reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* span;  ///< Span whose self time this is; null: computed.
};
constexpr LayerMetric kLayerMetrics[] = {
    {"ds.prerequisites_s", "s", "ds.prerequisites"},
    {"core.build_phi_s", "s", "core.build_phi"},
    {"core.impulse_deflation_s", "s", "core.impulse_deflation"},
    {"core.nondynamic_s", "s", "core.nondynamic"},
    {"core.m1_s", "s", "core.m1"},
    {"core.proper_part_s", "s", "core.proper_part"},
    {"control.pr_test_s", "s", "control.pr_test"},
    {"shh.arnoldi_s", "s", "shh.arnoldi"},
    {"linalg.gemm_s", "s", "linalg.gemm"},
    {"linalg.lu_s", "s", "linalg.lu"},
    {"linalg.svd_s", "s", "linalg.svd"},
    {"linalg.schur_s", "s", "linalg.schur"},
    {"linalg.reorder_s", "s", "linalg.reorder"},
    {"control.lyapunov_s", "s", "control.lyapunov"},
    {"linalg.eigvals_s", "s", "linalg.eigvals"},
    {"control.popov_sampling_s", "s", "control.popov_sampling"},
    {"circuits.parse_s", "s", "circuits.parse"},
    {"circuits.stamp_s", "s", "circuits.stamp"},
    {"circuits.restamp_s", "s", "circuits.restamp"},
    {"core.margin_s", "s", "core.margin"},
    {"linalg.reorder.swaps", "count", nullptr},
    {"linalg.staircase.svd_fallbacks", "count", nullptr},
    {"linalg.schur.iterations", "count", nullptr},
    {"linalg.gemm_gflops", "GFLOP/s", nullptr},
    {"linalg.gemm_gflops_mt", "GFLOP/s", nullptr},
    {"api.batch.idle_frac", "ratio", nullptr},
    {"obs.overhead_pct", "%", nullptr},
    {"core.stage_coverage", "ratio", nullptr},
    {"bench.trace_overhead_pct", "%", nullptr},
};

/// Span names that are Fig.-1 stages (their total time is what the
/// replay attributes to the pipeline).
constexpr const char* kStageSpans[] = {
    "ds.prerequisites", "core.build_phi",  "core.impulse_deflation",
    "core.nondynamic",  "core.m1",         "core.proper_part",
    "control.pr_test"};

struct Run {
  std::vector<Metric> metrics;
  std::string samplesJson = "{}";  ///< Sample statistics, for the log.
};

// ------------------------------------------------------------- context

struct Context {
  Args args;
  std::size_t width = 1;  ///< min(affinity CPUs, hardware_concurrency).
  std::size_t hardware = 1;
  std::size_t nproc = 1;
  Checker check;
  SpanRecorder rec{false};  ///< Enabled on traced runs.
  std::string provenanceJson;
};

/// Median over adjacent sample pairs of single[i] / (width * full[i]):
/// pairing keeps slow drift in machine speed out of the ratio.
double pairedEfficiency(const std::vector<double>& single,
                        const std::vector<double>& full, std::size_t width) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < std::min(single.size(), full.size()); ++i)
    ratios.push_back(single[i] / (static_cast<double>(width) * full[i]));
  return stats(ratios).median;
}

/// Set-ups per run: several, so setup_s is a median; one on traced runs,
/// which do not report it.
int setupReps(const Context& ctx) {
  return ctx.args.trace ? 1 : (ctx.args.toy ? 2 : 9);
}

/// Median wall seconds of `reps` runs of `setup`; returns the last state.
template <class F>
auto timedSetup(int reps, F&& setup, Stats& out) {
  std::vector<double> secs;
  decltype(setup()) state;
  for (int i = 0; i < reps; ++i) {
    state = nullptr;
    const std::uint64_t t0 = nowNs();
    state = setup();
    secs.push_back(secondsBetween(t0, nowNs()));
  }
  out = stats(secs);
  return state;
}

std::string statsJson(const char* name, const Stats& s, const char* unit) {
  return std::string("\"") + name + "\":{\"n\":" + std::to_string(s.n) +
         ",\"q1\":" + jsonNumber(s.q1) + ",\"median\":" +
         jsonNumber(s.median) + ",\"q3\":" + jsonNumber(s.q3) +
         ",\"unit\":\"" + unit + "\"}";
}

std::unique_ptr<api::PassivityAnalyzer> makeAnalyzer(std::size_t workers) {
  api::AnalyzerOptions opts;
  opts.threads = workers;
  return std::make_unique<api::PassivityAnalyzer>(opts);
}

/// Telemetry-on minus telemetry-off wall time of `call`, in percent of
/// the off time; samples off, on, on, off.
double telemetryOverheadPct(const std::function<void()>& call) {
  const auto setTelemetry = [](bool on) {
    if (on) {
      obs::TelemetryOptions t;
      t.trace = true;
      t.metrics = true;
      obs::applyTelemetryOptions(t);
    } else {
      obs::setTraceEnabled(false);
      obs::setMetricsEnabled(false);
      obs::setMemoryEnabled(false);
      obs::clearTrace();
      obs::resetMetrics();
    }
  };
  double off = 0.0, on = 0.0;
  for (bool telemetry : {false, true, true, false}) {
    setTelemetry(telemetry);
    const std::uint64_t t0 = nowNs();
    call();
    (telemetry ? on : off) += secondsBetween(t0, nowNs());
  }
  setTelemetry(false);
  return 100.0 * (on - off) / off;
}

/// Blocked gemm throughput at n x n x n and kernel width `width`: median
/// of five products, 2 n^3 flops each.
double gemmGflops(std::size_t n, std::size_t width) {
  perfbench::Rng rng(0x6e4d + n);
  linalg::Matrix a(n, n), b(n, n), c(n, n);
  for (std::size_t i = 0; i < n * n; ++i) {
    a.data()[i] = rng.uniform() - 0.5;
    b.data()[i] = rng.uniform() - 0.5;
  }
  linalg::setGemmThreads(width);
  std::vector<double> secs;
  for (int r = 0; r < 5; ++r) {
    const std::uint64_t t0 = nowNs();
    linalg::gemm(1.0, a, false, b, false, 0.0, c);
    secs.push_back(secondsBetween(t0, nowNs()));
  }
  const double flops = 2.0 * static_cast<double>(n) * static_cast<double>(n) *
                       static_cast<double>(n);
  return flops / stats(secs).median / 1e9;
}

/// Per-layer values shared by every traced run: replay self times, the
/// reference reports' kernel counters, the gemm rates and the coverage of
/// the untraced sequential analyze() time by the replay's stage spans.
std::map<std::string, double> layerValues(
    const Context& ctx, const std::vector<api::AnalysisReport>& reports,
    std::size_t replaySwaps, double untracedSeconds) {
  std::map<std::string, double> v;
  const std::map<std::string, double> self = ctx.rec.selfSeconds();
  const std::map<std::string, double> total = ctx.rec.totalSeconds();
  for (const LayerMetric& m : kLayerMetrics)
    if (m.span != nullptr) {
      const auto it = self.find(m.span);
      v[m.name] = it == self.end() ? 0.0 : it->second;
    }
  double fallbacks = 0, iterations = 0;
  for (const api::AnalysisReport& r : reports) {
    fallbacks += static_cast<double>(r.staircase.svdFallbacks);
    iterations += static_cast<double>(r.schur.iterations);
  }
  v["linalg.reorder.swaps"] = static_cast<double>(replaySwaps);
  v["linalg.staircase.svd_fallbacks"] = fallbacks;
  v["linalg.schur.iterations"] = iterations;
  double stageSeconds = 0.0;
  for (const char* s : kStageSpans) {
    const auto it = total.find(s);
    if (it != total.end()) stageSeconds += it->second;
  }
  const auto replay = total.find("bench.analysis");
  const double replaySeconds = replay == total.end() ? 0.0 : replay->second;
  v["core.stage_coverage"] = stageSeconds / untracedSeconds;
  v["bench.trace_overhead_pct"] =
      100.0 * (replaySeconds - untracedSeconds) / untracedSeconds;
  const std::size_t n = ctx.args.toy ? 96 : 960;
  v["linalg.gemm_gflops"] = gemmGflops(n, 1);
  v["linalg.gemm_gflops_mt"] = gemmGflops(n, ctx.width);
  linalg::setGemmThreads(1);
  return v;
}

/// Sequential reference pass: analyze() every request at gemm width 1.
struct Sequential {
  std::vector<api::Result<api::AnalysisReport>> results;
  double total = 0.0;  ///< Summed wall seconds of the analyze() calls.
};
Sequential analyzeSequentially(
    const api::PassivityAnalyzer& analyzer,
    const std::vector<api::AnalysisRequest>& requests) {
  linalg::setGemmThreads(1);
  Sequential s;
  for (const api::AnalysisRequest& rq : requests) {
    const std::uint64_t t0 = nowNs();
    s.results.push_back(analyzer.analyze(rq));
    s.total += secondsBetween(t0, nowNs());
  }
  return s;
}

/// Replay every request (one trace track each) and check it against the
/// sequential reference. Returns the summed reorder swaps.
std::size_t replayAll(Context& ctx, const api::PassivityAnalyzer& analyzer,
                      const std::vector<api::AnalysisRequest>& requests,
                      const Sequential& reference) {
  linalg::setGemmThreads(1);
  std::size_t swaps = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto item = static_cast<std::int64_t>(i);
    ctx.rec.nameItem(item, "item " + std::to_string(i) + " " + requests[i].id);
    const perfbench::ReplayResult rr = perfbench::replayFig1(
        requests[i].system, analyzer.options().passivity, ctx.rec, item);
    swaps += rr.reorder.swaps;
    const std::string why =
        reference.results[i].ok() ? replayMismatch(rr, *reference.results[i])
                                  : "reference analysis failed";
    ctx.check.record(why.empty(), requests[i].id + ": " + why);
  }
  return swaps;
}

std::vector<api::AnalysisReport> okReports(const Sequential& s) {
  std::vector<api::AnalysisReport> out;
  for (const auto& r : s.results)
    if (r.ok()) out.push_back(*r);
  return out;
}

// ------------------------------------------------------------ large-800

Run runLarge(Context& ctx) {
  const bool toy = ctx.args.toy;
  struct State {
    perfbench::LargeInputs in;
    std::unique_ptr<api::PassivityAnalyzer> analyzer;
  };
  const auto setup = [&]() -> std::unique_ptr<State> {
    auto s = std::make_unique<State>();
    s->in = perfbench::makeLargeInputs(toy);
    s->analyzer = makeAnalyzer(ctx.width);
    linalg::setGemmThreads(1);  // tear the kernel pool down ...
    linalg::setGemmThreads(ctx.width);  // ... and spin it up again
    (void)s->analyzer->analyze(
        circuits::makeBenchmarkModel(toy ? 20 : 80, true));
    return s;
  };
  Stats setupStats;
  std::unique_ptr<State> st = timedSetup(setupReps(ctx), setup, setupStats);
  Expectation expect = st->in.expect;
  if (ctx.args.wrongExpectation)
    expect = perfbench::expectVerdict(api::ErrorCode::ProperPartNotPr);
  const ds::DescriptorSystem& g = st->in.system;
  const api::PassivityAnalyzer& analyzer = *st->analyzer;

  std::optional<api::AnalysisReport> first;
  const auto analyzeAt = [&](std::size_t width) {
    linalg::setGemmThreads(width);
    const std::uint64_t t0 = nowNs();
    api::Result<api::AnalysisReport> r = analyzer.analyze(g);
    const double secs = secondsBetween(t0, nowNs());
    std::string why = verdictMismatch(r, expect);
    if (why.empty() && first && !first->decisionEquals(*r))
      why = "decision differs between kernel widths";
    if (why.empty() && !first) first = *r;
    ctx.check.record(why.empty(), "large: " + why);
    return std::make_pair(secs, std::move(r));
  };

  Run run;
  if (!ctx.args.trace) {
    // ABBA blocks over the two widths; the seed picks which comes first.
    const std::size_t w = ctx.width;
    const bool wideFirst = ctx.args.seed % 2 == 0;
    std::vector<double> full, single;
    double peakRss = 0.0;
    const std::uint64_t start = nowNs();
    do {
      for (bool wide : {wideFirst, !wideFirst, !wideFirst, wideFirst})
        (wide ? full : single).push_back(analyzeAt(wide ? w : 1).first);
      if (peakRss == 0.0) peakRss = peakRssMib();
    } while (secondsBetween(start, nowNs()) < ctx.args.seconds);
    const Stats f = stats(full), s1 = stats(single);
    run.metrics = {
        {"setup_s", setupStats.median, "s"},
        {"call_s", f.median, "s"},
        {"call_1t_s", s1.median, "s"},
        {"parallel_eff", pairedEfficiency(single, full, w), "ratio"},
        {"items_per_s", 1.0 / f.median, "1/s"},
        {"peak_rss_mib", peakRss, "MiB"},
    };
    run.samplesJson = "{" + statsJson("setup_s", setupStats, "s") + "," +
                      statsJson("call_s", f, "s") + "," +
                      statsJson("call_1t_s", s1, "s") + "}";
    return run;
  }

  // Traced run: untraced width-1 reference, then the traced replay at
  // width 1, then telemetry on/off at full width.
  const auto [untraced, reference] = analyzeAt(1);
  perfbench::ReplayResult rr;
  {
    linalg::setGemmThreads(1);
    ctx.rec.nameItem(0, "large-800");
    rr = perfbench::replayFig1(g, analyzer.options().passivity, ctx.rec, 0);
    const std::string why =
        reference.ok() ? replayMismatch(rr, *reference) : "reference failed";
    ctx.check.record(why.empty(), "large replay: " + why);
  }
  linalg::setGemmThreads(ctx.width);
  const double overhead =
      telemetryOverheadPct([&] { (void)analyzer.analyze(g); });
  std::vector<api::AnalysisReport> reports;
  if (reference.ok()) reports.push_back(*reference);
  std::map<std::string, double> v =
      layerValues(ctx, reports, rr.reorder.swaps, untraced);
  v["obs.overhead_pct"] = overhead;
  v["api.batch.idle_frac"] = 0.0;  // no batch scheduler on this workload
  for (const LayerMetric& m : kLayerMetrics)
    run.metrics.push_back({m.name, v[m.name], m.unit});
  return run;
}

// ---------------------------------------------------------- batch-mixed

Run runBatchMixed(Context& ctx) {
  struct State {
    perfbench::BatchInputs in;
    std::unique_ptr<api::PassivityAnalyzer> analyzer;
  };
  const auto setup = [&]() -> std::unique_ptr<State> {
    auto s = std::make_unique<State>();
    s->in = perfbench::makeBatchInputs(ctx.args.seed, ctx.args.toy);
    s->analyzer = makeAnalyzer(ctx.width);
    linalg::setGemmThreads(1);
    (void)s->analyzer->analyze(circuits::makeBenchmarkModel(40, true));
    return s;
  };
  Stats setupStats;
  std::unique_ptr<State> st = timedSetup(setupReps(ctx), setup, setupStats);
  const std::vector<api::AnalysisRequest>& requests = st->in.requests;
  std::vector<Expectation> expect = st->in.expect;
  if (ctx.args.wrongExpectation)
    expect[0] = perfbench::expectVerdict(expect[0].verdict == api::ErrorCode::Ok
                                             ? api::ErrorCode::ProperPartNotPr
                                             : api::ErrorCode::Ok);
  const api::PassivityAnalyzer& analyzer = *st->analyzer;
  const std::size_t workers = std::min(ctx.width, requests.size());

  // One runBatch call, every item checked against its expectation and
  // against the first call's decisions.
  std::vector<api::Result<api::AnalysisReport>> first;
  const auto batchOnce = [&] {
    linalg::setGemmThreads(1);
    const std::uint64_t t0 = nowNs();
    std::vector<api::Result<api::AnalysisReport>> res =
        analyzer.runBatch(requests);
    const double secs = secondsBetween(t0, nowNs());
    for (std::size_t i = 0; i < res.size(); ++i) {
      std::string why = verdictMismatch(res[i], expect[i]);
      if (why.empty() && !first.empty() &&
          !(first[i].ok() && first[i]->decisionEquals(*res[i])))
        why = "decision differs between batch calls";
      ctx.check.record(why.empty(), requests[i].id + ": " + why);
    }
    if (first.empty()) first = std::move(res);
    return secs;
  };
  const auto checkSequential = [&](const Sequential& seq) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      std::string why = verdictMismatch(seq.results[i], expect[i]);
      if (why.empty() &&
          !(first[i].ok() && first[i]->decisionEquals(*seq.results[i])))
        why = "batch decision differs from sequential analyze()";
      ctx.check.record(why.empty(), requests[i].id + " (sequential): " + why);
    }
  };

  Run run;
  if (!ctx.args.trace) {
    // Batch calls alternate with sequential passes, so drift in machine
    // speed hits both medians alike.
    std::vector<double> calls, passes;
    double peakRss = 0.0;
    const std::uint64_t start = nowNs();
    do {
      calls.push_back(batchOnce());
      const Sequential seq = analyzeSequentially(analyzer, requests);
      checkSequential(seq);
      passes.push_back(seq.total);
      if (peakRss == 0.0) peakRss = peakRssMib();
    } while (secondsBetween(start, nowNs()) < ctx.args.seconds);
    const Stats c = stats(calls), p = stats(passes);
    const double items = static_cast<double>(requests.size());
    run.metrics = {
        {"setup_s", setupStats.median, "s"},
        {"call_s", c.median, "s"},
        {"call_1t_s", p.median, "s"},
        {"parallel_eff", pairedEfficiency(passes, calls, ctx.width), "ratio"},
        {"items_per_s", items / c.median, "1/s"},
        {"peak_rss_mib", peakRss, "MiB"},
    };
    run.samplesJson = "{" + statsJson("setup_s", setupStats, "s") + "," +
                      statsJson("call_s", c, "s") + "," +
                      statsJson("call_1t_s", p, "s") + ",\"items\":" +
                      std::to_string(requests.size()) + "}";
    return run;
  }

  double batchWall = 0.0;
  {
    auto scope = ctx.rec.scope("api.run_batch");
    batchWall = batchOnce();
  }
  const Sequential seq = analyzeSequentially(analyzer, requests);
  checkSequential(seq);
  const std::size_t swaps = replayAll(ctx, analyzer, requests, seq);
  const double overhead = telemetryOverheadPct(
      [&] { (void)analyzer.runBatch(requests); });
  std::map<std::string, double> v =
      layerValues(ctx, okReports(seq), swaps, seq.total);
  v["obs.overhead_pct"] = overhead;
  v["api.batch.idle_frac"] =
      1.0 - seq.total / (static_cast<double>(workers) * batchWall);
  for (const LayerMetric& m : kLayerMetrics)
    run.metrics.push_back({m.name, v[m.name], m.unit});
  return run;
}

// -------------------------------------------------------- sweep-netlist

Run runSweepNetlist(Context& ctx) {
  struct State {
    perfbench::SweepInputs in;
    circuits::Netlist net{0};
    circuits::SweepSpec spec;
    std::unique_ptr<api::PassivityAnalyzer> analyzer;
  };
  const auto setup = [&]() -> std::unique_ptr<State> {
    auto s = std::make_unique<State>();
    s->in = perfbench::makeSweepInputs(ctx.args.seed, ctx.args.toy);
    const api::Result<api::LoadedNetlist> parsed =
        perfbench::traced(ctx.rec, "circuits.parse",
                          [&] { return api::parseNetlist(s->in.spice); });
    if (!parsed.ok())
      throw std::runtime_error("sweep netlist does not parse: " +
                               parsed.status().toString());
    s->net = parsed->netlist;
    const api::Result<ds::DescriptorSystem> nominal =
        perfbench::traced(ctx.rec, "circuits.stamp",
                          [&] { return api::stampNetlist(s->net); });
    if (!nominal.ok())
      throw std::runtime_error("sweep netlist does not stamp: " +
                               nominal.status().toString());
    s->spec = perfbench::sweepSpecFor(s->net, s->in);
    s->analyzer = makeAnalyzer(ctx.width);
    linalg::setGemmThreads(1);
    (void)s->analyzer->analyze(*nominal);
    return s;
  };
  Stats setupStats;
  std::unique_ptr<State> st = timedSetup(setupReps(ctx), setup, setupStats);
  const circuits::Netlist& net = st->net;
  const circuits::SweepSpec& spec = st->spec;
  const api::PassivityAnalyzer& analyzer = *st->analyzer;
  const double rankTol = analyzer.options().passivity.rankTol;
  const Expectation passive = perfbench::expectVerdict(api::ErrorCode::Ok);
  const Expectation wrong =
      perfbench::expectVerdict(api::ErrorCode::ProperPartNotPr);
  const auto expectAt = [&](std::size_t i) {
    return ctx.args.wrongExpectation && i == 0 ? wrong : passive;
  };

  // Check one sweep's points; the first sweep is the reference for later
  // calls and for the sequential pass.
  std::optional<circuits::SweepResult> first;
  const auto checkSweep = [&](circuits::SweepResult& r) {
    for (std::size_t i = 0; i < r.points.size(); ++i) {
      const circuits::SweepPointResult& p = r.points[i];
      std::string why;
      if (!p.ok) {
        why = "error " + p.error;
      } else {
        why = verdictMismatch(api::Result<api::AnalysisReport>(p.report),
                              expectAt(i));
        if (why.empty() && (!p.marginDefined || p.margin < -spec.marginTol))
          why = "passive point without a non-negative margin";
        if (why.empty() && first &&
            (!first->points[i].report.decisionEquals(p.report) ||
             first->points[i].margin != p.margin))
          why = "decision or margin differs between sweep calls";
      }
      ctx.check.record(why.empty(), p.report.id + ": " + why);
    }
    if (!first) first = std::move(r);
  };
  // Sequential reference: the same requests, analyze() and margin one
  // point at a time at width 1.
  struct SeqSweep {
    std::vector<api::AnalysisRequest> requests;
    Sequential seq;
    std::vector<core::PassivityMargin> margins;
    double total = 0.0;
  };
  const auto sequentialSweep = [&] {
    linalg::setGemmThreads(1);
    SeqSweep s;
    const std::uint64_t t0 = nowNs();
    s.requests = circuits::buildSweepRequests(net, spec);
    for (const api::AnalysisRequest& rq : s.requests) {
      const std::uint64_t a0 = nowNs();
      s.seq.results.push_back(analyzer.analyze(rq));
      s.seq.total += secondsBetween(a0, nowNs());
      s.margins.push_back(
          core::passivityMargin(rq.system, spec.marginTol, rankTol));
    }
    s.total = secondsBetween(t0, nowNs());
    for (std::size_t i = 0; i < s.requests.size(); ++i) {
      const circuits::SweepPointResult& p = first->points[i];
      std::string why = verdictMismatch(s.seq.results[i], expectAt(i));
      if (why.empty() && !(p.ok && p.report.decisionEquals(*s.seq.results[i])))
        why = "sweep decision differs from sequential analyze()";
      if (why.empty() && (p.marginDefined != s.margins[i].defined ||
                          p.margin != s.margins[i].margin))
        why = "sweep margin differs from sequential passivityMargin()";
      ctx.check.record(why.empty(), s.requests[i].id + " (sequential): " + why);
    }
    return s;
  };

  Run run;
  if (!ctx.args.trace) {
    // Sweep calls alternate with sequential passes, as in batch-mixed.
    std::vector<double> calls, passes;
    std::size_t points = 0;
    double peakRss = 0.0;
    const std::uint64_t start = nowNs();
    do {
      linalg::setGemmThreads(1);
      const std::uint64_t t0 = nowNs();
      circuits::SweepResult r = circuits::runSweep(net, spec, analyzer);
      calls.push_back(secondsBetween(t0, nowNs()));
      points = r.points.size();
      checkSweep(r);
      passes.push_back(sequentialSweep().total);
      if (peakRss == 0.0) peakRss = peakRssMib();
    } while (secondsBetween(start, nowNs()) < ctx.args.seconds);
    const Stats c = stats(calls), p = stats(passes);
    run.metrics = {
        {"setup_s", setupStats.median, "s"},
        {"call_s", c.median, "s"},
        {"call_1t_s", p.median, "s"},
        {"parallel_eff", pairedEfficiency(passes, calls, ctx.width), "ratio"},
        {"items_per_s", static_cast<double>(points) / c.median, "1/s"},
        {"peak_rss_mib", peakRss, "MiB"},
    };
    run.samplesJson = "{" + statsJson("setup_s", setupStats, "s") + "," +
                      statsJson("call_s", c, "s") + "," +
                      statsJson("call_1t_s", p, "s") + ",\"items\":" +
                      std::to_string(points) + "}";
    return run;
  }

  // Traced run: runSweep taken apart into its public calls (re-stamp,
  // runBatch, one margin per point), then the sequential reference and
  // the per-point replay.
  linalg::setGemmThreads(1);
  std::vector<api::AnalysisRequest> requests;
  {
    auto scope = ctx.rec.scope("circuits.restamp");
    requests = circuits::buildSweepRequests(net, spec);
  }
  const std::vector<std::vector<double>> values =
      circuits::expandSweep(net, spec);
  double batchWall = 0.0;
  circuits::SweepResult traced;
  {
    auto scope = ctx.rec.scope("api.run_batch");
    const std::uint64_t t0 = nowNs();
    std::vector<api::Result<api::AnalysisReport>> batch =
        analyzer.runBatch(requests);
    batchWall = secondsBetween(t0, nowNs());
    traced.points.resize(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      traced.points[i].values = values[i];
      traced.points[i].ok = batch[i].ok();
      if (batch[i].ok()) traced.points[i].report = *batch[i];
      else traced.points[i].error = batch[i].status().toString();
    }
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!traced.points[i].ok) continue;
    auto scope = ctx.rec.scope("core.margin", static_cast<std::int64_t>(i));
    const core::PassivityMargin m =
        core::passivityMargin(requests[i].system, spec.marginTol, rankTol);
    traced.points[i].marginDefined = m.defined;
    traced.points[i].margin = m.margin;
  }
  checkSweep(traced);
  const SeqSweep s = sequentialSweep();
  const std::size_t swaps = replayAll(ctx, analyzer, s.requests, s.seq);
  const double overhead = telemetryOverheadPct(
      [&] { (void)analyzer.runBatch(requests); });
  std::map<std::string, double> v =
      layerValues(ctx, okReports(s.seq), swaps, s.seq.total);
  v["obs.overhead_pct"] = overhead;
  v["api.batch.idle_frac"] =
      1.0 - s.seq.total /
                (static_cast<double>(std::min(ctx.width, requests.size())) *
                 batchWall);
  for (const LayerMetric& m : kLayerMetrics)
    run.metrics.push_back({m.name, v[m.name], m.unit});
  return run;
}

// ------------------------------------------------------------ dump mode

int dumpInputs(const Args& a) {
  std::string bytes;
  if (a.workload == "large-800") {
    perfbench::appendSystemBytes(perfbench::makeLargeInputs(a.toy).system,
                                 bytes);
  } else if (a.workload == "batch-mixed") {
    const perfbench::BatchInputs in = perfbench::makeBatchInputs(a.seed, a.toy);
    for (const api::AnalysisRequest& rq : in.requests) {
      bytes += rq.id;
      bytes.push_back('\0');
      perfbench::appendSystemBytes(rq.system, bytes);
    }
  } else {
    const perfbench::SweepInputs in = perfbench::makeSweepInputs(a.seed, a.toy);
    bytes += in.spice;
    const api::Result<api::LoadedNetlist> parsed = api::parseNetlist(in.spice);
    if (!parsed.ok()) return 1;
    const circuits::SweepSpec spec =
        perfbench::sweepSpecFor(parsed->netlist, in);
    for (const api::AnalysisRequest& rq :
         circuits::buildSweepRequests(parsed->netlist, spec))
      perfbench::appendSystemBytes(rq.system, bytes);
  }
  std::ofstream out(a.dumpInputs, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return out ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload large-800|batch-mixed|"
                 "sweep-netlist --seed N --seconds S --trace 0|1 [--toy] "
                 "[--wrong-expectation] [--dump-inputs PATH] "
                 "[--trace-dir DIR] [--commit SHA] [--source-hash HEX]\n");
    return 2;
  }
  // These switch library behaviour process-wide and would silently change
  // what is measured.
  for (const char* var : {"SHHPASS_TRACE", "SHHPASS_METRICS",
                          "SHHPASS_STAGE_GRAPH", "SHHPASS_GEMM_THREADS"})
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", var);
      return 2;
    }
  if (!args.dumpInputs.empty()) return dumpInputs(args);

  Context ctx;
  ctx.args = args;
  ctx.nproc = affinityCpus();
  ctx.hardware = std::max(1u, std::thread::hardware_concurrency());
  ctx.width = std::min(ctx.nproc, ctx.hardware);
  ctx.rec = SpanRecorder(args.trace == 1);
  linalg::setGemmThreads(1);

  const std::string gemmBytes = args.toy ? "221184" : "22118400";
  ctx.provenanceJson =
      "{\"workload\":" + jsonString(args.workload) +
      ",\"seed\":" + std::to_string(args.seed) +
      ",\"seconds\":" + jsonNumber(args.seconds) +
      ",\"trace\":" + std::to_string(args.trace) +
      ",\"toy\":" + (args.toy ? "true" : "false") +
      ",\"nproc\":" + std::to_string(ctx.nproc) +
      ",\"hardware_concurrency\":" + std::to_string(ctx.hardware) +
      ",\"gemm_width\":" + std::to_string(ctx.width) +
      ",\"gemm_width_batch\":1" +
      ",\"batch_workers\":" + std::to_string(ctx.width) +
      ",\"gemm_bench_bytes\":" + gemmBytes +
      ",\"cpu_model\":" + jsonString(cpuModel()) +
      ",\"build_type\":" + jsonString(PERFBENCH_BUILD_TYPE) +
      ",\"compiler\":" + jsonString(PERFBENCH_CXX_COMPILER) +
      ",\"git_commit\":" + jsonString(args.commit) +
      ",\"source_sha256\":" + jsonString(args.sourceHash) + "}";
  std::printf("{\"provenance\":%s}\n", ctx.provenanceJson.c_str());
  std::fflush(stdout);

  Run run;
  try {
    if (args.workload == "large-800")
      run = runLarge(ctx);
    else if (args.workload == "batch-mixed")
      run = runBatchMixed(ctx);
    else
      run = runSweepNetlist(ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  if (args.trace) {
    std::filesystem::create_directories(args.traceDir);
    const std::string path = args.traceDir + "/trace-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    std::ofstream out(path);
    out << ctx.rec.chromeJson(ctx.provenanceJson);
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "perfbench: trace written to %s\n", path.c_str());
  }

  for (const std::string& note : ctx.check.notes())
    std::fprintf(stderr, "perfbench: violation: %s\n", note.c_str());
  const double failedRatio = static_cast<double>(ctx.check.failed()) /
                             static_cast<double>(ctx.check.attempted());
  std::printf("{\"samples\":%s,\"failed_ratio\":%s}\n", run.samplesJson.c_str(),
              jsonNumber(failedRatio).c_str());

  bool finite = true;
  std::string metrics;
  for (const Metric& m : run.metrics) {
    finite = finite && std::isfinite(m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += jsonString(m.name) + ": {\"value\": " + jsonNumber(m.value) +
               ", \"unit\": " + jsonString(m.unit) + "}";
  }
  const bool correct =
      ctx.check.failed() == 0 && ctx.check.attempted() > 0 && finite;
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "{%s}}\n",
      correct ? "true" : "false", ctx.check.attempted(), ctx.check.failed(),
      metrics.c_str());
  std::fflush(stdout);
  return 0;
}
