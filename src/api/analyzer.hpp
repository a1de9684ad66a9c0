// PassivityAnalyzer: the engine facade of the library. Setup (options),
// solve (analyze / runBatch), and reporting (AnalysisReport with JSON
// serialization of the full Fig.-1 decision path) live behind one object —
// the facade pattern of lgrtk's circuit module — instead of the historical
// scatter of per-module free functions.
#pragma once

#include <cstddef>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "api/pipeline.hpp"
#include "api/scheduler.hpp"
#include "api/status.hpp"
#include "ds/descriptor.hpp"
#include "linalg/schur_multishift.hpp"
#include "linalg/schur_reorder.hpp"
#include "obs/telemetry.hpp"

namespace shhpass::api {

/// One unit of service work: a system to analyze plus optional per-request
/// option overrides and a caller-chosen correlation id.
struct AnalysisRequest {
  std::string id;                 ///< Echoed into the report (may be empty).
  ds::DescriptorSystem system;
  std::optional<core::PassivityOptions> options;  ///< Overrides analyzer
                                                  ///< defaults when set.
};

/// Full decision-path record of one analysis.
struct AnalysisReport {
  std::string id;               ///< AnalysisRequest::id (empty for ad hoc).
  bool passive = false;
  ErrorCode verdict = ErrorCode::Ok;  ///< Ok when passive, else the Fig.-1
                                      ///< stage verdict code.
  std::string verdictMessage;   ///< Human-readable verdict.
  core::FailureStage failure = core::FailureStage::None;

  // Input shape.
  std::size_t order = 0;        ///< State count of the input system.
  std::size_t ports = 0;        ///< Input (= output) count.

  // Stage diagnostics (same content as the legacy PassivityResult).
  std::size_t removedImpulsive = 0;
  std::size_t removedNondynamic = 0;
  std::size_t impulsiveChains = 0;
  linalg::Matrix m1;            ///< First Markov parameter (residue at inf).
  std::size_t properOrder = 0;  ///< Order of the extracted proper part.

  /// Health of the Schur reordering behind the Eq.-(22) stable/antistable
  /// split (zeroed when the run never reached the proper-part stage).
  linalg::ReorderReport reorder;
  /// Health of the real Schur eigensolver behind that split: which
  /// kernel path ran (multishift vs unblocked oracle), sweep / AED /
  /// shift / iteration counters (linalg/schur_multishift.hpp; zeroed
  /// when the run never reached the proper-part stage). Serialized
  /// under diagnostics.schur.
  linalg::SchurReport schur;
  /// Health of the shared-policy SVD rank decisions behind every
  /// deflation step (decision count + worst kept/dropped margins,
  /// linalg/svd.hpp; empty when the run stopped before the deflation
  /// stages). Serialized under diagnostics.rankPolicy.
  linalg::RankReport rankPolicy;
  /// Health of the one-pass staircase deflation chain (kernel mix,
  /// compression reuse, chain truncation — linalg/staircase.hpp), merged
  /// across the impulse-deflation, nondynamic-removal, and m1-extraction
  /// stages. Serialized under diagnostics.staircase.
  linalg::StaircaseReport staircase;
  /// Non-fatal diagnostic flags (e.g. Warning::ReorderSwapRejected).
  std::vector<Warning> warnings;

  // Execution record.
  /// One trace per executed stage, in Fig.-1 order.
  std::vector<StageTrace> stages;
  double totalSeconds = 0.0;
  /// How the batch scheduler ran this analysis (shard plan slot, kernel
  /// budget, steal records — api/scheduler.hpp). Default-initialized for
  /// plain analyze() calls. Like totalSeconds this is an EXECUTION
  /// record: decisionEquals ignores it entirely (steal counts are
  /// timing-dependent; the plan fields are deterministic but describe
  /// scheduling, not the Fig.-1 decision path).
  SchedulerReport scheduler;

  /// Decision-path equality: every field that reflects WHAT was decided
  /// (verdict, diagnostics, M1, per-stage statuses) — everything except
  /// wall-clock timings and the scheduler execution record. Batch
  /// results must decisionEquals their sequential single-shot
  /// counterparts, for every worker count and steal schedule.
  bool decisionEquals(const AnalysisReport& other) const;

  /// Compact JSON serialization of the full decision path (service wire
  /// format; see README for the schema).
  std::string toJson() const;
};

/// Analyzer-wide configuration.
struct AnalyzerOptions {
  core::PassivityOptions passivity;  ///< Default per-analysis options.
  std::size_t threads = 0;  ///< Worker threads for runBatch; 0 = hardware
                            ///< concurrency.
  /// Batch shard scheduling knobs for runBatch (the `workers` field is
  /// overridden per batch from `threads` and the batch size).
  SchedulerOptions scheduler;
  /// Telemetry switches (span tracing, metrics registry, memory
  /// accounting — src/obs/). Applied process-wide at analyzer
  /// construction; the environment forces SHHPASS_TRACE=path and
  /// SHHPASS_METRICS=1 (read once, first analyzer wins) turn telemetry
  /// on regardless of these fields. Telemetry is observation only: it
  /// can never change a decision (pinned by tests/test_obs.cpp).
  obs::TelemetryOptions telemetry;
};

/// The engine facade. Thread-compatible: one analyzer may serve concurrent
/// analyze() calls; runBatch parallelizes internally.
class PassivityAnalyzer {
 public:
  PassivityAnalyzer() : PassivityAnalyzer(AnalyzerOptions{}) {}
  explicit PassivityAnalyzer(AnalyzerOptions options);

  const AnalyzerOptions& options() const { return options_; }

  /// Per-stage diagnostic hook, invoked after each stage of single-shot
  /// analyze() calls (NOT during runBatch, where reports carry the same
  /// traces without cross-thread observer reentrancy).
  ///
  /// Thread-safe: may be called while analyze() runs on other threads —
  /// the observer slot is mutex-guarded and each analysis snapshots it
  /// once at entry (in-flight analyses keep notifying the observer they
  /// started with). Regression note: before PR 6 the slot was a bare
  /// std::function read concurrently with the setter — a data race
  /// ThreadSanitizer flags on the test_thread_pool_stress observer test.
  void setStageObserver(Pipeline::Observer observer);

  /// Analyze one system with the analyzer-default options.
  Result<AnalysisReport> analyze(const ds::DescriptorSystem& system) const;

  /// Analyze one request (honoring its option overrides and id).
  Result<AnalysisReport> analyze(const AnalysisRequest& request) const;

  /// Analyze many systems on the work-stealing shard scheduler
  /// (api/scheduler.hpp): the batch is planned into shards (large-order
  /// items get kernel-thread budgets, small items share batch slots),
  /// workers steal across shards, and results land in request order —
  /// element i decisionEquals what analyze(requests[i]) returns, for
  /// every worker count and steal schedule. Per-item StageTraces are
  /// owned by item-indexed report slots (never shared across items), so
  /// trace ordering inside each report is the canonical stage order
  /// regardless of concurrency.
  std::vector<Result<AnalysisReport>> runBatch(
      std::span<const AnalysisRequest> requests) const;

 private:
  Result<AnalysisReport> analyzeImpl(const ds::DescriptorSystem& system,
                                     const core::PassivityOptions& opts,
                                     const std::string& id,
                                     bool notifyObserver) const;

  AnalyzerOptions options_;
  mutable std::mutex observerMu_;  ///< Guards observer_ (set vs snapshot).
  Pipeline::Observer observer_;
};

}  // namespace shhpass::api
