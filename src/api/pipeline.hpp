// Stage-pipeline engine for the Fig.-1 passivity test. Each box of the
// paper's flowchart is a Stage object with a uniform
//     run(PipelineState&) -> Status
// interface; the Pipeline runs them in order with per-stage wall-clock
// timing and an optional diagnostic observer (this subsumes the per-stage
// instrumentation the ablation bench used to hand-roll).
//
// Status semantics inside the pipeline:
//   * ok            -> continue to the next stage;
//   * verdict code  -> the Fig.-1 flow reached a NOT-PASSIVE exit: the run
//                      stops, the analysis itself SUCCEEDED;
//   * error code    -> the analysis failed (bad input / numerical
//                      breakdown); the run stops and the error propagates.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/status.hpp"
#include "core/impulse_deflation.hpp"
#include "core/markov.hpp"
#include "core/nondynamic.hpp"
#include "core/passivity_test.hpp"
#include "core/proper_part.hpp"
#include "ds/balance.hpp"
#include "shh/shh_pencil.hpp"

namespace shhpass::api {

/// Mutable state threaded through the stages: the input system, the
/// intermediate realizations, and the accumulated legacy-compatible
/// diagnostics (core::PassivityResult) from which reports are built.
struct PipelineState {
  const ds::DescriptorSystem* input = nullptr;  ///< Borrowed; must outlive.
  core::PassivityOptions options;

  ds::BalancedSystem balanced;                ///< Set by Prerequisites.
  shh::ShhRealization phi;                    ///< Set by BuildPhi.
  core::ImpulseDeflationResult deflation;     ///< Set by ImpulseDeflation.
  core::NondynamicRemovalResult nondynamic;   ///< Set by NondynamicRemoval.

  /// Verdict + diagnostics, identical in content to the legacy
  /// testPassivityShh result (the deprecated shim returns exactly this).
  core::PassivityResult result;
};

/// One box of the Fig.-1 flowchart: reads the state the earlier stages
/// left and records its outputs and diagnostics into it.
class Stage {
 public:
  virtual ~Stage() = default;
  virtual const char* name() const = 0;
  virtual Status run(PipelineState& state) = 0;
};

/// Per-stage execution record: what ran, how long, and with what outcome.
struct StageTrace {
  std::string name;
  Status status;
  double seconds = 0.0;
  /// Peak live tracked bytes while the stage ran (obs/memory.hpp); 0
  /// unless the memory accountant is enabled. Execution record only —
  /// never part of decisionEquals.
  std::size_t peakBytes = 0;
};

/// An ordered sequence of stages with timing and diagnostic hooks.
class Pipeline {
 public:
  using Observer = std::function<void(const StageTrace&)>;

  Pipeline() = default;
  Pipeline(Pipeline&&) = default;
  Pipeline& operator=(Pipeline&&) = default;

  /// The seven-stage Fig.-1 pipeline of the paper: prerequisites, Phi
  /// build, impulse deflation, nondynamic removal, M1 extraction/PSD
  /// check, proper-part extraction, positive-realness test.
  static Pipeline standard();

  /// Append a stage; stages run in insertion order.
  Pipeline& addStage(std::unique_ptr<Stage> stage);
  const std::vector<std::unique_ptr<Stage>>& stages() const {
    return stages_;
  }

  /// Run the stages on `state`. Exceptions escaping a stage are translated
  /// to operational-error Statuses (no exceptions cross this boundary).
  /// Each completed stage is appended to `traces` (if non-null) and handed
  /// to `observer` (if set).
  ///
  /// Observer threading contract: the observer is invoked synchronously on
  /// the thread calling run(), once per completed stage, never after run()
  /// returns. The analyzer snapshots its installed observer under a mutex
  /// before each analysis (see PassivityAnalyzer::setStageObserver), so
  /// swapping observers concurrently with a running analysis is safe; a
  /// callable shared across concurrent analyses must itself be
  /// thread-safe, because two run() calls may invoke it concurrently.
  /// Returns:
  ///   * ok       — all stages passed; state.result.passive == true;
  ///   * verdict  — a stage declared non-passivity; state.result.failure
  ///                names the stage;
  ///   * error    — the analysis failed; state.result is meaningless.
  Status run(PipelineState& state, std::vector<StageTrace>* traces = nullptr,
             const Observer& observer = nullptr) const;

 private:
  std::vector<std::unique_ptr<Stage>> stages_;
};

/// The shared immutable instance of Pipeline::standard() used by both the
/// analyzer facade and the deprecated core::testPassivityShh shim (one
/// construction site, so the two entry points cannot diverge).
const Pipeline& standardPipeline();

}  // namespace shhpass::api
