#include "api/pipeline.hpp"

#include <utility>

#include "control/pr_test.hpp"
#include "core/phi_builder.hpp"
#include "obs/clock.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace shhpass::api {
namespace {

/// Shorthand for a not-passive exit at `stage`.
Status verdict(core::FailureStage stage) {
  return Status::error(errorCodeFromFailureStage(stage),
                       core::failureStageName(stage));
}

// Stage 0 of Fig. 1: shape validation, squareness, pencil balancing, and
// (unless skipped) the regularity and finite-stability screens.
class PrerequisitesStage final : public Stage {
 public:
  const char* name() const override { return "prerequisites"; }
  Status run(PipelineState& s) override {
    s.input->validate();
    if (!s.input->isSquareSystem())
      return verdict(core::FailureStage::NotSquare);
    // Balance the pencil: frequency scaling + equilibration, both exact
    // r.s.e. operations under which passivity is invariant.
    s.balanced = s.options.balance ? ds::balanceDescriptor(*s.input)
                                   : ds::BalancedSystem{*s.input, 1.0};
    if (!s.options.skipPrerequisites) {
      if (!ds::isRegular(s.balanced.sys))
        return verdict(core::FailureStage::SingularPencil);
      if (!ds::hasStableFiniteModes(s.balanced.sys))
        return verdict(core::FailureStage::UnstableFiniteModes);
    }
    return Status::okStatus();
  }
};

// Stage 1: realize Phi = G + G~ as an SHH pencil (Eq. 10).
class BuildPhiStage final : public Stage {
 public:
  const char* name() const override { return "build-phi"; }
  Status run(PipelineState& s) override {
    s.phi = core::buildPhi(s.balanced.sys);
    return Status::okStatus();
  }
};

// Stage 2: deflate impulse-unobservable/-uncontrollable modes (Eqs. 11-17).
class ImpulseDeflationStage final : public Stage {
 public:
  const char* name() const override { return "impulse-deflation"; }
  Status run(PipelineState& s) override {
    s.deflation = core::deflateImpulseModes(s.phi, s.options.rankTol);
    s.result.removedImpulsive = s.deflation.removed;
    s.result.rankPolicy.merge(s.deflation.rankReport);
    s.result.staircase.merge(s.deflation.staircase);
    return Status::okStatus();
  }
};

// Stage 3: impulse-freeness certificate + nondynamic removal (Eqs. 18-20).
class NondynamicRemovalStage final : public Stage {
 public:
  const char* name() const override { return "nondynamic-removal"; }
  Status run(PipelineState& s) override {
    s.nondynamic =
        core::removeNondynamicModes(s.deflation.reduced, s.options.rankTol);
    s.result.removedNondynamic = s.nondynamic.removed;
    s.result.rankPolicy.merge(s.nondynamic.rankReport);
    s.result.staircase.merge(s.nondynamic.staircase);
    if (!s.nondynamic.impulseFree)
      return verdict(core::FailureStage::ResidualImpulses);
    return Status::okStatus();
  }
};

// Stage 4: impulsive-part admissibility of G itself — grade >= 3 screen
// plus M1 extraction and the M1 >= 0 check (Eqs. 24-25).
class M1ExtractionStage final : public Stage {
 public:
  const char* name() const override { return "m1-extraction"; }
  Status run(PipelineState& s) override {
    // The impulse-deflation stage's compression of the balanced E (the
    // half-size block of Phi's diag(E, E^T)) serves this whole stage too.
    const linalg::Compression* eComp =
        s.deflation.hasHalfECompression ? &s.deflation.halfECompression
                                        : nullptr;
    // Skew-symmetric Mk cancel inside Phi, so the grade >= 3 screen only
    // needs to run when the stage-2 deflation was non-trivial.
    if (s.deflation.removed > 0 &&
        core::hasHigherOrderImpulses(s.balanced.sys, s.options.rankTol,
                                     &s.result.rankPolicy,
                                     &s.result.staircase, eComp))
      return verdict(core::FailureStage::HigherOrderImpulse);
    core::M1Extraction m1 =
        core::extractM1(s.balanced.sys, s.options.rankTol,
                        core::DeflationPath::Auto, eComp);
    s.result.rankPolicy.merge(m1.rankReport);
    s.result.staircase.merge(m1.staircase);
    // The balanced system is G_b(s) = G(tau * s) with residue tau * M1 at
    // infinity; undo the frequency scaling for reporting.
    s.result.m1 = (1.0 / s.balanced.freqScale) * m1.m1;
    s.result.impulsiveChains = m1.chainCount;
    if (!m1.symmetric || !m1.psd)
      return verdict(core::FailureStage::M1NotPsd);
    return Status::okStatus();
  }
};

// Stage 5: normalize E3 and split off the stable proper part (Eqs. 21-23).
class ProperPartStage final : public Stage {
 public:
  const char* name() const override { return "proper-part"; }
  Status run(PipelineState& s) override {
    core::ProperPartResult& pp = s.result.properPart;
    pp = core::extractProperPart(s.nondynamic.shh, s.options.imagTol,
                                 s.options.rankTol);
    s.result.reorder = pp.reorder;
    s.result.schur = pp.schur;
    s.result.rankPolicy.merge(pp.rankReport);
    if (!pp.ok) return verdict(core::FailureStage::LosslessAxisModes);
    return Status::okStatus();
  }
};

// Stage 6: standard positive-realness test on the extracted proper part.
class PositiveRealnessStage final : public Stage {
 public:
  const char* name() const override { return "pr-test"; }
  Status run(PipelineState& s) override {
    const core::ProperPartResult& pp = s.result.properPart;
    control::PrTestResult pr = control::testPositiveRealProper(
        pp.lambda, pp.b1, pp.c1, pp.dHalf, s.options.imagTol);
    if (!pr.positiveReal)
      return verdict(core::FailureStage::ProperPartNotPr);
    return Status::okStatus();
  }
};

}  // namespace

Pipeline Pipeline::standard() {
  Pipeline p;
  p.addStage(std::make_unique<PrerequisitesStage>());
  p.addStage(std::make_unique<BuildPhiStage>());
  p.addStage(std::make_unique<ImpulseDeflationStage>());
  p.addStage(std::make_unique<NondynamicRemovalStage>());
  p.addStage(std::make_unique<M1ExtractionStage>());
  p.addStage(std::make_unique<ProperPartStage>());
  p.addStage(std::make_unique<PositiveRealnessStage>());
  return p;
}

Pipeline& Pipeline::addStage(std::unique_ptr<Stage> stage) {
  stages_.push_back(std::move(stage));
  return *this;
}

const Pipeline& standardPipeline() {
  static const Pipeline kPipeline = Pipeline::standard();
  return kPipeline;
}

Status Pipeline::run(PipelineState& state, std::vector<StageTrace>* traces,
                     const Observer& observer) const {
  state.result = core::PassivityResult{};
  if (state.input == nullptr)
    return Status::error(ErrorCode::InvalidArgument,
                         "PipelineState::input is null");
  for (const std::unique_ptr<Stage>& stage : stages_) {
    StageTrace trace;
    trace.name = stage->name();
    obs::MemScope mem;
    const std::uint64_t t0 = obs::monotonicNowNs();
    try {
      trace.status = stage->run(state);
    } catch (...) {
      trace.status = statusFromCurrentException();
    }
    const std::uint64_t t1 = obs::monotonicNowNs();
    trace.seconds = obs::nsToSeconds(t0, t1);
    trace.peakBytes = mem.peakBytes();
    obs::emitSpan(trace.name, "stage", t0, t1, obs::currentThreadTid());
    obs::observeStageSeconds(trace.name, trace.seconds);
    obs::counterAdd(obs::Counter::StagesExecuted);
    if (traces) traces->push_back(trace);
    if (observer) {
      try {
        observer(trace);
      } catch (...) {
        // Diagnostic hooks must not break the no-exceptions-cross-the-API
        // contract; a throwing observer loses its own notification only.
      }
    }
    if (!trace.status.ok()) {
      if (isVerdictCode(trace.status.code())) {
        state.result.passive = false;
        state.result.failure =
            *failureStageFromErrorCode(trace.status.code());
      }
      return trace.status;
    }
  }
  state.result.passive = true;
  state.result.failure = core::FailureStage::None;
  return Status::okStatus();
}

}  // namespace shhpass::api
