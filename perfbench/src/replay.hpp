// Traced replay of the Fig.-1 pipeline through the library's public
// functions.
//
// The replay runs the stages in the order the production pipeline runs
// them (prerequisites, build-phi, impulse-deflation, nondynamic-removal,
// m1-extraction, proper-part, pr-test) and opens one span per stage.
// Inside proper-part and pr-test it goes one level further down and calls
// the kernels those stages call (isotropic Arnoldi, LU, SVD, gemm, real
// Schur, Schur reordering, Lyapunov, eigenvalues), each under its own
// span, so every layer's self time can be read off the trace.
//
// The replay mirrors the library code at the level of public calls. It is
// checked on every use: its verdict, stage count, proper order and swap
// count must equal what PassivityAnalyzer::analyze() reports for the same
// system, so a library change that moves work away from these calls shows
// up as a failed run, never as silently wrong layer numbers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "api/status.hpp"
#include "core/passivity_test.hpp"
#include "ds/descriptor.hpp"
#include "linalg/schur_reorder.hpp"
#include "spans.hpp"

namespace perfbench {

struct ReplayResult {
  bool threw = false;        ///< A stage threw; `error` holds its message.
  std::string error;
  shhpass::api::ErrorCode verdict = shhpass::api::ErrorCode::Ok;
  std::size_t stagesRun = 0;    ///< Stages entered, the failing one included.
  std::size_t properOrder = 0;  ///< Rows of the stable proper part.
  shhpass::linalg::ReorderReport reorder;
};

/// Replay one analysis of `sys` under `options`, recording spans into
/// `rec` for batch item `item` (-1: not part of a batch).
ReplayResult replayFig1(const shhpass::ds::DescriptorSystem& sys,
                        const shhpass::core::PassivityOptions& options,
                        SpanRecorder& rec, std::int64_t item);

}  // namespace perfbench
