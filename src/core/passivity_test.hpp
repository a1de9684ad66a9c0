// The proposed DS passivity test (Fig. 1 of the paper): an O(n^3)
// structure-preserving pipeline on the SHH realization of Phi = G + G~.
//
//   0. prerequisites: square, regular pencil, stable finite modes
//   1. build Phi (Eq. 10)
//   2. deflate impulse-unobservable/-uncontrollable modes (Eqs. 11-17)
//   3. check impulse-freeness; remove nondynamic modes (Eqs. 18-20)
//   4. higher-order impulse check + extract M1 and test M1 >= 0 (Eqs. 24-25)
//   5. normalize E and extract the stable proper part (Eqs. 21-23)
//   6. positive-realness test on the proper part (Sec. 2.2)
//
// Every stage reports diagnostics so the Fig.-1 decision path is auditable.
#pragma once

#include <string>

#include "core/proper_part.hpp"
#include "ds/descriptor.hpp"
#include "linalg/matrix.hpp"
#include "linalg/schur_reorder.hpp"
#include "linalg/staircase.hpp"

namespace shhpass::core {

/// Where (if anywhere) the Fig.-1 flow declared the system non-passive.
enum class FailureStage {
  None,               ///< Passive.
  NotSquare,          ///< u^T y power interpretation requires square G.
  SingularPencil,     ///< (E, A) not regular: G undefined.
  UnstableFiniteModes,///< Finite dynamic mode with Re >= 0.
  ResidualImpulses,   ///< Phi not impulse-free after the deflation pass.
  HigherOrderImpulse, ///< Grade >= 3 chains: some Mk != 0 for k >= 2.
  M1NotPsd,           ///< M1 not symmetric positive semidefinite.
  LosslessAxisModes,  ///< A4 spectrum touches the imaginary axis; the
                      ///< stable/antistable split (Eq. 22) fails.
  ProperPartNotPr     ///< Extracted proper part fails positive realness.
};

/// Human-readable name of a failure stage.
std::string failureStageName(FailureStage s);

/// Full result of the proposed passivity test.
struct PassivityResult {
  bool passive = false;
  FailureStage failure = FailureStage::None;

  // Stage diagnostics.
  std::size_t removedImpulsive = 0;   ///< Deflated directions in stage 1.
  std::size_t removedNondynamic = 0;  ///< Eliminated states in stage 2.
  linalg::Matrix m1;                  ///< Extracted first Markov parameter.
  std::size_t impulsiveChains = 0;    ///< Grade-2 chain count of G.
  ProperPartResult properPart;        ///< The decoupled stable proper part
                                      ///< (the paper's "sidetrack").
  /// Health of the Schur reordering behind the Eq.-(22) stable/antistable
  /// split (swap/reject counts, max residual, eigenvalue drift bound).
  /// A nonzero rejectedSwaps means some exchanges were numerically
  /// ill-posed and the ordering is incomplete — a LosslessAxisModes
  /// verdict is then conservative rather than certain.
  linalg::ReorderReport reorder;
  /// Health of the real Schur eigensolver behind that split (which
  /// kernel path ran, multishift sweep / AED / shift / iteration
  /// counters — linalg/schur_multishift.hpp).
  linalg::SchurReport schur;
  /// Health of every SVD rank decision the deflation chain took (shared
  /// policy, linalg/svd.hpp), merged across the impulse-deflation,
  /// nondynamic-removal, and proper-part stages. A kept margin near 1
  /// means some deflation decision was numerically sharp.
  linalg::RankReport rankPolicy;
  /// Health of the one-pass staircase deflation chain (kernel mix,
  /// compression reuse, chain truncation — linalg/staircase.hpp), merged
  /// across the impulse-deflation, nondynamic-removal, and m1-extraction
  /// stages.
  linalg::StaircaseReport staircase;
};

/// Options for the proposed test.
struct PassivityOptions {
  double rankTol = -1.0;   ///< Rank tolerance for all deflation SVDs.
  double imagTol = 1e-8;   ///< Imaginary-axis tolerance for spectra.
  bool skipPrerequisites = false;  ///< Skip regularity/stability screens
                                   ///< (when the caller already knows).
  bool balance = true;     ///< Balance the pencil first (frequency scaling
                           ///< + equilibration); strongly recommended for
                           ///< physical-unit models.
};

/// Run the proposed SHH passivity test on a descriptor system.
///
/// DEPRECATED entry point: this is a thin shim over the stage-pipeline
/// engine (api/pipeline.hpp). New code should use api::PassivityAnalyzer
/// through the api/shhpass.hpp umbrella header, which adds Status-based
/// error handling, per-stage timing, JSON reports, and batching. Unlike
/// the api layer, this wrapper rethrows operational failures as
/// std::invalid_argument / std::runtime_error (the historical contract).
PassivityResult testPassivityShh(const ds::DescriptorSystem& g,
                                 const PassivityOptions& opt = {});

}  // namespace shhpass::core
