// Sec. 3.4 of the paper: extract the first Markov parameter M1 (residue of
// the pole at infinity) of G directly from grade-1/grade-2 generalized
// eigenvector chains (Eqs. 24-25), plus the detection of higher-order
// (grade >= 3) impulsive structure which Eq. (3) forbids for passive G.
//
// ONE rank-revealing compression of E serves every consumer of the chain —
// Ker E / Im E for the right chains, Ker E^T / Im E^T for the left chains,
// and both pseudoinverse applications E^+ and (E^T)^+ for the grade-2
// partners — where the historical full-SVD chain (now the test oracle,
// tests/deflation_oracle.hpp) pays four full SVDs of E. When the
// impulse-deflation stage already compressed the (balanced) E, the
// pipeline hands that compression in and this stage recomputes nothing.
#pragma once

#include "ds/descriptor.hpp"
#include "linalg/staircase.hpp"
#include "linalg/svd.hpp"

namespace shhpass::core {

/// Retired implementation selector of the deflation chains: the staircase
/// is the only implementation, so Auto is the only value and nothing
/// dispatches on it. It stays only so existing callers that spell out the
/// third argument of extractM1 keep compiling.
enum class DeflationPath { Auto };

/// Result of the M1 extraction.
struct M1Extraction {
  linalg::Matrix m1;        ///< m x m first Markov parameter.
  std::size_t chainCount = 0;  ///< Number of grade-2 impulsive chains found.
  bool symmetric = false;   ///< M1 = M1^T within tolerance (required for
                            ///< positive realness of the pole at infinity).
  bool psd = false;         ///< M1 symmetric positive semidefinite.
  /// Rank decisions taken (shared policy).
  linalg::RankReport rankReport;
  /// Staircase health (kernel mix, compression reuse, chain truncation).
  linalg::StaircaseReport staircase;
};

/// Extract M1 via the deflating-subspace projections of Eq. (25):
/// right chains V1 = Ker E with A V1 in Im E, V2 = E^+ A V1; left chains
/// likewise on (E^T, A^T); then M1 = -Cinf Ainf^{-1} Einf Ainf^{-1} Binf
/// on the projected pencil. For an impulse-free system M1 = 0.
///
/// A non-null `eCompression` (a compression of g.e with range/corange/
/// nullspace/leftNullspace bases) is reused instead of recompressing E.
/// `path` is ignored (see DeflationPath).
M1Extraction extractM1(const ds::DescriptorSystem& g, double rankTol = -1.0,
                       DeflationPath path = DeflationPath::Auto,
                       const linalg::Compression* eCompression = nullptr);

/// True iff the pencil (E, A) carries generalized eigenvector chains of
/// grade >= 3, i.e. the index of the pencil exceeds 2. For a minimal G this
/// is equivalent to some Markov parameter Mk, k >= 2, being nonzero —
/// forbidden by Eq. (3). (This replaces the paper's mode-counting
/// heuristic with a direct structural check; see DESIGN.md.)
/// Rank decisions are recorded into `report` / `stair` when non-null; a
/// non-null `eCompression` of g.e is reused for the grade-1 split.
bool hasHigherOrderImpulses(const ds::DescriptorSystem& g,
                            double rankTol = -1.0,
                            linalg::RankReport* report = nullptr,
                            linalg::StaircaseReport* stair = nullptr,
                            const linalg::Compression* eCompression = nullptr);

}  // namespace shhpass::core
