#include "core/markov.hpp"

#include <algorithm>

#include "ds/impulse_tests.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "linalg/staircase.hpp"
#include "linalg/svd.hpp"

namespace shhpass::core {

using linalg::Matrix;

namespace {

// Tail of the extraction: project onto the impulsive deflating
// subspaces Z_R = [V1 V2], Z_L = [W1 W2] (Eq. 25) and evaluate
// M1 = -Cinf Ainf^{-1} Einf Ainf^{-1} Binf.
void finishExtraction(M1Extraction& out, const ds::DescriptorSystem& g,
                      const Matrix& v1, const Matrix& v2, const Matrix& w1,
                      const Matrix& w2) {
  Matrix zr = linalg::hcat(v1, v2);
  Matrix zl = linalg::hcat(w1, w2);
  Matrix einf = linalg::multiply(linalg::atb(zl, g.e), false, zr, false);
  Matrix ainf = linalg::multiply(linalg::atb(zl, g.a), false, zr, false);
  Matrix binf = linalg::atb(zl, g.b);
  Matrix cinf = g.c * zr;

  linalg::LU alu(ainf);
  if (alu.isSingular(1e-12)) {
    // Invertibility of Ainf follows from the Weierstrass structure for
    // clean grade-2 families; failure indicates deeper structure.
    out.symmetric = false;
    out.psd = false;
    return;
  }
  Matrix t = alu.solve(binf);
  t = einf * t;
  t = alu.solve(t);
  out.m1 = -1.0 * (cinf * t);

  const double scale = std::max(1.0, out.m1.maxAbs());
  out.symmetric = out.m1.isSymmetric(1e-8 * scale);
  if (out.symmetric) {
    Matrix sym = out.m1;
    linalg::symmetrize(sym);
    out.psd = linalg::isPositiveSemidefinite(sym);
  }
}

}  // namespace

M1Extraction extractM1(const ds::DescriptorSystem& g, double rankTol,
                       DeflationPath /*path*/,
                       const linalg::Compression* eCompression) {
  g.validate();
  M1Extraction out;
  const std::size_t n = g.order();
  out.m1 = Matrix(g.numOutputs(), g.numInputs());
  linalg::StaircaseReport& sr = out.staircase;

  // ONE compression of E serves the whole stage: Ker E / Im E for the
  // right chains, Ker E^T / Im E^T for the left chains, and E^+ / (E^T)^+
  // for the grade-2 partners. Reuse the caller's compression (typically
  // the impulse-deflation stage's half-E compression of the same matrix)
  // when it carries all four bases.
  linalg::Compression local;
  const linalg::Compression* ce = nullptr;
  if (eCompression != nullptr && eCompression->rows == n &&
      eCompression->cols == n &&
      eCompression->range.cols() == eCompression->rank &&
      eCompression->corange.cols() == eCompression->rank &&
      eCompression->nullspace.cols() == eCompression->nullity() &&
      eCompression->leftNullspace.cols() == n - eCompression->rank) {
    ce = eCompression;
    ++sr.reusedCompressions;
  } else {
    linalg::CompressionOptions full;
    full.rankTol = rankTol;
    full.wantRange = full.wantCorange = true;
    full.wantNullspace = full.wantLeftNullspace = true;
    local = linalg::compress(g.e, full, &out.rankReport, &sr);
    ce = &local;
  }
  ++sr.chainLength;

  // Chain heads on (E, A) and, with `transposed`, on (E^T, A^T) — both
  // from the same compression.
  auto chainHeads = [&](const Matrix& ker, const Matrix& range,
                        bool transposed) {
    if (ker.cols() == 0) return Matrix(n, 0);
    Matrix ak = transposed ? linalg::atb(g.a, ker) : g.a * ker;
    Matrix outside = linalg::projectOutTwice(range, ak);
    linalg::CompressionOptions nullOnly;
    nullOnly.rankTol = rankTol;
    nullOnly.wantNullspace = true;
    linalg::Compression cc =
        linalg::compress(outside, nullOnly, &out.rankReport, &sr);
    ++sr.chainLength;
    if (cc.nullity() == 0) return Matrix(n, 0);
    return ker * cc.nullspace;
  };
  Matrix v1 = chainHeads(ce->nullspace, ce->range, false);
  Matrix w1 = chainHeads(ce->leftNullspace, ce->corange, true);

  const std::size_t p = v1.cols();
  out.chainCount = p;
  if (p == 0 || w1.cols() != p) {
    // No impulsive chains (or a left/right mismatch indicating structure
    // beyond one grade-2 family, handled by the higher-order check). The
    // rest of the chain is not needed: truncate.
    ++sr.truncatedSteps;
    out.symmetric = true;
    out.psd = p == 0;
    return out;
  }

  // Grade-2 partners through the SAME compression: V2 = E^+ (A V1),
  // W2 = (E^T)^+ (A^T W1) — minimum-norm solutions, Eq. 25.
  Matrix v2 = ce->applyPinv(g.a * v1);
  Matrix w2 = ce->applyPinvTranspose(linalg::atb(g.a, w1));
  sr.reusedCompressions += 2;

  finishExtraction(out, g, v1, v2, w1, w2);
  return out;
}

bool hasHigherOrderImpulses(const ds::DescriptorSystem& g, double rankTol,
                            linalg::RankReport* report,
                            linalg::StaircaseReport* stair,
                            const linalg::Compression* eCompression) {
  return ds::hasGradeThreeChains(g, rankTol, report, stair, eCompression);
}

}  // namespace shhpass::core
