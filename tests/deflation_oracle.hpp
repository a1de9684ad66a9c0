// Test-only oracle for the Fig.-1 deflation chains: the historical
// full-SVD implementations of impulse deflation (Eqs. 11-17), nondynamic
// removal (Eqs. 18-20) and M1 extraction (Eqs. 24-25). The library runs
// the one-pass staircase chain (linalg/staircase.hpp) at every order;
// these chains recompute every kernel/range basis with an independent
// full SVD, which is what makes them a useful reference for the seeded
// equivalence suites (test_staircase_random.cpp, test_core_stages.cpp).
//
// The results carry no StaircaseReport (all-zero) and, for M1, no rank
// report: the legacy chains predate that plumbing.
#pragma once

#include <algorithm>
#include <stdexcept>

#include "core/impulse_deflation.hpp"
#include "core/markov.hpp"
#include "core/nondynamic.hpp"
#include "ds/descriptor.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "linalg/qr.hpp"
#include "linalg/staircase.hpp"
#include "linalg/svd.hpp"
#include "shh/shh_pencil.hpp"
#include "shh/symplectic.hpp"

namespace shhpass::oracle {

using linalg::Matrix;

/// V_o = { v in Ker E : A v in Im E, C v = 0 } of an SHH realization,
/// through two full SVDs. Rank decisions go into `report` when non-null.
inline Matrix impulseUnobservableSubspace(const shh::ShhRealization& phi,
                                          double rankTol = -1.0,
                                          linalg::RankReport* report =
                                              nullptr) {
  linalg::SVD esvd(phi.e);
  esvd.rank(rankTol, report);
  Matrix kerE = esvd.nullspace(rankTol);
  if (kerE.cols() == 0) return Matrix(phi.order(), 0);
  // Component of A * KerE outside Im E: (I - R R^T) A KerE, R = range(E),
  // with one re-orthogonalization pass.
  Matrix range = esvd.range(rankTol);
  Matrix proj = linalg::projectOutTwice(range, phi.a * kerE);
  Matrix stacked = linalg::vcat(proj, phi.c * kerE);
  linalg::SVD ssvd(stacked);
  ssvd.rank(rankTol, report);
  Matrix coeff = ssvd.nullspace(rankTol);
  if (coeff.cols() == 0) return Matrix(phi.order(), 0);
  return kerE * coeff;  // orthonormal: kerE orthonormal, coeff orthonormal
}

/// Stage-1 deflation through the SVD chain.
inline core::ImpulseDeflationResult deflateImpulseModes(
    const shh::ShhRealization& phi, double rankTol = -1.0) {
  core::ImpulseDeflationResult out;
  out.impulseUnobservable =
      impulseUnobservableSubspace(phi, rankTol, &out.rankReport);

  // The deflated right subspace is span([V_o, J A V_o]): discarding V_o
  // alone would leave a coupling through the rows J V_o. Because
  // A v in Im E for v in V_o and E^T J = J E, the cross block
  // (J V_o)^T A V_o vanishes, which makes the truncation *exactly*
  // transfer-preserving (the discarded states satisfy x = 0 identically
  // or are unobservable). The dual left subspace is J * (right subspace),
  // so the left keep-basis can again be taken as -J V.
  Matrix rBad = out.impulseUnobservable;
  if (rBad.cols() > 0) {
    Matrix partners = shh::applyJ(phi.a * out.impulseUnobservable);
    linalg::SVD span(linalg::hcat(rBad, partners));
    span.rank(rankTol, &out.rankReport);
    rBad = span.range(rankTol);
  }
  out.removed = rBad.cols();

  // Right basis: orthogonal complement of the deflated subspace. Left
  // basis: W = -J V, automatically orthogonal to the uncontrollable family.
  Matrix v = linalg::orthonormalComplement(rBad);
  out.vKeep = v;
  Matrix w = -1.0 * shh::applyJ(v);

  out.reduced.e = linalg::multiply(linalg::atb(w, phi.e), false, v, false);
  out.reduced.a = linalg::multiply(linalg::atb(w, phi.a), false, v, false);
  out.reduced.c = phi.c * v;
  out.reduced.d = phi.d;
  linalg::skewSymmetrize(out.reduced.e);
  linalg::symmetrize(out.reduced.a);
  return out;
}

/// Nondynamic removal + SHH restoration through the SVD chain.
inline core::NondynamicRemovalResult removeNondynamicModes(
    const shh::SkewSymRealization& s1, double rankTol = -1.0) {
  core::NondynamicRemovalResult out;
  const std::size_t n = s1.order();

  // U = [R K]: columns of R span Im(E1), columns of K span Ker(E1). For a
  // skew-symmetric E1 these are orthogonal complements, so U is orthogonal
  // and U^T E1 U = diag(E11, 0) with E11 skew nonsingular.
  linalg::SVD esvd(s1.e);
  const std::size_t r = esvd.rank(rankTol, &out.rankReport);
  Matrix rBasis = esvd.range(rankTol);
  Matrix kBasis = esvd.leftNullspace(rankTol);

  Matrix e11 = linalg::multiply(linalg::atb(rBasis, s1.e), false, rBasis,
                                false);
  linalg::skewSymmetrize(e11);
  Matrix a11 = linalg::multiply(linalg::atb(rBasis, s1.a), false, rBasis,
                                false);
  Matrix a12 = linalg::multiply(linalg::atb(rBasis, s1.a), false, kBasis,
                                false);
  Matrix a22 = linalg::multiply(linalg::atb(kBasis, s1.a), false, kBasis,
                                false);
  linalg::symmetrize(a11);
  linalg::symmetrize(a22);
  Matrix c1 = s1.c * rBasis;
  Matrix c2 = s1.c * kBasis;
  out.removed = n - r;

  // Impulse-freeness at this stage == A22 nonsingular. Empty A22 is
  // trivially nonsingular.
  std::size_t a22Rank = 0;
  if (out.removed > 0) {
    linalg::SVD asvd(a22);
    a22Rank = asvd.rank(rankTol, &out.rankReport);
  }
  if (out.removed > 0 && a22Rank < out.removed) {
    out.impulseFree = false;
    return out;
  }
  out.impulseFree = true;

  // Schur-complement strong equivalence (Eq. 19).
  Matrix a2 = a11, c2p = c1, d2 = s1.d;
  if (out.removed > 0) {
    linalg::LU lu(a22);
    Matrix a22InvA21 = lu.solve(a12.transposed());
    Matrix a22InvC2t = lu.solve(c2.transposed());
    a2 = a11 - a12 * a22InvA21;
    c2p = c1 - c2 * a22InvA21;
    d2 = s1.d + c2 * a22InvC2t;
    linalg::symmetrize(a2);
    linalg::symmetrize(d2);
  }

  // Eq. (20): left-multiply by -J to restore the SHH structure.
  if (r % 2 != 0)
    throw std::logic_error("oracle removeNondynamicModes: odd rank of E1");
  Matrix j = Matrix::symplecticJ(r / 2);
  out.shh.e = -1.0 * (j * e11);
  out.shh.a = -1.0 * (j * a2);
  out.shh.c = c2p;
  out.shh.d = d2;
  return out;
}

/// Grade-1 chain heads with a grade-2 partner: { v in Ker E : A v in Im E }.
inline Matrix grade1WithPartners(const Matrix& e, const Matrix& a,
                                 double rankTol) {
  linalg::SVD esvd(e);
  Matrix ker = esvd.nullspace(rankTol);
  if (ker.cols() == 0) return Matrix(e.rows(), 0);
  Matrix range = esvd.range(rankTol);
  Matrix ak = a * ker;
  Matrix outside = ak - range * linalg::atb(range, ak);
  Matrix coeff = linalg::SVD(outside).nullspace(rankTol);
  if (coeff.cols() == 0) return Matrix(e.rows(), 0);
  return ker * coeff;
}

/// M1 extraction through four full SVDs of E (Eq. 25).
inline core::M1Extraction extractM1(const ds::DescriptorSystem& g,
                                    double rankTol = -1.0) {
  g.validate();
  core::M1Extraction out;
  out.m1 = Matrix(g.numOutputs(), g.numInputs());

  Matrix v1 = grade1WithPartners(g.e, g.a, rankTol);
  Matrix w1 = grade1WithPartners(g.e.transposed(), g.a.transposed(), rankTol);
  const std::size_t p = v1.cols();
  out.chainCount = p;
  if (p == 0 || w1.cols() != p) {
    out.symmetric = true;
    out.psd = p == 0;
    return out;
  }

  // Grade-2 partners: E V2 = A V1 and E^T W2 = A^T W1 (minimum-norm).
  linalg::SVD esvd(g.e);
  Matrix v2 = esvd.pseudoInverse(rankTol) * (g.a * v1);
  linalg::SVD etsvd(g.e.transposed());
  Matrix w2 = etsvd.pseudoInverse(rankTol) * (g.a.transposed() * w1);

  // M1 = -Cinf Ainf^{-1} Einf Ainf^{-1} Binf on Z_R = [V1 V2],
  // Z_L = [W1 W2].
  Matrix zr = linalg::hcat(v1, v2);
  Matrix zl = linalg::hcat(w1, w2);
  Matrix einf = linalg::multiply(linalg::atb(zl, g.e), false, zr, false);
  Matrix ainf = linalg::multiply(linalg::atb(zl, g.a), false, zr, false);
  Matrix binf = linalg::atb(zl, g.b);
  Matrix cinf = g.c * zr;
  linalg::LU alu(ainf);
  if (alu.isSingular(1e-12)) {
    out.symmetric = false;
    out.psd = false;
    return out;
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
  return out;
}

}  // namespace shhpass::oracle
