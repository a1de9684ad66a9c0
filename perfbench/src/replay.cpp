#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <exception>
#include <limits>
#include <stdexcept>
#include <vector>

#include "control/hamiltonian.hpp"
#include "control/lyapunov.hpp"
#include "control/pr_test.hpp"
#include "control/sylvester.hpp"
#include "core/impulse_deflation.hpp"
#include "core/markov.hpp"
#include "core/nondynamic.hpp"
#include "core/phi_builder.hpp"
#include "ds/balance.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "linalg/schur.hpp"
#include "linalg/svd.hpp"
#include "shh/isotropic_arnoldi.hpp"
#include "shh/symplectic.hpp"

namespace perfbench {
namespace {

using shhpass::api::ErrorCode;
using shhpass::linalg::Matrix;
namespace core = shhpass::core;
namespace control = shhpass::control;
namespace ds = shhpass::ds;
namespace linalg = shhpass::linalg;
namespace shh = shhpass::shh;

struct ProperPart {
  bool ok = false;
  Matrix lambda, b1, c1, dHalf;
  linalg::ReorderReport reorder;
};

/// The imaginary-axis cut shared by the proper-part split and the
/// pr-test Hamiltonian screen (control/hamiltonian.cpp).
bool touchesAxis(const std::vector<std::complex<double>>& eigs, double tol,
                 double floor) {
  for (const auto& l : eigs) {
    const double cut = std::max(tol * std::max(1.0, std::abs(l)), floor);
    if (std::abs(l.real()) <= cut) return true;
  }
  return false;
}

// core::extractProperPart, with shh::decoupleHamiltonian and
// control::stableInvariantSubspace opened up to their kernel calls.
ProperPart properPart(const shh::ShhRealization& s3, double imagTol,
                      double rankTol, SpanRecorder& rec) {
  ProperPart out;
  const std::size_t n2 = s3.order();
  const std::size_t m = s3.ports();
  if (n2 == 0) {
    out.ok = true;
    out.b1 = Matrix(0, m);
    out.c1 = Matrix(m, 0);
    out.dHalf = 0.5 * s3.d;
    return out;
  }
  const std::size_t np = n2 / 2;

  shh::SkewHamiltonianTriangularization tri = traced(rec, "shh.arnoldi", [&] {
    return shh::skewHamiltonianBlockTriangularize(s3.e);
  });
  const Matrix ebar = tri.ebar();
  const Matrix theta = tri.theta();
  const linalg::LU elu =
      traced(rec, "linalg.lu", [&] { return linalg::LU(ebar); });
  if (elu.isSingular(1e-12))
    throw std::runtime_error("replay: E3 numerically singular");
  const Matrix x =
      traced(rec, "linalg.lu", [&] { return 0.5 * elu.solve(theta); });

  const Matrix zt = tri.z.transposed();
  const Matrix ztTop = zt.block(0, 0, np, n2);
  const Matrix ztBot = zt.block(np, 0, np, n2);
  const Matrix xtZtBot =
      traced(rec, "linalg.gemm", [&] { return x.transposed() * ztBot; });
  Matrix zl(n2, n2);
  zl.setBlock(0, 0, traced(rec, "linalg.lu",
                           [&] { return elu.solve(ztTop + xtZtBot); }));
  zl.setBlock(np, 0, ztBot);

  const Matrix zTop = tri.z.block(0, 0, n2, np);
  const Matrix zBot = tri.z.block(0, np, n2, np);
  const Matrix ebarInvT = traced(rec, "linalg.lu", [&] {
    return elu.solveTransposed(Matrix::identity(np));
  });
  Matrix zr(n2, n2);
  zr.setBlock(0, 0, zTop);
  zr.setBlock(0, np, traced(rec, "linalg.gemm", [&] {
                return (zBot - zTop * x) * ebarInvT;
              }));

  const std::vector<double> esv = traced(
      rec, "linalg.svd", [&] { return linalg::singularValues(ebar); });

  const Matrix a4 =
      traced(rec, "linalg.gemm", [&] { return zl * s3.a * zr; });
  const Matrix c4 = traced(rec, "linalg.gemm", [&] { return s3.c * zr; });

  // stableInvariantSubspace(a4, imagTol)
  linalg::RealSchurResult rs =
      traced(rec, "linalg.schur", [&] { return linalg::realSchur(a4); });
  const double floor =
      1e3 * std::numeric_limits<double>::epsilon() * a4.normFrobenius();
  if (touchesAxis(rs.eigenvalues, imagTol, floor)) return out;
  const std::size_t k = traced(rec, "linalg.reorder", [&] {
    return linalg::reorderSchur(
        rs.t, rs.q, [](std::complex<double> l) { return l.real() < 0.0; },
        &out.reorder);
  });
  if (k != np) return out;
  const Matrix x1 = rs.q.block(0, 0, np, np);
  const Matrix x2 = rs.q.block(np, 0, np, np);
  const Matrix ssLambda = rs.t.block(0, 0, np, np);

  // decoupleHamiltonian, after the subspace.
  const Matrix z1 = traced(rec, "shh.lagrangian",
                           [&] { return shh::lagrangianCompletion(x1, x2); });
  const Matrix t1 = traced(rec, "linalg.gemm", [&] {
    return linalg::multiply(linalg::atb(z1, a4), false, z1, false);
  });
  Matrix lambda = t1.block(0, 0, np, np);
  for (std::size_t i = 0; i < np; ++i)
    for (std::size_t j = 0; j + 1 < i; ++j) lambda(i, j) = 0.0;
  for (std::size_t i = 0; i + 1 < np; ++i)
    if (ssLambda(i + 1, i) == 0.0) lambda(i + 1, i) = 0.0;
  const Matrix ahat = t1.block(0, np, np, np);
  const Matrix y = traced(rec, "control.lyapunov",
                          [&] { return control::solveLyapunov(lambda, ahat); });
  Matrix s = Matrix::identity(2 * np);
  s.setBlock(0, np, y);
  Matrix sInv = Matrix::identity(2 * np);
  sInv.setBlock(0, np, -1.0 * y);
  const Matrix z2 = traced(rec, "linalg.gemm", [&] { return z1 * s; });
  const Matrix z2inv = traced(rec, "linalg.gemm", [&] {
    return linalg::multiply(sInv, false, z1, true);
  });
  (void)z2inv;  // computed by the library too; kept for equal work

  linalg::rankFromSingularValues(esv, ebar.rows(), ebar.cols(), rankTol,
                                 nullptr);

  const Matrix c5 = traced(rec, "linalg.gemm", [&] { return c4 * z2; });
  out.lambda = lambda;
  out.c1 = c5.block(0, 0, m, np);
  out.b1 = c5.block(0, np, m, np).transposed();
  out.dHalf = 0.5 * s3.d;
  out.ok = true;
  return out;
}

// control::testPositiveRealProper, opened up to its kernel calls.
bool positiveReal(const Matrix& a, const Matrix& b, const Matrix& c,
                  const Matrix& d, double imagTol, SpanRecorder& rec) {
  const std::size_t n = a.rows();
  if (n > 0) {
    const std::vector<std::complex<double>> eigs =
        traced(rec, "linalg.eigvals", [&] {
          return control::isQuasiTriangular(a)
                     ? linalg::quasiTriangularEigenvalues(a)
                     : linalg::eigenvalues(a);
        });
    for (const auto& l : eigs)
      if (l.real() >= -1e-12 * std::max(1.0, a.normFrobenius()))
        return false;
  }
  const Matrix r = d + d.transposed();
  if (!linalg::isPositiveSemidefinite(r)) return false;
  if (n == 0) return true;

  const Matrix g0 = traced(rec, "linalg.lu",
                           [&] { return d - c * linalg::solve(a, b); });
  const double gScale = std::max({1e-300, g0.maxAbs(), r.maxAbs()});
  const linalg::SVD rsvd =
      traced(rec, "linalg.svd", [&] { return linalg::SVD(r); });
  const double sminR =
      rsvd.singularValues().empty() ? 0.0 : rsvd.singularValues().back();
  const linalg::LU rlu =
      traced(rec, "linalg.lu", [&] { return linalg::LU(r); });
  if (sminR > 1e-10 * gScale) {
    const Matrix rinvBt =
        traced(rec, "linalg.lu", [&] { return rlu.solve(b.transposed()); });
    const Matrix rinvC = traced(rec, "linalg.lu", [&] { return rlu.solve(c); });
    const Matrix a11 =
        traced(rec, "linalg.gemm", [&] { return a - b * rinvC; });
    const Matrix a12 =
        traced(rec, "linalg.gemm", [&] { return -1.0 * (b * rinvBt); });
    const Matrix a21 =
        traced(rec, "linalg.gemm", [&] { return linalg::atb(c, rinvC); });
    const Matrix h = control::makeHamiltonian(a11, a12, a21);
    const std::vector<std::complex<double>> eigs =
        traced(rec, "linalg.eigvals", [&] { return linalg::eigenvalues(h); });
    const double floor =
        1e3 * std::numeric_limits<double>::epsilon() * h.normFrobenius();
    return !touchesAxis(eigs, imagTol, floor);
  }

  // R singular: the library samples the Popov function instead.
  auto scope = rec.scope("control.popov_sampling");
  const double scale = std::max(1.0, a.normFrobenius());
  double worst = control::popovMinEigenvalue(a, b, c, d, 0.0);
  for (int k = -60; k <= 60; ++k)
    worst = std::min(worst, control::popovMinEigenvalue(
                                a, b, c, d, scale * std::pow(10.0, k / 10.0)));
  return worst >= -1e-8 * std::max(1.0, d.maxAbs() + c.maxAbs());
}

}  // namespace

ReplayResult replayFig1(const ds::DescriptorSystem& sys,
                        const core::PassivityOptions& options,
                        SpanRecorder& rec, std::int64_t item) {
  ReplayResult out;
  auto analysis = rec.scope("bench.analysis", item);
  const auto stage = [&out, &rec](const char* name) {
    ++out.stagesRun;
    return rec.scope(name);
  };
  try {
    ds::BalancedSystem balanced;
    {
      auto s = stage("ds.prerequisites");
      sys.validate();
      if (!sys.isSquareSystem()) {
        out.verdict = ErrorCode::NotSquare;
        return out;
      }
      balanced = options.balance ? ds::balanceDescriptor(sys)
                                 : ds::BalancedSystem{sys, 1.0};
      if (!options.skipPrerequisites) {
        if (!ds::isRegular(balanced.sys)) {
          out.verdict = ErrorCode::SingularPencil;
          return out;
        }
        if (!ds::hasStableFiniteModes(balanced.sys)) {
          out.verdict = ErrorCode::UnstableFiniteModes;
          return out;
        }
      }
    }
    shhpass::shh::ShhRealization phi;
    {
      auto s = stage("core.build_phi");
      phi = core::buildPhi(balanced.sys);
    }
    core::ImpulseDeflationResult deflation;
    {
      auto s = stage("core.impulse_deflation");
      deflation = core::deflateImpulseModes(phi, options.rankTol);
    }
    core::NondynamicRemovalResult nondynamic;
    {
      auto s = stage("core.nondynamic");
      nondynamic = core::removeNondynamicModes(deflation.reduced,
                                               options.rankTol);
      if (!nondynamic.impulseFree) {
        out.verdict = ErrorCode::ResidualImpulses;
        return out;
      }
    }
    {
      auto s = stage("core.m1");
      const linalg::Compression* eComp =
          deflation.hasHalfECompression ? &deflation.halfECompression
                                        : nullptr;
      linalg::RankReport rank;
      linalg::StaircaseReport stair;
      if (deflation.removed > 0 &&
          core::hasHigherOrderImpulses(balanced.sys, options.rankTol, &rank,
                                       &stair, eComp)) {
        out.verdict = ErrorCode::HigherOrderImpulse;
        return out;
      }
      const core::M1Extraction m1 = core::extractM1(
          balanced.sys, options.rankTol, core::DeflationPath::Auto, eComp);
      if (!m1.symmetric || !m1.psd) {
        out.verdict = ErrorCode::M1NotPsd;
        return out;
      }
    }
    ProperPart pp;
    {
      auto s = stage("core.proper_part");
      pp = properPart(nondynamic.shh, options.imagTol, options.rankTol, rec);
      out.reorder = pp.reorder;
      if (!pp.ok) {
        out.verdict = ErrorCode::LosslessAxisModes;
        return out;
      }
      out.properOrder = pp.lambda.rows();
    }
    {
      auto s = stage("control.pr_test");
      if (!positiveReal(pp.lambda, pp.b1, pp.c1, pp.dHalf, options.imagTol,
                        rec)) {
        out.verdict = ErrorCode::ProperPartNotPr;
        return out;
      }
    }
  } catch (const std::exception& e) {
    out.threw = true;
    out.error = e.what();
  }
  return out;
}

}  // namespace perfbench
