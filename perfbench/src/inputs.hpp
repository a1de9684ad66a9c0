// Seeded input generation for the three workloads.
//
// Every input is a pure function of (workload, seed, toy): the same
// arguments give byte-identical matrices, netlist text and sweep values
// (writeInputBytes dumps them so the self-test can compare two runs).
// Random draws use a hand-mapped splitmix64 stream, never a
// std::*_distribution, whose mapping is not pinned across standard
// libraries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "api/analyzer.hpp"
#include "api/status.hpp"
#include "circuits/sweep.hpp"
#include "ds/descriptor.hpp"

namespace perfbench {

/// splitmix64: a small, fully specified 64-bit generator.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }

 private:
  std::uint64_t s_;
};

/// What the generator of an input says the analysis must conclude.
struct Expectation {
  shhpass::api::ErrorCode verdict = shhpass::api::ErrorCode::Ok;
  std::size_t stages = 7;        ///< Pipeline stages run, the failing one
                                 ///< included (7 = all).
  std::size_t properOrder = 0;   ///< Checked when checkProperOrder.
  bool checkProperOrder = false;
};

/// Expectation for a verdict: the stage count follows from the Fig.-1
/// stage that reports it.
Expectation expectVerdict(shhpass::api::ErrorCode verdict);

/// `large-800`: the impulsive benchmark ladder (order 800; 60 when toy).
/// It has no random part; the seed only orders the timed samples.
struct LargeInputs {
  shhpass::ds::DescriptorSystem system;
  Expectation expect;
};
LargeInputs makeLargeInputs(bool toy);

/// `batch-mixed`: impulsive ladders of orders 40-300, seeded random RLC
/// networks and about a quarter non-passive mutants (seeded sizes), in a
/// fixed interleaved order.
struct BatchInputs {
  std::vector<shhpass::api::AnalysisRequest> requests;
  std::vector<Expectation> expect;
};
BatchInputs makeBatchInputs(std::uint64_t seed, bool toy);

/// `sweep-netlist`: the 12-section cap-at-port ladder as SPICE text, and
/// the seeded decade spans of the four swept axes (first R, L and C and
/// the far-end leak resistor). Component indices are resolved against the
/// parsed netlist by sweepSpecFor.
struct SweepInputs {
  std::string spice;
  std::size_t pointsPerAxis = 6;
  std::vector<double> decadesDown, decadesUp;  ///< One per axis.
};
SweepInputs makeSweepInputs(std::uint64_t seed, bool toy);

/// The sweep spec over `net` (the parsed netlist); computeMargin on.
/// Throws std::runtime_error when the netlist lacks an axis element.
shhpass::circuits::SweepSpec sweepSpecFor(
    const shhpass::circuits::Netlist& net, const SweepInputs& in);

/// Append the raw bytes of a descriptor system (shapes and entries).
void appendSystemBytes(const shhpass::ds::DescriptorSystem& sys,
                       std::string& out);

}  // namespace perfbench
