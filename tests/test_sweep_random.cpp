// Property tests for the parametric sweep driver (circuits/sweep.hpp),
// seeded and bit-reproducible:
//
//  * MnaWorkspace re-stamp bit-identity — after ANY sequence of
//    setComponentValue calls the workspace descriptor is bit-for-bit
//    equal to a full stampMna of the netlist with those values (the
//    per-entry ordered-contributor replay contract);
//  * slot-exact scheduler parity — runSweep through the work-stealing
//    batch scheduler decisionEquals a sequential per-point analyze()
//    loop for worker counts {1, 2, 7}, and the three scheduled runs
//    agree with each other slot by slot;
//  * sweep expansion structure — row-major cross product, log-spaced
//    decades, typed rejections of malformed specs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/shhpass.hpp"
#include "circuits/mna.hpp"
#include "circuits/sweep.hpp"
#include "test_support.hpp"

namespace shhpass {
namespace {

using circuits::MnaWorkspace;
using circuits::Netlist;
using circuits::SweepSpec;
using testing::Xorshift;

void expectBitIdenticalSystems(const ds::DescriptorSystem& a,
                               const ds::DescriptorSystem& b,
                               const std::string& what) {
  EXPECT_TRUE(testing::bitIdentical(a.e, b.e)) << what << ": E";
  EXPECT_TRUE(testing::bitIdentical(a.a, b.a)) << what << ": A";
  EXPECT_TRUE(testing::bitIdentical(a.b, b.b)) << what << ": B";
  EXPECT_TRUE(testing::bitIdentical(a.c, b.c)) << what << ": C";
  EXPECT_TRUE(testing::bitIdentical(a.d, b.d)) << what << ": D";
}

TEST(SweepRandom, WorkspaceRestampBitIdenticalToFullStamp) {
  for (unsigned seed = 1; seed <= 30; ++seed) {
    Xorshift gen(seed * 0x2545f4914f6cdd1dull);
    Netlist net = testing::randomConnectedNetlist(gen);
    MnaWorkspace ws(net);
    // Fresh workspace == full stamp (same bits by construction).
    expectBitIdenticalSystems(ws.system(), circuits::stampMna(net),
                              "seed " + std::to_string(seed) + " initial");
    // Random value-change sequences, including repeated hits on the same
    // component and sign flips (non-passive mutants).
    Netlist shadow = net;
    const std::size_t steps = 3 + gen.pick(8);
    for (std::size_t s = 0; s < steps; ++s) {
      const std::size_t comp = gen.pick(net.components().size());
      double value = std::pow(10.0, gen.uniform(-3.0, 3.0));
      if (gen.pick(5) == 0) value = -value;
      ws.setComponentValue(comp, value);
      shadow.setComponentValue(comp, value);
      expectBitIdenticalSystems(
          ws.system(), circuits::stampMna(shadow),
          "seed " + std::to_string(seed) + " step " + std::to_string(s));
      EXPECT_EQ(ws.netlist().components()[comp].value, value);
    }
  }
}

TEST(SweepRandom, WorkspaceRejectsBadUpdates) {
  Xorshift gen(7);
  Netlist net = testing::randomConnectedNetlist(gen);
  MnaWorkspace ws(net);
  EXPECT_THROW(ws.setComponentValue(net.components().size(), 1.0),
               std::invalid_argument);
  EXPECT_THROW(ws.setComponentValue(0, 0.0), std::invalid_argument);
  // A portless netlist cannot be stamped at all.
  Netlist portless(2);
  portless.addResistor(1, 2, 1.0).addResistor(2, 0, 1.0);
  EXPECT_THROW(MnaWorkspace{portless}, std::invalid_argument);
}

TEST(SweepRandom, ExpandSweepIsRowMajorLogSpaced) {
  Netlist net(2);
  net.addResistor(1, 2, 10.0).addCapacitor(2, 0, 1.0).addPort(1);
  SweepSpec spec;
  spec.parameters.push_back({0, 1.0, 1.0, 3});  // R: 1, 10, 100
  spec.parameters.push_back({1, 2.0, 0.0, 2});  // C: 0.01, 1
  const std::vector<std::vector<double>> points =
      circuits::expandSweep(net, spec);
  ASSERT_EQ(points.size(), 6u);
  // Last parameter varies fastest (row-major).
  const double rAxis[] = {1.0, 10.0, 100.0};
  const double cAxis[] = {0.01, 1.0};
  for (std::size_t p = 0; p < points.size(); ++p) {
    EXPECT_NEAR(points[p][0], rAxis[p / 2], 1e-12) << p;
    EXPECT_NEAR(points[p][1], cAxis[p % 2], 1e-12) << p;
  }
  // A single-point axis sits exactly at the nominal value.
  SweepSpec nominal;
  nominal.parameters.push_back({1, 3.0, 3.0, 1});
  EXPECT_EQ(circuits::expandSweep(net, nominal)[0][0], 1.0);

  SweepSpec bad;
  EXPECT_THROW(circuits::expandSweep(net, bad), std::invalid_argument);
  bad.parameters.push_back({9, 1.0, 1.0, 2});
  EXPECT_THROW(circuits::expandSweep(net, bad), std::invalid_argument);
  bad.parameters[0] = {0, 1.0, 1.0, 0};
  EXPECT_THROW(circuits::expandSweep(net, bad), std::invalid_argument);
  bad.parameters[0] = {0, 1.0, 1.0, 2};
  bad.parameters.push_back({0, 1.0, 1.0, 2});
  EXPECT_THROW(circuits::expandSweep(net, bad), std::invalid_argument);
}

TEST(SweepRandom, RequestsCarryRestampedSystemsAndStableIds) {
  Xorshift gen(0x5eed);
  const Netlist net = testing::randomConnectedNetlist(gen);
  SweepSpec spec;
  spec.parameters.push_back({0, 1.0, 1.0, 3});
  spec.parameters.push_back({net.components().size() - 1, 1.0, 1.0, 3});
  const std::vector<std::vector<double>> points =
      circuits::expandSweep(net, spec);
  const std::vector<api::AnalysisRequest> requests =
      circuits::buildSweepRequests(net, spec);
  ASSERT_EQ(requests.size(), points.size());
  EXPECT_EQ(requests[0].id, "sweep-000001");
  EXPECT_EQ(requests.back().id, "sweep-000009");
  for (std::size_t p = 0; p < points.size(); ++p) {
    // Oracle: rebuild the netlist with this point's values and stamp it
    // from scratch; the workspace-re-stamped request must match bitwise.
    Netlist modified = net;
    for (std::size_t k = 0; k < spec.parameters.size(); ++k)
      modified.setComponentValue(spec.parameters[k].component,
                                 points[p][k]);
    expectBitIdenticalSystems(requests[p].system,
                              circuits::stampMna(modified),
                              "point " + std::to_string(p));
  }
}

TEST(SweepRandom, ScheduledSweepDecisionEqualsSequentialOracle) {
  for (unsigned seed = 1; seed <= 4; ++seed) {
    Xorshift gen(0xdecade0000ull + seed);
    const Netlist net = testing::randomConnectedNetlist(gen, 10);
    SweepSpec spec;
    spec.computeMargin = false;  // margins are covered separately; the
                                 // parity property is about decisions
    const std::size_t axes = 1 + gen.pick(2);
    for (std::size_t k = 0; k < axes; ++k)
      spec.parameters.push_back(
          {gen.pick(net.components().size()), gen.uniform(0.5, 2.0),
           gen.uniform(0.5, 2.0), 3 + gen.pick(2)});
    // Duplicate axes are rejected; redraw the second axis if needed.
    if (axes == 2 &&
        spec.parameters[0].component == spec.parameters[1].component)
      spec.parameters[1].component =
          (spec.parameters[1].component + 1) % net.components().size();

    std::vector<circuits::SweepResult> results;
    for (std::size_t workers : {1u, 2u, 7u}) {
      api::AnalyzerOptions options;
      options.threads = workers;
      const api::PassivityAnalyzer analyzer(options);
      circuits::SweepResult result =
          circuits::runSweep(net, spec, analyzer);
      // Slot-exact sequential parity on the same analyzer.
      const std::size_t mismatches =
          circuits::verifySweepSequential(net, spec, analyzer, result);
      EXPECT_EQ(mismatches, 0u) << "seed " << seed << " workers " << workers;
      EXPECT_EQ(result.decisionMismatches, 0u);
      results.push_back(std::move(result));
    }
    // And the scheduled runs agree with each other, slot by slot.
    for (std::size_t r = 1; r < results.size(); ++r) {
      ASSERT_EQ(results[r].points.size(), results[0].points.size());
      for (std::size_t p = 0; p < results[0].points.size(); ++p) {
        const circuits::SweepPointResult& a = results[0].points[p];
        const circuits::SweepPointResult& b = results[r].points[p];
        ASSERT_EQ(a.ok, b.ok) << "seed " << seed << " point " << p;
        if (a.ok)
          EXPECT_TRUE(a.report.decisionEquals(b.report))
              << "seed " << seed << " point " << p << " leg " << r;
      }
    }
  }
}

TEST(SweepRandom, MarginMapJsonAndPassiveAccounting) {
  // A known-passive one-port: every point of a modest sweep must be
  // passive with a defined, non-negative (up to bisection tol) margin,
  // and the JSON artifact must carry the headline counters.
  Netlist net(2);
  net.addInductor(1, 2, 0.5)
      .addCapacitor(2, 0, 0.25)
      .addResistor(2, 0, 2.0)
      .addPort(1);
  SweepSpec spec;
  spec.parameters.push_back({0, 1.0, 1.0, 3});
  spec.parameters.push_back({2, 1.0, 1.0, 3});
  const api::PassivityAnalyzer analyzer;
  circuits::SweepResult result = circuits::runSweep(net, spec, analyzer);
  ASSERT_EQ(result.points.size(), 9u);
  EXPECT_EQ(result.passiveCount, 9u);
  for (const circuits::SweepPointResult& p : result.points) {
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_TRUE(p.report.passive);
    EXPECT_TRUE(p.marginDefined);
    EXPECT_GE(p.margin, -1e-4);
  }
  EXPECT_EQ(circuits::verifySweepSequential(net, spec, analyzer, result),
            0u);
  const std::string json = circuits::sweepMarginMapJson(net, spec, result);
  EXPECT_NE(json.find("\"schema\":\"shhpass-margin-map\""),
            std::string::npos);
  EXPECT_NE(json.find("\"passiveCount\":9"), std::string::npos);
  EXPECT_NE(json.find("\"decisionMismatches\":0"), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"sweep-000001\""), std::string::npos);
}

}  // namespace
}  // namespace shhpass
