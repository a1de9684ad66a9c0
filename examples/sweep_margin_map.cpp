// Parametric sweep workload: parse a SPICE-subset netlist, sweep its
// first R, L, and C across decades (circuits::runSweep — MNA stamped
// once, only perturbed values re-stamped per point), fan the batch
// through the work-stealing shard scheduler, verify every point against
// the sequential oracle slot by slot, and write the passivity-margin map
// JSON artifact.
//
//   $ ./sweep_margin_map [netlist.cir] [pointsPerAxis] [out.json]
//
// With no netlist argument a built-in RLC one-port (the README
// quickstart circuit) is swept. Exits nonzero when any scheduled point
// fails decisionEquals against the sequential oracle — CI's bench-smoke
// job runs this on the golden cap-at-port ladder with >= 64 points and
// relies on that exit code.
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "api/shhpass.hpp"

namespace {

// The README quickstart netlist: port --L-- node --(C || R)-- ground.
constexpr const char* kDefaultNetlist =
    "* quickstart one-port\n"
    "L1 1 2 0.5\n"
    "C1 2 0 0.25\n"
    "R1 2 0 2\n"
    ".port 1\n"
    ".end\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace shhpass;

  std::size_t pointsPerAxis = 4;
  if (argc > 2) {
    const int parsed = std::atoi(argv[2]);
    if (parsed < 1) {
      std::fprintf(stderr, "usage: %s [netlist.cir] [pointsPerAxis >= 1] "
                           "[out.json]\n", argv[0]);
      return 2;
    }
    pointsPerAxis = static_cast<std::size_t>(parsed);
  }
  const char* outPath = argc > 3 ? argv[3] : "margin_map.json";

  api::Result<api::LoadedNetlist> loaded =
      argc > 1 ? api::loadNetlist(argv[1]) : api::parseNetlist(kDefaultNetlist);
  if (!loaded.ok()) {
    std::fprintf(stderr, "netlist ingestion failed: %s\n",
                 loaded.status().toString().c_str());
    return 1;
  }
  const circuits::Netlist& net = loaded->netlist;
  std::printf("netlist: %d node(s), %zu component(s), %zu port(s)\n",
              net.numNodes(), net.components().size(), net.ports().size());

  // One sweep axis per element kind: the first R, L, and C in the file,
  // each varied one decade down to one decade up.
  circuits::SweepSpec spec;
  bool haveKind[3] = {false, false, false};
  for (std::size_t k = 0; k < net.components().size(); ++k) {
    const auto kind = static_cast<std::size_t>(net.components()[k].kind);
    if (haveKind[kind]) continue;
    haveKind[kind] = true;
    spec.parameters.push_back({k, 1.0, 1.0, pointsPerAxis});
  }
  if (spec.parameters.empty()) {
    std::fprintf(stderr, "netlist has no sweepable elements\n");
    return 1;
  }

  const api::PassivityAnalyzer analyzer;

  circuits::SweepResult result = circuits::runSweep(net, spec, analyzer);
  const std::size_t mismatches =
      circuits::verifySweepSequential(net, spec, analyzer, result);

  std::printf("sweep: %zu point(s) across %zu axis/axes, %zu passive\n",
              result.points.size(), spec.parameters.size(),
              result.passiveCount);
  std::printf("decision mismatches vs sequential oracle: %zu\n", mismatches);

  const std::string json = circuits::sweepMarginMapJson(net, spec, result);
  std::ofstream out(outPath, std::ios::binary);
  out << json << "\n";
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", outPath);
    return 1;
  }
  std::printf("margin map written to %s (%zu bytes)\n", outPath, json.size());

  return mismatches == 0 ? 0 : 1;
}
