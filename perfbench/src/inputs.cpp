#include "inputs.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "circuits/generators.hpp"
#include "circuits/spice_parser.hpp"

namespace perfbench {

using shhpass::api::AnalysisRequest;
using shhpass::api::ErrorCode;
namespace circuits = shhpass::circuits;

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Expectation expectVerdict(ErrorCode verdict) {
  Expectation e;
  e.verdict = verdict;
  switch (verdict) {
    case ErrorCode::NotSquare:
    case ErrorCode::SingularPencil:
    case ErrorCode::UnstableFiniteModes:
      e.stages = 1;  // prerequisites
      break;
    case ErrorCode::ResidualImpulses:
      e.stages = 4;  // nondynamic-removal
      break;
    case ErrorCode::HigherOrderImpulse:
    case ErrorCode::M1NotPsd:
      e.stages = 5;  // m1-extraction
      break;
    case ErrorCode::LosslessAxisModes:
      e.stages = 6;  // proper-part
      break;
    default:
      e.stages = 7;  // pr-test, or passive
      break;
  }
  return e;
}

LargeInputs makeLargeInputs(bool toy) {
  const std::size_t order = toy ? 60 : 800;
  LargeInputs in;
  in.system = circuits::makeBenchmarkModel(order, true);
  in.expect = expectVerdict(ErrorCode::Ok);
  // The ladder's stable proper part keeps three fifths of the states.
  in.expect.properOrder = order * 3 / 5;
  in.expect.checkProperOrder = true;
  return in;
}

BatchInputs makeBatchInputs(std::uint64_t seed, bool toy) {
  Rng rng(seed ^ 0xba7c4ed0ull);
  using Item = std::pair<AnalysisRequest, Expectation>;
  const auto item = [](std::string id, shhpass::ds::DescriptorSystem sys,
                       ErrorCode verdict) {
    AnalysisRequest rq;
    rq.id = std::move(id);
    rq.system = std::move(sys);
    return Item(std::move(rq), expectVerdict(verdict));
  };

  // Impulsive ladders: the order mix of bench_pipeline's batchThroughput
  // row, so most Phi orders sit below the 256 deflation-path crossover.
  std::vector<Item> ladders;
  const std::vector<std::size_t> ladderOrders =
      toy ? std::vector<std::size_t>{40, 56, 96}
          : std::vector<std::size_t>{40,  40,  40,  40,  56,  56,  56,  96,
                                     96,  96,  120, 120, 120, 224, 224, 300};
  for (std::size_t order : ladderOrders)
    ladders.push_back(item("ladder-" + std::to_string(order),
                           circuits::makeBenchmarkModel(order, true),
                           ErrorCode::Ok));

  // Seeded random RLC networks (physical, so passive) with a fixed node
  // schedule: the seed changes the topology, not the size mix.
  std::vector<Item> networks;
  for (std::size_t i = 0; i < (toy ? 3u : 20u); ++i) {
    const std::size_t nodes = 10 + 4 * (i % 10);
    const auto netSeed = static_cast<unsigned>(seed + i);
    networks.push_back(
        item("random-" + std::to_string(nodes) + "-" + std::to_string(netSeed),
             circuits::makeRandomRlcNetwork(nodes, netSeed, true),
             ErrorCode::Ok));
  }

  // Non-passive mutants, each exiting the pipeline at its own stage.
  std::vector<Item> mutants;
  for (std::size_t i = 0; i < (toy ? 1u : 3u); ++i) {
    const std::size_t sectionsR = 4 + rng.below(13);
    mutants.push_back(item("neg-resistor-" + std::to_string(sectionsR),
                           circuits::makeNonPassiveNegativeResistor(sectionsR),
                           ErrorCode::UnstableFiniteModes));
    const std::size_t sectionsD = 4 + rng.below(13);
    mutants.push_back(
        item("neg-feedthrough-" + std::to_string(sectionsD),
             circuits::makeNonPassiveNegativeFeedthrough(sectionsD),
             ErrorCode::ProperPartNotPr));
    mutants.push_back(item("indefinite-m1",
                           circuits::makeNonPassiveIndefiniteM1(),
                           ErrorCode::M1NotPsd));
    // M2 != 0 leaves grade-3 chains in Phi, so the nondynamic-removal
    // stage's impulse-freeness certificate fails before m1-extraction
    // runs its own grade >= 3 screen.
    mutants.push_back(item("higher-order-impulse",
                           circuits::makeNonPassiveHigherOrderImpulse(),
                           ErrorCode::ResidualImpulses));
  }

  // Fixed round-robin interleave of the three groups: the shard plan (and
  // so the batch's cost) does not depend on the seed.
  BatchInputs in;
  const std::size_t rounds =
      std::max({ladders.size(), networks.size(), mutants.size()});
  for (std::size_t k = 0; k < rounds; ++k)
    for (std::vector<Item>* group : {&ladders, &networks, &mutants})
      if (k < group->size()) {
        in.requests.push_back(std::move((*group)[k].first));
        in.expect.push_back((*group)[k].second);
      }
  return in;
}

SweepInputs makeSweepInputs(std::uint64_t seed, bool toy) {
  Rng rng(seed ^ 0x5eeb5eebull);
  circuits::LadderOptions ladder;
  ladder.sections = 12;
  ladder.capAtPort = true;
  SweepInputs in;
  in.spice = circuits::writeSpice(circuits::makeRlcLadderNetlist(ladder),
                                  "12-section cap-at-port RLC ladder");
  in.pointsPerAxis = toy ? 2 : 6;
  for (int axis = 0; axis < 4; ++axis) {
    in.decadesDown.push_back(0.75 + 0.5 * rng.uniform());
    in.decadesUp.push_back(0.75 + 0.5 * rng.uniform());
  }
  return in;
}

circuits::SweepSpec sweepSpecFor(const circuits::Netlist& net,
                                 const SweepInputs& in) {
  using Kind = circuits::Component::Kind;
  const auto& comps = net.components();
  const auto first = [&comps](Kind kind) {
    for (std::size_t k = 0; k < comps.size(); ++k)
      if (comps[k].kind == kind) return k;
    throw std::runtime_error("sweep netlist lacks an axis element");
  };
  std::size_t leak = comps.size();
  for (std::size_t k = 0; k < comps.size(); ++k)
    if (comps[k].kind == Kind::Resistor) leak = k;  // stamped last
  const std::size_t axes[4] = {first(Kind::Resistor), first(Kind::Inductor),
                               first(Kind::Capacitor), leak};
  if (leak == axes[0])
    throw std::runtime_error("sweep netlist has a single resistor");
  circuits::SweepSpec spec;
  spec.computeMargin = true;
  for (std::size_t a = 0; a < 4; ++a)
    spec.parameters.push_back(
        {axes[a], in.decadesDown[a], in.decadesUp[a], in.pointsPerAxis});
  return spec;
}

namespace {

void appendMatrix(const shhpass::linalg::Matrix& m, std::string& out) {
  const std::uint64_t shape[2] = {m.rows(), m.cols()};
  out.append(reinterpret_cast<const char*>(shape), sizeof shape);
  out.append(reinterpret_cast<const char*>(m.data()),
             m.rows() * m.cols() * sizeof(double));
}

}  // namespace

void appendSystemBytes(const shhpass::ds::DescriptorSystem& sys,
                       std::string& out) {
  appendMatrix(sys.e, out);
  appendMatrix(sys.a, out);
  appendMatrix(sys.b, out);
  appendMatrix(sys.c, out);
  appendMatrix(sys.d, out);
}

}  // namespace perfbench
