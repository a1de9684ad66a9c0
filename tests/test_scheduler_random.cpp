// Determinism-first harness for the batch shard scheduler
// (api/scheduler.hpp). The library-wide
// contract under test: scheduling NEVER changes decisions. A seeded
// mixed-order batch (passive, non-passive, and error-returning models
// interleaved) must produce bitwise decision-equal reports for every
// worker count, under 4x oversubscription, and under forced steal-heavy
// skew — with report ordering
// pinned to request order regardless of steal order. The suite also pins
// the deterministic structure of the shard plan (large-order items get
// singleton shards with kernel budgets, small items share budget-1
// shards) and the SchedulerReport counter semantics.
//
// Like test_thread_pool_stress.cpp, every test doubles as a TSan target
// (the `tsan` CI job runs this suite with SHHPASS_GEMM_THREADS=3, so the
// kernel pool and the batch crew engage at once).
#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/analyzer.hpp"
#include "api/scheduler.hpp"
#include "circuits/generators.hpp"
#include "linalg/blas.hpp"

namespace shhpass {
namespace {

using api::AnalysisReport;
using api::AnalysisRequest;
using api::AnalyzerOptions;
using api::PassivityAnalyzer;
using api::Result;
using api::SchedulerOptions;
using api::Shard;

/// A descriptor system whose validate() throws (inconsistent block
/// dimensions), so analysis returns an operational-error Result — the
/// scheduler must carry errors through without disturbing neighbors.
ds::DescriptorSystem malformedSystem() {
  ds::DescriptorSystem sys;
  sys.e = linalg::Matrix::identity(3);
  sys.a = linalg::Matrix::identity(2);  // mismatched with e
  sys.b = linalg::Matrix(2, 1);
  sys.c = linalg::Matrix(1, 2);
  sys.d = linalg::Matrix(1, 1);
  return sys;
}

/// The seeded mixed batch: orders 40-300, passive benchmark models,
/// random RLC networks, every non-passive mutant family, and malformed
/// (error-returning) items interleaved at fixed positions.
std::vector<AnalysisRequest> mixedBatch() {
  std::vector<AnalysisRequest> batch;
  auto add = [&batch](std::string id, ds::DescriptorSystem sys) {
    AnalysisRequest r;
    r.id = std::move(id);
    r.system = std::move(sys);
    batch.push_back(std::move(r));
  };
  add("bench-40", circuits::makeBenchmarkModel(40, true));
  add("bench-56", circuits::makeBenchmarkModel(56, false));
  add("bad-early", malformedSystem());
  add("rlc-a", circuits::makeRandomRlcNetwork(24, 7u, true));
  add("neg-feedthrough", circuits::makeNonPassiveNegativeFeedthrough(5));
  add("bench-224", circuits::makeBenchmarkModel(224, true));
  add("indefinite-m1", circuits::makeNonPassiveIndefiniteM1());
  add("bench-96", circuits::makeBenchmarkModel(96, false));
  add("higher-order", circuits::makeNonPassiveHigherOrderImpulse());
  add("bad-late", malformedSystem());
  add("bench-300", circuits::makeBenchmarkModel(300, false));
  add("neg-resistor", circuits::makeNonPassiveNegativeResistor(6));
  add("bench-120", circuits::makeBenchmarkModel(120, true));
  add("rlc-b", circuits::makeRandomRlcNetwork(30, 11u, false));
  return batch;
}

/// The shared batch and its single-shot reference reports (the oracle
/// every batch configuration is compared against), computed once per
/// process — several tests reuse them, and the order-300 item makes
/// recomputation the dominant cost of this suite.
const std::vector<AnalysisRequest>& sharedBatch() {
  static const std::vector<AnalysisRequest> kBatch = mixedBatch();
  return kBatch;
}

const std::vector<Result<AnalysisReport>>& sequentialOracle() {
  static const std::vector<Result<AnalysisReport>> kOracle = [] {
    const PassivityAnalyzer analyzer;
    std::vector<Result<AnalysisReport>> out;
    out.reserve(sharedBatch().size());
    for (const AnalysisRequest& r : sharedBatch())
      out.push_back(analyzer.analyze(r));
    return out;
  }();
  return kOracle;
}

/// Bitwise decision parity between a batch result vector and the oracle:
/// same ok-ness per slot, same error codes for failures, decisionEquals
/// for successes. Report ordering is BY SLOT, so this also pins that
/// results land in request order whatever the steal schedule did.
void expectParity(const std::vector<Result<AnalysisReport>>& got,
                  const std::vector<Result<AnalysisReport>>& oracle,
                  const std::string& label) {
  ASSERT_EQ(got.size(), oracle.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].ok(), oracle[i].ok()) << label << " item " << i;
    if (!got[i].ok()) {
      EXPECT_EQ(got[i].status().code(), oracle[i].status().code())
          << label << " item " << i;
      continue;
    }
    EXPECT_TRUE(got[i]->decisionEquals(*oracle[i]))
        << label << " item " << i << " (" << got[i]->id << ")";
  }
}

// ------------------------------------------------------------- shard plan

TEST(SchedulerPlan, DeterministicStructureAndBudgets) {
  SchedulerOptions opts;  // defaults: smallShardSize 4, floor 192
  const std::vector<std::size_t> orders = {40, 56, 3,  24, 12, 224, 2,
                                           96, 30, 2,  300, 8,  120, 30};
  const std::vector<Shard> plan = planShards(orders, opts);
  ASSERT_FALSE(plan.empty());

  std::vector<char> seen(orders.size(), 0);
  for (const Shard& shard : plan) {
    ASSERT_FALSE(shard.items.empty());
    for (std::size_t k = 0; k < shard.items.size(); ++k) {
      const std::size_t item = shard.items[k];
      ASSERT_LT(item, orders.size());
      EXPECT_FALSE(seen[item]) << "item " << item << " planned twice";
      seen[item] = 1;
      if (k > 0) EXPECT_LT(shard.items[k - 1], item);  // ascending
    }
    if (shard.large) {
      // Large-order items: singleton shard, kernel threads granted
      // (budget 0 = configured width applies uncapped).
      EXPECT_EQ(shard.items.size(), 1u);
      EXPECT_GE(orders[shard.items[0]], opts.largeOrderFloor);
      EXPECT_EQ(shard.gemmBudget, opts.gemmBudget);
    } else {
      // Small items: grouped, gemm pinned inline (budget 1) so the
      // kernel pool stays free for the large shards.
      EXPECT_LE(shard.items.size(), opts.smallShardSize);
      EXPECT_EQ(shard.gemmBudget, 1u);
      for (std::size_t item : shard.items)
        EXPECT_LT(orders[item], opts.largeOrderFloor);
    }
  }
  for (std::size_t i = 0; i < orders.size(); ++i)
    EXPECT_TRUE(seen[i]) << "item " << i << " missing from plan";

  // Pure function: replanning yields the identical plan.
  const std::vector<Shard> again = planShards(orders, opts);
  ASSERT_EQ(again.size(), plan.size());
  for (std::size_t s = 0; s < plan.size(); ++s) {
    EXPECT_EQ(again[s].items, plan[s].items);
    EXPECT_EQ(again[s].large, plan[s].large);
    EXPECT_EQ(again[s].gemmBudget, plan[s].gemmBudget);
  }
}

// ------------------------------------------------- work-stealing executor

TEST(SchedulerExecutor, GuaranteedStealUnderForcedSkew) {
  // Two shards, both homed on worker 0 (packFirstWorker), two workers.
  // Shard 0 blocks until shard 1 has run — which can ONLY happen if
  // worker 1 steals shard 1 from worker 0's queue. A broken stealer
  // deadlocks here (ctest timeout), a working one records >= 1 steal.
  std::vector<Shard> plan(2);
  plan[0].items = {0};
  plan[1].items = {1};
  std::mutex mu;
  std::condition_variable cv;
  bool shard1Ran = false;
  std::vector<char> stolenFlag(2, 0);
  const std::size_t steals = api::runSharded(
      plan, /*workers=*/2,
      [&](std::size_t item, std::size_t, bool stolen) {
        if (item == 0) {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return shard1Ran; });
        } else {
          {
            std::lock_guard<std::mutex> lock(mu);
            shard1Ran = true;
          }
          cv.notify_all();
        }
        stolenFlag[item] = stolen ? 1 : 0;
      },
      /*packFirstWorker=*/true);
  EXPECT_GE(steals, 1u);
  EXPECT_TRUE(stolenFlag[1]);   // shard 1 had to be stolen
  EXPECT_FALSE(stolenFlag[0]);  // shard 0 ran on its home worker
}

TEST(SchedulerExecutor, SingleWorkerRunsPlanOrderWithNoSteals) {
  SchedulerOptions opts;
  const std::vector<std::size_t> orders = {10, 20, 200, 30, 40, 50};
  const std::vector<Shard> plan = planShards(orders, opts);
  std::vector<std::size_t> executionOrder;
  const std::size_t steals = api::runSharded(
      plan, /*workers=*/1,
      [&](std::size_t item, std::size_t, bool stolen) {
        EXPECT_FALSE(stolen);
        executionOrder.push_back(item);
      });
  EXPECT_EQ(steals, 0u);
  // One worker drains its own queue front-to-back: plan order exactly.
  std::vector<std::size_t> planOrder;
  for (const Shard& shard : plan)
    for (std::size_t item : shard.items) planOrder.push_back(item);
  EXPECT_EQ(executionOrder, planOrder);
}

// ------------------------------------------------------------ batch parity

TEST(SchedulerRandom, ParityAcrossWorkerCountsAndOversubscription) {
  const std::vector<AnalysisRequest>& batch = sharedBatch();
  const std::vector<Result<AnalysisReport>>& oracle = sequentialOracle();

  std::vector<std::size_t> workerCounts = {1, 2, 3, 7};
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workerCounts.push_back(4 * hw);  // 4x oversubscription

  for (std::size_t workers : workerCounts) {
    AnalyzerOptions opts;
    opts.threads = workers;
    const PassivityAnalyzer analyzer(opts);
    const std::vector<Result<AnalysisReport>> results =
        analyzer.runBatch(batch);
    expectParity(results, oracle,
                 "workers=" + std::to_string(workers));
  }
}

TEST(SchedulerRandom, ParityUnderStealHeavySkew) {
  // Every shard homed on worker 0: workers 1..W-1 must steal all their
  // work, maximizing out-of-plan-order execution. Slot-addressed results
  // keep the output ordering (and every decision) identical anyway.
  const std::vector<AnalysisRequest>& batch = sharedBatch();
  const std::vector<Result<AnalysisReport>>& oracle = sequentialOracle();

  AnalyzerOptions opts;
  opts.threads = 3;
  opts.scheduler.packFirstWorker = true;
  const PassivityAnalyzer analyzer(opts);
  const std::vector<Result<AnalysisReport>> results = analyzer.runBatch(batch);
  expectParity(results, oracle, "steal-heavy");
  for (std::size_t i = 0; i < results.size(); ++i)
    if (results[i].ok())
      EXPECT_EQ(results[i]->id, batch[i].id) << "slot " << i;
}

// ------------------------------------------------------- report semantics

TEST(SchedulerRandom, SchedulerReportCounterSemantics) {
  const std::vector<AnalysisRequest>& batch = sharedBatch();
  AnalyzerOptions opts;
  opts.threads = 2;
  const PassivityAnalyzer analyzer(opts);
  const std::vector<Result<AnalysisReport>> results = analyzer.runBatch(batch);
  ASSERT_EQ(results.size(), batch.size());

  const SchedulerOptions& sopts = opts.scheduler;
  const std::vector<Shard> expectedPlan = [&batch, &sopts] {
    std::vector<std::size_t> orders(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
      orders[i] = batch[i].system.order();
    return planShards(orders, sopts);
  }();

  std::size_t firstSteals = 0;
  bool sawOk = false;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) continue;  // error slots carry no report
    const AnalysisReport& r = *results[i];
    EXPECT_TRUE(r.scheduler.scheduled) << i;
    EXPECT_EQ(r.scheduler.batchWorkers, 2u) << i;
    EXPECT_EQ(r.scheduler.batchShards, expectedPlan.size()) << i;
    ASSERT_LT(r.scheduler.shard, expectedPlan.size()) << i;
    const Shard& shard = expectedPlan[r.scheduler.shard];
    EXPECT_EQ(r.scheduler.shardItems, shard.items.size()) << i;
    EXPECT_EQ(r.scheduler.large, shard.large) << i;
    EXPECT_EQ(r.scheduler.large,
              batch[i].system.order() >= sopts.largeOrderFloor)
        << i;
    if (!shard.large) {
      // Small shards run gemm inline by construction.
      EXPECT_EQ(r.scheduler.gemmThreadsGranted, 1u) << i;
    } else {
      EXPECT_GE(r.scheduler.gemmThreadsGranted, 1u) << i;
    }
    // batchSteals is an execution record but must be stamped uniformly.
    if (!sawOk) {
      firstSteals = r.scheduler.batchSteals;
      sawOk = true;
    } else {
      EXPECT_EQ(r.scheduler.batchSteals, firstSteals) << i;
    }
    // A stolen item implies the batch recorded at least one steal.
    if (r.scheduler.stolen) EXPECT_GE(r.scheduler.batchSteals, 1u) << i;
  }
  EXPECT_TRUE(sawOk);
}

TEST(SchedulerRandom, TraceOwnershipPinsCanonicalStageOrderPerItem) {
  // Regression (PR 8): concurrent runBatch must never interleave or
  // reorder StageTraces across items — each report owns its traces, and
  // their order is the canonical Fig.-1 stage order, identical to the
  // single-shot run of the same request.
  const std::vector<AnalysisRequest>& batch = sharedBatch();
  const std::vector<Result<AnalysisReport>>& oracle = sequentialOracle();

  AnalyzerOptions opts;
  opts.threads = 7;
  const PassivityAnalyzer analyzer(opts);
  const std::vector<Result<AnalysisReport>> results = analyzer.runBatch(batch);

  const char* const kCanonical[] = {
      "prerequisites",  "build-phi",   "impulse-deflation",
      "nondynamic-removal", "m1-extraction", "proper-part", "pr-test"};
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) continue;
    const AnalysisReport& r = *results[i];
    ASSERT_LE(r.stages.size(), std::size(kCanonical)) << i;
    for (std::size_t k = 0; k < r.stages.size(); ++k)
      EXPECT_EQ(r.stages[k].name, kCanonical[k]) << i << " stage " << k;
    ASSERT_TRUE(oracle[i].ok()) << i;
    ASSERT_EQ(r.stages.size(), oracle[i]->stages.size()) << i;
    for (std::size_t k = 0; k < r.stages.size(); ++k) {
      EXPECT_EQ(r.stages[k].status.code(),
                oracle[i]->stages[k].status.code())
          << i << " stage " << k;
    }
  }
}

}  // namespace
}  // namespace shhpass
