// Concurrency stress suite for api::ThreadPool and its two production
// consumers: the blocked-gemm column-panel path and the batch analyzer.
// This suite exists primarily to be run under ThreadSanitizer (the `tsan`
// CI job builds with -DSHHPASS_TSAN=ON and SHHPASS_GEMM_THREADS=3): every
// test doubles as a race detector target, and several pin the lifecycle
// contract documented in api/thread_pool.hpp — a throwing task never
// poisons the pool, destruction drains deterministically, nested
// submission is legal, and setGemmThreads is safe against in-flight gemms.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/analyzer.hpp"
#include "api/thread_pool.hpp"
#include "circuits/generators.hpp"
#include "linalg/blas.hpp"
#include "test_support.hpp"

namespace shhpass {
namespace {

using api::AnalysisReport;
using api::AnalysisRequest;
using api::AnalyzerOptions;
using api::PassivityAnalyzer;
using api::Result;
using api::ThreadPool;
using linalg::Matrix;
using testing::randomMatrix;

/// Exact bitwise matrix equality (the determinism contract is bitwise,
/// so approxEqual would be too weak here).
bool bitwiseEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      if (a(i, j) != b(i, j)) return false;
  return true;
}

/// Smallest square size whose m*n*k crosses the threaded-gemm floor, so
/// the column-panel fan-out actually engages.
constexpr std::size_t kThreadedGemmN = 224;
static_assert(kThreadedGemmN * kThreadedGemmN * kThreadedGemmN >=
              linalg::kGemmThreadedFlopFloor);

/// RAII guard: every test leaves the process-wide kernel pool serial.
struct SerialGemmAtExit {
  ~SerialGemmAtExit() { linalg::setGemmThreads(1); }
};

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolStress, ConcurrentEnqueueAndDrain) {
  ThreadPool pool(4);
  std::atomic<std::size_t> ran{0};
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kJobsPerProducer = 500;

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &ran] {
      for (std::size_t i = 0; i < kJobsPerProducer; ++i)
        pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  for (std::thread& t : producers) t.join();
  pool.wait();
  EXPECT_EQ(ran.load(), kProducers * kJobsPerProducer);
  EXPECT_GE(pool.jobsExecuted(), kProducers * kJobsPerProducer);
}

TEST(ThreadPoolStress, ThrowingTaskDoesNotPoisonThePool) {
  ThreadPool pool(2);
  std::atomic<std::size_t> ran{0};
  for (std::size_t i = 0; i < 16; ++i) {
    if (i % 5 == 0) {
      pool.submit([] { throw std::runtime_error("task failure"); });
    } else {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
  }
  // The first exception surfaces at the barrier...
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // ...but every non-throwing task still ran (4 of the 16 threw), and the
  // pool is fully usable afterwards: same workers, clean wait.
  EXPECT_EQ(ran.load(), 12u);
  for (std::size_t i = 0; i < 32; ++i)
    pool.submit([&ran] { ran.fetch_add(1); });
  EXPECT_NO_THROW(pool.wait());
  EXPECT_EQ(ran.load(), 44u);
  EXPECT_EQ(pool.jobsExecuted(), 48u);  // throwing tasks count as executed
}

TEST(ThreadPoolStress, DestructionDrainsQueuedWorkDeterministically) {
  std::atomic<std::size_t> ran{0};
  constexpr std::size_t kJobs = 200;
  {
    ThreadPool pool(2);
    // Head jobs sleep so a real backlog is queued when the destructor
    // runs; drain semantics require every one of them to execute anyway.
    for (std::size_t i = 0; i < kJobs; ++i) {
      pool.submit([&ran, i] {
        if (i < 4)
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // No wait(): destruction itself must drain.
  }
  EXPECT_EQ(ran.load(), kJobs);
}

TEST(ThreadPoolStress, DestructionWithPendingExceptionIsSafe) {
  // An exception that was never observed via wait() is dropped at
  // destruction — not rethrown, not std::terminate.
  ThreadPool pool(1);
  pool.submit([] { throw std::runtime_error("never observed"); });
}

TEST(ThreadPoolStress, NestedSubmitFromWorker) {
  ThreadPool pool(3);
  std::atomic<std::size_t> parents{0};
  std::atomic<std::size_t> children{0};
  constexpr std::size_t kParents = 24;
  constexpr std::size_t kChildrenPerParent = 5;
  for (std::size_t p = 0; p < kParents; ++p) {
    pool.submit([&pool, &parents, &children] {
      for (std::size_t c = 0; c < kChildrenPerParent; ++c)
        pool.submit(
            [&children] { children.fetch_add(1, std::memory_order_relaxed); });
      parents.fetch_add(1, std::memory_order_relaxed);
    });
  }
  // wait() must account for work enqueued by the workers themselves.
  pool.wait();
  EXPECT_EQ(parents.load(), kParents);
  EXPECT_EQ(children.load(), kParents * kChildrenPerParent);
}

// ------------------------------------------------------- gemm kernel pool

TEST(ThreadPoolStress, GemmThreadLifecycleBypassesBitIdentically) {
  SerialGemmAtExit cleanup;
  const Matrix a = randomMatrix(kThreadedGemmN, kThreadedGemmN, 11);
  const Matrix b = randomMatrix(kThreadedGemmN, kThreadedGemmN, 12);

  auto blockedProduct = [&] {
    Matrix c(kThreadedGemmN, kThreadedGemmN);
    linalg::gemmBlocked(1.0, a, false, b, false, 0.0, c);
    return c;
  };

  linalg::setGemmThreads(1);  // structural bypass: no pool exists
  EXPECT_EQ(linalg::gemmThreads(), 1u);
  const Matrix serial = blockedProduct();

  linalg::setGemmThreads(3);
  EXPECT_EQ(linalg::gemmThreads(), 3u);
  EXPECT_TRUE(bitwiseEqual(serial, blockedProduct()));

  linalg::setGemmThreads(7);
  EXPECT_TRUE(bitwiseEqual(serial, blockedProduct()));

  // t == 0 resolves to hardware concurrency; whatever that is, the result
  // must stay bit-identical to the serial bypass.
  linalg::setGemmThreads(0);
  EXPECT_GE(linalg::gemmThreads(), 1u);
  EXPECT_TRUE(bitwiseEqual(serial, blockedProduct()));

  linalg::setGemmThreads(1);
  EXPECT_EQ(linalg::gemmThreads(), 1u);
  EXPECT_TRUE(bitwiseEqual(serial, blockedProduct()));
}

TEST(ThreadPoolStress, SetGemmThreadsRacingInFlightGemms) {
  // Reconfiguring the kernel pool while gemms are in flight must neither
  // race (TSan) nor change a single bit of any product: each gemm pins
  // the pool it started with.
  SerialGemmAtExit cleanup;
  const Matrix a = randomMatrix(kThreadedGemmN, kThreadedGemmN, 21);
  const Matrix b = randomMatrix(kThreadedGemmN, kThreadedGemmN, 22);

  linalg::setGemmThreads(1);
  Matrix expected(kThreadedGemmN, kThreadedGemmN);
  linalg::gemmBlocked(1.0, a, false, b, false, 0.0, expected);

  linalg::setGemmThreads(3);
  std::atomic<bool> stop{false};
  std::thread reconfigurer([&stop] {
    const std::size_t settings[] = {2, 3, 1, 4, 3};
    std::size_t k = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      linalg::setGemmThreads(settings[k % 5]);
      ++k;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> gemmers;
  for (std::size_t t = 0; t < 2; ++t) {
    gemmers.emplace_back([&] {
      for (std::size_t rep = 0; rep < 6; ++rep) {
        Matrix c(kThreadedGemmN, kThreadedGemmN);
        linalg::gemmBlocked(1.0, a, false, b, false, 0.0, c);
        if (!bitwiseEqual(c, expected)) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : gemmers) t.join();
  stop.store(true);
  reconfigurer.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

// ------------------------------------------------------------- batch layer

TEST(ThreadPoolStress, RunBatchUnderOversubscription) {
  // More batch workers than cores, nested over a threaded kernel pool:
  // the two pool layers (batch ThreadPool + shared gemm pool) interleave,
  // and every report must still decision-match its sequential twin.
  SerialGemmAtExit cleanup;
  linalg::setGemmThreads(3);

  std::vector<AnalysisRequest> batch;
  for (std::size_t k = 0; k < 12; ++k) {
    AnalysisRequest req;
    req.id = "stress-" + std::to_string(k);
    req.system =
        circuits::makeBenchmarkModel(15 + 2 * (k % 4), /*impulsive=*/k % 2 == 0);
    batch.push_back(std::move(req));
  }

  AnalyzerOptions opts;
  opts.threads = 4 * std::max(1u, std::thread::hardware_concurrency());
  PassivityAnalyzer analyzer(opts);

  std::vector<Result<AnalysisReport>> results = analyzer.runBatch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(results[i].ok())
        << batch[i].id << ": " << results[i].status().toString();
    Result<AnalysisReport> single = analyzer.analyze(batch[i]);
    ASSERT_TRUE(single.ok()) << batch[i].id;
    EXPECT_TRUE(results[i]->decisionEquals(*single)) << batch[i].id;
  }
}

TEST(ThreadPoolStress, ObserverSwapDuringConcurrentAnalyses) {
  // setStageObserver while analyses run on other threads: the slot is
  // mutex-guarded and snapshotted per analysis, so this is race-free and
  // every stage notification lands on whichever observer the analysis
  // started with.
  PassivityAnalyzer analyzer;
  const ds::DescriptorSystem sys = circuits::makeBenchmarkModel(15, true);

  std::atomic<std::size_t> notifications{0};
  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      analyzer.setStageObserver([&notifications](const api::StageTrace&) {
        notifications.fetch_add(1, std::memory_order_relaxed);
      });
      analyzer.setStageObserver(nullptr);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    // Leave a live observer installed for the tail assertions below.
    analyzer.setStageObserver([&notifications](const api::StageTrace&) {
      notifications.fetch_add(1, std::memory_order_relaxed);
    });
  });

  std::vector<std::thread> analysts;
  std::atomic<std::size_t> failures{0};
  for (std::size_t t = 0; t < 2; ++t) {
    analysts.emplace_back([&] {
      for (std::size_t rep = 0; rep < 10; ++rep) {
        Result<AnalysisReport> r = analyzer.analyze(sys);
        if (!r.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : analysts) t.join();
  stop.store(true);
  swapper.join();
  EXPECT_EQ(failures.load(), 0u);

  // With the post-race observer pinned, one analysis notifies once per
  // executed stage.
  const std::size_t before = notifications.load();
  Result<AnalysisReport> r = analyzer.analyze(sys);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(notifications.load() - before, r->stages.size());
}

}  // namespace
}  // namespace shhpass
