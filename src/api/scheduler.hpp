// Batch scheduling for PassivityAnalyzer::runBatch: a deterministic
// shard plan executed by a work-stealing worker crew, with per-shard gemm
// kernel-thread budgets. This layer schedules ACROSS analyses; inside one
// analysis the only parallelism is the gemm kernel pool (linalg/blas.hpp).
//
// ## Determinism contract
//
// The shard PLAN — which items group into which shard, which shards are
// "large", and each shard's kernel budget — is a pure function of the
// item orders and the options (planShards below), independent of worker
// count and steal timing. Work stealing only changes WHICH WORKER runs a
// shard and WHEN; results are written to caller-owned, item-indexed
// slots, so batch output ordering is deterministic regardless of steal
// order. Kernel budgets cannot change numerics either (the gemm
// determinism contract: bit-identical for every thread count), so
// serial == any worker count == any steal schedule, bit for bit.
// Steal COUNTS and per-item stolen flags are execution records —
// deterministic only in forced cases (packFirstWorker with one worker
// steals nothing) — and are excluded from decision comparisons.
//
// ## Budget policy
//
// Large-order items (order >= largeOrderFloor) get singleton shards and a
// kernel-thread budget (gemm fans out inside the analysis); small items
// are grouped smallShardSize to a shard with budget 1 (gemm runs inline,
// keeping the kernel pool free for the large shards and the batch slots
// busy). This matches where the time goes: an order-300 analysis is
// gemm-bound, an order-40 analysis is overhead-bound.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace shhpass::api {

/// Tuning knobs for the batch shard scheduler.
struct SchedulerOptions {
  /// Worker threads for the batch crew; 0 = hardware concurrency. The
  /// analyzer clamps this to the batch size.
  std::size_t workers = 0;
  /// Small items per shard (grouping amortizes per-item scheduling).
  std::size_t smallShardSize = 4;
  /// Items with order >= this get a singleton shard and kernel threads.
  std::size_t largeOrderFloor = 192;
  /// Kernel-thread budget granted to large shards; 0 = whatever width
  /// setGemmThreads / SHHPASS_GEMM_THREADS configured (no extra cap).
  std::size_t gemmBudget = 0;
  /// Test hook: enqueue every shard on worker 0 so workers 1..W-1 must
  /// steal everything (forced steal-heavy skew for the determinism
  /// tests). Default round-robin spreads shards across workers.
  bool packFirstWorker = false;
};

/// Scheduling record threaded into AnalysisReport::scheduler. Split into
/// deterministic PLAN fields (pure function of orders + options) and
/// execution RECORDS (timing/steal dependent). None of it participates
/// in AnalysisReport::decisionEquals — like StageTrace::seconds it
/// describes how the work ran, never what was decided.
struct SchedulerReport {
  // -- plan fields (deterministic) --
  bool scheduled = false;       ///< Item ran under the shard scheduler.
  std::size_t shard = 0;        ///< Shard index of this item in the plan.
  std::size_t shardItems = 0;   ///< Items in that shard.
  bool large = false;           ///< Singleton large-order shard.
  std::size_t gemmThreadsGranted = 1;  ///< Kernel budget while running.
  std::size_t batchShards = 0;  ///< Total shards in the plan.
  std::size_t batchWorkers = 0;  ///< Crew size the batch ran with.
  // -- execution records (nondeterministic; excluded from decisions) --
  bool stolen = false;          ///< Shard ran on a non-home worker.
  std::size_t batchSteals = 0;  ///< Total steals across the batch.
};

/// One unit of stealing: a run of item indices sharing a kernel budget.
struct Shard {
  std::vector<std::size_t> items;  ///< Item indices, ascending.
  bool large = false;
  /// Kernel-thread budget in force while the shard runs (1 = gemm
  /// inline; 0 = no cap, configured width applies).
  std::size_t gemmBudget = 1;
};

/// Deterministic shard plan over `orders` (orders[i] = state count of
/// item i): large items become singleton shards with a kernel budget;
/// small items group into budget-1 shards of smallShardSize, in index
/// order. Pure function of (orders, options) — never of worker count.
std::vector<Shard> planShards(const std::vector<std::size_t>& orders,
                              const SchedulerOptions& options);

/// Execute every shard of `plan` on `workers` threads with work
/// stealing. `body(item, shardIndex, stolen)` is invoked for every item,
/// shard by shard, with the shard's gemmBudget installed as the calling
/// thread's linalg::GemmThreadBudgetScope; `stolen` is true when the
/// shard ran on a worker other than its home worker. Items of one shard
/// run consecutively on one thread in ascending order; distinct shards
/// run concurrently. `body` may write only to item-indexed slots it owns
/// (that is what makes output ordering steal-independent).
///
/// `packFirstWorker` homes every shard on worker 0 (see
/// SchedulerOptions::packFirstWorker); the default homes shards
/// round-robin in plan order.
///
/// Exceptions: `body` should be exception-free (the analyzer's is, by
/// the Status contract). If it does throw, the first error (in worker
/// scan order) is rethrown after every worker joined; remaining shards
/// still run. Returns the total number of steals.
std::size_t runSharded(
    const std::vector<Shard>& plan, std::size_t workers,
    const std::function<void(std::size_t item, std::size_t shardIndex,
                             bool stolen)>& body,
    bool packFirstWorker = false);

}  // namespace shhpass::api
