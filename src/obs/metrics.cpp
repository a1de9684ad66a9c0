#include "obs/metrics.hpp"

#include <array>
#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>

namespace shhpass::obs {
namespace {

std::atomic<bool> gMetricsEnabled{false};

std::array<std::atomic<std::uint64_t>,
           static_cast<std::size_t>(Counter::kCount)>
    gCounters{};
std::array<std::atomic<std::int64_t>, static_cast<std::size_t>(Gauge::kCount)>
    gGauges{};

constexpr const char* kCounterNames[] = {
    "analyses_started",        "analyses_completed",
    "analyses_failed",         "analyses_not_passive",
    "stages_executed",         "batch_items",
    "shards_run",              "shard_steals",
    "gemm_calls",              "gemm_flops",
    "svd_calls",               "schur_calls",
    "staircase_compressions",  "rank_decisions",
    "reorder_rejected_swaps",
};
static_assert(sizeof(kCounterNames) / sizeof(kCounterNames[0]) ==
              static_cast<std::size_t>(Counter::kCount));

constexpr const char* kGaugeNames[] = {
    "analyses_in_flight",
};
static_assert(sizeof(kGaugeNames) / sizeof(kGaugeNames[0]) ==
              static_cast<std::size_t>(Gauge::kCount));

/// Mutex-guarded labeled histogram store. Stage-granularity only (a few
/// observations per analysis), so one lock is cheaper than per-bucket
/// atomics and keeps snapshots consistent.
struct Histogram {
  std::uint64_t count = 0;
  double sum = 0.0;
  std::array<std::uint64_t, kHistogramBuckets + 1> buckets{};  // last = +Inf
};

struct HistogramStore {
  std::mutex mu;
  std::map<std::string, Histogram> byStage;  // ordered => stable exposition
};

HistogramStore& histograms() {
  static HistogramStore* kStore = new HistogramStore();  // never destroyed
  return *kStore;
}

/// Bucket index for `seconds`: smallest i with seconds <= 1us * 2^i,
/// kHistogramBuckets when it exceeds every finite bound.
std::size_t bucketIndex(double seconds) {
  double bound = 1e-6;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i, bound *= 2.0)
    if (seconds <= bound) return i;
  return kHistogramBuckets;
}

void appendBucketBound(std::string& out, std::size_t i) {
  if (i >= kHistogramBuckets) {
    out += "+Inf";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", 1e-6 * static_cast<double>(1ull << i));
  out += buf;
}

}  // namespace

bool metricsEnabled() {
  return gMetricsEnabled.load(std::memory_order_relaxed);
}

void setMetricsEnabled(bool enabled) {
  gMetricsEnabled.store(enabled, std::memory_order_relaxed);
}

const char* counterName(Counter c) {
  return kCounterNames[static_cast<std::size_t>(c)];
}

void counterAdd(Counter c, std::uint64_t delta) {
  if (!metricsEnabled()) return;
  gCounters[static_cast<std::size_t>(c)].fetch_add(delta,
                                                   std::memory_order_relaxed);
}

std::uint64_t counterValue(Counter c) {
  return gCounters[static_cast<std::size_t>(c)].load(
      std::memory_order_relaxed);
}

const char* gaugeName(Gauge g) {
  return kGaugeNames[static_cast<std::size_t>(g)];
}

void gaugeAdd(Gauge g, std::int64_t delta) {
  if (!metricsEnabled()) return;
  gGauges[static_cast<std::size_t>(g)].fetch_add(delta,
                                                 std::memory_order_relaxed);
}

std::int64_t gaugeValue(Gauge g) {
  return gGauges[static_cast<std::size_t>(g)].load(std::memory_order_relaxed);
}

void observeStageSeconds(std::string_view stage, double seconds) {
  if (!metricsEnabled()) return;
  HistogramStore& store = histograms();
  std::lock_guard<std::mutex> lock(store.mu);
  Histogram& h = store.byStage[std::string(stage)];
  h.count += 1;
  h.sum += seconds;
  h.buckets[bucketIndex(seconds)] += 1;
}

std::vector<HistogramSnapshot> snapshotStageSeconds() {
  HistogramStore& store = histograms();
  std::vector<HistogramSnapshot> out;
  std::lock_guard<std::mutex> lock(store.mu);
  for (const auto& [label, h] : store.byStage) {
    HistogramSnapshot snap;
    snap.label = label;
    snap.count = h.count;
    snap.sum = h.sum;
    snap.buckets.resize(kHistogramBuckets + 1);
    // Expose cumulative counts (Prometheus `le` semantics).
    std::uint64_t running = 0;
    for (std::size_t i = 0; i <= kHistogramBuckets; ++i) {
      running += h.buckets[i];
      snap.buckets[i] = running;
    }
    out.push_back(std::move(snap));
  }
  return out;
}

void resetMetrics() {
  for (auto& c : gCounters) c.store(0, std::memory_order_relaxed);
  for (auto& g : gGauges) g.store(0, std::memory_order_relaxed);
  HistogramStore& store = histograms();
  std::lock_guard<std::mutex> lock(store.mu);
  store.byStage.clear();
}

std::string metricsJson() {
  std::string out = "{\"counters\":{";
  char buf[64];
  for (std::size_t i = 0; i < static_cast<std::size_t>(Counter::kCount);
       ++i) {
    if (i > 0) out.push_back(',');
    out.push_back('"');
    out += kCounterNames[i];
    std::snprintf(buf, sizeof(buf), "\":%llu",
                  static_cast<unsigned long long>(
                      gCounters[i].load(std::memory_order_relaxed)));
    out += buf;
  }
  out += "},\"gauges\":{";
  for (std::size_t i = 0; i < static_cast<std::size_t>(Gauge::kCount); ++i) {
    if (i > 0) out.push_back(',');
    out.push_back('"');
    out += kGaugeNames[i];
    std::snprintf(buf, sizeof(buf), "\":%lld",
                  static_cast<long long>(
                      gGauges[i].load(std::memory_order_relaxed)));
    out += buf;
  }
  out += "},\"histograms\":{\"stage_seconds\":{";
  bool first = true;
  for (const HistogramSnapshot& h : snapshotStageSeconds()) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    out += h.label;
    std::snprintf(buf, sizeof(buf), "\":{\"count\":%llu,\"sum\":%.9g",
                  static_cast<unsigned long long>(h.count), h.sum);
    out += buf;
    out += ",\"buckets\":[";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) out.push_back(',');
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(h.buckets[i]));
      out += buf;
    }
    out += "]}";
  }
  out += "}}}";
  return out;
}

std::string metricsPrometheus() {
  std::string out;
  char buf[96];
  for (std::size_t i = 0; i < static_cast<std::size_t>(Counter::kCount);
       ++i) {
    out += "# TYPE shhpass_";
    out += kCounterNames[i];
    out += "_total counter\nshhpass_";
    out += kCounterNames[i];
    std::snprintf(buf, sizeof(buf), "_total %llu\n",
                  static_cast<unsigned long long>(
                      gCounters[i].load(std::memory_order_relaxed)));
    out += buf;
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(Gauge::kCount); ++i) {
    out += "# TYPE shhpass_";
    out += kGaugeNames[i];
    out += " gauge\nshhpass_";
    out += kGaugeNames[i];
    std::snprintf(buf, sizeof(buf), " %lld\n",
                  static_cast<long long>(
                      gGauges[i].load(std::memory_order_relaxed)));
    out += buf;
  }
  const std::vector<HistogramSnapshot> stageHists = snapshotStageSeconds();
  if (!stageHists.empty())
    out += "# TYPE shhpass_stage_seconds histogram\n";
  for (const HistogramSnapshot& h : stageHists) {
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      out += "shhpass_stage_seconds_bucket{stage=\"";
      out += h.label;
      out += "\",le=\"";
      appendBucketBound(out, i);
      std::snprintf(buf, sizeof(buf), "\"} %llu\n",
                    static_cast<unsigned long long>(h.buckets[i]));
      out += buf;
    }
    out += "shhpass_stage_seconds_sum{stage=\"";
    out += h.label;
    std::snprintf(buf, sizeof(buf), "\"} %.9g\n", h.sum);
    out += buf;
    out += "shhpass_stage_seconds_count{stage=\"";
    out += h.label;
    std::snprintf(buf, sizeof(buf), "\"} %llu\n",
                  static_cast<unsigned long long>(h.count));
    out += buf;
  }
  return out;
}

}  // namespace shhpass::obs
