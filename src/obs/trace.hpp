// Span tracer: per-thread lock-free event buffers behind RAII scopes,
// exported as Chrome trace-event JSON (chrome://tracing / Perfetto).
//
// ## Design
//
//   * Recording is gated on one process-wide relaxed atomic flag; when
//     tracing is off an ObsSpan construction is a relaxed load and a
//     branch — the near-zero-overhead-when-off contract the analyzer
//     bench enforces (<3% full-telemetry overhead, BENCH_pipeline.json
//     `observerOverhead` row).
//   * Each thread appends completed spans ("X" phase: start + duration)
//     to its own fixed-capacity buffer and publishes them with one
//     release store of the element count; no locks, no cross-thread
//     writes. Readers (snapshotTrace) acquire the count and copy only
//     published slots, which the writer never touches again — the
//     buffer never wraps; when full, further events are dropped and
//     counted (traceDroppedEvents). This is what keeps the tracer
//     bit-transparent AND ThreadSanitizer-clean with tracing forced on
//     (the tsan CI preset sets SHHPASS_TRACE).
//   * Buffers are owned by a process-wide registry and recycled through
//     a free list when threads exit (every event carries its thread id,
//     so a recycled buffer may hold events of several threads).
//   * Timestamps come from obs/clock.hpp — the single sanctioned
//     monotonic-clock site (lint rule `no-raw-clock`).
//
// ## Determinism contract
//
// The tracer only observes: no span, flag, or export call may change a
// decision anywhere in the library. tests/test_obs.cpp pins
// decisionEquals parity between tracing-on and tracing-off runs across
// scheduler worker counts; the tsan CI job runs the whole suite with
// tracing forced on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace shhpass::obs {

/// One completed span. `cat` and `argName` must be string literals (the
/// event stores the pointer, not a copy); `name` is copied.
struct TraceEvent {
  static constexpr std::size_t kNameCapacity = 40;
  char name[kNameCapacity] = {0};  ///< NUL-terminated, truncated copy.
  const char* cat = "";            ///< Static category literal.
  std::uint64_t startNs = 0;       ///< obs::monotonicNowNs() stamp.
  std::uint64_t durNs = 0;
  std::uint32_t tid = 0;           ///< Dense per-thread id (obs-assigned).
  const char* argName = nullptr;   ///< Optional static arg key.
  std::int64_t argValue = 0;
};

/// Tracing master switch (process-wide, relaxed; observation only).
bool traceEnabled();
void setTraceEnabled(bool enabled);

/// Dense id of the calling thread, assigned on first use. Stable for the
/// thread's lifetime; exported as `tid` in the trace JSON.
std::uint32_t currentThreadTid();

/// Append a completed span with explicit stamps/thread attribution (used
/// by Pipeline::run, which already holds the stage's stamps for its
/// StageTrace). No-op when tracing is off.
void emitSpan(std::string_view name, const char* cat, std::uint64_t startNs,
              std::uint64_t endNs, std::uint32_t tid,
              const char* argName = nullptr, std::int64_t argValue = 0);

/// RAII span scope: stamps the start on construction, emits on
/// destruction. `sample` gates recording per call site (the linalg
/// kernels pass a size floor so tiny products stay span-free — the
/// sampling-friendly coarse granularity knob).
class ObsSpan {
 public:
  ObsSpan(std::string_view name, const char* cat, bool sample = true);
  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;
  ~ObsSpan();

  /// Attach the single integer argument (static-literal key).
  void arg(const char* name, std::int64_t value);

  bool active() const { return active_; }

 private:
  char name_[TraceEvent::kNameCapacity] = {0};
  const char* cat_ = "";
  std::uint64_t startNs_ = 0;
  const char* argName_ = nullptr;
  std::int64_t argValue_ = 0;
  bool active_ = false;
};

/// Copy of every span published so far (all threads, in buffer order),
/// excluding spans retired by clearTrace().
std::vector<TraceEvent> snapshotTrace();

/// Retire all currently published spans: subsequent snapshots and JSON
/// exports only see spans emitted after this call. Buffers are not
/// reclaimed (the writer side stays lock-free); a buffer that filled up
/// keeps dropping until process exit.
void clearTrace();

/// Spans dropped because a thread buffer was full (process lifetime).
std::uint64_t traceDroppedEvents();

/// Chrome trace-event JSON of the current snapshot:
/// {"traceEvents":[{"name":...,"cat":...,"ph":"X","ts":us,"dur":us,
///   "pid":1,"tid":N,"args":{...}}, ...], "displayTimeUnit":"ms"}.
std::string traceJson();

/// Write traceJson() to `path`; false on I/O failure.
bool writeTraceJson(const std::string& path);

/// Register `path` to receive the trace JSON at process exit (idempotent
/// for the same path; the SHHPASS_TRACE env hookup in telemetry.hpp).
void setTraceExitPath(const std::string& path);

}  // namespace shhpass::obs
