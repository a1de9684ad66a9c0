// The benchmark's own span recorder.
//
// Spans are recorded by perfbench around each call it makes into a
// library layer's public function; the library's built-in telemetry stays
// off. Each span carries its name, start and end, the span that was open
// when it started (its parent) and the batch item it belongs to. Spans
// are kept in memory and written out once, at exit, in Chrome trace-event
// format (chrome://tracing and Perfetto open it), one track per item.
//
// Single-threaded: every recorded call is made from the program's main
// thread. A disabled recorder reads no clock and stores nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady clock).
std::uint64_t nowNs();

/// Seconds between two nowNs() stamps.
inline double secondsBetween(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

struct Span {
  std::string name;
  std::uint64_t startNs = 0;
  std::uint64_t endNs = 0;
  std::int64_t parent = -1;  ///< Index of the enclosing span, -1 at top.
  std::int64_t item = -1;    ///< Batch item index, -1 outside any item.
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// RAII scope: opens a span on construction, closes it on destruction.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name, std::int64_t item);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    SpanRecorder* rec_ = nullptr;
    std::size_t index_ = 0;
  };

  /// Open a span named `name` for batch item `item` (-1: none). An item
  /// of -1 inherits the enclosing span's item.
  Scope scope(const char* name, std::int64_t item = -1) {
    return Scope(*this, name, item);
  }

  /// Per span name: sum of (duration - time covered by direct children).
  std::map<std::string, double> selfSeconds() const;
  /// Per span name: sum of durations.
  std::map<std::string, double> totalSeconds() const;

  /// Human-readable name of the track of batch item `item`.
  void nameItem(std::int64_t item, std::string label);

  /// Chrome trace-event JSON: one complete ("X") event per span, on tid 0
  /// for top-level spans and tid item+1 for spans of batch item
  /// `item`, plus thread_name metadata. `otherDataJson` is a JSON object
  /// written under "otherData" (run provenance).
  std::string chromeJson(const std::string& otherDataJson) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::map<std::int64_t, std::string> itemNames_;
};

/// Run `f` under a span named `name`; returns what `f` returns.
template <class F>
auto traced(SpanRecorder& rec, const char* name, F&& f) {
  auto scope = rec.scope(name);
  return f();
}

}  // namespace perfbench
