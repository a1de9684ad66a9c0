#include "obs/trace.hpp"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>

#include "obs/clock.hpp"

namespace shhpass::obs {
namespace {

std::atomic<bool> gTraceEnabled{false};
std::atomic<std::uint64_t> gDropped{0};
std::atomic<std::uint32_t> gNextTid{0};

/// Per-thread append-only span buffer. The owning thread fills
/// events_[count_] and publishes with a release store of count_; readers
/// acquire count_ and copy only published slots. Slots are never
/// rewritten (no wrap), so reader and writer never touch the same
/// memory unordered — lock-free and TSan-clean by construction.
struct ThreadBuffer {
  static constexpr std::size_t kCapacity = 1 << 16;
  std::unique_ptr<TraceEvent[]> events{new TraceEvent[kCapacity]};
  std::atomic<std::size_t> published{0};
  std::size_t retired = 0;  ///< Snapshot floor; guarded by gRegistryMu.
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;  // owns forever
  std::vector<ThreadBuffer*> freeList;                 // recycled on exit
};

Registry& registry() {
  static Registry* kRegistry = new Registry();  // never destroyed: spans
  return *kRegistry;  // may outlive static-destruction order
}

/// Returns a buffer to the free list when its thread exits; events stay
/// published (the registry owns the storage).
struct TlsSlot {
  ThreadBuffer* buffer = nullptr;
  ~TlsSlot() {
    if (buffer == nullptr) return;
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.freeList.push_back(buffer);
  }
};

ThreadBuffer& threadBuffer() {
  thread_local TlsSlot slot;
  if (slot.buffer == nullptr) {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    if (!reg.freeList.empty()) {
      slot.buffer = reg.freeList.back();
      reg.freeList.pop_back();
    } else {
      reg.buffers.push_back(std::make_unique<ThreadBuffer>());
      slot.buffer = reg.buffers.back().get();
    }
  }
  return *slot.buffer;
}

void copyName(char (&dst)[TraceEvent::kNameCapacity], std::string_view src) {
  const std::size_t n = std::min(src.size(), sizeof(dst) - 1);
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

void appendEvent(const TraceEvent& event) {
  ThreadBuffer& buf = threadBuffer();
  const std::size_t n = buf.published.load(std::memory_order_relaxed);
  if (n >= ThreadBuffer::kCapacity) {
    gDropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf.events[n] = event;
  buf.published.store(n + 1, std::memory_order_release);
}

void appendJsonEscaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char hex[8];
      std::snprintf(hex, sizeof(hex), "\\u%04x", c);
      out += hex;
    } else {
      out.push_back(c);
    }
  }
}

}  // namespace

bool traceEnabled() { return gTraceEnabled.load(std::memory_order_relaxed); }

void setTraceEnabled(bool enabled) {
  gTraceEnabled.store(enabled, std::memory_order_relaxed);
}

std::uint32_t currentThreadTid() {
  thread_local const std::uint32_t kTid =
      gNextTid.fetch_add(1, std::memory_order_relaxed);
  return kTid;
}

void emitSpan(std::string_view name, const char* cat, std::uint64_t startNs,
              std::uint64_t endNs, std::uint32_t tid, const char* argName,
              std::int64_t argValue) {
  if (!traceEnabled()) return;
  TraceEvent e;
  copyName(e.name, name);
  e.cat = cat;
  e.startNs = startNs;
  e.durNs = endNs >= startNs ? endNs - startNs : 0;
  e.tid = tid;
  e.argName = argName;
  e.argValue = argValue;
  appendEvent(e);
}

ObsSpan::ObsSpan(std::string_view name, const char* cat, bool sample) {
  if (!sample || !traceEnabled()) return;
  active_ = true;
  copyName(name_, name);
  cat_ = cat;
  startNs_ = monotonicNowNs();
}

void ObsSpan::arg(const char* name, std::int64_t value) {
  if (!active_) return;
  argName_ = name;
  argValue_ = value;
}

ObsSpan::~ObsSpan() {
  if (!active_) return;
  TraceEvent e;
  std::memcpy(e.name, name_, sizeof(e.name));
  e.cat = cat_;
  e.startNs = startNs_;
  e.durNs = monotonicNowNs() - startNs_;
  e.tid = currentThreadTid();
  e.argName = argName_;
  e.argValue = argValue_;
  appendEvent(e);
}

std::vector<TraceEvent> snapshotTrace() {
  Registry& reg = registry();
  std::vector<TraceEvent> out;
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const std::unique_ptr<ThreadBuffer>& buf : reg.buffers) {
    const std::size_t n = buf->published.load(std::memory_order_acquire);
    for (std::size_t i = buf->retired; i < n; ++i)
      out.push_back(buf->events[i]);
  }
  return out;
}

void clearTrace() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const std::unique_ptr<ThreadBuffer>& buf : reg.buffers)
    buf->retired = buf->published.load(std::memory_order_acquire);
}

std::uint64_t traceDroppedEvents() {
  return gDropped.load(std::memory_order_relaxed);
}

std::string traceJson() {
  const std::vector<TraceEvent> events = snapshotTrace();
  std::string out;
  out.reserve(events.size() * 120 + 64);
  out += "{\"traceEvents\":[";
  bool first = true;
  char num[64];
  for (const TraceEvent& e : events) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":\"";
    appendJsonEscaped(out, e.name);
    out += "\",\"cat\":\"";
    appendJsonEscaped(out, e.cat);
    // Chrome's trace viewer consumes microseconds; fractional us keep
    // the full ns resolution.
    std::snprintf(num, sizeof(num),
                  "\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                  "\"tid\":%u",
                  static_cast<double>(e.startNs) * 1e-3,
                  static_cast<double>(e.durNs) * 1e-3, e.tid);
    out += num;
    if (e.argName != nullptr) {
      out += ",\"args\":{\"";
      appendJsonEscaped(out, e.argName);
      std::snprintf(num, sizeof(num), "\":%lld}",
                    static_cast<long long>(e.argValue));
      out += num;
    }
    out.push_back('}');
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

bool writeTraceJson(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = traceJson();
  const bool ok =
      std::fwrite(doc.data(), 1, doc.size(), f) == doc.size() &&
      std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && ok;
}

namespace {
std::mutex gExitPathMu;
std::string gExitPath;  // guarded by gExitPathMu

void writeTraceAtExit() {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(gExitPathMu);
    path = gExitPath;
  }
  if (!path.empty()) (void)writeTraceJson(path);
}
}  // namespace

void setTraceExitPath(const std::string& path) {
  bool registerHandler = false;
  {
    std::lock_guard<std::mutex> lock(gExitPathMu);
    registerHandler = gExitPath.empty() && !path.empty();
    gExitPath = path;
  }
  if (registerHandler) std::atexit(writeTraceAtExit);
}

}  // namespace shhpass::obs
