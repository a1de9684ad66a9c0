#include "spans.hpp"

#include <chrono>
#include <cstdio>

namespace perfbench {

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SpanRecorder::Scope::Scope(SpanRecorder& rec, const char* name,
                           std::int64_t item) {
  if (!rec.enabled_) return;
  rec_ = &rec;
  Span s;
  s.name = name;
  s.parent = rec.open_.empty() ? -1
                               : static_cast<std::int64_t>(rec.open_.back());
  s.item = item >= 0 || s.parent < 0
               ? item
               : rec.spans_[static_cast<std::size_t>(s.parent)].item;
  index_ = rec.spans_.size();
  rec.spans_.push_back(std::move(s));
  rec.open_.push_back(index_);
  rec.spans_[index_].startNs = nowNs();
}

SpanRecorder::Scope::~Scope() {
  if (rec_ == nullptr) return;
  rec_->spans_[index_].endNs = nowNs();
  rec_->open_.pop_back();
}

std::map<std::string, double> SpanRecorder::selfSeconds() const {
  std::vector<double> childNs(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      childNs[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.endNs - s.startNs);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] +=
        (static_cast<double>(spans_[i].endNs - spans_[i].startNs) -
         childNs[i]) *
        1e-9;
  return out;
}

std::map<std::string, double> SpanRecorder::totalSeconds() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_)
    out[s.name] += secondsBetween(s.startNs, s.endNs);
  return out;
}

void SpanRecorder::nameItem(std::int64_t item, std::string label) {
  itemNames_[item] = std::move(label);
}

namespace {

std::string escaped(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

std::uint64_t tidOf(std::int64_t item) {
  return item < 0 ? 0 : static_cast<std::uint64_t>(item) + 1;
}

}  // namespace

std::string SpanRecorder::chromeJson(const std::string& otherDataJson) const {
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().startNs;
  std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":";
  out += otherDataJson;
  out += ",\"traceEvents\":[";
  char buf[256];
  bool first = true;
  const auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  sep();
  out += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"perfbench\"}}";
  for (const auto& [item, label] : itemNames_) {
    sep();
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                  "\"tid\":%llu,\"args\":{\"name\":\"",
                  static_cast<unsigned long long>(tidOf(item)));
    out += buf;
    out += escaped(label);
    out += "\"}}";
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    sep();
    out += "{\"ph\":\"X\",\"cat\":\"perfbench\",\"name\":\"";
    out += escaped(s.name);
    std::snprintf(buf, sizeof buf,
                  "\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%lld,\"item\":%lld}}",
                  static_cast<unsigned long long>(tidOf(s.item)),
                  static_cast<double>(s.startNs - origin) * 1e-3,
                  static_cast<double>(s.endNs - s.startNs) * 1e-3, i,
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.item));
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
