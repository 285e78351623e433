#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <limits>
#include <set>
#include <stdexcept>

#include "stats.hpp"
#include "support/json.hpp"

namespace perfbench {

struct TraceBuffer {
  std::uint32_t thread = 0;
  std::vector<Span> spans;         // parent = index within this buffer
  std::vector<std::size_t> open;   // stack of open span indices
};

namespace {

std::atomic<std::uint64_t> nextTracerId{1};

/// The calling thread's buffer for the tracer with `id` (one tracer at a
/// time per thread is the only pattern the benchmark uses; a different id
/// simply re-registers).
struct ThreadCache {
  std::uint64_t tracerId = 0;
  TraceBuffer* buffer = nullptr;
};
thread_local ThreadCache threadCache;

}  // namespace

Tracer::Tracer() : id_(nextTracerId.fetch_add(1)), epoch_(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() = default;

std::uint32_t Tracer::intern(std::string_view name) {
  const std::lock_guard<std::mutex> lock{mutex_};
  const auto found = ids_.find(name);
  if (found != ids_.end()) return found->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(std::string{name}, id);
  return id;
}

const std::string& Tracer::nameOf(std::uint32_t id) const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return names_.at(id);
}

TraceBuffer& Tracer::threadBuffer() {
  if (threadCache.tracerId != id_) {
    const std::lock_guard<std::mutex> lock{mutex_};
    buffers_.push_back(std::make_unique<TraceBuffer>());
    buffers_.back()->thread = static_cast<std::uint32_t>(buffers_.size() - 1);
    threadCache = {id_, buffers_.back().get()};
  }
  return *threadCache.buffer;
}

std::int64_t Tracer::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              epoch_)
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, std::uint32_t name, std::uint32_t unit)
    : tracer_(tracer), buffer_(tracer.enabled_ ? &tracer.threadBuffer() : nullptr) {
  if (buffer_ == nullptr) return;
  index_ = buffer_->spans.size();
  Span span;
  span.name = name;
  span.thread = buffer_->thread;
  span.unit = unit;
  if (!buffer_->open.empty()) {
    span.parent = static_cast<std::int32_t>(buffer_->open.back());
    span.unit = buffer_->spans[buffer_->open.back()].unit;
  }
  buffer_->open.push_back(index_);
  span.startNs = tracer_.nowNs();
  buffer_->spans.push_back(span);
}

Tracer::Scope::~Scope() {
  if (buffer_ == nullptr) return;
  buffer_->spans[index_].endNs = tracer_.nowNs();
  buffer_->open.pop_back();
}

std::vector<Span> Tracer::collect() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    if (!buffer->open.empty()) throw std::logic_error{"trace collected with a span still open"};
    const auto offset = static_cast<std::int32_t>(all.size());
    for (Span span : buffer->spans) {
      if (span.parent >= 0) span.parent += offset;
      all.push_back(span);
    }
  }
  return all;
}

std::map<std::string, NameTotals> Tracer::totalsByName(const std::vector<Span>& spans) const {
  std::vector<std::vector<Interval>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].push_back(
          {static_cast<double>(span.startNs), static_cast<double>(span.endNs)});
    }
  }
  std::map<std::string, NameTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const Interval self{static_cast<double>(span.startNs), static_cast<double>(span.endNs)};
    NameTotals& entry = totals[nameOf(span.name)];
    ++entry.count;
    entry.totalMs += (self.end - self.start) / 1e6;
    entry.selfMs += selfTime(self, std::move(children[i])) / 1e6;
  }
  return totals;
}

void Tracer::writeTraceEvents(const std::vector<Span>& spans,
                              const std::vector<std::string>& perRound,
                              const std::string& path) const {
  std::set<std::uint32_t> roundNames;
  for (const std::string& name : perRound) {
    const std::lock_guard<std::mutex> lock{mutex_};
    const auto found = ids_.find(name);
    if (found != ids_.end()) roundNames.insert(found->second);
  }
  // Round-level spans are kept for the earliest-starting parent only.
  std::int64_t firstRoundStart = std::numeric_limits<std::int64_t>::max();
  std::int32_t roundParent = -1;
  for (const Span& span : spans) {
    if (roundNames.count(span.name) != 0 && span.startNs < firstRoundStart) {
      firstRoundStart = span.startNs;
      roundParent = span.parent;
    }
  }
  rtlock::support::JsonArray events;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (roundNames.count(span.name) != 0 && span.parent != roundParent) continue;
    const std::string& name = nameOf(span.name);
    rtlock::support::JsonValue args;
    args.set("id", static_cast<std::int64_t>(i));
    args.set("parent", static_cast<std::int64_t>(span.parent));
    args.set("unit", static_cast<std::int64_t>(span.unit));
    rtlock::support::JsonValue event;
    event.set("name", name);
    event.set("cat", layerOf(name));
    event.set("ph", "X");
    event.set("ts", static_cast<double>(span.startNs) / 1e3);
    event.set("dur", static_cast<double>(span.endNs - span.startNs) / 1e3);
    event.set("pid", 1);
    event.set("tid", static_cast<std::int64_t>(span.thread));
    event.set("args", std::move(args));
    events.push_back(std::move(event));
  }
  rtlock::support::JsonValue document;
  document.set("traceEvents", rtlock::support::JsonValue{std::move(events)});
  document.set("displayTimeUnit", "ms");
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  if (!out) throw std::runtime_error{"cannot write trace file " + path};
  document.write(out);
  out << "\n";
  if (!out.flush()) throw std::runtime_error{"cannot write trace file " + path};
}

std::string layerOf(std::string_view name) {
  return std::string{name.substr(0, name.find('.'))};
}

}  // namespace perfbench
