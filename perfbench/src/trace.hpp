// In-memory span recorder for the traced run.
//
// A span is (name, start, end, parent, unit): the benchmark opens one around
// each call it makes into a layer of rtlock, and the span open on the same
// thread at that moment is its parent.  Spans of one unit of work (a grid
// cell, a request) share the unit id.  Spans stay in per-thread buffers
// until the run ends; nothing is written while work is being timed.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct TraceBuffer;  // one per recording thread (trace.cpp)

struct Span {
  std::uint32_t name = 0;    // Tracer::intern id
  std::int32_t parent = -1;  // index into the same collected list; -1 = root
  std::uint32_t unit = 0;
  std::uint32_t thread = 0;
  std::int64_t startNs = 0;  // since the tracer's epoch
  std::int64_t endNs = 0;
};

/// Per-name totals over every collected span.
struct NameTotals {
  std::uint64_t count = 0;
  double totalMs = 0.0;
  double selfMs = 0.0;
};

class Tracer {
 public:
  Tracer();
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Stable id for a span name (thread-safe).
  [[nodiscard]] std::uint32_t intern(std::string_view name);
  [[nodiscard]] const std::string& nameOf(std::uint32_t id) const;

  /// While disabled, a Scope records nothing and reads no clock, so an
  /// untraced pass can run the very code of a traced one.  Change it only
  /// while no Scope is open.
  void setEnabled(bool enabled) noexcept { enabled_ = enabled; }

  /// RAII span on the calling thread.  `unit` applies to root spans; nested
  /// spans inherit their parent's unit.
  class Scope {
   public:
    Scope(Tracer& tracer, std::uint32_t name, std::uint32_t unit = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    TraceBuffer* buffer_;  // null while the tracer is disabled
    std::size_t index_ = 0;
  };

  /// Every span recorded so far, parents remapped to indices of the returned
  /// list.  Call only while no Scope is open.
  [[nodiscard]] std::vector<Span> collect() const;

  /// Per-name count, total and self time (duration minus the part covered by
  /// child spans) over `spans`.
  [[nodiscard]] std::map<std::string, NameTotals> totalsByName(
      const std::vector<Span>& spans) const;

  /// Chrome trace-event JSON of `spans`.  Spans named in `perRound` are
  /// written only under the first parent that has them (they still count in
  /// every total); the rest are written in full.
  void writeTraceEvents(const std::vector<Span>& spans, const std::vector<std::string>& perRound,
                        const std::string& path) const;

 private:
  [[nodiscard]] TraceBuffer& threadBuffer();
  [[nodiscard]] std::int64_t nowNs() const;

  std::uint64_t id_;  // distinguishes tracers in the thread-local buffer cache
  std::chrono::steady_clock::time_point epoch_;
  bool enabled_ = true;
  mutable std::mutex mutex_;  // guards names_, ids_, buffers_
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> ids_;
  std::vector<std::unique_ptr<TraceBuffer>> buffers_;
};

/// Layer of a span name: the text before its first '.' ("attack.extract"
/// -> "attack").
[[nodiscard]] std::string layerOf(std::string_view name);

}  // namespace perfbench
