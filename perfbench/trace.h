// Span recorder for the benchmark's traced run.
//
// A Span marks one call into a BrickSim layer: name, start, end, the span
// that was open on the same thread when it began (its parent), and up to
// three numeric annotations.  Spans are kept in per-thread buffers in
// memory and written once, at the end of the run, as Chrome trace-event
// JSON (Perfetto and chrome://tracing open it).  run.py reduces that file
// to the per-layer metrics.
//
// Disarmed (the untraced binary never arms it) a Span costs one relaxed
// atomic load.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace perfbench::trace {

extern std::atomic<bool> g_armed;

inline bool armed() { return g_armed.load(std::memory_order_relaxed); }

/// Starts recording.  Call before any thread opens a span.
void arm();

class Span {
 public:
  /// `name` must outlive the run (a string literal).
  explicit Span(const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Sets annotation `slot` (0..2); written as args a0..a2.
  void arg(int slot, double value);

 private:
  std::int64_t index_ = -1;  ///< record index in this thread's buffer
};

/// Writes every recorded span to `path`.  Every thread that recorded spans
/// must have finished its spans (joined, or idle after a join point).
void write_chrome_trace(const std::string& path);

}  // namespace perfbench::trace
