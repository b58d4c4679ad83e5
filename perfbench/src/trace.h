// In-memory span recorder for traced runs. A span is (name, start, end,
// parent, batch id) around one call the benchmark makes into a public
// function of the program. Spans stay in per-thread buffers while the run
// goes and are written out, with a per-layer self-time table, at the end.
// Untraced runs pay one branch per call site.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // "<layer>.<call>", a string literal.
  double start = 0;       // Seconds, steady clock.
  double end = 0;
  int64_t id = 0;         // Process-unique span id.
  int64_t parent = 0;     // 0 = top level.
  int64_t batch = -1;     // Batch (record) the call served, or -1.
  int thread = 0;
};

class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled();

  /// Writes spans as tab-separated lines to `path`; prints the per-layer
  /// self-time table (layer = span name up to the first '.') to stderr.
  static void WriteAndSummarize(const std::string& path);
};

/// RAII span; a no-op when tracing is off. Nested scopes on one thread
/// become parent/child.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t batch = -1);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  int64_t batch_;
  double start_ = 0;
  int64_t id_ = 0;
  int64_t parent_ = 0;
  bool on_ = false;
};

}  // namespace perfbench
