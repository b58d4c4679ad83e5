#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

#include "bench.h"

namespace perfbench {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<int64_t> g_next_id{1};
std::atomic<int> g_next_thread{0};

struct ThreadBuffer {
  int thread = 0;
  std::vector<Span> spans;
  std::vector<int64_t> open;  // Stack of open span ids.
};

std::mutex g_buffers_mu;
std::vector<std::shared_ptr<ThreadBuffer>>& Buffers() {
  static auto* buffers = new std::vector<std::shared_ptr<ThreadBuffer>>();
  return *buffers;
}

ThreadBuffer& Local() {
  thread_local std::shared_ptr<ThreadBuffer> local;
  if (!local) {
    local = std::make_shared<ThreadBuffer>();
    local->thread = g_next_thread.fetch_add(1);
    local->spans.reserve(1 << 14);
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    Buffers().push_back(local);
  }
  return *local;
}

/// Every recorded span, all threads, in start order.
std::vector<Span> Collect() {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buf : Buffers()) {
    all.insert(all.end(), buf->spans.begin(), buf->spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.start < b.start; });
  return all;
}

}  // namespace

void Tracer::Enable(bool on) { g_enabled.store(on); }
bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

ScopedSpan::ScopedSpan(const char* name, int64_t batch)
    : name_(name), batch_(batch) {
  if (!Tracer::enabled()) return;
  on_ = true;
  ThreadBuffer& buf = Local();
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = buf.open.empty() ? 0 : buf.open.back();
  buf.open.push_back(id_);
  start_ = NowSec();
}

ScopedSpan::~ScopedSpan() {
  if (!on_) return;
  const double end = NowSec();
  ThreadBuffer& buf = Local();
  buf.open.pop_back();
  buf.spans.push_back(Span{name_, start_, end, id_, parent_, batch_,
                           buf.thread});
}

void Tracer::WriteAndSummarize(const std::string& path) {
  const std::vector<Span> spans = Collect();
  if (spans.empty()) return;
  const double t0 = spans.front().start;
  if (FILE* f = fopen(path.c_str(), "w")) {
    fprintf(f, "id\tparent\tthread\tbatch\tname\tstart_s\tend_s\n");
    for (const Span& s : spans) {
      fprintf(f, "%lld\t%lld\t%d\t%lld\t%s\t%.9f\t%.9f\n",
              static_cast<long long>(s.id), static_cast<long long>(s.parent),
              s.thread, static_cast<long long>(s.batch), s.name,
              s.start - t0, s.end - t0);
    }
    fclose(f);
  } else {
    fprintf(stderr, "[perfbench] cannot write spans to %s\n", path.c_str());
  }

  // Self time = a span's duration minus its direct children's.
  std::map<int64_t, double> child_time;
  for (const Span& s : spans) {
    if (s.parent != 0) child_time[s.parent] += s.end - s.start;
  }
  struct Row {
    int64_t calls = 0;
    double total = 0;
    double self = 0;
  };
  std::map<std::string, Row> by_name;
  std::map<std::string, Row> by_layer;
  for (const Span& s : spans) {
    const double total = s.end - s.start;
    const auto it = child_time.find(s.id);
    const double self =
        std::max(0.0, total - (it == child_time.end() ? 0.0 : it->second));
    Row& r = by_name[s.name];
    ++r.calls;
    r.total += total;
    r.self += self;
    const std::string name(s.name);
    Row& l = by_layer[name.substr(0, name.find('.'))];
    ++l.calls;
    l.total += total;
    l.self += self;
  }
  fprintf(stderr, "\n[perfbench] %zu spans written to %s\n", spans.size(),
          path.c_str());
  fprintf(stderr, "%-36s %10s %12s %12s\n", "span", "calls", "total_s",
          "self_s");
  for (const auto& [name, r] : by_name) {
    fprintf(stderr, "%-36s %10lld %12.4f %12.4f\n", name.c_str(),
            static_cast<long long>(r.calls), r.total, r.self);
  }
  fprintf(stderr, "\n%-36s %10s %12s\n", "layer (self time)", "calls",
          "self_s");
  for (const auto& [name, r] : by_layer) {
    fprintf(stderr, "%-36s %10lld %12.4f\n", name.c_str(),
            static_cast<long long>(r.calls), r.self);
  }
}

}  // namespace perfbench
