#include "trace.h"

#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace perfbench::trace {

std::atomic<bool> g_armed{false};

namespace {

struct Record {
  const char* name = nullptr;
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  double args[3] = {0, 0, 0};
};

struct ThreadBuffer {
  int tid = 0;
  std::vector<Record> records;
  std::vector<std::uint64_t> open;  ///< ids of this thread's open spans
};

// Buffers outlive their threads: pool threads may exit before the trace is
// written, so the registry, not a thread_local, owns them.
std::mutex g_mu;
std::deque<std::unique_ptr<ThreadBuffer>> g_buffers;
std::atomic<std::uint64_t> g_next_id{0};
std::int64_t g_origin_ns = 0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ThreadBuffer& this_thread_buffer() {
  thread_local ThreadBuffer* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buf = g_buffers.back().get();
    buf->tid = static_cast<int>(g_buffers.size());
  }
  return *buf;
}

}  // namespace

void arm() {
  g_origin_ns = now_ns();
  g_armed.store(true, std::memory_order_relaxed);
}

Span::Span(const char* name) {
  if (!armed()) return;
  ThreadBuffer& buf = this_thread_buffer();
  Record r;
  r.name = name;
  r.id = g_next_id.fetch_add(1, std::memory_order_relaxed) + 1;
  r.parent = buf.open.empty() ? 0 : buf.open.back();
  r.t0_ns = now_ns();
  buf.open.push_back(r.id);
  buf.records.push_back(r);
  index_ = static_cast<std::int64_t>(buf.records.size()) - 1;
}

Span::~Span() {
  if (index_ < 0) return;
  ThreadBuffer& buf = this_thread_buffer();
  buf.records[static_cast<std::size_t>(index_)].t1_ns = now_ns();
  buf.open.pop_back();
}

void Span::arg(int slot, double value) {
  if (index_ < 0 || slot < 0 || slot > 2) return;
  this_thread_buffer().records[static_cast<std::size_t>(index_)].args[slot] =
      value;
}

void write_chrome_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& buf : g_buffers) {
    for (const Record& r : buf->records) {
      if (r.t1_ns == 0) continue;  // still open: not a finished span
      // Chrome trace timestamps are microseconds; keep ns resolution.
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"a0\":%.17g,\"a1\":%.17g,\"a2\":%.17g}}\n",
                   first ? "" : ",", r.name, buf->tid,
                   static_cast<double>(r.t0_ns - g_origin_ns) / 1e3,
                   static_cast<double>(r.t1_ns - r.t0_ns) / 1e3,
                   static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent), r.args[0],
                   r.args[1], r.args[2]);
      first = false;
    }
  }
  std::fputs("]}\n", f);
  if (std::fclose(f) != 0)
    throw std::runtime_error("cannot finish trace " + path);
}

}  // namespace perfbench::trace
