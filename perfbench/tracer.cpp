#include "tracer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

namespace perfbench {
namespace {

const std::chrono::steady_clock::time_point g_epoch = std::chrono::steady_clock::now();
std::atomic<bool> g_on{false};
std::atomic<int64_t> g_next_id{0};

std::mutex g_mu;
std::vector<SpanRecord> g_spans;  // Guarded by g_mu.

thread_local int64_t t_parent = -1;
thread_local int64_t t_op = -1;
thread_local int t_tid = 0;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_epoch)
      .count();
}

}  // namespace

void SetTracing(bool on) { g_on.store(on, std::memory_order_relaxed); }
bool TracingOn() { return g_on.load(std::memory_order_relaxed); }

void SetCurrentOp(int64_t op) { t_op = op; }
SpanContext CurrentContext() { return {t_parent, t_op}; }

void AdoptContext(SpanContext context, int tid) {
  t_parent = context.parent;
  t_op = context.op;
  t_tid = tid;
}

Span::Span(const char* name) {
  if (!TracingOn()) {
    return;
  }
  name_ = name;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_parent;
  t_parent = id_;
  start_ns_ = NowNs();
}

Span::~Span() {
  if (name_ == nullptr) {
    return;
  }
  const int64_t end_ns = NowNs();
  t_parent = parent_;
  const SpanRecord record{name_, start_ns_, end_ns, id_, parent_, t_op, t_tid};
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans.push_back(record);
}

std::vector<SpanRecord> RecordedSpans() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_spans;
}

bool WriteChromeTrace(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"pid\":1,\"tid\":%d,\"args\":{\"id\":%lld,\"parent\":%lld,\"op\":%lld}}%s\n",
                 s.name, layer.c_str(), s.start_ns / 1e3, (s.end_ns - s.start_ns) / 1e3,
                 s.tid, static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<long long>(s.op), i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::map<std::string, double> SelfSecondsByLayer(const std::vector<SpanRecord>& spans) {
  std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      children[s.parent].push_back({s.start_ns, s.end_ns});
    }
  }
  std::map<std::string, double> self;
  for (const SpanRecord& s : spans) {
    int64_t covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      // Children on other threads may overlap each other: count their union, clipped
      // to the parent's interval.
      std::vector<std::pair<int64_t, int64_t>>& kids = it->second;
      std::sort(kids.begin(), kids.end());
      int64_t reach = s.start_ns;
      for (const auto& [start, end] : kids) {
        const int64_t from = std::max(start, reach);
        const int64_t to = std::min(end, s.end_ns);
        if (to > from) {
          covered += to - from;
          reach = to;
        }
      }
    }
    const std::string name = s.name;
    self[name.substr(0, name.find('.'))] += (s.end_ns - s.start_ns - covered) / 1e9;
  }
  return self;
}

}  // namespace perfbench
