// Span tracer for the benchmark's traced runs.
//
// The benchmark wraps every call it makes into the library's public API in a Span named
// "<layer>.<call>" (scenario.Run, shard.Run, campaign.Run, ...). With tracing off a Span
// is one relaxed atomic load; with it on, spans are kept in memory with start, end, op
// id and parent span, and written out once at exit as Chrome trace-event JSON, which
// chrome://tracing and Perfetto open directly. End-to-end metrics always come from
// untraced runs; the traced run reports its own overhead against untraced ops.
#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = nullptr;  // "<layer>.<call>"; string literal.
  int64_t start_ns = 0;        // Since the tracer's epoch (steady clock).
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = -1;  // -1: a root span.
  int64_t op = -1;      // -1: outside any op (set-up).
  int tid = 0;
};

// Where a thread's next span attaches. Threads the benchmark starts inside an op copy
// their creator's context so their spans nest under that op.
struct SpanContext {
  int64_t parent = -1;
  int64_t op = -1;
};

void SetTracing(bool on);
bool TracingOn();

// The op id stamped on spans this thread opens from now on.
void SetCurrentOp(int64_t op);
SpanContext CurrentContext();
void AdoptContext(SpanContext context, int tid);

class Span {
 public:
  explicit Span(const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;  // Null when tracing was off at construction.
  int64_t start_ns_ = 0;
  int64_t id_ = -1;
  int64_t parent_ = -1;
};

// Every span recorded so far, in completion order.
std::vector<SpanRecord> RecordedSpans();

// Writes `spans` as Chrome trace-event JSON ("X" complete events, microseconds).
bool WriteChromeTrace(const std::string& path, const std::vector<SpanRecord>& spans);

// Self time per layer (the name's prefix before the first '.'): each span's duration
// minus the part of its interval covered by its children, summed per layer, in seconds.
std::map<std::string, double> SelfSecondsByLayer(const std::vector<SpanRecord>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
