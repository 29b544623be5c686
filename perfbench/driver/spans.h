#ifndef PERFBENCH_DRIVER_SPANS_H_
#define PERFBENCH_DRIVER_SPANS_H_

// Benchmark-side tracing: spans recorded around the calls the benchmark
// makes into each layer, kept in memory, and written at the end as Chrome
// trace-event JSON (loadable in Perfetto / chrome://tracing).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;  // index into the same log, -1 for a root
  uint64_t id = 0;      // shared by every span of one window / probe
};

// One thread's spans. Not thread-safe: each load thread owns one.
class SpanLog {
 public:
  // `process` names the trace row group (one per pid) in the viewer.
  SpanLog(const char* process, uint32_t pid, uint32_t tid)
      : process_(process), pid_(pid), tid_(tid) {}

  int64_t Begin(const char* name, uint64_t id, int64_t parent = -1);
  void End(int64_t span);
  // Records a span whose bounds were measured by the caller.
  int64_t Add(const char* name, uint64_t id, int64_t parent,
              uint64_t start_ns, uint64_t end_ns);

  // Self time per span name: duration minus the time covered by direct
  // children, summed over every span of that name.
  std::map<std::string, uint64_t> SelfTimeNs() const;
  const char* process() const { return process_; }
  uint32_t pid() const { return pid_; }
  uint32_t tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  const char* process_;
  uint32_t pid_;
  uint32_t tid_;
  std::vector<Span> spans_;
};

// Writes every log as one Chrome trace-event JSON document. Returns false
// if the file cannot be written.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_SPANS_H_
