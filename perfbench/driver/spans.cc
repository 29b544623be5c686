#include "spans.h"

#include <cstdio>

#include "common/timer.h"

namespace perfbench {

int64_t SpanLog::Begin(const char* name, uint64_t id, int64_t parent) {
  const uint64_t now = sketch::MonotonicNowNs();
  return Add(name, id, parent, now, now);
}

void SpanLog::End(int64_t span) {
  spans_[static_cast<std::size_t>(span)].end_ns = sketch::MonotonicNowNs();
}

int64_t SpanLog::Add(const char* name, uint64_t id, int64_t parent,
                     uint64_t start_ns, uint64_t end_ns) {
  spans_.push_back({name, start_ns, end_ns, parent, id});
  return static_cast<int64_t>(spans_.size() - 1);
}

std::map<std::string, uint64_t> SpanLog::SelfTimeNs() const {
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, uint64_t> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const uint64_t duration = spans_[i].end_ns - spans_[i].start_ns;
    self[spans_[i].name] += duration > child_ns[i] ? duration - child_ns[i] : 0;
  }
  return self;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  uint64_t origin = UINT64_MAX;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      origin = span.start_ns < origin ? span.start_ns : origin;
    }
  }
  std::fprintf(file, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  for (const SpanLog* log : logs) {
    std::fprintf(file,
                 "%s\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                 "\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",", log->pid(), log->process());
    first = false;
    for (const Span& span : log->spans()) {
      const char* parent =
          span.parent >= 0
              ? log->spans()[static_cast<std::size_t>(span.parent)].name
              : "";
      std::fprintf(file,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%u,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":\"%s\"}}",
                   first ? "" : ",", span.name, log->pid(), log->tid(),
                   static_cast<double>(span.start_ns - origin) / 1e3,
                   static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                   static_cast<unsigned long long>(span.id), parent);
      first = false;
    }
  }
  std::fprintf(file, "\n]}\n");
  return std::fclose(file) == 0;
}

}  // namespace perfbench
