#include "server/slow_query_log.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/json_escape.h"
#include "common/timer.h"

namespace sketch::server {

namespace {

/// Min-heap comparator: the cheapest retained entry sits at the top,
/// ready to be displaced by a slower newcomer.
bool SlowerThan(const SlowQueryLog::Entry& a, const SlowQueryLog::Entry& b) {
  return a.latency_ns > b.latency_ns;
}

}  // namespace

void SlowQueryLog::Record(Opcode opcode, uint64_t latency_ns,
                          std::string_view sketch_name,
                          std::size_t payload_bytes, uint64_t trace_id) {
  if (capacity_ == 0) return;
  Slot& slot = slots_[SlotOf(opcode)];
  // relaxed: advisory fast-reject. A stale floor only lets a borderline
  // offer through to the locked path (which re-checks) or drops an offer
  // that would have tied the current minimum — never corrupts the heap.
  if (latency_ns <= slot.floor.load(std::memory_order_relaxed)) return;
  MutexLock lock(slot.mu);
  if (slot.heap.size() == capacity_ &&
      latency_ns <= slot.heap.front().latency_ns) {
    return;  // lost the race to a slower offer
  }
  Entry entry;
  entry.opcode = opcode;
  entry.latency_ns = latency_ns;
  entry.sketch_name.assign(sketch_name.data(), sketch_name.size());
  entry.payload_bytes = payload_bytes;
  entry.trace_id = trace_id;
  entry.timestamp_ns = MonotonicNowNs();
  if (slot.heap.size() == capacity_) {
    std::pop_heap(slot.heap.begin(), slot.heap.end(), SlowerThan);
    slot.heap.back() = std::move(entry);
  } else {
    slot.heap.push_back(std::move(entry));
  }
  std::push_heap(slot.heap.begin(), slot.heap.end(), SlowerThan);
  if (slot.heap.size() == capacity_) {
    // relaxed: same advisory contract as the load above.
    slot.floor.store(slot.heap.front().latency_ns, std::memory_order_relaxed);
  }
}

std::vector<SlowQueryLog::Entry> SlowQueryLog::SnapshotSorted() const {
  std::vector<Entry> out;
  for (const Slot& slot : slots_) {
    MutexLock lock(slot.mu);
    out.insert(out.end(), slot.heap.begin(), slot.heap.end());
  }
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    return a.latency_ns > b.latency_ns;
  });
  return out;
}

std::string SlowQueryLog::ToJson() const {
  const std::vector<Entry> entries = SnapshotSorted();
  const uint64_t now_ns = MonotonicNowNs();
  std::string out = "[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& entry = entries[i];
    if (i > 0) out += ",";
    char trace_id[17];
    std::snprintf(trace_id, sizeof(trace_id), "%016" PRIx64, entry.trace_id);
    out += "{\"opcode\":\"";
    out += OpcodeName(entry.opcode);
    out += "\",\"latency_ns\":" + std::to_string(entry.latency_ns);
    out += ",\"sketch\":\"" + EscapeJson(entry.sketch_name);
    out += "\",\"payload_bytes\":" + std::to_string(entry.payload_bytes);
    out += ",\"trace_id\":\"";
    out += trace_id;
    out += "\",\"age_ns\":";
    out += std::to_string(
        now_ns >= entry.timestamp_ns ? now_ns - entry.timestamp_ns : 0);
    out += "}";
  }
  out += "]";
  return out;
}

}  // namespace sketch::server
