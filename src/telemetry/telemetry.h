#ifndef SKETCH_TELEMETRY_TELEMETRY_H_
#define SKETCH_TELEMETRY_TELEMETRY_H_

#include "telemetry/metric_registry.h"
#include "telemetry/trace.h"

/// \file
/// Telemetry macro surface. Instrumentation sites use these macros, never
/// the registry/recorder classes directly, so every site caches its
/// registry lookup the same way.
///
/// Telemetry is compiled into every build. Counters and histograms are
/// always live: a counter bump is one relaxed atomic add on the calling
/// thread's stripe. Spans are gated at run time by
/// `TraceRecorder::SetEnabled`; a disabled recorder costs each span one
/// relaxed load and no clock reads. The E23 overhead bench
/// (`bench_observability_overhead`) pins the instrumented kernels to the
/// golden serialized digests, so instrumentation never alters sketch
/// contents.
///
/// Metric / span names must be string literals (or other static-lifetime
/// strings): registry lookups are cached per call site and the trace
/// recorder stores the pointer.

#define SKETCH_TELEMETRY_CONCAT_INNER(a, b) a##b
#define SKETCH_TELEMETRY_CONCAT(a, b) SKETCH_TELEMETRY_CONCAT_INNER(a, b)

/// Adds `delta` to the process-wide counter `name`. The registry lookup
/// happens once per call site (function-local static reference).
#define SKETCH_COUNTER_ADD(name, delta)                                      \
  do {                                                                       \
    static ::sketch::telemetry::Counter& sketch_telemetry_counter =          \
        ::sketch::telemetry::MetricRegistry::Instance().GetCounter(name);    \
    sketch_telemetry_counter.Add(static_cast<uint64_t>(delta));              \
  } while (0)

/// Increments the process-wide counter `name`.
#define SKETCH_COUNTER_INC(name) SKETCH_COUNTER_ADD(name, 1)

/// Records `value` into the log-scale histogram `name`.
#define SKETCH_HISTOGRAM_RECORD(name, value)                                 \
  do {                                                                       \
    static ::sketch::telemetry::Histogram& sketch_telemetry_histogram =      \
        ::sketch::telemetry::MetricRegistry::Instance().GetHistogram(name);  \
    sketch_telemetry_histogram.Record(static_cast<uint64_t>(value));         \
  } while (0)

/// Opens a scoped trace span covering the rest of the enclosing block.
#define SKETCH_TRACE_SPAN(name)                             \
  const ::sketch::telemetry::ScopedSpan SKETCH_TELEMETRY_CONCAT( \
      sketch_telemetry_span_, __LINE__)(name)

/// Opens a scoped trace span tagged with a request trace id (0 = untagged;
/// the id is exported as args.trace_id so Perfetto can collect one
/// request's spans across threads).
#define SKETCH_TRACE_SPAN_ID(name, id)                      \
  const ::sketch::telemetry::ScopedSpan SKETCH_TELEMETRY_CONCAT( \
      sketch_telemetry_span_, __LINE__)(name, static_cast<uint64_t>(id))

/// Records a counter sample into the trace (a time series in Perfetto —
/// e.g. the residual norm after each recovery step).
#define SKETCH_TRACE_COUNTER(name, value)                     \
  ::sketch::telemetry::TraceRecorder::Instance().RecordCounter( \
      name, static_cast<double>(value))

#endif  // SKETCH_TELEMETRY_TELEMETRY_H_
