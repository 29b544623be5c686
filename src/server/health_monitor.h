#ifndef SKETCH_SERVER_HEALTH_MONITOR_H_
#define SKETCH_SERVER_HEALTH_MONITOR_H_

#include <string>
#include <vector>

#include "server/sketch_service.h"
#include "telemetry/prometheus.h"

/// \file
/// Sketch-accuracy health, computed when it is read. The paper's error
/// bounds are conditional — Count-Min's eps*||x||_1 assumes counters far
/// from saturation and collision behavior near the design point — so a
/// serving registry needs a signal for when those assumptions stop
/// holding. CheckHealth walks the registry via
/// `SketchService::ForEachSketch` (one shared entry lock at a time; see
/// the lock-order note there and in DESIGN.md), runs `Introspect()`, and
/// distills each snapshot into four scalars:
///
///   - occupancy: max occupied_fraction over the snapshot tree — buckets
///     in use; past ~0.95 every key collides and estimates only inflate.
///   - collision_rate: max estimated_collision_rate over the tree (the
///     Minton-Price quantity).
///   - saturation: fraction of nonzero cells within 2 bits of the int64
///     limit (bit width >= 62) — imminent counter overflow.
///   - eps_drift: collision_rate / (e * occupancy). Under the Count-Min
///     design model a row's collision rate tracks its occupancy with
///     slope < e, so this ratio sits well below 1 at the design point and
///     crosses 1 exactly when collisions outrun what the configured
///     eps = e/width accounts for.
///
/// Any scalar over its threshold marks the sketch degraded; any degraded
/// sketch degrades the whole report. A report is published as Prometheus
/// gauges (sketch name as label) on /metrics and as JSON on /healthz, and
/// each scrape takes its own, so the status and body always agree.

namespace sketch::server {

/// Health thresholds: a scalar strictly above its limit degrades a sketch.
inline constexpr double kMaxHealthyOccupancy = 0.95;
inline constexpr double kMaxHealthyCollisionRate = 0.75;
inline constexpr double kMaxHealthySaturation = 0.01;
inline constexpr double kMaxHealthyEpsDrift = 1.0;

/// One sketch's distilled health.
struct SketchHealth {
  std::string name;
  std::string type;
  double occupancy = 0.0;
  double collision_rate = 0.0;
  double saturation = 0.0;
  double eps_drift = 0.0;
  bool degraded = false;
  /// Comma-separated names of the thresholds exceeded (empty if healthy).
  std::string reasons;
};

/// The registry's health at one walk.
struct HealthReport {
  /// Per-sketch health, name-sorted (registry walk order).
  std::vector<SketchHealth> sketches;
  /// True when any sketch exceeded a threshold.
  bool degraded = false;

  /// Per-sketch gauges for /metrics: sketch_health_{occupancy,
  /// collision_rate, saturation, eps_drift, degraded}{sketch="name"},
  /// plus the unlabeled server_health_degraded.
  std::vector<telemetry::PromGauge> Gauges() const;

  /// /healthz body: {"status":"ok"|"degraded","sketches":[...]} listing
  /// only degraded sketches with their reasons.
  std::string HealthzJson() const;
};

/// Distills one introspection snapshot.
SketchHealth EvaluateHealth(const std::string& name,
                            const StatsSnapshot& snapshot);

/// Evaluates every registered sketch, one shared entry lock at a time.
HealthReport CheckHealth(const SketchService& service);

}  // namespace sketch::server

#endif  // SKETCH_SERVER_HEALTH_MONITOR_H_
