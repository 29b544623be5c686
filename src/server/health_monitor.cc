#include "server/health_monitor.h"

#include <algorithm>
#include <utility>

#include "common/json_escape.h"
#include "telemetry/telemetry.h"

namespace sketch::server {

namespace {

constexpr double kEuler = 2.718281828459045;

/// Worst-case scalars over a snapshot tree: composites (sharded,
/// stream-summary, dyadic) report per-component fields on their children,
/// and the health of the whole is its worst component.
struct TreeStats {
  double max_occupancy = 0.0;
  double max_collision = 0.0;
  uint64_t nonzero_cells = 0;
  uint64_t saturated_cells = 0;
};

void Accumulate(const StatsSnapshot& snapshot, TreeStats* stats) {
  stats->max_occupancy = std::max(
      stats->max_occupancy,
      std::max(snapshot.FieldOr("occupied_fraction", 0.0),
               snapshot.FieldOr("fill_ratio", 0.0)));  // Bloom spelling
  stats->max_collision =
      std::max(stats->max_collision,
               snapshot.FieldOr("estimated_collision_rate", 0.0));
  // Saturation: nonzero cells whose magnitude is within 2 doublings of
  // the int64 limit. One more heavy batch can overflow them, after which
  // every estimate that touches the cell is garbage.
  for (std::size_t b = 1; b < snapshot.occupancy_log2.size(); ++b) {
    stats->nonzero_cells += snapshot.occupancy_log2[b];
    if (b >= 62) stats->saturated_cells += snapshot.occupancy_log2[b];
  }
  for (const StatsSnapshot& child : snapshot.children) {
    Accumulate(child, stats);
  }
}

void AppendReason(std::string* reasons, const char* reason) {
  if (!reasons->empty()) *reasons += ",";
  *reasons += reason;
}

}  // namespace

SketchHealth EvaluateHealth(const std::string& name,
                            const StatsSnapshot& snapshot) {
  TreeStats stats;
  Accumulate(snapshot, &stats);

  SketchHealth health;
  health.name = name;
  health.type = snapshot.type;
  health.occupancy = stats.max_occupancy;
  health.collision_rate = stats.max_collision;
  health.saturation =
      stats.nonzero_cells == 0
          ? 0.0
          : static_cast<double>(stats.saturated_cells) /
                static_cast<double>(stats.nonzero_cells);
  // See the file comment in health_monitor.h for the model behind this
  // ratio; an empty sketch has no drift by definition.
  health.eps_drift = stats.max_occupancy <= 0.0
                         ? 0.0
                         : stats.max_collision / (kEuler * stats.max_occupancy);

  if (health.occupancy > kMaxHealthyOccupancy) {
    AppendReason(&health.reasons, "occupancy");
  }
  if (health.collision_rate > kMaxHealthyCollisionRate) {
    AppendReason(&health.reasons, "collision_rate");
  }
  if (health.saturation > kMaxHealthySaturation) {
    AppendReason(&health.reasons, "saturation");
  }
  if (health.eps_drift > kMaxHealthyEpsDrift) {
    AppendReason(&health.reasons, "eps_drift");
  }
  health.degraded = !health.reasons.empty();
  return health;
}

HealthReport CheckHealth(const SketchService& service) {
  HealthReport report;
  service.ForEachSketch([&report](const std::string& name,
                                  const internal::SketchEntry& entry) {
    report.sketches.push_back(EvaluateHealth(name, entry.Introspect()));
    if (report.sketches.back().degraded) report.degraded = true;
  });
  SKETCH_COUNTER_INC("server.health.passes");
  return report;
}

std::vector<telemetry::PromGauge> HealthReport::Gauges() const {
  std::vector<telemetry::PromGauge> gauges;
  gauges.reserve(sketches.size() * 5 + 1);
  const auto add = [&gauges](const char* metric, const SketchHealth& health,
                             double value) {
    telemetry::PromGauge gauge;
    gauge.name = metric;
    gauge.labels.push_back({"sketch", health.name});
    gauge.value = value;
    gauges.push_back(std::move(gauge));
  };
  // Grouped metric-major so each family's samples are contiguous, as the
  // exposition format requires.
  for (const SketchHealth& h : sketches) {
    add("sketch_health_occupancy", h, h.occupancy);
  }
  for (const SketchHealth& h : sketches) {
    add("sketch_health_collision_rate", h, h.collision_rate);
  }
  for (const SketchHealth& h : sketches) {
    add("sketch_health_saturation", h, h.saturation);
  }
  for (const SketchHealth& h : sketches) {
    add("sketch_health_eps_drift", h, h.eps_drift);
  }
  for (const SketchHealth& h : sketches) {
    add("sketch_health_degraded", h, h.degraded ? 1.0 : 0.0);
  }
  telemetry::PromGauge overall;
  overall.name = "server_health_degraded";
  overall.value = degraded ? 1.0 : 0.0;
  gauges.push_back(std::move(overall));
  return gauges;
}

std::string HealthReport::HealthzJson() const {
  std::string out = "{\"status\":\"";
  out += degraded ? "degraded" : "ok";
  out += "\",\"sketches\":[";
  bool first = true;
  for (const SketchHealth& health : sketches) {
    if (!health.degraded) continue;
    if (!first) out += ",";
    first = false;
    // Reasons are fixed threshold names; only the name needs escaping.
    out += "{\"name\":\"" + EscapeJson(health.name) + "\",\"reasons\":\"" +
           health.reasons + "\"}";
  }
  out += "]}";
  return out;
}

}  // namespace sketch::server
