// Traced replay: the run's recorded inputs pushed through each layer's
// public functions on their own, so every layer gets numbers without
// tracing inside the library.
#pragma once

#include <string>
#include <vector>

#include "bench.h"
#include "core/squirrel.h"

namespace sqbench {

/// One boot of the script: compute node index and image index.
struct BootRecord {
  std::uint32_t node = 0;
  std::uint32_t image = 0;
};

struct ReplayInputs {
  const Inputs& in;
  core::SquirrelCluster& cluster;  // state after the run
  const std::vector<BootRecord>& boots;
  double register_wall_ms = 0.0;  // mean Register call of the script
  double cc_receivers_per_registration = 0.0;
};

/// The Boot request of one image: its read and write traces over its base
/// image, whose allocation map keeps copy-on-write fills off the network.
core::BootRequest BootRequestFor(const Inputs& in, const ImageInput& image);

/// Runs the replay, recording one span per layer call, and adds the
/// measured per-layer metrics to `per_layer`. Appends the model-vs-measured
/// codec table to `notes`.
void Replay(const ReplayInputs& replay, Tracer& tracer, Checker& checker,
            MetricMap* per_layer, std::vector<std::string>* notes);

/// Every per-layer metric a trace run prints, with its unit.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();
std::string PerLayerUnit(const std::string& name);

}  // namespace sqbench
