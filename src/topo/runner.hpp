// Runs one TopoSpec end to end and collects the ExperimentResult every
// front end reports: the paper dumbbell (run_experiment), `.topo` files
// and `.camp` campaign points all come through here, sequential or
// sharded across logical processes.
//
// The spec's measured link stands in for the gateway bottleneck. A spec
// that is canonically the paper dumbbell (is_canonical_dumbbell) reports
// it under the historical "queue.gateway"/"link.bottleneck" metric names
// and "queue:gateway"/"link:bottleneck"/"sink:server" trace sites; every
// other graph uses the "measured" names.
#pragma once

#include "src/core/experiment.hpp"
#include "src/topo/spec.hpp"

namespace burst {

ExperimentResult run_topo_experiment(const TopoSpec& spec,
                                     const ExperimentOptions& options = {});

}  // namespace burst
