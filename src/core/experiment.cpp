#include "src/core/experiment.hpp"

#include "src/topo/runner.hpp"
#include "src/topo/spec.hpp"

namespace burst {

ExperimentResult run_experiment(const Scenario& scenario,
                                const ExperimentOptions& options) {
  return run_topo_experiment(make_dumbbell_spec(scenario), options);
}

}  // namespace burst
