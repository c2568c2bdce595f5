#include "scenario/soak.h"

#include "obs/observability.h"
#include "scenario/circuit_driver.h"
#include "scenario/soak_circuit.h"

namespace netco::scenario {

SoakResult run_soak(const SoakOptions& options) {
  obs::global().metrics.reset();
  SoakCircuit circuit(options);
  return run_circuit(circuit);
}

}  // namespace netco::scenario
