/**
 * @file
 * Reference issue loop for the cycle-level simulator: the pre-refactor
 * O(n * window) rescan core, preserved verbatim with its own dependence
 * resolution and plan arithmetic. Every round rescans the `[head, n)`
 * window, skipping already-issued instructions, and re-derives
 * readiness from per-operand issue flags. It is deliberately not built
 * on `DepGraph`/`ResourceModel`, so it stays an independent oracle: the
 * equivalence tests check `Simulator::run` against it on every
 * workload, the paper-scale bootstrapping trace included
 * (`PaperScale.EventCoreMatchesLegacyLoopOnFullTrace`).
 *
 * Test support only: built as a static library next to the suites,
 * never installed or exported with `libeffact`.
 */
#ifndef EFFACT_TESTS_SUPPORT_REFERENCE_SIM_H
#define EFFACT_TESTS_SUPPORT_REFERENCE_SIM_H

#include "isa/isa.h"
#include "sim/config.h"
#include "sim/machine.h"

namespace effact {

/** Simulates `prog` on `cfg` with the reference rescan loop; the report
 *  is cycle- and traffic-identical to `Simulator(cfg).run(prog)`. */
SimReport referenceSimulate(const HardwareConfig &cfg,
                            const MachineProgram &prog);

} // namespace effact

#endif // EFFACT_TESTS_SUPPORT_REFERENCE_SIM_H
