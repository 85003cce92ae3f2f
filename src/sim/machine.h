/**
 * @file
 * Cycle-level simulator of the EFFACT microarchitecture (Sec. IV-D):
 * an OoO scoreboard issues residue-polynomial instructions to the four
 * function-unit classes; SRAM-resident operands are free, streaming
 * operands occupy HBM bandwidth concurrently with execution; LOAD/STORE
 * and streaming fills compete for the same HBM channels (Sec. IV-D1).
 *
 * The issue core is event-driven and simulates inside the scoreboard
 * window: instructions enter it in program order and resolve their
 * producers as they enter (`MachineDepResolver`, sched/depgraph.h),
 * readiness is tracked with unissued-producer counts and wake-up
 * lists, and the FU/HBM occupancy rules live in `ResourceModel`
 * (sim/resources.h).
 */
#ifndef EFFACT_SIM_MACHINE_H
#define EFFACT_SIM_MACHINE_H

#include "common/stats.h"
#include "isa/isa.h"
#include "sim/config.h"

namespace effact {

/** Simulation results. */
struct SimReport
{
    double cycles = 0;
    double timeMs = 0;
    double dramBytes = 0;
    double dramUtil = 0;          ///< fraction of peak HBM bandwidth
    double nttUtil = 0;
    double mulAddUtil = 0;        ///< combined MULT/ADD unit utilization
    double autoUtil = 0;
    size_t instructions = 0;
    StatSet stats;                ///< detailed counters
};

/** Executes a machine program against a hardware configuration. */
class Simulator
{
  public:
    explicit Simulator(const HardwareConfig &config) : cfg_(config) {}

    /** Runs the program to completion and reports timing/utilization. */
    SimReport run(const MachineProgram &prog) const;

    const HardwareConfig &config() const { return cfg_; }

  private:
    HardwareConfig cfg_;
};

} // namespace effact

#endif // EFFACT_SIM_MACHINE_H
