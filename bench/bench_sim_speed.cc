/**
 * @file
 * Simulator-throughput benchmark: compiles the paper-scale fully-packed
 * bootstrapping trace (logN = 16, L = 24, ~150k machine instructions)
 * and measures both issue cores — the legacy O(n * window) rescan loop
 * (`referenceSimulate`, from the test-support library) and the
 * event-driven scoreboard-window core (`Simulator::run`) — in simulated
 * instructions per second.
 * Verifies cycle-count equivalence while at it. Results are recorded
 * in bench/NOTES.md.
 */
#include <chrono>
#include <cstdio>
#include <functional>

#include "bench_common.h"
#include "reference_sim.h"

namespace effact {
namespace {

double
secondsOf(const std::function<SimReport()> &fn, SimReport &out,
          int reps)
{
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        out = fn();
        auto t1 = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

int
run()
{
    std::printf("# Simulator throughput on the paper-scale "
                "bootstrapping trace (logN=16, L=24)\n");
    Workload w = buildBootstrapping(paperFhe());
    HardwareConfig hw = HardwareConfig::asicEffact27();
    Compiler compiler(Platform::fullOptions(hw.sramBytes));

    auto c0 = std::chrono::steady_clock::now();
    MachineProgram mp = compiler.compile(w.program);
    auto c1 = std::chrono::steady_clock::now();
    const double n = double(mp.insts.size());
    std::printf("trace: %zu machine instructions (compile %.2f s)\n",
                mp.insts.size(),
                std::chrono::duration<double>(c1 - c0).count());

    Simulator sim(hw);
    SimReport ref, ev;
    const double t_ref =
        secondsOf([&] { return referenceSimulate(hw, mp); }, ref, 3);
    const double t_ev = secondsOf([&] { return sim.run(mp); }, ev, 3);

    Table t("simulator throughput");
    t.header({"issue core", "time [s]", "insts/s", "cycles"});
    t.row({"legacy rescan loop", Table::num(t_ref, 3),
           Table::num(n / t_ref, 4), Table::num(ref.cycles, 9)});
    t.row({"event-driven (window)", Table::num(t_ev, 3),
           Table::num(n / t_ev, 4), Table::num(ev.cycles, 9)});
    t.print();
    std::printf("speedup: %.2fx (best of 3 each)\n", t_ref / t_ev);

    if (ev.cycles != ref.cycles || ev.dramBytes != ref.dramBytes) {
        std::printf("ERROR: issue cores disagree (%.0f vs %.0f cycles)\n",
                    ev.cycles, ref.cycles);
        return 1;
    }
    std::printf("cycle counts identical across both cores\n");
    return 0;
}

} // namespace
} // namespace effact

int
main()
{
    return effact::run();
}
