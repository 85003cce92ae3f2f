/**
 * @file
 * The Fig. 2 toy study: key-switching inside HMULT compiled (a) with
 * plentiful SRAM, (b) with tiny SRAM and no streaming (MAD-style
 * spills), and (c) with tiny SRAM plus EFFACT's streaming memory
 * access — showing how streaming recovers most of the lost time.
 */
#include <cstdio>

#include "platform/platform.h"

using namespace effact;

namespace {

Workload
keySwitchWorkload()
{
    FheParams fhe;
    fhe.logN = 16;
    fhe.levels = 12;
    fhe.dnum = 4;
    Workload w;
    w.program.name = "keyswitch_toy";
    KernelBuilder kb(w.program, fhe);
    int evk = kb.switchingKeyObject("evk");
    IrCt a = kb.inputCiphertext("a", fhe.levels);
    IrCt b = kb.inputCiphertext("b", fhe.levels);
    kb.output("ab", kb.hmult(a, b, evk));
    return w;
}

void
report(const char *label, const PlatformResult &r)
{
    std::printf("%-38s %9.0f cycles  %6.2f GB DRAM  %5zu spills\n",
                label, r.sim.cycles, r.sim.dramBytes / 1e9,
                size_t(r.compilerStats.get("regalloc.spilledValues")));
}

} // namespace

int
main()
{
    HardwareConfig big = HardwareConfig::asicEffact27();
    big.sramBytes = size_t(256) << 20; // enough SRAM for everything

    HardwareConfig small = HardwareConfig::asicEffact27();
    small.sramBytes = size_t(6) << 20; // a handful of registers

    {
        Workload w = keySwitchWorkload();
        Platform p(big, Platform::fullOptions(big.sramBytes));
        report("(b) enormous SRAM:", p.run(w));
    }
    {
        Workload w = keySwitchWorkload();
        CompilerOptions o = Platform::madEnhancedOptions(small.sramBytes);
        Platform p(small, o);
        report("(c) small SRAM, no streaming (MAD):", p.run(w));
    }
    {
        Workload w = keySwitchWorkload();
        Platform p(small, Platform::fullOptions(small.sramBytes));
        report("(d) small SRAM + streaming (EFFACT):", p.run(w));
    }
    std::puts("\nLabels mirror Fig. 2(b)-(d): streaming lets the small-");
    std::puts("SRAM design approach the big-SRAM timing by feeding");
    std::puts("function units straight from DRAM.");
    return 0;
}
