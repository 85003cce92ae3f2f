/**
 * @file
 * The four per-pass switches `CompilerOptions` carried before the
 * pipeline spec became the only way to select passes. The legacy
 * single-sweep oracles are still written against them, and
 * `specFromSwitches` is the spec the compiler used to derive, so the
 * oracles and their fixed-point counterparts run the same passes.
 */
#ifndef EFFACT_TESTS_PASS_SWITCHES_H
#define EFFACT_TESTS_PASS_SWITCHES_H

#include <string>

namespace effact {

struct PassSwitches
{
    bool copyProp = true;
    bool constProp = true;
    bool pre = true;
    bool peephole = true;
};

/** The enabled passes in order, plus a trailing `copyprop` when
 *  `peephole` runs without one (the Eq. 5 fold leaves Copies that only
 *  copy-prop removes). */
inline std::string
specFromSwitches(const PassSwitches &sw)
{
    std::string spec;
    auto append = [&spec](bool enabled, const char *name) {
        if (!enabled)
            return;
        if (!spec.empty())
            spec += ',';
        spec += name;
    };
    append(sw.copyProp, "copyprop");
    append(sw.constProp, "constprop");
    append(sw.pre, "pre");
    append(sw.peephole, "peephole");
    append(sw.peephole && !sw.copyProp, "copyprop");
    return spec;
}

} // namespace effact

#endif // EFFACT_TESTS_PASS_SWITCHES_H
