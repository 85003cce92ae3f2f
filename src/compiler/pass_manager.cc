#include "compiler/pass_manager.h"

#include <cctype>
#include <chrono>

#include "common/logging.h"
#include "verify/verify.h"

namespace effact {

// --- AnalysisManager ------------------------------------------------------

const std::vector<std::pair<int, int>> &
AnalysisManager::aliasEdges(const IrProgram &prog, StatSet &stats)
{
    if (aliasUid_ == prog.uid() && aliasVersion_ == prog.version()) {
        stats.add("analysis.cacheHits", 1);
        return aliasEdges_;
    }
    aliasEdges_ = runAliasAnalysis(prog, stats);
    aliasUid_ = prog.uid();
    aliasVersion_ = prog.version();
    stats.add("analysis.aliasBuilds", 1);
    return aliasEdges_;
}

const DepGraph &
AnalysisManager::depGraph(const IrProgram &prog, StatSet &stats)
{
    if (graphUid_ == prog.uid() && graphVersion_ == prog.version()) {
        stats.add("analysis.cacheHits", 1);
        return graph_;
    }
    graph_ = DepGraph::fromIr(prog, aliasEdges(prog, stats));
    graphUid_ = prog.uid();
    graphVersion_ = prog.version();
    stats.add("analysis.depgraphBuilds", 1);
    return graph_;
}

void
AnalysisManager::invalidateAll()
{
    aliasUid_ = kNoVersion;
    aliasVersion_ = kNoVersion;
    aliasEdges_.clear();
    graphUid_ = kNoVersion;
    graphVersion_ = kNoVersion;
    graph_ = DepGraph();
}

// --- Pass registry --------------------------------------------------------

namespace {

/** Every pass, in canonical pipeline order: the one place a pass is
 *  named. */
constexpr PassEntry kPasses[] = {
    {"copyprop", &runCopyProp},
    {"constprop", &runConstProp},
    {"pre", &runPre},
    {"peephole", &runPeephole},
    {"rotalg", &runRotAlg},
};

const PassEntry *
findPass(const std::string &name)
{
    for (const PassEntry &entry : kPasses)
        if (name == entry.name)
            return &entry;
    return nullptr;
}

} // namespace

const std::vector<std::string> &
knownPassNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> all;
        for (const PassEntry &entry : kPasses)
            all.push_back(entry.name);
        return all;
    }();
    return names;
}

// --- Pipeline specs -------------------------------------------------------

bool
parsePipelineSpec(const std::string &spec, std::vector<std::string> *names,
                  std::string *error)
{
    names->clear();
    size_t start = 0;
    // One token per comma-separated field; a lone empty spec is the
    // empty pipeline, but an empty field between commas is an error.
    bool saw_field = false;
    while (start <= spec.size()) {
        size_t comma = spec.find(',', start);
        if (comma == std::string::npos)
            comma = spec.size();
        size_t first = start, last = comma;
        while (first < last && std::isspace(static_cast<unsigned char>(
                                   spec[first])))
            ++first;
        while (last > first &&
               std::isspace(static_cast<unsigned char>(spec[last - 1])))
            --last;
        std::string token = spec.substr(first, last - first);
        const bool final_field = comma == spec.size();
        if (token.empty()) {
            if (final_field && !saw_field)
                return true; // "" or all-blank: empty pipeline
            if (error)
                *error = "empty pass name in pipeline spec '" + spec + "'";
            return false;
        }
        saw_field = true;
        if (findPass(token) == nullptr) {
            if (error) {
                *error = "unknown pass '" + token + "' in pipeline spec '" +
                         spec + "' (known:";
                for (const std::string &known_name : knownPassNames())
                    *error += " " + known_name;
                *error += ")";
            }
            return false;
        }
        names->push_back(std::move(token));
        start = comma + 1;
        if (final_field)
            break;
    }
    return true;
}

std::string
pipelineSpecFromOptions(const CompilerOptions &opts)
{
    return opts.pipeline;
}

// --- PassManager ----------------------------------------------------------

PassManager
PassManager::fromSpec(const std::string &spec)
{
    std::vector<std::string> names;
    std::string error;
    if (!parsePipelineSpec(spec, &names, &error))
        fatal("bad compiler pipeline: %s", error.c_str());
    PassManager pm;
    for (const std::string &name : names)
        pm.passes_.push_back(*findPass(name));
    return pm;
}

std::string
PassManager::spec() const
{
    std::string s;
    for (const PassEntry &pass : passes_) {
        if (!s.empty())
            s += ',';
        s += pass.name;
    }
    return s;
}

size_t
PassManager::run(IrProgram &prog, StatSet &stats)
{
    using Clock = std::chrono::steady_clock;
    EFFACT_ASSERT(maxIterations_ > 0,
                  "pipeline sweep bound must be positive (0 would "
                  "silently skip every pass yet report convergence)");
    converged_ = true;
    size_t sweeps = 0;
    if (passes_.empty()) {
        stats.set("pipeline.iterations", 0);
        stats.set("pipeline.converged", 1);
        return 0;
    }

    // Fixed point: repeat the whole sequence until a full sweep reports
    // no change. Every pass only shrinks (or keeps) the live-instruction
    // count and in-place rewrites are finite, so this terminates; the
    // sweep bound is a backstop that turns a non-monotone pass bug into
    // a loud non-convergence instead of an endless compile.
    //
    // A pass whose input version is unchanged since its own last run is
    // skipped outright (sound by the `PassEntry` own-fixed-point
    // contract): the expensive quiescent re-verification runs collapse
    // to the passes that actually saw new IR.
    constexpr uint64_t kNeverRan = ~uint64_t(0);
    std::vector<uint64_t> last_seen(passes_.size(), kNeverRan);
    while (sweeps < maxIterations_) {
        ++sweeps;
        bool sweep_changed = false;
        for (size_t i = 0; i < passes_.size(); ++i) {
            const PassEntry &pass = passes_[i];
            const std::string prefix = std::string("pass.") + pass.name;
            if (last_seen[i] == prog.version()) {
                stats.add(prefix + ".skipped", 1);
                continue;
            }
            const size_t live_before = prog.liveCount();
            const Clock::time_point t0 = Clock::now();
            const bool changed = pass.run(prog, stats) > 0;
            if (changed)
                prog.bumpVersion();
            const std::chrono::duration<double, std::milli> ms =
                Clock::now() - t0;
            last_seen[i] = prog.version();
            stats.add(prefix + ".ms", ms.count());
            stats.add(prefix + ".removed",
                      double(live_before) - double(prog.liveCount()));
            stats.add(prefix + ".changed", changed ? 1 : 0);
            sweep_changed = sweep_changed || changed;
            // Pass-boundary checkpoint: a pass that changed the IR must
            // leave it well-formed. Quiescent passes are skipped — they
            // could not have broken anything the previous checkpoint
            // already accepted.
            if (verifyLevel_ > 0 && changed) {
                const Clock::time_point v0 = Clock::now();
                const VerifyReport vr = verifyIr(prog);
                const std::chrono::duration<double, std::milli> vms =
                    Clock::now() - v0;
                stats.add("verify.checks", double(vr.checksRun));
                stats.add("verify.ms", vms.count());
                enforceVerified(
                    vr, (std::string("pass '") + pass.name + "'").c_str());
            }
        }
        if (!sweep_changed) {
            stats.set("pipeline.iterations", double(sweeps));
            stats.set("pipeline.converged", 1);
            return sweeps;
        }
    }
    converged_ = false;
    stats.set("pipeline.iterations", double(sweeps));
    stats.set("pipeline.converged", 0);
    return sweeps;
}

} // namespace effact
