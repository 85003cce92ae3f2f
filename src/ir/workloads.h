/**
 * @file
 * Benchmark program generators (Sec. V-A): fully-packed bootstrapping,
 * HELR logistic-regression training, ResNet-20 inference segments, the
 * BGV DB-Lookup, and TFHE gate bootstrapping. Each returns a residue-
 * polynomial IR program at paper-scale parameters plus a `repeat`
 * factor: the simulated runtime of the program times `repeat` is the
 * full-benchmark runtime (the paper similarly scales measured segments,
 * Sec. V-C). The three CKKS benchmarks emit their bootstrap through one
 * CtS/StC stage emitter and one EvalMod emitter, at one of Table III's
 * two `BootstrapBudget`s. `workloadKinds()` is the service's table of
 * the five kinds: each kind's parameter floor beside its builder.
 */
#ifndef EFFACT_IR_WORKLOADS_H
#define EFFACT_IR_WORKLOADS_H

#include "ir/kernels.h"

namespace effact {

/** A generated workload: the IR program plus scaling metadata. */
struct Workload
{
    IrProgram program;
    double repeat = 1.0;   ///< full benchmark = program runtime * repeat
    /** Divisor for amortized-time reporting: slots x (L - L_boot), the
     *  standard T_A.S. definition of [30]. */
    double amortizeFactor = 1.0;
};

/** Bootstrapping stage budget (Table III): the slots and the levels
 *  the CtS and StC transforms take. `buildBootstrapping` and
 *  `buildResNet20` clamp `slots` to the N/2 their ring holds; HELR's
 *  256 fit every ring the helr kind accepts. */
struct BootstrapBudget
{
    size_t slots = size_t(1) << 15;
    size_t levelsCtS = 4;
    size_t levelsStC = 3;

    /** Levels one bootstrap consumes: CtS, EvalMod's 10 (its `multImm`
     *  rescale and the degree-255 sine polynomial's 9) and StC. The
     *  output sits at level `fhe.levels - levels()`. */
    constexpr size_t levels() const { return levelsCtS + 10 + levelsStC; }
};

/** Table III row 2: the sparse 256-slot bootstrap HELR embeds. Row 1,
 *  the fully packed one, is the `BootstrapBudget` default. */
constexpr BootstrapBudget kHelrBootstrapBudget{256, 3, 2};

/** Fully-packed CKKS bootstrapping (Table III row 1). */
Workload buildBootstrapping(const FheParams &fhe,
                            const BootstrapBudget &budget = {});

/** One HELR training iteration pair + its 256-slot bootstrapping. */
Workload buildHelr(const FheParams &fhe);

/** A ResNet-20 segment (2 convolution layers + 1 bootstrapping),
 *  repeated to cover the 20-layer network. */
Workload buildResNet20(const FheParams &fhe);

/** HElib-style DB-Lookup on BGV (depth-1 select + aggregation). */
Workload buildDbLookup(const FheParams &fhe, size_t records = 256);

/** TFHE gate bootstrapping (Sec. VI-D): blind rotation + extraction. */
Workload buildTfheBootstrap();

/**
 * Hoisted rotate-accumulate batch: `chains` independent serial
 * automorphism chains of `hops` steps each (v_{s+1} = sigma_g(v_s)),
 * accumulated into one ciphertext with a single deferred key switch —
 * the pre-key-switch hoisting pattern of BSGS linear transforms.
 * The serial Auto-of-Auto chains are exactly the shape the `rotalg`
 * pass rewrites: composition re-roots every rotation at the chain
 * head (breaking the serial dependence on the lone AUTO unit), the
 * hops each chain merely steps through (even chains accumulate only
 * every second hop, odd chains run the squared generator for half
 * the steps) become dead rotations the pass retires, and the
 * surviving paired elements g^{2s} == (g^2)^s collide after
 * canonicalization so PRE deduplicates them across each pair.
 */
Workload buildRotationBatch(const FheParams &fhe, size_t chains = 4,
                            size_t hops = 8);

/** All four paper benchmarks keyed by name (for Fig. 3). */
std::vector<std::pair<std::string, Workload>> buildAllBenchmarks(
    const FheParams &fhe);

/**
 * A workload kind the service builds by name, with its builder's
 * parameter contract: the smallest `fhe.logN` and `fhe.levels` it
 * builds at (a paper kind needs its bootstrap's `levels() + 1`; below
 * that the builder runs out of levels to rescale and panics), and the
 * largest kind-specific `param` it reads (0: it reads none).
 */
struct WorkloadKind
{
    const char *name;
    size_t minLogN;
    size_t minLevels;
    uint64_t maxParam;
    Workload (*build)(const FheParams &fhe, uint64_t param);
};

/** The five service kinds: bootstrap, helr, resnet20, dblookup, tfhe. */
const std::vector<WorkloadKind> &workloadKinds();

/** The kind named `name`, or nullptr if there is none. */
const WorkloadKind *findWorkloadKind(const std::string &name);

} // namespace effact

#endif // EFFACT_IR_WORKLOADS_H
