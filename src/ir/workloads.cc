#include "ir/workloads.h"

#include <algorithm>
#include <cmath>

#include "common/bitops.h"
#include "common/logging.h"

namespace effact {

namespace {

/** Emits the ModRaise data movement + broadcast NTTs. */
IrCt
emitModRaise(KernelBuilder &kb, const std::string &name)
{
    // A level-1 ciphertext is loaded, iNTT'd, and its coefficient image
    // broadcast-NTT'd onto every limb of the full chain.
    IrBuilder &b = kb.builder();
    const size_t levels = kb.params().levels;
    IrCt in = kb.inputCiphertext(name, 1);
    IrCt out;
    out.level = levels;
    for (const PolyVal *poly : {&in.c0, &in.c1}) {
        PolyVal coeff = b.intt(*poly);
        PolyVal raised;
        for (size_t j = 0; j < levels; ++j)
            raised.limbs.push_back(
                b.emit1(IrOp::Ntt, coeff.limbs[0], -1,
                        static_cast<uint32_t>(j)));
        (poly == &in.c0 ? out.c0 : out.c1) = raised;
    }
    return out;
}

/** Per-stage diagonal count for a radix-factored DFT over `slots`. */
size_t
stageDiags(size_t slots, size_t stages)
{
    // Factoring the slots-point transform into `stages` radix-r stages
    // gives roughly 2r-1 diagonals per stage with r = slots^(1/stages).
    double r = std::pow(double(slots), 1.0 / double(stages));
    size_t d = static_cast<size_t>(2.0 * r) | 1;
    return std::max<size_t>(d, 3);
}

/**
 * `stages` radix stages of the `slots`-point DFT (CtS or StC), one
 * level each: a BSGS linear transform per stage over its own diagonal
 * object `<prefix><stage>`.
 */
IrCt
emitDftStages(KernelBuilder &kb, IrCt ct, size_t slots, size_t stages,
              const std::string &prefix, int gk)
{
    const size_t diags = stageDiags(slots, stages);
    for (size_t s = 0; s < stages; ++s) {
        const int diag_obj = kb.plainObject(
            prefix + std::to_string(s), static_cast<int>(diags * ct.level));
        ct = kb.linearTransform(ct, diags, babyFor(diags), diag_obj, gk);
    }
    return ct;
}

/** EvalMod's sine approximation: Chebyshev degree and baby steps. */
constexpr size_t kSineDegree = 255;
constexpr size_t kSineBabySteps = 16;

/** EvalMod: the modulus-ratio multiply, its rescale and the sine
 *  polynomial, the 10 levels `BootstrapBudget::levels()` counts. */
IrCt
emitEvalMod(KernelBuilder &kb, const IrCt &ct, int evk)
{
    return kb.polyEval(kb.rescale(kb.multImm(ct, 9)), kSineDegree,
                       kSineBabySteps, evk);
}

/** `budget` with its slots clamped to the N/2 a ring of `fhe`'s degree
 *  holds: below logN 16 that is fewer than the 2^15 of Table III. */
BootstrapBudget
fitSlots(BootstrapBudget budget, const FheParams &fhe)
{
    budget.slots = std::min(budget.slots, fhe.degree() / 2);
    return budget;
}

/** The bootstrap HELR and ResNet-20 embed: ModRaise of the level-1
 *  input object `in`, CtS, one EvalMod and StC, stored to `out`. */
void
emitEmbeddedBootstrap(KernelBuilder &kb, const BootstrapBudget &budget,
                      const std::string &in, const std::string &out,
                      int evk, int gk)
{
    IrCt ct = emitDftStages(kb, emitModRaise(kb, in), budget.slots,
                            budget.levelsCtS, "cts_diag_", gk);
    ct = emitEvalMod(kb, ct, evk);
    kb.output(out, emitDftStages(kb, ct, budget.slots, budget.levelsStC,
                                 "stc_diag_", gk));
}

} // namespace

Workload
buildBootstrapping(const FheParams &fhe, const BootstrapBudget &requested)
{
    const BootstrapBudget budget = fitSlots(requested, fhe);
    Workload w;
    // T_A.S. divisor: slots x (L - L_boot), L_boot = CtS+EvalMod+StC.
    w.amortizeFactor = double(budget.slots) *
                       double(fhe.levels - (budget.levelsCtS + 8 + budget.levelsStC));
    w.program.name = "bootstrapping";

    KernelBuilder kb(w.program, fhe);
    int evk = kb.switchingKeyObject("relin_key");
    int gk = kb.switchingKeyObject("galois_keys");
    int conj_key = kb.switchingKeyObject("conj_key");

    // CtS on the packed ciphertext, then the conjugation pair producing
    // the (lo, hi) halves.
    IrCt ct = emitDftStages(kb, emitModRaise(kb, "ct_in"), budget.slots,
                            budget.levelsCtS, "cts_diag_", gk);
    IrCt conj = kb.rotate(ct, 2 * fhe.degree() - 1, conj_key);
    IrCt lo = kb.hadd(ct, conj);
    IrCt hi = kb.hadd(ct, conj); // structurally identical (subtract path)

    // EvalMod on both halves, then StC on their merge.
    IrCt lo2 = emitEvalMod(kb, lo, evk);
    IrCt hi2 = emitEvalMod(kb, hi, evk);
    kb.output("ct_out", emitDftStages(kb, kb.hadd(lo2, hi2), budget.slots,
                                      budget.levelsStC, "stc_diag_", gk));
    return w;
}

Workload
buildHelr(const FheParams &fhe)
{
    // Two HELR iterations plus one 256-slot bootstrapping (the paper's
    // HELR performs 256-slot bootstrapping every two iterations); the
    // repeat factor amortizes to a single iteration.
    Workload w;
    w.amortizeFactor = 256.0;
    w.program.name = "helr";

    KernelBuilder kb(w.program, fhe);
    int evk = kb.switchingKeyObject("relin_key");
    int gk = kb.switchingKeyObject("galois_keys");

    IrCt weights = kb.inputCiphertext("weights", fhe.levels - 1);
    for (int iter = 0; iter < 2; ++iter) {
        IrCt x = kb.inputCiphertext("batch_" + std::to_string(iter),
                                    weights.level);
        // z = X*w: one BSGS matmul over the 256-slot batch.
        int xw_diag = kb.plainObject("xw_diag_" + std::to_string(iter),
                                     static_cast<int>(16 * x.level));
        IrCt z = kb.linearTransform(kb.hmult(x, weights, evk), 16, 4,
                                    xw_diag, gk);
        // Sigmoid: degree-7 polynomial (HELR uses a cubic/7th approx).
        IrCt sig = kb.polyEval(z, 7, 4, evk);
        // Gradient: X^T * sig via log2(256) rotation-accumulate steps.
        IrCt grad = kb.hmult(sig, x, evk);
        for (int s = 0; s < 8; ++s)
            grad = kb.hadd(grad, kb.rotate(grad, 5 + s, gk));
        // Weight update: w -= lr * grad.
        IrCt scaled = kb.rescale(kb.multImm(grad, 13));
        weights = kb.hadd(kb.rescale(kb.multImm(weights, 17)), scaled);
    }

    // Re-enter the bootstrap pipeline on the (now low-level) weights.
    emitEmbeddedBootstrap(kb, kHelrBootstrapBudget, "weights_boot",
                          "weights_out", evk, gk);

    w.repeat = 0.5; // program covers two iterations; report one
    return w;
}

Workload
buildResNet20(const FheParams &fhe)
{
    // One segment: two homomorphic convolutions (BSGS diagonal matmuls
    // with 3x3 kernels over packed channels), a degree-27 activation,
    // and one bootstrapping. ResNet-20 ~ 10 such segments.
    const BootstrapBudget budget = fitSlots(BootstrapBudget{}, fhe);
    Workload w;
    w.amortizeFactor = double(budget.slots);
    w.program.name = "resnet20";

    KernelBuilder kb(w.program, fhe);
    int evk = kb.switchingKeyObject("relin_key");
    int gk = kb.switchingKeyObject("galois_keys");

    IrCt act = kb.inputCiphertext("activations",
                                  std::min<size_t>(20, fhe.levels));
    for (int layer = 0; layer < 2; ++layer) {
        int conv_diag = kb.plainObject(
            "conv_diag_" + std::to_string(layer),
            static_cast<int>(27 * act.level));
        act = kb.linearTransform(act, 27, 8, conv_diag, gk);
        act = kb.polyEval(act, 27, 8, evk); // ReLU approximation
    }

    emitEmbeddedBootstrap(kb, budget, "act_boot", "act_out", evk, gk);

    w.repeat = 10.0; // 20 layers + ~10 bootstraps
    return w;
}

Workload
buildDbLookup(const FheParams &fhe, size_t records)
{
    // HElib-style lookup on BGV: select via encrypted one-hot query
    // (records plaintext multiplies + tree adds) and aggregate with
    // ceil(log2(records)) rotations. Depth 1, small chain.
    Workload w;
    FheParams bgv = fhe;
    bgv.logN = 13;
    bgv.levels = 3;
    bgv.dnum = 1;
    w.amortizeFactor = double(bgv.degree());
    w.program.name = "dblookup";

    KernelBuilder kb(w.program, bgv);
    int gk = kb.switchingKeyObject("galois_keys");
    int db = kb.plainObject("database",
                            static_cast<int>(records * bgv.levels));

    IrCt query = kb.inputCiphertext("query", bgv.levels);
    std::vector<IrCt> selected;
    for (size_t r = 0; r < records; ++r)
        selected.push_back(
            kb.multPlain(query, db, static_cast<int>(r * bgv.levels)));
    // Tree reduction.
    while (selected.size() > 1) {
        std::vector<IrCt> next;
        for (size_t i = 0; i + 1 < selected.size(); i += 2)
            next.push_back(kb.hadd(selected[i], selected[i + 1]));
        if (selected.size() % 2)
            next.push_back(selected.back());
        selected = std::move(next);
    }
    IrCt acc = selected[0];
    for (size_t s = 0; s < log2Ceil(records); ++s)
        acc = kb.hadd(acc, kb.rotate(acc, 5 + s, gk));
    kb.output("result", acc);
    return w;
}

Workload
buildRotationBatch(const FheParams &fhe, size_t chains, size_t hops)
{
    Workload w;
    w.amortizeFactor = double(fhe.degree());
    w.program.name = "rotbatch";

    KernelBuilder kb(w.program, fhe);
    IrBuilder &b = kb.builder();
    const int gk = kb.switchingKeyObject("galois_keys");
    IrCt ct = kb.inputCiphertext("ct", fhe.levels);
    const u64 two_n = u64(fhe.degree()) * 2;

    // Paired generators (g, g^2): chain 2k steps by g and accumulates
    // every second hop, chain 2k+1 steps by g^2 and accumulates every
    // hop, so chain 2k's step 2s lands on the same net element as
    // chain 2k+1's step s.  Neither accumulates the hops it merely
    // steps through, so after rotalg re-roots both chains at `ct` the
    // bypassed intermediates die (dead-rotation sweep) and the
    // colliding survivors canonicalize to identical forms that PRE
    // deduplicates — each pair of chains collapses from hops + hops/2
    // rotations to hops/2 shared ones.
    IrCt acc = ct;
    for (size_t c = 0; c < chains; ++c) {
        const u64 base = 5 + 2 * (c / 2);
        const bool squared = c % 2 != 0;
        const u64 g = squared ? base * base % two_n : base % two_n;
        const size_t steps = squared ? hops / 2 : hops;
        IrCt v = ct;
        for (size_t s = 0; s < steps; ++s) {
            v = {b.automorph(v.c0, g), b.automorph(v.c1, g), v.level};
            if (squared || s % 2 == 1 || s + 1 == steps)
                acc = kb.hadd(acc, v);
        }
    }

    // One hoisted key switch over the accumulated c1, as in rotate().
    auto [k0, k1] = kb.keySwitch(acc.c1, acc.level, gk);
    kb.output("result", IrCt{b.add(acc.c0, k0), k1, acc.level});
    return w;
}

Workload
buildTfheBootstrap()
{
    // TFHE gate bootstrapping (Sec. VI-D): n_lwe blind-rotation steps,
    // each an external product of 2 RGSW rows over l = 2 decomposition
    // digits, on N = 2^13; shifts map onto the automorphism unit with
    // the fixed network bypassed.
    Workload w;
    FheParams p;
    p.logN = 13;
    p.levels = 2; // l = 2 decomposition digits as limbs
    p.dnum = 1;
    w.amortizeFactor = 1.0;
    w.program.name = "tfhe_bootstrap";

    KernelBuilder kb(w.program, p);
    IrBuilder &b = kb.builder();
    const size_t n_lwe = 512;
    int bsk = b.object("bootstrap_key",
                       static_cast<int>(n_lwe * 4 * p.levels), true);

    IrCt acc = kb.inputCiphertext("acc", p.levels);
    for (size_t i = 0; i < n_lwe; ++i) {
        // Blind rotation step: X^{a_i} shift (AUTO), then the external
        // product: decompose (iNTT), per digit multiply with the RGSW
        // row (NTT-domain) and accumulate.
        PolyVal rot0 = b.automorph(acc.c0, 5);
        PolyVal rot1 = b.automorph(acc.c1, 5);
        PolyVal d0 = b.intt(rot0);
        PolyVal d1 = b.intt(rot1);
        PolyVal acc0, acc1;
        for (size_t digit = 0; digit < 2; ++digit) {
            PolyVal row_b = b.load(
                bsk, static_cast<int>((i * 4 + digit * 2) * p.levels),
                p.levels);
            PolyVal row_a = b.load(
                bsk,
                static_cast<int>((i * 4 + digit * 2 + 1) * p.levels),
                p.levels);
            PolyVal src = digit == 0 ? d0 : d1;
            PolyVal up = b.ntt(src);
            PolyVal pb = b.mul(up, row_b);
            PolyVal pa = b.mul(up, row_a);
            if (digit == 0) {
                acc0 = pb;
                acc1 = pa;
            } else {
                acc0 = b.add(acc0, pb);
                acc1 = b.add(acc1, pa);
            }
        }
        acc.c0 = acc0;
        acc.c1 = acc1;
    }
    // Sample extraction: one AUTO (shift/reverse) per poly.
    acc.c0 = b.automorph(acc.c0, 3);
    acc.c1 = b.automorph(acc.c1, 3);
    kb.output("lwe_out", acc);
    return w;
}

std::vector<std::pair<std::string, Workload>>
buildAllBenchmarks(const FheParams &fhe)
{
    std::vector<std::pair<std::string, Workload>> out;
    out.emplace_back("DBLookup", buildDbLookup(fhe));
    out.emplace_back("ResNet20", buildResNet20(fhe));
    out.emplace_back("HELR", buildHelr(fhe));
    out.emplace_back("Bootstrapping", buildBootstrapping(fhe));
    return out;
}

const std::vector<WorkloadKind> &
workloadKinds()
{
    // The paper kinds assume realistic CKKS parameters (logN >= 13) and
    // need their bootstrap's depth plus the level its output keeps. The
    // small kinds take toy parameters: dblookup overwrites logN, levels
    // and dnum, and tfhe reads no `FheParams` field.
    static const std::vector<WorkloadKind> kinds = {
        {"bootstrap", 13, BootstrapBudget{}.levels() + 1, 0,
         [](const FheParams &fhe, uint64_t) {
             return buildBootstrapping(fhe);
         }},
        {"helr", 13, kHelrBootstrapBudget.levels() + 1, 0,
         [](const FheParams &fhe, uint64_t) { return buildHelr(fhe); }},
        {"resnet20", 13, BootstrapBudget{}.levels() + 1, 0,
         [](const FheParams &fhe, uint64_t) { return buildResNet20(fhe); }},
        {"dblookup", 8, 1, uint64_t(1) << 16,
         [](const FheParams &fhe, uint64_t records) {
             return buildDbLookup(fhe, records == 0 ? 256 : records);
         }},
        {"tfhe", 8, 1, 0,
         [](const FheParams &, uint64_t) { return buildTfheBootstrap(); }},
    };
    return kinds;
}

const WorkloadKind *
findWorkloadKind(const std::string &name)
{
    for (const WorkloadKind &kind : workloadKinds())
        if (name == kind.name)
            return &kind;
    return nullptr;
}

} // namespace effact
