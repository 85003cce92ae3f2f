/**
 * @file
 * Quickstart: the two halves of the EFFACT platform in ~80 lines.
 *
 * 1. Functional CKKS: encrypt two vectors, multiply and rotate them
 *    homomorphically, decrypt, and check against plaintext math.
 * 2. Acceleration: lower an HMULT to the residue-polynomial IR, compile
 *    it with the EFFACT backend, and simulate it on ASIC-EFFACT.
 */
#include <cstdio>

#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "platform/platform.h"

using namespace effact;

int
main()
{
    // ---- 1. Functional CKKS --------------------------------------------
    CkksParams params;
    params.logN = 12;
    params.levels = 6;
    params.logScale = 40;
    CkksContext ctx(params);
    CkksEncoder encoder(ctx);
    Rng rng(7);
    KeyGenerator keygen(ctx, rng);
    SecretKey sk = keygen.genSecretKey();
    SwitchingKey relin = keygen.genRelinKey(sk);
    GaloisKeys galois = keygen.genGaloisKeys(sk, {1});
    CkksEncryptor enc(ctx, sk, rng);
    CkksEvaluator eval(ctx, encoder, &relin, &galois);

    const size_t slots = 8;
    std::vector<cplx> a = {1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<cplx> b = {0.5, 0.25, 2, 1, -1, 0.1, 3, -2};

    Ciphertext ca = enc.encrypt(encoder.encode(a, ctx.scale(),
                                               ctx.levels()));
    Ciphertext cb = enc.encrypt(encoder.encode(b, ctx.scale(),
                                               ctx.levels()));
    Ciphertext prod = eval.rescale(eval.mult(ca, cb));
    Ciphertext rotated = eval.rotate(prod, 1);

    auto out = encoder.decode(enc.decrypt(rotated), slots);
    std::puts("slot:  enc(a)*enc(b) rotated left by 1  (expected)");
    for (size_t i = 0; i < slots; ++i) {
        cplx expect = a[(i + 1) % slots] * b[(i + 1) % slots];
        std::printf("  %zu: %8.4f  (%8.4f)\n", i, out[i].real(),
                    expect.real());
    }

    // ---- 2. Compile + simulate at paper scale --------------------------
    FheParams fhe; // N = 2^16, L = 24, dnum = 4
    IrProgram prog;
    prog.name = "quickstart_hmult";
    KernelBuilder kb(prog, fhe);
    int evk = kb.switchingKeyObject("relin_key");
    IrCt x = kb.inputCiphertext("x", fhe.levels);
    IrCt y = kb.inputCiphertext("y", fhe.levels);
    kb.output("xy", kb.rescale(kb.hmult(x, y, evk)));

    Workload w;
    w.program = std::move(prog);

    HardwareConfig hw = HardwareConfig::asicEffact27();
    Platform platform(hw, Platform::fullOptions(hw.sramBytes));
    PlatformResult r = platform.run(w);
    std::printf("\nHMULT+rescale at N=2^16, L=24 on %s:\n",
                hw.name.c_str());
    std::printf("  %zu machine instructions, %.0f cycles, %.3f ms, "
                "%.2f GB DRAM\n",
                r.sim.instructions, r.sim.cycles, r.sim.timeMs,
                r.sim.dramBytes / 1e9);
    return 0;
}
