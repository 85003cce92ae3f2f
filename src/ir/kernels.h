/**
 * @file
 * HE-primitive kernel generators: lower CKKS/BGV primitives (HMULT's
 * key-switching, rescale, hoisted rotations, linear transforms,
 * polynomial evaluation) into residue-polynomial IR at paper-scale
 * parameters (Table III). These are *structural* generators — they emit
 * the exact instruction sequences the functional evaluator executes,
 * without carrying ciphertext data, so that full-size (N = 2^16, L = 24)
 * programs can be compiled and simulated.
 */
#ifndef EFFACT_IR_KERNELS_H
#define EFFACT_IR_KERNELS_H

#include "ir/builder.h"

namespace effact {

/** Scheme-level parameters for kernel generation. */
struct FheParams
{
    size_t logN = 16;  ///< ring degree 2^logN
    size_t levels = 24;///< Q-chain length L
    size_t dnum = 4;   ///< key-switching digits

    size_t degree() const { return size_t(1) << logN; }
    size_t alpha() const { return (levels + dnum - 1) / dnum; }
};

/** An IR-level ciphertext: two polynomials at some level. */
struct IrCt
{
    PolyVal c0, c1;
    size_t level = 0;
};

/** Emits HE primitives into an IR program. */
class KernelBuilder
{
  public:
    KernelBuilder(IrProgram &prog, const FheParams &params);

    IrBuilder &builder() { return b_; }
    const FheParams &params() const { return p_; }

    /** Declares and loads a fresh input ciphertext at `level`, which
     *  must not exceed `params().levels`. */
    IrCt inputCiphertext(const std::string &name, size_t level);

    /** Declares a switching key object (dnum digits, 2 polys each). */
    int switchingKeyObject(const std::string &name);

    /** Declares a plaintext-constant object of `residues` residues. */
    int plainObject(const std::string &name, int residues);

    /** Stores a ciphertext to a fresh output object. */
    void output(const std::string &name, const IrCt &ct);

    // --- Primitives ------------------------------------------------------

    /** HADD: element-wise addition. */
    IrCt hadd(const IrCt &a, const IrCt &b);

    /** Multiply by a plaintext polynomial loaded from `plain_obj`. */
    IrCt multPlain(const IrCt &ct, int plain_obj, int plain_first);

    /** Multiply by a scalar immediate. */
    IrCt multImm(const IrCt &ct, u64 imm);

    /** HMULT with relinearization via `evk`. */
    IrCt hmult(const IrCt &a, const IrCt &b, int evk);

    /** Rescale: drop one level. */
    IrCt rescale(const IrCt &ct);

    /** HROT by a Galois element, switching with `gk`. */
    IrCt rotate(const IrCt &ct, u64 elt, int gk);

    /**
     * Base conversion of `v` (coeff domain) from its limbs onto
     * `to_limbs` target limbs (Eq. 3 as MULT/MAC instructions,
     * Sec. III-1: executed on the normal units, tagged BConv).
     */
    PolyVal bconv(const PolyVal &v, size_t to_limbs);

    /** Digit-decomposed key switching of d2 at `level` (Sec. II-C). */
    std::pair<PolyVal, PolyVal> keySwitch(const PolyVal &d2, size_t level,
                                          int key_obj);

    /**
     * Hoisted-rotation linear transform (BSGS): `diags` diagonals split
     * into n1 baby x n2 giant; consumes one level (includes rescale).
     */
    IrCt linearTransform(const IrCt &ct, size_t diags, size_t n1,
                         int plain_obj, int gk_obj);

    /**
     * Homomorphic polynomial evaluation of `degree` via BSGS with
     * `baby` baby steps (the EvalMod pattern). Mirrors
     * Bootstrapper::evalChebyshev: each base-case sum of scalar-multiplied
     * baby steps is rescaled once, and the result ends at the same level.
     */
    IrCt polyEval(const IrCt &ct, size_t degree, size_t baby, int evk);

    /** ModDown of one accumulated (Q_l ∪ P) polynomial (helper). */
    PolyVal modDown(const PolyVal &acc, size_t level);

  private:
    /** ModUp of digit `d` of `dc` (coefficient domain, `level` limbs):
     *  BConv onto Q_l ∪ P, then NTT. */
    PolyVal modUpDigit(const PolyVal &dc, size_t d, size_t level);

    /**
     * Key inner product at `level`: for each digit d, the operand
     * `digit(d)` times key_obj's b and a polynomials of digit d,
     * accumulated over the digits into the (Q_l ∪ P) pair ModDown takes.
     */
    template <typename DigitFn>
    std::pair<PolyVal, PolyVal> keyInnerProduct(size_t level, int key_obj,
                                                DigitFn digit);

    IrBuilder b_;
    FheParams p_;
};

} // namespace effact

#endif // EFFACT_IR_KERNELS_H
