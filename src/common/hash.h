/**
 * @file
 * The one non-cryptographic hashing scheme of the library: word-wise
 * FNV-1a (one xor-multiply per 64-bit field) closed by a splitmix64
 * finalizer. Both program fingerprints (`fingerprint(IrProgram)`, the
 * `CompileCache` content key, and `fingerprint(MachineProgram)`), the
 * cache key's preset half (`middleEndPresetHash`), PRE's
 * value-numbering table and the stats fold of a canonical service
 * result line hash through it. Wire-format checksums (the service
 * frame's bytewise FNV-1a) do not: their bytes are protocol, not an
 * implementation detail.
 *
 * One accumulator is one chain of dependent multiplies. The program
 * fingerprints pack each instruction into five words and run five
 * accumulators side by side, word k of every instruction on
 * accumulator k, then mix the five `finish()` values into a header
 * accumulator: five independent multiplies per instruction instead of
 * one dependent multiply per field. Each step and the finalizer are
 * bijections, so changing one field of one instruction still moves
 * the result.
 */
#ifndef EFFACT_COMMON_HASH_H
#define EFFACT_COMMON_HASH_H

#include <cstdint>
#include <string>

namespace effact {

/** splitmix64 finalizer: full avalanche of one 64-bit word (a
 *  bijection, so distinct inputs stay distinct). */
constexpr uint64_t
splitmix64(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

/**
 * Order-sensitive accumulator over 64-bit fields. Each `mix` is one
 * FNV-1a step on a whole word, h -> (h ^ v) * P; for a fixed input
 * word that step is a bijection of h, so changing any single field
 * always moves `finish()`. The weak per-step avalanche is repaired once
 * by the splitmix64 finalizer. Callers hash named fields (widened to
 * 64 bits), never raw struct bytes, so the value depends only on the
 * logical contents, not on a struct's layout or padding.
 */
class WordHash
{
  public:
    void
    mix(uint64_t v)
    {
        h_ ^= v;
        h_ *= 1099511628211ULL; // FNV-1a 64-bit prime
    }

    /** A string: its length, then one word per byte. */
    void
    mixString(const std::string &s)
    {
        mix(s.size());
        for (const unsigned char c : s)
            mix(c);
    }

    uint64_t finish() const { return splitmix64(h_); }

  private:
    uint64_t h_ = 14695981039346656037ULL; // FNV-1a offset basis
};

} // namespace effact

#endif // EFFACT_COMMON_HASH_H
