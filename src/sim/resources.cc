#include "sim/resources.h"

#include <algorithm>

#include "common/bitops.h"

namespace effact {

ResourceModel::ResourceModel(const HardwareConfig &cfg,
                             size_t residue_bytes)
    : cfg_(cfg), residue_bytes_(residue_bytes)
{
    const size_t n_coeff = residue_bytes / 8;
    ew_cycles_ = double(ceilDiv(n_coeff, cfg_.lanes));
    ntt_cycles_ =
        double(n_coeff) * log2Floor(n_coeff) / 2.0 / double(cfg_.lanes);
    mem_cycles_ = double(residue_bytes) / cfg_.hbmBytesPerCycle();

    fu_free_[FU_NTT].assign(std::max<size_t>(cfg_.nttUnits, 1), 0.0);
    fu_free_[FU_MUL].assign(std::max<size_t>(cfg_.mulUnits, 1), 0.0);
    fu_free_[FU_ADD].assign(std::max<size_t>(cfg_.addUnits, 1), 0.0);
    fu_free_[FU_AUTO].assign(std::max<size_t>(cfg_.autoUnits, 1), 0.0);
}

InstShape
ResourceModel::decode(const MachInst &mi) const
{
    InstShape s;
    const int dram_srcs = mi.dramStreamSources();
    s.stream_fill = dram_srcs >= 1;
    s.extra_dram = dram_srcs > 1 ? dram_srcs - 1 : 0;
    switch (mi.op) {
      case Opcode::LOAD_RES:
      case Opcode::STORE_RES:
        s.fu_class = -1; // pure memory op: occupies the HBM channel only
        return s;
      case Opcode::NTT:
      case Opcode::INTT:
        s.fu_class = FU_NTT;
        s.occupancy = ntt_cycles_;
        return s;
      case Opcode::MMUL:
        s.fu_class = FU_MUL;
        break;
      case Opcode::MMAC:
        // Circuit-level reuse (Sec. III-2): MACs run on the NTT units'
        // MAC data path when that frees up earlier.
        s.fu_class = FU_MUL;
        s.mac = true;
        break;
      case Opcode::AUTO:
        s.fu_class = FU_AUTO;
        break;
      default: // MMAD, MSUB, VEC_COPY
        s.fu_class = FU_ADD;
        break;
    }
    s.occupancy = ew_cycles_;
    return s;
}

} // namespace effact
