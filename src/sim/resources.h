/**
 * @file
 * Resource model of the EFFACT microarchitecture, split out of the
 * issue loop so function-unit classes, the MAC-on-NTT circuit reuse
 * (Sec. III-2) and streaming HBM overlap (Sec. IV-C) are testable in
 * isolation from issue-order policy. The simulator asks `plan()` what
 * issuing an instruction *would* cost under the current occupancy and
 * `commit()`s the chosen plan; the model tracks per-unit free times,
 * the HBM channel, and busy/traffic counters for the report.
 */
#ifndef EFFACT_SIM_RESOURCES_H
#define EFFACT_SIM_RESOURCES_H

#include <algorithm>
#include <cstddef>
#include <vector>

#include "isa/isa.h"
#include "sim/config.h"

namespace effact {

/** Function-unit classes. */
enum FuClass { FU_NTT = 0, FU_MUL, FU_ADD, FU_AUTO, FU_CLASSES };

/**
 * Static shape of one instruction: everything the resource model needs
 * that does not depend on the machine state. Decoded once per
 * instruction instead of on every issue-candidate evaluation.
 */
struct InstShape
{
    int fu_class = -1;      ///< FuClass, or -1 for pure memory ops
    double occupancy = 0.0; ///< FU occupancy in cycles
    bool mac = false;       ///< may steer to the NTT units' MAC path
    bool stream_fill = false; ///< >=1 source streams from DRAM
    int extra_dram = 0;       ///< DRAM-streamed sources beyond the first
                              ///< (0-2: MMAC can stream all three)
};

/** A committed or prospective issue slot. */
struct IssuePlan
{
    double start = 0.0;
    double occupancy = 0.0;
    double dram_cycles = 0.0;
    int fu_class = -1; ///< -1 for pure memory ops
    int fu_inst = -1;
    bool uses_dram = false;
};

class ResourceModel
{
  public:
    /** Pipeline fill latency added to every instruction's finish. */
    static constexpr double kStartupCycles = 16.0;

    ResourceModel(const HardwareConfig &cfg, size_t residue_bytes);

    /** Decodes the state-independent shape of one instruction. */
    InstShape decode(const MachInst &mi) const;

    /**
     * Cost of issuing `shape` once its operands are ready at
     * `data_ready`, under current occupancy: picks the earliest-free
     * unit of the class (steering MACs to an idler NTT unit when
     * enabled), serializes on the HBM channel for loads/stores and
     * streaming fills, and overlaps a streaming fill with execution.
     */
    IssuePlan plan(const InstShape &shape, double data_ready) const;

    /**
     * Commits `p`: occupies the chosen unit, advances the HBM channel
     * (an instruction moves one residue per DRAM-streamed source), and
     * accrues
     * busy/traffic counters. Returns the finish time, which includes
     * the pipeline startup latency.
     */
    double commit(const InstShape &shape, const IssuePlan &p);

    // --- Model constants and state, for reports and tests ---------------
    double ewCycles() const { return ew_cycles_; }
    double nttCycles() const { return ntt_cycles_; }
    double memCycles() const { return mem_cycles_; }
    double hbmFree() const { return hbm_free_; }
    double hbmBusy() const { return hbm_busy_; }
    double dramBytes() const { return dram_bytes_; }
    double busy(int fu_class) const { return busy_[fu_class]; }
    double fuFreeMin(int fu_class) const { return fu_min_[fu_class]; }
    const HardwareConfig &config() const { return cfg_; }

  private:
    void refreshMin(int fu_class);

    HardwareConfig cfg_;
    size_t residue_bytes_ = 0;
    double ew_cycles_ = 0.0;
    double ntt_cycles_ = 0.0;
    double mem_cycles_ = 0.0;

    std::vector<double> fu_free_[FU_CLASSES]; ///< per-unit next-free time
    double fu_min_[FU_CLASSES] = {0, 0, 0, 0};
    int fu_argmin_[FU_CLASSES] = {0, 0, 0, 0};
    double busy_[FU_CLASSES] = {0, 0, 0, 0};
    double hbm_free_ = 0.0;
    double hbm_busy_ = 0.0;
    double dram_bytes_ = 0.0;
};

// `plan` and `commit` run once per issued instruction; they are defined
// here so the simulator's issue loop inlines them.

inline IssuePlan
ResourceModel::plan(const InstShape &shape, double data_ready) const
{
    IssuePlan p;
    if (shape.fu_class < 0) {
        p.uses_dram = true;
        p.dram_cycles = mem_cycles_;
        p.start = std::max(data_ready, hbm_free_);
        p.occupancy = mem_cycles_;
        return p;
    }
    int cls = shape.fu_class;
    if (shape.mac && cfg_.nttMacReuse && fu_min_[FU_NTT] < fu_min_[FU_MUL])
        cls = FU_NTT;
    p.fu_class = cls;
    p.fu_inst = fu_argmin_[cls];
    p.start = std::max(data_ready, fu_min_[cls]);
    p.occupancy = shape.occupancy;
    if (shape.stream_fill) {
        // The streaming fill competes for HBM and overlaps with
        // execution (data consumed on arrival, Sec. IV-C).
        p.uses_dram = true;
        p.dram_cycles = mem_cycles_;
        p.start = std::max(p.start, hbm_free_);
        p.occupancy = std::max(p.occupancy, mem_cycles_);
    }
    return p;
}

inline double
ResourceModel::commit(const InstShape &shape, const IssuePlan &p)
{
    const double finish = p.start + p.occupancy + kStartupCycles;
    if (p.uses_dram) {
        hbm_free_ = p.start + p.dram_cycles;
        hbm_busy_ += p.dram_cycles;
        dram_bytes_ += double(residue_bytes_);
    }
    if (p.fu_class >= 0) {
        fu_free_[p.fu_class][p.fu_inst] = p.start + p.occupancy;
        busy_[p.fu_class] += p.occupancy;
        refreshMin(p.fu_class);
    }
    // Each DRAM-streamed operand beyond the first moves another residue.
    for (int k = 0; k < shape.extra_dram; ++k) {
        hbm_free_ += mem_cycles_;
        hbm_busy_ += mem_cycles_;
        dram_bytes_ += double(residue_bytes_);
    }
    return finish;
}

inline void
ResourceModel::refreshMin(int fu_class)
{
    const std::vector<double> &f = fu_free_[fu_class];
    double best = f[0];
    int arg = 0;
    for (size_t u = 1; u < f.size(); ++u) {
        if (f[u] < best) {
            best = f[u];
            arg = static_cast<int>(u);
        }
    }
    fu_min_[fu_class] = best;
    fu_argmin_[fu_class] = arg;
}

} // namespace effact

#endif // EFFACT_SIM_RESOURCES_H
