#include "reference_sim.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/bitops.h"
#include "sim/resources.h"
#include "verify/verify.h"

namespace effact {

SimReport
referenceSimulate(const HardwareConfig &cfg, const MachineProgram &prog)
{
    const size_t n_coeff = prog.residueBytes / 8;
    const double ew_cycles =
        double(ceilDiv(n_coeff, cfg.lanes)); // element-wise op
    const double ntt_cycles = double(n_coeff) * log2Floor(n_coeff) / 2.0 /
                              double(cfg.lanes);
    const double bpc = cfg.hbmBytesPerCycle();
    const double mem_cycles = double(prog.residueBytes) / bpc;
    const double startup_cycles = ResourceModel::kStartupCycles;

    const size_t n = prog.insts.size();

    // Resolve each source operand to its defining instruction index so
    // that out-of-order issue still honours true dependences.
    std::vector<int> def_src0(n, -1), def_src1(n, -1), def_src2(n, -1),
        dest_prev(n, -1);
    {
        std::unordered_map<int, int> last_writer;   // register -> inst
        std::unordered_map<u64, int> fifo_producer; // token -> inst
        for (size_t i = 0; i < n; ++i) {
            const MachInst &mi = prog.insts[i];
            auto resolveSrc = [&](const Operand &o) {
                if (o.kind == OperandKind::Reg) {
                    auto it = last_writer.find(o.reg);
                    return it == last_writer.end() ? -1 : it->second;
                }
                if (o.kind == OperandKind::Stream && !o.dram) {
                    auto it = fifo_producer.find(o.value);
                    return it == fifo_producer.end() ? -1 : it->second;
                }
                return -1;
            };
            def_src0[i] = resolveSrc(mi.src0());
            def_src1[i] = resolveSrc(mi.src1());
            def_src2[i] = resolveSrc(mi.src2());
            const Operand dest = mi.dest();
            if (mi.op != Opcode::STORE_RES) {
                if (dest.kind == OperandKind::Reg) {
                    auto it = last_writer.find(dest.reg);
                    dest_prev[i] = it == last_writer.end() ? -1
                                                           : it->second;
                    last_writer[dest.reg] = static_cast<int>(i);
                } else if (dest.kind == OperandKind::Stream && !dest.dram) {
                    fifo_producer[dest.value] = static_cast<int>(i);
                }
            }
        }
    }

    std::vector<std::vector<double>> fu_free(FU_CLASSES);
    fu_free[FU_NTT].assign(std::max<size_t>(cfg.nttUnits, 1), 0.0);
    fu_free[FU_MUL].assign(std::max<size_t>(cfg.mulUnits, 1), 0.0);
    fu_free[FU_ADD].assign(std::max<size_t>(cfg.addUnits, 1), 0.0);
    fu_free[FU_AUTO].assign(std::max<size_t>(cfg.autoUnits, 1), 0.0);
    double hbm_free = 0.0;

    std::vector<double> finish_time(n, 0.0);
    std::vector<uint8_t> issued(n, 0);

    double busy[FU_CLASSES] = {0, 0, 0, 0};
    double hbm_busy = 0.0;
    double dram_bytes = 0.0;
    double t_end = 0.0;

    size_t head = 0;
    size_t remaining = n;
    const size_t window = std::max<size_t>(cfg.issueWindow, 1);

    struct Plan
    {
        double start;
        int fu_class; // -1 for pure memory ops
        int fu_inst;
        double occupancy;
        bool uses_dram;
        double dram_cycles;
    };

    auto planFor = [&](size_t i, bool &feasible) {
        const MachInst &mi = prog.insts[i];
        Plan plan{0.0, -1, -1, 0.0, false, 0.0};
        feasible = true;

        double ready = 0.0;
        bool stream_fill = false;
        for (int def : {def_src0[i], def_src1[i], def_src2[i]}) {
            if (def >= 0) {
                if (!issued[static_cast<size_t>(def)]) {
                    feasible = false;
                    return plan;
                }
                ready = std::max(ready,
                                 finish_time[static_cast<size_t>(def)]);
            }
        }
        // Anti-dependence on the destination register (do not clobber a
        // value an earlier instruction still defines later in program
        // order — issue order enforces this cheaply).
        if (dest_prev[i] >= 0 &&
            !issued[static_cast<size_t>(dest_prev[i])]) {
            feasible = false;
            return plan;
        }
        if (mi.dramStreamSources() >= 1)
            stream_fill = true;

        switch (mi.op) {
          case Opcode::LOAD_RES:
          case Opcode::STORE_RES:
            plan.uses_dram = true;
            plan.dram_cycles = mem_cycles;
            plan.start = std::max(ready, hbm_free);
            plan.occupancy = mem_cycles;
            return plan;
          default:
            break;
        }

        int cls;
        double occ = ew_cycles;
        switch (mi.op) {
          case Opcode::NTT:
          case Opcode::INTT:
            cls = FU_NTT;
            occ = ntt_cycles;
            break;
          case Opcode::MMUL:
            cls = FU_MUL;
            break;
          case Opcode::MMAC: {
            // Circuit-level reuse (Sec. III-2): MACs run on the NTT
            // units' MAC data path when that frees up earlier.
            cls = FU_MUL;
            if (cfg.nttMacReuse) {
                double mul_t = *std::min_element(fu_free[FU_MUL].begin(),
                                                 fu_free[FU_MUL].end());
                double ntt_t = *std::min_element(fu_free[FU_NTT].begin(),
                                                 fu_free[FU_NTT].end());
                if (ntt_t < mul_t)
                    cls = FU_NTT;
            }
            break;
          }
          case Opcode::AUTO:
            cls = FU_AUTO;
            break;
          default: // MMAD, MSUB, VEC_COPY
            cls = FU_ADD;
            break;
        }
        plan.fu_class = cls;
        auto it = std::min_element(fu_free[cls].begin(),
                                   fu_free[cls].end());
        plan.fu_inst = static_cast<int>(it - fu_free[cls].begin());
        plan.start = std::max(ready, *it);
        plan.occupancy = occ;
        if (stream_fill) {
            // The streaming fill competes for HBM and overlaps with
            // execution (data consumed on arrival, Sec. IV-C).
            plan.uses_dram = true;
            plan.dram_cycles = mem_cycles;
            plan.start = std::max(plan.start, hbm_free);
            plan.occupancy = std::max(plan.occupancy, mem_cycles);
        }
        return plan;
    };

    while (remaining > 0) {
        size_t best = n;
        Plan best_plan{1e300, -1, -1, 0, false, 0};
        size_t seen = 0;
        for (size_t i = head; i < n && seen < window; ++i) {
            if (issued[i])
                continue;
            ++seen;
            bool feasible = false;
            Plan p = planFor(i, feasible);
            if (feasible && p.start < best_plan.start) {
                best_plan = p;
                best = i;
            }
        }
        if (best >= n)
            panicMalformedMachine(prog, -1,
                                  "deadlock: no issuable instruction");

        const MachInst &mi = prog.insts[best];
        issued[best] = 1;
        --remaining;
        while (head < n && issued[head])
            ++head;

        double finish = best_plan.start + best_plan.occupancy +
                        startup_cycles;
        if (best_plan.uses_dram) {
            hbm_free = best_plan.start + best_plan.dram_cycles;
            hbm_busy += best_plan.dram_cycles;
            dram_bytes += double(prog.residueBytes);
        }
        if (best_plan.fu_class >= 0) {
            fu_free[best_plan.fu_class][best_plan.fu_inst] =
                best_plan.start + best_plan.occupancy;
            busy[best_plan.fu_class] += best_plan.occupancy;
        }
        // Each DRAM-streamed operand beyond the first moves another
        // residue.
        for (int k = 1; k < mi.dramStreamSources(); ++k) {
            hbm_free += mem_cycles;
            hbm_busy += mem_cycles;
            dram_bytes += double(prog.residueBytes);
        }

        finish_time[best] = finish;
        t_end = std::max(t_end, finish);
    }

    SimReport r;
    r.cycles = t_end;
    r.timeMs = t_end / (cfg.freqGhz * 1e9) * 1e3;
    r.dramBytes = dram_bytes;
    r.instructions = n;
    if (t_end > 0) {
        r.dramUtil = hbm_busy / t_end;
        r.nttUtil = busy[FU_NTT] / (t_end * double(cfg.nttUnits));
        r.mulAddUtil = (busy[FU_MUL] + busy[FU_ADD]) /
                       (t_end * double(cfg.mulUnits + cfg.addUnits));
        r.autoUtil = busy[FU_AUTO] / (t_end * double(cfg.autoUnits));
    }
    r.stats.set("cycles", t_end);
    r.stats.set("dramBytes", dram_bytes);
    r.stats.set("nttBusy", busy[FU_NTT]);
    r.stats.set("mulBusy", busy[FU_MUL]);
    r.stats.set("addBusy", busy[FU_ADD]);
    r.stats.set("autoBusy", busy[FU_AUTO]);
    return r;
}

} // namespace effact
