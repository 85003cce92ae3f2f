#include "sim/machine.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/logging.h"
#include "sched/depgraph.h"
#include "sim/resources.h"
#include "verify/verify.h"

namespace effact {

namespace {

SimReport
makeReport(const ResourceModel &res, const HardwareConfig &cfg, size_t n,
           double t_end)
{
    SimReport r;
    r.cycles = t_end;
    r.timeMs = t_end / (cfg.freqGhz * 1e9) * 1e3;
    r.dramBytes = res.dramBytes();
    r.instructions = n;
    if (t_end > 0) {
        r.dramUtil = res.hbmBusy() / t_end;
        r.nttUtil = res.busy(FU_NTT) / (t_end * double(cfg.nttUnits));
        r.mulAddUtil = (res.busy(FU_MUL) + res.busy(FU_ADD)) /
                       (t_end * double(cfg.mulUnits + cfg.addUnits));
        r.autoUtil = res.busy(FU_AUTO) / (t_end * double(cfg.autoUnits));
    }
    r.stats.set("cycles", t_end);
    r.stats.set("dramBytes", res.dramBytes());
    r.stats.set("nttBusy", res.busy(FU_NTT));
    r.stats.set("mulBusy", res.busy(FU_MUL));
    r.stats.set("addBusy", res.busy(FU_ADD));
    r.stats.set("autoBusy", res.busy(FU_AUTO));
    return r;
}

/**
 * Ready instructions, partitioned by the resource "group" that decides
 * their issue start. Every member of a group shares one state-dependent
 * floor F (the group's resource-free time), so a ready instruction with
 * data-ready time d starts at max(d, F):
 *
 *  - members with d <= F all tie at F — the earliest index wins, so
 *    they sit in an index-ordered min-heap (`tied`);
 *  - members with d > F start at d — they sit in a (d, index) min-heap
 *    (`later`).
 *
 * Resource free times only move forward, so F is monotone and members
 * migrate from `later` to `tied` at most once. The group's best
 * candidate is a peek at two heap tops; the global best is the
 * lexicographic (start, index) minimum over the groups, which is
 * exactly the legacy rescan loop's "earliest feasible start, earliest
 * index on ties" policy.
 */
class ReadyGroups
{
  public:
    // One group per FU class, one per FU class with a streaming fill
    // (floor also covers the HBM channel), one for steerable MACs
    // (floor = min of NTT/MUL), its streaming variant, and one for pure
    // memory ops (floor = HBM channel only).
    enum : int {
        kPlain0 = 0,          // + FuClass
        kFill0 = FU_CLASSES,  // + FuClass
        kMac = 2 * FU_CLASSES,
        kFillMac,
        kMem,
        kGroups,
    };

    explicit ReadyGroups(const ResourceModel &res) : res_(res)
    {
        for (int grp = 0; grp < kGroups; ++grp)
            floor_[grp] = floorOf(grp);
    }

    static int groupOf(const InstShape &shape, bool ntt_mac_reuse)
    {
        if (shape.fu_class < 0)
            return kMem;
        if (shape.mac && ntt_mac_reuse)
            return shape.stream_fill ? kFillMac : kMac;
        return (shape.stream_fill ? kFill0 : kPlain0) + shape.fu_class;
    }

    void admit(int grp, int idx, double data_ready)
    {
        if (data_ready <= floor_[grp])
            tied_[grp].push(idx);
        else
            later_[grp].emplace(data_ready, idx);
        nonempty_ |= 1u << grp;
    }

    /**
     * Advances the floors of the groups a commit can have moved (the
     * committed FU class and, if the HBM channel advanced, every group
     * whose floor covers it) and migrates members whose data-ready time
     * the floor has caught up with.
     *
     * Batched per commit: every floor is a max/min over resource free
     * times, the free times only move forward, and a commit moves only
     * its own FU class and (maybe) the HBM channel — so each moved
     * primitive is read once and every dependent group's floor is just
     * `max(stored floor, moved primitive)`. The per-touched-group
     * `floorOf` re-derivation (which re-read the unmoved components,
     * `FU_CLASSES + 2` HBM reads on a streaming commit) is gone; the
     * stored floors stay exactly `floorOf` by induction from the
     * constructor.
     */
    void refresh(const IssuePlan &committed)
    {
        if (committed.fu_class >= 0) {
            const double fu = res_.fuFreeMin(committed.fu_class);
            raiseTo(kPlain0 + committed.fu_class, fu);
            raiseTo(kFill0 + committed.fu_class, fu);
            if (committed.fu_class == FU_NTT ||
                committed.fu_class == FU_MUL) {
                const double mac = std::min(res_.fuFreeMin(FU_NTT),
                                            res_.fuFreeMin(FU_MUL));
                raiseTo(kMac, mac);
                raiseTo(kFillMac, mac);
            }
        }
        if (committed.uses_dram) {
            const double hbm = res_.hbmFree();
            raiseTo(kMem, hbm);
            for (int cls = 0; cls < FU_CLASSES; ++cls)
                raiseTo(kFill0 + cls, hbm);
            raiseTo(kFillMac, hbm);
        }
    }

    /** Lexicographic (start, index) minimum over the non-empty
     *  groups; returns the instruction index and its start, or -1 if
     *  nothing is ready. */
    int best(double &start_out) const
    {
        int best_idx = -1;
        double best_start = 0.0;
        for (uint32_t m = nonempty_; m != 0; m &= m - 1) {
            const int grp = __builtin_ctz(m);
            int idx;
            double start;
            // Within a group the tied heap dominates: `later` members
            // start strictly after the floor.
            if (!tied_[grp].empty()) {
                idx = tied_[grp].top();
                start = floor_[grp];
            } else {
                idx = later_[grp].top().second;
                start = later_[grp].top().first;
            }
            if (best_idx < 0 || start < best_start ||
                (start == best_start && idx < best_idx)) {
                best_idx = idx;
                best_start = start;
            }
        }
        start_out = best_start;
        return best_idx;
    }

    /** Removes `idx` (the current best of group `grp`). */
    void take(int grp, int idx)
    {
        if (!tied_[grp].empty() && tied_[grp].top() == idx) {
            tied_[grp].pop();
        } else {
            EFFACT_ASSERT(!later_[grp].empty() &&
                              later_[grp].top().second == idx,
                          "issued instruction is not its group's best");
            later_[grp].pop();
        }
        if (tied_[grp].empty() && later_[grp].empty())
            nonempty_ &= ~(1u << grp);
    }

  private:
    /** Raises group `grp`'s floor to (at least) `f` and migrates the
     *  members the new floor has caught up with. No-op when the floor
     *  already covers `f` (the unmoved-component case). */
    void raiseTo(int grp, double f)
    {
        if (f <= floor_[grp])
            return;
        floor_[grp] = f;
        auto &later = later_[grp];
        while (!later.empty() && later.top().first <= f) {
            tied_[grp].push(later.top().second);
            later.pop();
        }
    }

    double floorOf(int grp) const
    {
        if (grp == kMem)
            return res_.hbmFree();
        if (grp == kMac)
            return std::min(res_.fuFreeMin(FU_NTT),
                            res_.fuFreeMin(FU_MUL));
        if (grp == kFillMac)
            return std::max(std::min(res_.fuFreeMin(FU_NTT),
                                     res_.fuFreeMin(FU_MUL)),
                            res_.hbmFree());
        if (grp >= kFill0)
            return std::max(res_.fuFreeMin(grp - kFill0),
                            res_.hbmFree());
        return res_.fuFreeMin(grp);
    }

    using IndexHeap =
        std::priority_queue<int, std::vector<int>, std::greater<int>>;
    using TimedHeap =
        std::priority_queue<std::pair<double, int>,
                            std::vector<std::pair<double, int>>,
                            std::greater<std::pair<double, int>>>;

    const ResourceModel &res_;
    double floor_[kGroups];
    IndexHeap tied_[kGroups];
    TimedHeap later_[kGroups];
    uint32_t nonempty_ = 0; ///< bit `grp` set iff group `grp` has members
    static_assert(kGroups <= 32, "one `nonempty_` bit per group");
};

/**
 * The scoreboard window's dependence state. Instructions enter in
 * program order. Each keeps one time, its data-ready time until it
 * issues and its finish time after, its count of unissued producers,
 * and its decoded shape: the ready group, which fixes every shape field
 * `plan` reads, plus the extra-DRAM count `commit` reads. A producer
 * that has not issued when its consumer enters gets a wake-up entry;
 * entries live in a pool that issue recycles, so the pool is only as
 * large as the most edges pending inside the window at once.
 */
class ScoreboardWindow
{
  public:
    ScoreboardWindow(const MachineProgram &prog, ResourceModel &res,
                     ReadyGroups &groups, bool ntt_mac_reuse)
        : prog_(prog), res_(res), groups_(groups),
          ntt_mac_reuse_(ntt_mac_reuse), resolver_(prog)
    {
        insts_.reserve(prog.insts.size());
    }

    /** Instructions entered so far; the next to enter is this index. */
    size_t entered() const { return insts_.size(); }

    /** Enters the next instruction in program order and admits it to
     *  its ready group if every producer has issued. */
    void enter()
    {
        const size_t i = insts_.size();
        InstShape shape = res_.decode(prog_.insts[i]);
        InstState s;
        s.group = static_cast<uint8_t>(
            ReadyGroups::groupOf(shape, ntt_mac_reuse_));
        s.extra_dram = static_cast<uint8_t>(shape.extra_dram);
        shape.extra_dram = 0;
        group_shape_[s.group] = shape;

        DepEdge producers[MachineDepResolver::kMaxProducers];
        const int count = resolver_.resolve(i, producers);
        for (int k = 0; k < count; ++k) {
            InstState &p = insts_[static_cast<size_t>(producers[k].other)];
            const bool data = producers[k].kind == DepKind::True;
            if (p.group == kIssued) {
                if (data)
                    s.time = std::max(s.time, p.time);
                continue;
            }
            int w;
            if (free_ >= 0) {
                w = free_;
                free_ = pool_[static_cast<size_t>(w)].next;
            } else {
                w = static_cast<int>(pool_.size());
                pool_.emplace_back();
            }
            pool_[static_cast<size_t>(w)] = {static_cast<int>(i), p.wake,
                                             data};
            p.wake = w;
            ++s.pending;
        }
        insts_.push_back(s);
        if (s.pending == 0)
            groups_.admit(s.group, static_cast<int>(i), s.time);
    }

    /**
     * Issues `idx`, the ready groups' best, at `expected_start`: plans
     * and commits it, then wakes its consumers. Returns the finish time.
     */
    double issue(int idx, double expected_start)
    {
        InstState &s = insts_[static_cast<size_t>(idx)];
        groups_.take(s.group, idx);
        InstShape shape = group_shape_[s.group];
        shape.extra_dram = s.extra_dram;
        const IssuePlan plan = res_.plan(shape, s.time);
        EFFACT_ASSERT(plan.start == expected_start,
                      "ready-group floor diverged from the plan");
        const double finish = res_.commit(shape, plan);
        groups_.refresh(plan);
        s.time = finish;
        s.group = kIssued;
        for (int w = s.wake; w >= 0;) {
            Wake &e = pool_[static_cast<size_t>(w)];
            InstState &c = insts_[static_cast<size_t>(e.consumer)];
            if (e.data)
                c.time = std::max(c.time, finish);
            if (--c.pending == 0)
                groups_.admit(c.group, e.consumer, c.time);
            const int next = e.next;
            e.next = free_;
            free_ = w;
            w = next;
        }
        s.wake = -1;
        return finish;
    }

  private:
    /** `InstState::group` of an issued instruction. */
    static constexpr uint8_t kIssued = 0xff;
    static_assert(ReadyGroups::kGroups < kIssued, "group ids fit a byte");

    /** 16 bytes per instruction, the only per-instruction state. */
    struct InstState
    {
        double time = 0.0;      ///< data-ready time; finish once issued
        int wake = -1;          ///< first wake-up entry, or -1
        uint8_t pending = 0;    ///< producers that have not issued
        uint8_t group = 0;      ///< ready group, or kIssued
        uint8_t extra_dram = 0; ///< `InstShape::extra_dram`
    };

    /** "Consumer waits for this producer"; `data` if it waits for the
     *  producer's result, not just its issue. */
    struct Wake
    {
        int consumer = -1;
        int next = -1; ///< next entry of the producer's list (or free list)
        bool data = false;
    };

    const MachineProgram &prog_;
    ResourceModel &res_;
    ReadyGroups &groups_;
    const bool ntt_mac_reuse_;
    MachineDepResolver resolver_;
    std::vector<InstState> insts_;
    // The group is the FU class, MAC steering and the streaming fill,
    // and the class sets the occupancy, so `plan` and `commit` treat
    // every member of a group alike except for `extra_dram`: one shape
    // per group, with that count zeroed, stands for all of them.
    InstShape group_shape_[ReadyGroups::kGroups];
    std::vector<Wake> pool_;
    int free_ = -1; ///< recycled wake-up entries
};

} // namespace

/**
 * Event-driven issue core. The OoO scoreboard window holds `issueWindow`
 * unissued instructions and only those are issue candidates, so every
 * instruction past its far edge is unissued and the edge advances by
 * exactly one instruction per issue. Instructions therefore enter the
 * window in program order, and each resolves its producers as it enters
 * (`ScoreboardWindow`): an issued producer contributes its finish time,
 * an unissued one a wake-up entry. Ready instructions sit in
 * `ReadyGroups` priority queues keyed by earliest feasible start. Each
 * round is a peek across the non-empty group heads, one
 * `ResourceModel::plan` for the winner, and O(log window) heap
 * maintenance; dependence state is O(window) plus 16 bytes per
 * instruction. The policy is the legacy rescan loop's (earliest
 * feasible start, lowest index on ties), which survives as the
 * test-side reference simulator.
 */
SimReport
Simulator::run(const MachineProgram &prog) const
{
    const size_t n = prog.insts.size();
    ResourceModel res(cfg_, prog.residueBytes);
    if (n == 0)
        return makeReport(res, cfg_, 0, 0.0);

    ReadyGroups groups(res);
    ScoreboardWindow window(prog, res, groups, cfg_.nttMacReuse);
    const size_t width = std::max<size_t>(cfg_.issueWindow, 1);
    while (window.entered() < std::min(width, n))
        window.enter();

    double t_end = 0.0;
    for (size_t issued = 0; issued < n; ++issued) {
        double best_start = 0.0;
        const int best = groups.best(best_start);
        if (best < 0)
            panicMalformedMachine(prog, -1,
                                  "deadlock: no issuable instruction");
        t_end = std::max(t_end, window.issue(best, best_start));
        // The issue freed one window slot: the next instruction in
        // program order takes it.
        if (window.entered() < n)
            window.enter();
    }

    return makeReport(res, cfg_, n, t_end);
}

} // namespace effact
