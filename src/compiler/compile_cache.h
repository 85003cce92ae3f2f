/**
 * @file
 * Content-addressed cache for the hardware-independent half of a
 * compile (the middle end: the fixed-point optimization pipeline over
 * IR). A re-compilation sweep that varies only the hardware config —
 * e.g. the Fig. 11 preset x SRAM grid — optimizes each (workload,
 * preset) pair once; every other cell skips straight to the back end
 * (scheduling, streaming, regalloc, codegen) on a clone of the cached
 * optimized-IR snapshot.
 *
 * Keying. The key is `(fingerprint(IrProgram), preset hash)`:
 *
 * - the content half is the order-sensitive structural fingerprint from
 *   `src/ir` — independently built copies of the same workload hash
 *   equal, and any real mutation (which also bumps `version()`) changes
 *   it;
 * - the preset half covers every `CompilerOptions` field *except* the
 *   hardware-derived knobs `sramBytes` and `issueWindow`, the two
 *   fields `Platform` overwrites from its `HardwareConfig`. That split
 *   is the whole point: jobs that differ only in hardware share an
 *   entry. Presets that happen to share a pipeline spec but differ in
 *   back-end options (e.g. MAD-enhanced vs streaming, both
 *   `"copyprop,constprop,pre"`) keep separate entries on purpose — it
 *   costs one extra pipeline run per such pair, keeps hit accounting
 *   per-(workload, preset) — the unit sweep grids are defined over —
 *   and stays trivially sound if a future pass consults those options.
 *
 * Concurrency. The store is sharded and mutex-protected, and lookups
 * are single-flight: the first requester of a key runs the build while
 * later requesters of the same key block until the snapshot is
 * published, then clone it. Entries are immutable after publication, so
 * any thread count and any hit pattern produce byte-identical compiles
 * — the build count per key is exactly one, which is what makes
 * `cache.*` statistics deterministic. Per-worker `AnalysisManager`s are
 * untouched by all of this and stay lock-free.
 */
#ifndef EFFACT_COMPILER_COMPILE_CACHE_H
#define EFFACT_COMPILER_COMPILE_CACHE_H

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/stats.h"
#include "compiler/pass.h"
#include "ir/ir.h"

namespace effact {

/** Cache key: structural program content x compiler preset. */
struct CompileCacheKey
{
    uint64_t irFingerprint = 0; ///< `fingerprint(IrProgram)`
    uint64_t presetHash = 0;    ///< `middleEndPresetHash(CompilerOptions)`

    bool operator==(const CompileCacheKey &o) const
    {
        return irFingerprint == o.irFingerprint &&
               presetHash == o.presetHash;
    }
};

/**
 * FNV-1a hash of the middle-end-relevant compiler preset: the pipeline
 * spec, the fixed-point sweep bound, and the remaining non-hardware
 * options (the `scheduler` and `regalloc` policy codes, `streaming`,
 * `fifoDepth`). `sramBytes` and `issueWindow` are excluded — `Platform`
 * rewrites them from `HardwareConfig`, and splitting on them is exactly
 * what the cache exists to avoid.
 */
uint64_t middleEndPresetHash(const CompilerOptions &opts);

/** The full cache key for compiling `prog` under `opts`. */
CompileCacheKey middleEndCacheKey(const IrProgram &prog,
                                  const CompilerOptions &opts);

/**
 * Immutable result of one middle-end run: the optimized (pipelined +
 * compacted) program and the statistics the run recorded. A cache hit
 * clones `optimized` (the copy gets a fresh `uid()`, so per-worker
 * analysis caches can never confuse it with another program) and
 * replays `stats`, so a hit's compiler statistics are byte-identical to
 * the miss that built the entry, wall-clock keys included.
 */
struct MiddleEndSnapshot
{
    IrProgram optimized;
    StatSet stats;
};

/**
 * Deterministic size estimate of one published snapshot, used for the
 * byte-budget accounting below: the instruction and object payloads of
 * the optimized program plus the recorded stat entries. A function of
 * the snapshot's *content* only (string sizes, not capacities; no
 * allocator or layout terms), so two byte-identical snapshots — e.g.
 * the same key rebuilt after an eviction — always account the same
 * bytes, at any thread count.
 */
size_t snapshotBytes(const MiddleEndSnapshot &snap);

/**
 * Byte-budget default for daemon-style owners: the `EFFACT_CACHE_BYTES`
 * environment variable when set to a decimal byte count (a signed or
 * non-numeric value warns and is ignored), otherwise 0 = unbounded.
 * Batch sweeps keep the unbounded default — one snapshot per
 * (workload, preset) is small next to the jobs themselves; the budget
 * exists for long-lived services that see thousands of distinct keys.
 */
size_t defaultCacheBytes();

/**
 * The sharded, single-flight snapshot store. Opt-in and shared: one
 * instance serves a whole sweep (`SweepOptions::compileCache`), or any
 * set of concurrent `Compiler::compile` calls.
 *
 * Bounding. With a zero byte budget (the default) entries are never
 * evicted — the store lives as long as the sweep that owns it. With a
 * positive budget, published entries are tracked on a global LRU list
 * with `snapshotBytes` accounting, and publishing a new entry evicts
 * least-recently-used entries until the total fits the budget (a
 * single entry larger than the whole budget is evicted immediately
 * after publication: the store never retains more than the budget).
 * Eviction only removes the key from the index — waiters and holders
 * keep the snapshot alive through their `shared_ptr`, and an in-flight
 * build is not on the LRU list at all until it publishes, so it can
 * never be evicted out from under the requesters blocked on it. A
 * re-requested evicted key simply rebuilds (counted as a fresh miss).
 *
 * Statistics (all monotone, reset only by `clear()`):
 * - `cache.lookups`  — compiles that consulted the cache;
 * - `cache.hits`     — lookups served from an existing entry (including
 *                      ones that waited on an in-flight build); each
 *                      skips the optimization pipeline entirely;
 * - `cache.misses`   — lookups that ran the middle end (= entries
 *                      built; single-flight makes this exactly the
 *                      distinct-key count when nothing is evicted, and
 *                      counts rebuilds of evicted keys otherwise);
 * - `cache.evictions` — entries dropped by the byte budget;
 * - `cache.entries`  — entries currently stored;
 * - `cache.bytes`    — accounted bytes of the published entries;
 * - `cache.budget_bytes` — the configured budget (0 = unbounded).
 */
class CompileCache
{
  public:
    /** `byteBudget` = 0 keeps the legacy never-evict behavior. */
    explicit CompileCache(size_t byteBudget = 0) : budget_(byteBudget) {}
    CompileCache(const CompileCache &) = delete;
    CompileCache &operator=(const CompileCache &) = delete;

    size_t byteBudget() const { return budget_; }

    /** Accounted bytes of the currently published entries. */
    size_t currentBytes() const;

    /** Entries dropped by the byte budget so far. */
    uint64_t evictionCount() const { return evictions_.load(); }

    /**
     * Returns the snapshot for `key`, building it if absent. The first
     * caller for a key runs `build` (outside any shard lock, so other
     * keys proceed concurrently); concurrent callers for the same key
     * block until the snapshot is published. `hit` (optional) reports
     * whether the snapshot came from the cache (true) or from this
     * call's own `build` (false). `build` must not re-enter the cache.
     */
    std::shared_ptr<const MiddleEndSnapshot>
    getOrBuild(const CompileCacheKey &key,
               const std::function<MiddleEndSnapshot()> &build,
               bool *hit = nullptr);

    /** Point-in-time `cache.*` statistics (see class comment). */
    StatSet statsSnapshot() const;

    /** Entries currently stored (published or in flight). */
    size_t entryCount() const;

    /** Drops every entry and resets the counters. Not meant to race
     *  with in-flight compiles (a sweep clears between batches). */
    void clear();

  private:
    struct Slot;

    /** LRU node: front of the list = most recently used. Holds its own
     *  reference to the slot so an evicted-but-still-waited-on snapshot
     *  stays alive until the last holder drops it. */
    struct LruNode
    {
        CompileCacheKey key;
        std::shared_ptr<Slot> slot;
    };

    struct Slot
    {
        std::mutex mu;
        std::condition_variable readyCv;
        bool ready = false;
        MiddleEndSnapshot snap;
        /** `snapshotBytes(snap)`, fixed at publication (entries are
         *  immutable afterwards). */
        size_t bytes = 0;
        // LRU bookkeeping, guarded by `lru_mu_` (not this->mu).
        std::list<LruNode>::iterator lruIt;
        bool inLru = false;
    };

    struct KeyHash
    {
        size_t operator()(const CompileCacheKey &k) const
        {
            // The fingerprints are already well-mixed FNV hashes; one
            // multiply keeps the two halves from cancelling.
            return static_cast<size_t>(k.irFingerprint * 1099511628211ULL ^
                                       k.presetHash);
        }
    };

    struct Shard
    {
        mutable std::mutex mu;
        std::unordered_map<CompileCacheKey, std::shared_ptr<Slot>, KeyHash>
            entries;
    };

    Shard &shardFor(const CompileCacheKey &key)
    {
        return shards_[KeyHash{}(key) % kShards];
    }

    /** Publishes `slot` on the LRU list and evicts until the budget
     *  holds. Called with no locks held. */
    void accountAndEvict(const CompileCacheKey &key,
                         const std::shared_ptr<Slot> &slot);

    /** Moves a hit entry to the MRU position. No locks held on entry. */
    void touch(const std::shared_ptr<Slot> &slot);

    static constexpr size_t kShards = 16;
    std::array<Shard, kShards> shards_;
    std::atomic<uint64_t> lookups_{0};
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> evictions_{0};

    const size_t budget_; ///< 0 = unbounded
    /**
     * Global recency list + byte total, guarded by `lru_mu_`. Lock
     * ordering: `lru_mu_` may be taken alone or *before* a shard mutex
     * (the eviction path erases index entries while holding it); no
     * path takes `lru_mu_` while holding a shard mutex or a slot mutex.
     */
    mutable std::mutex lru_mu_;
    std::list<LruNode> lru_;
    size_t bytes_ = 0;
};

} // namespace effact

#endif // EFFACT_COMPILER_COMPILE_CACHE_H
