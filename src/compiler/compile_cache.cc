#include "compiler/compile_cache.h"

#include <vector>

#include "common/hash.h"
#include "common/logging.h"

namespace effact {

size_t
snapshotBytes(const MiddleEndSnapshot &snap)
{
    size_t bytes = sizeof(MiddleEndSnapshot);
    bytes += snap.optimized.insts.size() * sizeof(IrInst);
    bytes += snap.optimized.name.size();
    for (const MemObject &obj : snap.optimized.objects)
        bytes += sizeof(MemObject) + obj.name.size();
    for (const auto &[key, value] : snap.stats.all()) {
        (void)value;
        bytes += sizeof(double) + key.size();
    }
    return bytes;
}

uint64_t
middleEndPresetHash(const CompilerOptions &opts)
{
    WordHash h;
    h.mixString(opts.pipeline);
    // Back-end options that are part of the preset identity but not of
    // the hardware config (see the header on why they are included).
    h.mix(uint64_t(opts.scheduler));
    h.mix(opts.streaming ? 1 : 0);
    h.mix(opts.fifoDepth);
    h.mix(uint64_t(opts.regalloc));
    // Verification never changes the emitted code, but a verified
    // middle end records `verify.*` stats that an unverified one does
    // not, and a hit replays the stats of the run that built it.
    h.mix(opts.verifyLevel > 0 ? 1 : 0);
    return h.finish();
}

CompileCacheKey
middleEndCacheKey(const IrProgram &prog, const CompilerOptions &opts)
{
    return {fingerprint(prog), middleEndPresetHash(opts)};
}

std::shared_ptr<const MiddleEndSnapshot>
CompileCache::getOrBuild(const CompileCacheKey &key,
                         const std::function<MiddleEndSnapshot()> &build,
                         bool *hit)
{
    EFFACT_ASSERT(build != nullptr, "compile cache needs a builder");
    // Declared before the lock so evicted snapshots (an IrProgram free
    // is not cheap) are destroyed after it is released.
    std::vector<std::shared_ptr<Slot>> evicted;
    std::unique_lock<std::mutex> lock(mu_);
    ++lookups_;
    auto [it, builder] = index_.try_emplace(key, nullptr);
    if (builder) {
        it->second = std::make_shared<Slot>();
        it->second->key = key;
    }
    const std::shared_ptr<Slot> slot = it->second;

    if (builder) {
        // Build outside the lock: only same-key requesters wait.
        lock.unlock();
        MiddleEndSnapshot snap = build();
        const size_t entry_bytes = snapshotBytes(snap);
        lock.lock();
        slot->snap = std::move(snap);
        slot->bytes = entry_bytes;
        slot->ready = true;
        if (budget_ > 0) {
            lru_.push_front(slot);
            slot->lruIt = lru_.begin();
            slot->inLru = true;
            bytes_ += slot->bytes;
            while (bytes_ > budget_ && !lru_.empty()) {
                std::shared_ptr<Slot> victim = std::move(lru_.back());
                lru_.pop_back();
                // Only un-index the entry if it is still the current
                // one for its key (a rebuilt successor must survive).
                auto at = index_.find(victim->key);
                if (at != index_.end() && at->second == victim)
                    index_.erase(at);
                victim->inLru = false;
                bytes_ -= victim->bytes;
                ++evictions_;
                evicted.push_back(std::move(victim));
            }
        }
        // Every requester already holds the slot, so even an entry
        // evicted right here (budget smaller than the entry) is served.
        published_.notify_all();
    } else {
        ++hits_;
        published_.wait(lock, [&] { return slot->ready; });
        // A hit is a recency event, unless the entry was evicted while
        // this requester waited.
        if (slot->inLru)
            lru_.splice(lru_.begin(), lru_, slot->lruIt);
    }
    if (hit != nullptr)
        *hit = !builder;
    // Aliasing shared_ptr: the snapshot's lifetime is the slot's.
    return {slot, &slot->snap};
}

StatSet
CompileCache::statsSnapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    StatSet s;
    s.set("cache.lookups", double(lookups_));
    s.set("cache.hits", double(hits_));
    s.set("cache.misses", double(lookups_ - hits_));
    s.set("cache.entries", double(index_.size()));
    s.set("cache.evictions", double(evictions_));
    s.set("cache.bytes", double(bytes_));
    s.set("cache.budget_bytes", double(budget_));
    return s;
}

} // namespace effact
