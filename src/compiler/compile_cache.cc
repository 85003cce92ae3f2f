#include "compiler/compile_cache.h"

#include <vector>

#include "common/env.h"
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

size_t
defaultCacheBytes()
{
    return envSize("EFFACT_CACHE_BYTES", 0, /*min=*/0);
}

uint64_t
middleEndPresetHash(const CompilerOptions &opts)
{
    uint64_t h = 14695981039346656037ULL; // FNV-1a offset basis
    auto mixByte = [&h](unsigned char byte) {
        h ^= byte;
        h *= 1099511628211ULL;
    };
    auto mix = [&mixByte](uint64_t v) {
        for (int byte = 0; byte < 8; ++byte)
            mixByte((v >> (byte * 8)) & 0xff);
    };
    mix(opts.pipeline.size());
    for (char c : opts.pipeline)
        mixByte(static_cast<unsigned char>(c));
    mix(opts.pipelineMaxIterations);
    // Back-end options that are part of the preset identity but not of
    // the hardware config (see the header on why they are included).
    // `verifyLevel` is deliberately absent: checkpoint verification
    // never changes the emitted code, so verified and unverified
    // compiles of the same preset share one cache entry.
    mix(uint64_t(opts.scheduler));
    mix(opts.streaming ? 1 : 0);
    mix(opts.fifoDepth);
    mix(uint64_t(opts.regalloc));
    return h;
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
    Shard &shard = shardFor(key);
    std::shared_ptr<Slot> slot;
    bool builder = false;
    {
        std::lock_guard<std::mutex> lock(shard.mu);
        auto [it, inserted] = shard.entries.try_emplace(key, nullptr);
        if (inserted) {
            it->second = std::make_shared<Slot>();
            builder = true;
        }
        slot = it->second;
    }
    ++lookups_;

    if (builder) {
        // Build outside the shard lock: only same-key requesters wait.
        MiddleEndSnapshot snap = build();
        const size_t entry_bytes = snapshotBytes(snap);
        {
            std::lock_guard<std::mutex> lock(slot->mu);
            slot->snap = std::move(snap);
            slot->bytes = entry_bytes;
            slot->ready = true;
        }
        slot->readyCv.notify_all();
        // Waiters are unblocked before accounting: even if this entry
        // is evicted right here (budget smaller than the entry), every
        // requester already holds the slot and clones a valid snapshot.
        if (budget_ > 0)
            accountAndEvict(key, slot);
    } else {
        ++hits_;
        {
            std::unique_lock<std::mutex> lock(slot->mu);
            slot->readyCv.wait(lock, [&] { return slot->ready; });
        }
        if (budget_ > 0)
            touch(slot);
    }
    if (hit != nullptr)
        *hit = !builder;
    // Aliasing shared_ptr: the snapshot's lifetime is the slot's.
    return {slot, &slot->snap};
}

void
CompileCache::accountAndEvict(const CompileCacheKey &key,
                              const std::shared_ptr<Slot> &slot)
{
    // Destroy evicted snapshots outside `lru_mu_` (an IrProgram free is
    // not cheap enough to hold a hot lock over).
    std::vector<std::shared_ptr<Slot>> evicted;
    {
        std::lock_guard<std::mutex> lock(lru_mu_);
        lru_.push_front(LruNode{key, slot});
        slot->lruIt = lru_.begin();
        slot->inLru = true;
        bytes_ += slot->bytes;
        while (bytes_ > budget_ && !lru_.empty()) {
            LruNode &victim = lru_.back();
            {
                // lru_mu_ -> shard.mu is the one permitted nesting.
                Shard &shard = shardFor(victim.key);
                std::lock_guard<std::mutex> shard_lock(shard.mu);
                auto it = shard.entries.find(victim.key);
                // Only un-index the entry if it is still the current
                // one for its key (a rebuilt successor must survive).
                if (it != shard.entries.end() && it->second == victim.slot)
                    shard.entries.erase(it);
            }
            victim.slot->inLru = false;
            bytes_ -= victim.slot->bytes;
            ++evictions_;
            evicted.push_back(std::move(victim.slot));
            lru_.pop_back();
        }
    }
}

void
CompileCache::touch(const std::shared_ptr<Slot> &slot)
{
    std::lock_guard<std::mutex> lock(lru_mu_);
    // Not on the list when evicted concurrently, or when this hit beat
    // the publisher's own accounting; either way there is nothing to
    // reorder (the publisher inserts at MRU anyway).
    if (slot->inLru)
        lru_.splice(lru_.begin(), lru_, slot->lruIt);
}

StatSet
CompileCache::statsSnapshot() const
{
    const double lookups = double(lookups_.load());
    const double hit_count = double(hits_.load());
    StatSet s;
    s.set("cache.lookups", lookups);
    s.set("cache.hits", hit_count);
    s.set("cache.misses", lookups - hit_count);
    s.set("cache.entries", double(entryCount()));
    s.set("cache.evictions", double(evictions_.load()));
    s.set("cache.bytes", double(currentBytes()));
    s.set("cache.budget_bytes", double(budget_));
    return s;
}

size_t
CompileCache::currentBytes() const
{
    std::lock_guard<std::mutex> lock(lru_mu_);
    return bytes_;
}

size_t
CompileCache::entryCount() const
{
    size_t n = 0;
    for (const Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mu);
        n += shard.entries.size();
    }
    return n;
}

void
CompileCache::clear()
{
    {
        std::lock_guard<std::mutex> lock(lru_mu_);
        for (LruNode &node : lru_)
            node.slot->inLru = false;
        lru_.clear();
        bytes_ = 0;
    }
    for (Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mu);
        shard.entries.clear();
    }
    lookups_ = 0;
    hits_ = 0;
    evictions_ = 0;
}

} // namespace effact
