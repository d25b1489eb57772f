#include "serve/artifact_cache.hpp"

#include "sim/logging.hpp"

namespace gcod::serve {

ArtifactCache::ArtifactCache(size_t capacity, Builder builder)
    : capacity_(capacity == 0 ? 1 : capacity), builder_(std::move(builder))
{
    GCOD_ASSERT(builder_ != nullptr, "ArtifactCache needs a builder");
}

ArtifactCache::Lookup
ArtifactCache::get(const ArtifactKey &key)
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        auto it = map_.find(key);
        if (it != map_.end()) {
            // Hit: move to the MRU front.
            lru_.splice(lru_.begin(), lru_, it->second);
            ++hits_;
            const Entry &e = *it->second;
            return {e.bundle, true, e.version, e.memo};
        }
        if (building_.count(key) == 0)
            break;
        // Another worker is building this key; wait for it, then re-check
        // (the build may also have failed, in which case we retry it).
        buildDone_.wait(lock);
    }

    ++misses_;
    building_.insert(key);
    lock.unlock();

    std::shared_ptr<const ArtifactBundle> bundle;
    try {
        bundle = builder_(key);
    } catch (...) {
        lock.lock();
        building_.erase(key);
        buildDone_.notify_all();
        throw;
    }

    lock.lock();
    building_.erase(key);
    if (bundle == nullptr) {
        // Wake same-key waiters before failing, or they sleep forever.
        buildDone_.notify_all();
        GCOD_PANIC("artifact builder returned null");
    }
    buildSeconds_ += bundle->buildSeconds;
    if (auto raced = map_.find(key); raced != map_.end()) {
        // A publish() landed this key while we were building: the
        // published epoch wins — serving our stale build would travel
        // backwards in time. Our build is simply dropped.
        lru_.splice(lru_.begin(), lru_, raced->second);
        buildDone_.notify_all();
        const Entry &e = *raced->second;
        return {e.bundle, false, e.version, e.memo};
    }
    lru_.push_front(
        Entry{key, bundle, ++nextVersion_, std::make_shared<EpochMemo>()});
    map_[key] = lru_.begin();
    evictLocked();
    buildDone_.notify_all();
    return {bundle, false, lru_.front().version, lru_.front().memo};
}

uint64_t
ArtifactCache::publish(const ArtifactKey &key,
                       std::shared_ptr<const ArtifactBundle> bundle)
{
    GCOD_ASSERT(bundle != nullptr, "cannot publish a null bundle");
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t version = ++nextVersion_;
    // A fresh memo even when republishing the resident bundle: a publish
    // always starts a new epoch.
    auto memo = std::make_shared<EpochMemo>();
    auto it = map_.find(key);
    if (it != map_.end()) {
        // Swap in place: retire the old epoch (readers holding it are
        // untouched), install the new one, and bump to MRU. Republishing
        // the bundle that is already resident must not retire it —
        // the entry would sit on the retired list pinned by the
        // resident reference and "leak" until the key is evicted.
        if (it->second->bundle != bundle)
            retired_.push_back(std::move(it->second->bundle));
        it->second->bundle = std::move(bundle);
        it->second->version = version;
        it->second->memo = std::move(memo);
        lru_.splice(lru_.begin(), lru_, it->second);
    } else {
        lru_.push_front(
            Entry{key, std::move(bundle), version, std::move(memo)});
        map_[key] = lru_.begin();
        evictLocked();
    }
    return version;
}

ArtifactCache::Lookup
ArtifactCache::peekEpoch(const ArtifactKey &key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end())
        return {};
    const Entry &e = *it->second;
    return {e.bundle, true, e.version, e.memo};
}

size_t
ArtifactCache::retiredCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return retired_.size();
}

size_t
ArtifactCache::reclaimRetired()
{
    std::lock_guard<std::mutex> lock(mu_);
    size_t before = retired_.size();
    retired_.erase(std::remove_if(retired_.begin(), retired_.end(),
                                  [](const auto &b) {
                                      // Only the retired list holds it:
                                      // the grace period has elapsed.
                                      return b.use_count() == 1;
                                  }),
                   retired_.end());
    return before - retired_.size();
}

void
ArtifactCache::evictLocked()
{
    while (lru_.size() > capacity_) {
        map_.erase(lru_.back().key);
        lru_.pop_back();
        ++evictions_;
    }
}

bool
ArtifactCache::contains(const ArtifactKey &key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return map_.count(key) != 0;
}

std::shared_ptr<const ArtifactBundle>
ArtifactCache::peek(const ArtifactKey &key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : it->second->bundle;
}

size_t
ArtifactCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
}

uint64_t
ArtifactCache::hits() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
}

uint64_t
ArtifactCache::misses() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
}

uint64_t
ArtifactCache::evictions() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return evictions_;
}

double
ArtifactCache::hitRate() const
{
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = hits_ + misses_;
    return total ? double(hits_) / double(total) : 0.0;
}

double
ArtifactCache::totalBuildSeconds() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return buildSeconds_;
}

std::vector<ArtifactKey>
ArtifactCache::keysMruFirst() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<ArtifactKey> keys;
    keys.reserve(lru_.size());
    for (const auto &e : lru_)
        keys.push_back(e.key);
    return keys;
}

void
ArtifactCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    lru_.clear();
    map_.clear();
}

ArtifactCache::Builder
makeArtifactBuilder(GcodOptions opts, double scale, uint64_t seed,
                    int shards, NodeId shard_min_nodes,
                    std::vector<int> quant_bits)
{
    // Copies of the builder (the engine's cache and its publish path)
    // share one feature memo.
    return [opts, scale, seed, shards, shard_min_nodes,
            quant_bits = std::move(quant_bits),
            features = std::make_shared<HostFeatureMemo>()](
               const ArtifactKey &key) {
        return buildArtifact(key, opts, scale, seed, shards,
                             shard_min_nodes, quant_bits, features.get());
    };
}

} // namespace gcod::serve
