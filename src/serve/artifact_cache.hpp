/**
 * @file
 * LRU cache of precompiled serving artifacts, with epoch-based
 * (RCU-style) hot swap.
 *
 * Keyed by (dataset, model, GcodOptions hash); a hit returns the shared
 * bundle immediately, a miss runs the builder (graph synthesis + the
 * structure-only GCoD pipeline) exactly once even when several workers
 * race on the same key. Eviction is strict LRU over whole bundles;
 * in-flight batches keep their evicted bundle alive through the shared_ptr
 * until they complete.
 *
 * Hot swap: every resident bundle carries a monotonically increasing
 * version (its epoch). publish() atomically installs a new bundle for a
 * key under the cache lock — readers that already hold the old
 * shared_ptr finish their batches on the old epoch undisturbed, new
 * lookups see the new epoch immediately, and nothing blocks. Replaced
 * bundles park on a retired list; reclaimRetired() frees the ones whose
 * last outside reader has drained (use_count back to one), which is the
 * RCU grace period made explicit and testable.
 *
 * Each epoch owns an EpochMemo of the results derived from it. Every
 * epoch the cache installs (a build's insert, every publish()) starts
 * with an empty memo, and eviction, a swap or clear() drops it with the
 * entry: a result computed for one epoch is never served for another,
 * and nothing but in-flight readers keeps it past its epoch.
 */
#ifndef GCOD_SERVE_ARTIFACT_CACHE_HPP
#define GCOD_SERVE_ARTIFACT_CACHE_HPP

#include <condition_variable>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/artifact.hpp"

namespace gcod {
struct SampledQuantMemo;
}

namespace gcod::serve {

/**
 * Request-independent results of one artifact epoch, paid once and
 * reused by every batch on that epoch. Values are computed outside
 * @ref mu; racing workers compute identical values and the first insert
 * wins, so a value, once set, never changes.
 */
struct EpochMemo
{
    /**
     * Most (bits, fanout) sampled memos kept at once. Fanouts are
     * client-chosen, so a full table starts over instead of growing.
     */
    static constexpr size_t kMaxSampledMemos = 8;

    std::mutex mu;
    /** Host-execution logits by executed bits. */
    std::map<int, std::shared_ptr<const Matrix>> logits;
    /**
     * Seed-invariant rows of sub-32-bit sampled passes by (bits,
     * fanout). Each points into the epoch bundle's quantized pack: read
     * it only while holding that bundle (a Lookup holds both).
     */
    std::map<std::pair<int, int>, std::shared_ptr<const SampledQuantMemo>>
        sampled;
    /** Simulated seconds of one pass over the shard fleet; < 0 = unset. */
    double fleetSeconds = -1.0;
    /** BackendRouter::estimateAll of the bundle; empty = unset. */
    std::vector<double> routeEstimates;
};

class ArtifactCache
{
  public:
    using Builder = std::function<std::shared_ptr<const ArtifactBundle>(
        const ArtifactKey &)>;

    /** Result of one lookup. */
    struct Lookup
    {
        std::shared_ptr<const ArtifactBundle> bundle;
        bool hit = false;
        /** Epoch of the returned bundle (> 0): bumped by every publish(). */
        uint64_t version = 0;
        /** That epoch's memo. */
        std::shared_ptr<EpochMemo> memo;
    };

    /**
     * @param capacity max resident bundles (>= 1)
     * @param builder  invoked on a miss, outside the cache lock
     */
    ArtifactCache(size_t capacity, Builder builder);

    /** Fetch-or-build. Throws whatever the builder throws on a miss. */
    Lookup get(const ArtifactKey &key);

    /**
     * Atomically install @p bundle as the new epoch of @p key (hot
     * swap). The previous resident bundle, if any, is retired: readers
     * holding it finish undisturbed; reclaimRetired() frees it once the
     * last one drains. Returns the new version. Publishing never blocks
     * on in-flight work and never drops requests — a concurrent get()
     * sees either the old or the new epoch, both fully valid.
     */
    uint64_t publish(const ArtifactKey &key,
                     std::shared_ptr<const ArtifactBundle> bundle);

    /**
     * Resident epoch of @p key (bundle, version, memo) without building
     * or touching recency; a null bundle and version 0 when not resident.
     */
    Lookup peekEpoch(const ArtifactKey &key) const;

    /** Retired bundles still waiting for their readers to drain. */
    size_t retiredCount() const;

    /**
     * Free retired bundles whose reader count has drained (the explicit
     * RCU grace period). Returns how many were reclaimed.
     */
    size_t reclaimRetired();

    /** Residency check without building or touching recency. */
    bool contains(const ArtifactKey &key) const;

    /** Resident bundle without building or touching recency; null on miss. */
    std::shared_ptr<const ArtifactBundle> peek(const ArtifactKey &key) const;

    size_t size() const;
    size_t capacity() const { return capacity_; }

    uint64_t hits() const;
    uint64_t misses() const;
    uint64_t evictions() const;
    double hitRate() const;
    /** Total wall-clock seconds spent building bundles (miss cost). */
    double totalBuildSeconds() const;

    /** Resident keys, most recently used first (tests eviction order). */
    std::vector<ArtifactKey> keysMruFirst() const;

    /** Drop every resident bundle (not counted as evictions). */
    void clear();

  private:
    struct Entry
    {
        ArtifactKey key;
        std::shared_ptr<const ArtifactBundle> bundle;
        uint64_t version = 0;
        std::shared_ptr<EpochMemo> memo;
    };

    void evictLocked();

    size_t capacity_;
    Builder builder_;

    mutable std::mutex mu_;
    std::condition_variable buildDone_;
    /** Keys currently being built (misses in progress). */
    std::set<ArtifactKey> building_;
    /** MRU-first recency list. */
    std::list<Entry> lru_;
    std::unordered_map<ArtifactKey, std::list<Entry>::iterator,
                       ArtifactKeyHash>
        map_;

    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
    double buildSeconds_ = 0.0;

    /** Monotonic epoch source shared by inserts and publishes. */
    uint64_t nextVersion_ = 0;
    /** Replaced bundles waiting for their last reader to drain. */
    std::vector<std::shared_ptr<const ArtifactBundle>> retired_;
};

/**
 * Builder running the real artifact pipeline with the given options.
 * @p shards > 1 attaches the sharded execution state to large-dataset
 * bundles; @p quant_bits pre-quantizes host execution packs for those
 * backend precisions (see buildArtifact). The builder and its copies
 * share one HostFeatureMemo: every family's bundle of a dataset holds
 * the same host feature buffer while any of them is alive.
 */
ArtifactCache::Builder
makeArtifactBuilder(GcodOptions opts, double scale = 0.0,
                    uint64_t seed = 42, int shards = 0,
                    NodeId shard_min_nodes = kLargeGraphNodes,
                    std::vector<int> quant_bits = {});

} // namespace gcod::serve

#endif // GCOD_SERVE_ARTIFACT_CACHE_HPP
