/**
 * @file
 * Epoch-based artifact hot-swap tests: cache-level publish/retire/
 * reclaim semantics, prediction equivalence across a same-seed swap,
 * and the headline guarantee — swapping under concurrent load drops
 * zero requests and never serves a half-installed artifact.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>

#include "serve/engine.hpp"

using namespace gcod;
using namespace gcod::serve;

namespace {

ArtifactKey
key(const std::string &dataset)
{
    return ArtifactKey{dataset, "GCN", 7};
}

ArtifactCache::Builder
fakeBuilder()
{
    return [](const ArtifactKey &k) {
        auto b = std::make_shared<ArtifactBundle>();
        b->key = k;
        b->buildSeconds = 0.001;
        return b;
    };
}

ServeOptions
engineOptions()
{
    ServeOptions opts;
    opts.backends = {"GCoD"};
    opts.workers = 2;
    opts.artifactScale = 0.25;
    opts.batching.maxDelay = std::chrono::microseconds(200);
    return opts;
}

} // namespace

// ------------------------------------------------------------- cache level
TEST(HotSwapCacheTest, PublishBumpsVersionAndRetiresOldEpoch)
{
    ArtifactCache cache(4, fakeBuilder());
    ArtifactCache::Lookup first = cache.get(key("Cora"));
    EXPECT_GT(first.version, 0u);
    EXPECT_EQ(cache.peekEpoch(key("Cora")).version, first.version);

    auto fresh = std::make_shared<ArtifactBundle>();
    fresh->key = key("Cora");
    uint64_t v2 = cache.publish(key("Cora"), fresh);
    EXPECT_GT(v2, first.version);
    EXPECT_EQ(cache.peekEpoch(key("Cora")).version, v2);
    EXPECT_EQ(cache.size(), 1u);

    // New lookups see the new epoch; the old one sits retired while we
    // (the in-flight reader) still hold it.
    ArtifactCache::Lookup second = cache.get(key("Cora"));
    EXPECT_EQ(second.bundle.get(), fresh.get());
    EXPECT_EQ(second.version, v2);
    EXPECT_EQ(cache.retiredCount(), 1u);
    EXPECT_EQ(cache.reclaimRetired(), 0u) << "reader still live";

    // Drop our reference: the grace period has elapsed.
    first.bundle.reset();
    EXPECT_EQ(cache.reclaimRetired(), 1u);
    EXPECT_EQ(cache.retiredCount(), 0u);
}

TEST(HotSwapCacheTest, EveryEpochOwnsAFreshMemoThatDiesWithIt)
{
    ArtifactCache cache(1, fakeBuilder());
    ArtifactCache::Lookup built = cache.get(key("Cora"));
    ASSERT_NE(built.memo, nullptr);
    EXPECT_EQ(cache.get(key("Cora")).memo, built.memo);
    EXPECT_EQ(cache.peekEpoch(key("Cora")).memo, built.memo);

    // Republishing the resident bundle still starts a new epoch.
    std::weak_ptr<EpochMemo> first = built.memo;
    cache.publish(key("Cora"), built.bundle);
    ArtifactCache::Lookup republished = cache.get(key("Cora"));
    EXPECT_EQ(republished.bundle, built.bundle);
    EXPECT_NE(republished.memo, built.memo);
    built = {};
    EXPECT_TRUE(first.expired());

    // Eviction and clear() drop the memo with the entry.
    std::weak_ptr<EpochMemo> second = republished.memo;
    republished = {};
    cache.get(key("CiteSeer"));
    EXPECT_TRUE(second.expired());
    std::weak_ptr<EpochMemo> third = cache.peekEpoch(key("CiteSeer")).memo;
    cache.clear();
    EXPECT_TRUE(third.expired());
    EXPECT_EQ(cache.peekEpoch(key("CiteSeer")).bundle, nullptr);
}

TEST(HotSwapCacheTest, PublishOnAbsentKeyInserts)
{
    ArtifactCache cache(4, fakeBuilder());
    auto b = std::make_shared<ArtifactBundle>();
    b->key = key("CiteSeer");
    uint64_t v = cache.publish(key("CiteSeer"), b);
    EXPECT_GT(v, 0u);
    EXPECT_TRUE(cache.contains(key("CiteSeer")));
    EXPECT_TRUE(cache.get(key("CiteSeer")).hit);
    EXPECT_EQ(cache.retiredCount(), 0u);
}

TEST(HotSwapCacheTest, VersionsAreMonotonicAcrossKeys)
{
    ArtifactCache cache(4, fakeBuilder());
    uint64_t a = cache.get(key("Cora")).version;
    uint64_t b = cache.get(key("CiteSeer")).version;
    auto nb = std::make_shared<ArtifactBundle>();
    nb->key = key("Cora");
    uint64_t c = cache.publish(key("Cora"), nb);
    EXPECT_LT(a, b);
    EXPECT_LT(b, c);
}

// ------------------------------------------------------------ engine level
TEST(HotSwapEngineTest, SameSeedPublishKeepsPredictionsIdentical)
{
    ServingEngine engine(engineOptions());
    ArtifactKey k = engine.keyFor("Cora", "GCN");

    auto predict = [&](int node) {
        InferenceReply r =
            engine.submit({0, "Cora", "GCN", NodeId(node)}).get();
        EXPECT_TRUE(r.ok()) << r.error;
        return r.prediction;
    };

    std::vector<int> before;
    for (int n = 0; n < 6; ++n)
        before.push_back(predict(n));
    uint64_t v1 = engine.cache().peekEpoch(k).version;
    ASSERT_GT(v1, 0u);

    // Same options + seed => the rebuilt artifact is semantically
    // identical; the swap must be invisible to clients.
    uint64_t v2 = engine.publishArtifact(k);
    EXPECT_GT(v2, v1);
    EXPECT_EQ(engine.cache().peekEpoch(k).version, v2);
    for (int n = 0; n < 6; ++n)
        EXPECT_EQ(predict(n), before[size_t(n)]) << "node " << n;

    // The replaced epoch drains once no batch references it.
    engine.drain();
    EXPECT_EQ(engine.cache().retiredCount(), 1u);
    EXPECT_EQ(engine.reclaimRetiredArtifacts(), 1u);
    EXPECT_EQ(engine.cache().retiredCount(), 0u);
}

TEST(HotSwapEngineTest, SwapUnderLoadDropsNothing)
{
    ServeOptions opts = engineOptions();
    opts.workers = 4;
    opts.batching.policy = BatchPolicy::Adaptive;
    opts.batching.maxBatch = 8;
    ServingEngine engine(opts);
    ArtifactKey k = engine.keyFor("Cora", "GCN");

    // Warm the artifact so the swap races serving, not the cold build.
    ASSERT_TRUE(engine.submit({0, "Cora", "GCN", 0}).get().ok());

    constexpr int kSubmitters = 3;
    constexpr int kPerThread = 60;
    constexpr int kNodes = 16;
    std::atomic<bool> swapping{true};
    std::mutex futuresMu;
    std::vector<std::future<InferenceReply>> futures;
    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t)
        submitters.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                InferenceRequest req;
                req.dataset = "Cora";
                req.node = NodeId((t * kPerThread + i) % kNodes);
                auto fut = engine.submit(std::move(req));
                std::lock_guard<std::mutex> lock(futuresMu);
                futures.push_back(std::move(fut));
            }
        });

    // Publish repeatedly while the submitters hammer the queue.
    std::thread swapper([&] {
        int swaps = 0;
        while (swapping.load() && swaps < 4) {
            engine.publishArtifact(k);
            ++swaps;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    });

    for (auto &t : submitters)
        t.join();
    engine.drain();
    swapping.store(false);
    swapper.join();
    engine.drain();

    // Zero dropped, zero shed, zero misrouted: every future resolves
    // ok, and every node's prediction is consistent across epochs
    // (same-seed rebuilds are semantically identical).
    std::map<NodeId, int> agreed;
    size_t completed = 0;
    for (auto &f : futures) {
        InferenceReply r = f.get();
        ASSERT_TRUE(r.ok()) << r.error;
        EXPECT_FALSE(r.shed);
        ++completed;
    }
    EXPECT_EQ(completed, size_t(kSubmitters * kPerThread));
    EXPECT_EQ(engine.stats().shed(), 0u);
    EXPECT_GE(engine.stats().completed(),
              uint64_t(kSubmitters * kPerThread));

    // Node-level consistency probed after the dust settles.
    for (int n = 0; n < kNodes; ++n) {
        InferenceReply r =
            engine.submit({0, "Cora", "GCN", NodeId(n)}).get();
        ASSERT_TRUE(r.ok());
        agreed[NodeId(n)] = r.prediction;
    }
    for (int n = 0; n < kNodes; ++n) {
        InferenceReply r =
            engine.submit({0, "Cora", "GCN", NodeId(n)}).get();
        EXPECT_EQ(r.prediction, agreed[NodeId(n)]);
    }

    // All retired epochs drain now that nothing is in flight.
    engine.reclaimRetiredArtifacts();
    EXPECT_EQ(engine.cache().retiredCount(), 0u);
}
