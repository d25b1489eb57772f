/**
 * @file
 * Unit tests for the serving subsystem: artifact hashing, LRU cache
 * eviction/capacity/single-flight, batch-queue policies and deadline
 * flushing, deterministic routing, and a multi-threaded engine smoke
 * test.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <set>
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

/** Cheap builder: real bundles are not needed for cache-policy tests. */
ArtifactCache::Builder
fakeBuilder(std::atomic<int> *builds = nullptr)
{
    return [builds](const ArtifactKey &k) {
        if (builds)
            builds->fetch_add(1);
        auto b = std::make_shared<ArtifactBundle>();
        b->key = k;
        b->buildSeconds = 0.001;
        return b;
    };
}

PendingRequest
pending(const std::string &dataset, uint64_t id)
{
    PendingRequest p;
    p.req.id = id;
    p.req.dataset = dataset;
    p.key = key(dataset);
    p.enqueued = Clock::now();
    return p;
}

void
push(BatchQueue &q, PendingRequest r)
{
    EXPECT_TRUE(q.push(r));
}

} // namespace

// ------------------------------------------------------------ options hash
TEST(ArtifactKeyTest, OptionsHashSeparatesConfigurations)
{
    GcodOptions a, b;
    EXPECT_EQ(hashGcodOptions(a), hashGcodOptions(b));
    b.polarize.pruneRatio = 0.2;
    EXPECT_NE(hashGcodOptions(a), hashGcodOptions(b));
    GcodOptions c;
    c.reorder.numClasses = 4;
    EXPECT_NE(hashGcodOptions(a), hashGcodOptions(c));
    GcodOptions d;
    d.model = "GAT";
    EXPECT_NE(hashGcodOptions(a), hashGcodOptions(d));
}

// -------------------------------------------------------------------- cache
TEST(ArtifactCacheTest, CapacityIsEnforced)
{
    ArtifactCache cache(2, fakeBuilder());
    cache.get(key("Cora"));
    cache.get(key("CiteSeer"));
    cache.get(key("Pubmed"));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_FALSE(cache.contains(key("Cora")));
    EXPECT_TRUE(cache.contains(key("CiteSeer")));
    EXPECT_TRUE(cache.contains(key("Pubmed")));
}

TEST(ArtifactCacheTest, EvictsLeastRecentlyUsed)
{
    ArtifactCache cache(2, fakeBuilder());
    cache.get(key("Cora"));
    cache.get(key("CiteSeer"));
    // Touch Cora so CiteSeer becomes the LRU victim.
    EXPECT_TRUE(cache.get(key("Cora")).hit);
    cache.get(key("Pubmed"));
    EXPECT_TRUE(cache.contains(key("Cora")));
    EXPECT_FALSE(cache.contains(key("CiteSeer")));

    auto keys = cache.keysMruFirst();
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[0].dataset, "Pubmed");
    EXPECT_EQ(keys[1].dataset, "Cora");
}

TEST(ArtifactCacheTest, CountsHitsAndMisses)
{
    ArtifactCache cache(4, fakeBuilder());
    EXPECT_FALSE(cache.get(key("Cora")).hit);
    EXPECT_TRUE(cache.get(key("Cora")).hit);
    EXPECT_TRUE(cache.get(key("Cora")).hit);
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_DOUBLE_EQ(cache.hitRate(), 2.0 / 3.0);
    EXPECT_GT(cache.totalBuildSeconds(), 0.0);
}

TEST(ArtifactCacheTest, DifferentOptionsHashesAreDistinctEntries)
{
    ArtifactCache cache(4, fakeBuilder());
    cache.get(ArtifactKey{"Cora", "GCN", 1});
    EXPECT_FALSE(cache.get(ArtifactKey{"Cora", "GCN", 2}).hit);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(ArtifactCacheTest, ConcurrentMissesBuildOnce)
{
    std::atomic<int> builds{0};
    ArtifactCache cache(4, fakeBuilder(&builds));
    std::vector<std::thread> threads;
    for (int i = 0; i < 8; ++i)
        threads.emplace_back([&] { cache.get(key("Cora")); });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(cache.misses() + cache.hits(), 8u);
}

// -------------------------------------------------------------- batch queue
TEST(BatchQueueTest, FullBatchFlushesImmediately)
{
    BatchOptions opts;
    opts.policy = BatchPolicy::Timeout;
    opts.maxBatch = 4;
    opts.maxDelay = std::chrono::microseconds(60'000'000); // never fires
    BatchQueue q(opts);
    for (uint64_t i = 0; i < 4; ++i)
        push(q, pending("Cora", i + 1));
    auto batch = q.pop();
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->size(), 4u);
    EXPECT_EQ(q.depth(), 0u);
}

TEST(BatchQueueTest, DeadlineFlushesPartialBatch)
{
    BatchOptions opts;
    opts.policy = BatchPolicy::Timeout;
    opts.maxBatch = 64;
    opts.maxDelay = std::chrono::microseconds(2000);
    BatchQueue q(opts);
    push(q, pending("Cora", 1));
    push(q, pending("Cora", 2));
    auto t0 = Clock::now();
    auto batch = q.pop(); // must return via the deadline, not batch size
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->size(), 2u);
    EXPECT_GE(Clock::now() - t0, std::chrono::microseconds(500));
}

TEST(BatchQueueTest, FixedSizeHoldsPartialUntilFlush)
{
    BatchOptions opts;
    opts.policy = BatchPolicy::FixedSize;
    opts.maxBatch = 8;
    BatchQueue q(opts);
    push(q, pending("Cora", 1));
    push(q, pending("Cora", 2));
    EXPECT_EQ(q.depth(), 2u);
    q.flush();
    auto batch = q.pop();
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->size(), 2u);
}

TEST(BatchQueueTest, FlushIsScopedToPreFlushBacklog)
{
    // Regression: a queue-wide flushing flag used to stay set until the
    // whole queue drained, so requests pushed after flush() were
    // dispatched immediately as tiny batches until the pre-flush
    // backlog cleared, defeating batching under sustained traffic.
    BatchOptions opts;
    opts.policy = BatchPolicy::FixedSize;
    opts.maxBatch = 4;
    BatchQueue q(opts);
    push(q, pending("Cora", 1));
    push(q, pending("Cora", 2));
    q.flush();
    for (uint64_t i = 3; i <= 7; ++i)
        push(q, pending("Cora", i));

    // The flush batch releases the pre-flush pair (riders may fill the
    // spare capacity), leaving post-flush leftovers queued.
    ASSERT_EQ(q.pop()->size(), 4u);
    EXPECT_EQ(q.depth(), 3u);

    // Those leftovers must wait for a full batch, not dispatch early.
    std::atomic<int> second_size{-1};
    std::thread popper([&] {
        auto b = q.pop();
        second_size = b ? int(b->size()) : 0;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(second_size.load(), -1)
        << "post-flush requests dispatched below the policy target";
    push(q, pending("Cora", 8));
    popper.join();
    EXPECT_EQ(second_size.load(), 4);
}

TEST(BatchQueueTest, BatchesAreHomogeneousPerArtifact)
{
    BatchOptions opts;
    opts.policy = BatchPolicy::FixedSize;
    opts.maxBatch = 3;
    BatchQueue q(opts);
    for (uint64_t i = 0; i < 3; ++i) {
        push(q, pending("Cora", 10 + i));
        push(q, pending("CiteSeer", 20 + i));
    }
    for (int b = 0; b < 2; ++b) {
        auto batch = q.pop();
        ASSERT_TRUE(batch.has_value());
        EXPECT_EQ(batch->size(), 3u);
        for (const auto &r : batch->requests)
            EXPECT_EQ(r.req.dataset, batch->key.dataset);
    }
}

TEST(BatchQueueTest, OversizedGroupSplitsAtMaxBatch)
{
    BatchOptions opts;
    opts.policy = BatchPolicy::FixedSize;
    opts.maxBatch = 4;
    BatchQueue q(opts);
    for (uint64_t i = 0; i < 10; ++i)
        push(q, pending("Cora", i + 1));
    EXPECT_EQ(q.pop()->size(), 4u);
    EXPECT_EQ(q.pop()->size(), 4u);
    q.flush();
    EXPECT_EQ(q.pop()->size(), 2u);
}

TEST(BatchQueueTest, CloseDrainsLeftoversThenEnds)
{
    BatchQueue q{BatchOptions{}};
    push(q, pending("Cora", 1));
    q.close();
    auto batch = q.pop();
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->size(), 1u);
    EXPECT_FALSE(q.pop().has_value());
}

TEST(BatchQueueTest, CloseDuringDeadlineWaitDrainsTheWholeBacklog)
{
    // Workers park in pop()'s timed wait (the deadline is a minute out);
    // close() must wake them and hand over the entire backlog — partial,
    // unexpired groups included — before pop() returns nullopt.
    BatchOptions opts;
    opts.policy = BatchPolicy::Timeout;
    opts.maxBatch = 8;
    opts.maxDelay = std::chrono::microseconds(60'000'000); // never fires
    BatchQueue q(opts);

    std::atomic<size_t> drained{0};
    std::vector<std::thread> workers;
    for (int w = 0; w < 3; ++w)
        workers.emplace_back([&] {
            while (auto b = q.pop())
                drained.fetch_add(b->size());
        });

    constexpr size_t kTotal = 50;
    for (uint64_t i = 0; i < kTotal; ++i)
        push(q, pending(i % 2 ? "Cora" : "CiteSeer", i + 1));
    // Give the workers a moment to park in the deadline wait, then pull
    // the plug mid-wait.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    q.close();
    for (auto &w : workers)
        w.join();

    EXPECT_EQ(drained.load(), kTotal)
        << "shutdown dropped queued requests";
    EXPECT_EQ(q.depth(), 0u);
}

TEST(BatchQueueTest, PushAfterCloseIsRejected)
{
    BatchQueue q{BatchOptions{}};
    q.close();
    PendingRequest p = pending("Cora", 1);
    EXPECT_FALSE(q.push(p));
}

TEST(BatchQueueTest, AdaptiveTargetTracksBacklog)
{
    BatchOptions opts;
    opts.policy = BatchPolicy::Adaptive;
    opts.maxBatch = 16;
    opts.adaptiveMin = 2;
    opts.maxDelay = std::chrono::microseconds(60'000'000);
    BatchQueue q(opts);
    // Backlog of 12 -> target clamp(12/2) = 6: pop must not wait for 16.
    for (uint64_t i = 0; i < 12; ++i)
        push(q, pending("Cora", i + 1));
    auto batch = q.pop();
    ASSERT_TRUE(batch.has_value());
    EXPECT_GE(batch->size(), 6u);
    EXPECT_LE(batch->size(), 16u);
}

// ------------------------------------------------------------------ stats
TEST(ServerStatsTest, PercentileIsNearestRank)
{
    std::vector<double> samples;
    for (int i = 1; i <= 100; ++i)
        samples.push_back(double(i));
    EXPECT_DOUBLE_EQ(percentile(samples, 50.0), 50.0);
    EXPECT_DOUBLE_EQ(percentile(samples, 99.0), 99.0);
    EXPECT_DOUBLE_EQ(percentile(samples, 100.0), 100.0);
    EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
}

// ----------------------------------------------------------------- routing
TEST(BackendRouterTest, DeterministicChoiceAndPositiveEstimates)
{
    GcodOptions opts;
    auto bundle = buildArtifact(ArtifactKey{"Cora", "GCN",
                                            hashGcodOptions(opts)},
                                opts, 0.25, 11);
    BackendRouter router({"GCoD", "HyGCN", "AWB-GCN"});
    const std::vector<double> est = router.estimateAll(*bundle);
    RouteDecision first = router.choose(est);
    for (int i = 0; i < 5; ++i) {
        RouteDecision again = router.choose(est);
        EXPECT_EQ(again.backend, first.backend);
        EXPECT_EQ(again.name, first.name);
    }
    for (int i = 0; i < int(router.numBackends()); ++i) {
        EXPECT_GT(router.estimateSeconds(i, *bundle), 0.0);
        EXPECT_EQ(est[size_t(i)], router.estimateSeconds(i, *bundle));
    }
}

TEST(BackendRouterTest, QueueDepthPenaltyShedsLoad)
{
    GcodOptions opts;
    auto bundle = buildArtifact(ArtifactKey{"Cora", "GCN",
                                            hashGcodOptions(opts)},
                                opts, 0.25, 11);
    BackendRouter router({"GCoD", "HyGCN", "AWB-GCN"});
    const std::vector<double> est = router.estimateAll(*bundle);
    int favorite = router.choose(est).backend;
    // Pile enough depth onto the favorite and it must yield.
    for (int i = 0; i < 1000; ++i)
        router.beginDispatch(favorite, 0.0);
    EXPECT_NE(router.choose(est).backend, favorite);
    for (int i = 0; i < 1000; ++i)
        router.endDispatch(favorite);
}

TEST(BackendRouterTest, LeastWorkRoutingSpreadsSteadyTraffic)
{
    GcodOptions opts;
    auto bundle = buildArtifact(ArtifactKey{"Cora", "GCN",
                                            hashGcodOptions(opts)},
                                opts, 0.25, 11);
    BackendRouter router({"GCoD", "HyGCN", "AWB-GCN"});
    const std::vector<double> est = router.estimateAll(*bundle);
    std::set<int> used;
    for (int i = 0; i < 200; ++i) {
        RouteDecision d = router.choose(est);
        router.beginDispatch(d.backend, d.estimatedSeconds);
        router.endDispatch(d.backend);
        used.insert(d.backend);
    }
    // Virtual-work accounting must saturate the fastest backend and
    // spill steady traffic onto the others.
    EXPECT_GE(used.size(), 2u);
    for (int i : used)
        EXPECT_GT(router.assignedWorkSeconds(i), 0.0);
}

TEST(ServingEngineTest, RoutingIsDeterministicUnderFixedSeed)
{
    // FixedSize batching with phase-by-phase drains pins the batch
    // sequence, so the routed backend per request must reproduce exactly.
    auto run = [] {
        ServeOptions opts;
        opts.backends = {"GCoD", "HyGCN", "AWB-GCN"};
        opts.workers = 1;
        opts.artifactScale = 0.25;
        opts.artifactSeed = 11;
        opts.batching.policy = BatchPolicy::FixedSize;
        opts.batching.maxBatch = 3;
        ServingEngine engine(opts);
        std::vector<std::string> backends;
        const char *phases[] = {"Cora", "CiteSeer", "Cora", "Cora",
                                "CiteSeer", "Cora"};
        for (const char *dataset : phases) {
            std::vector<std::future<InferenceReply>> futures;
            for (int i = 0; i < 3; ++i)
                futures.push_back(engine.submit({0, dataset, "GCN", 0}));
            engine.drain();
            for (auto &f : futures) {
                InferenceReply r = f.get();
                EXPECT_TRUE(r.ok()) << r.error;
                EXPECT_EQ(r.batchSize, 3u);
                backends.push_back(r.backend);
            }
        }
        return backends;
    };
    EXPECT_EQ(run(), run());
}

// ------------------------------------------------------------------ engine
TEST(ServingEngineTest, UnknownDatasetFailsTheRequestNotTheEngine)
{
    ServeOptions opts;
    opts.backends = {"GCoD", "HyGCN"};
    opts.workers = 1;
    opts.artifactScale = 0.25;
    opts.batching.maxDelay = std::chrono::microseconds(200);
    ServingEngine engine(opts);
    auto bad = engine.submit({0, "NoSuchDataset", "GCN", 0});
    auto good = engine.submit({0, "Cora", "GCN", 0});
    engine.drain();
    EXPECT_FALSE(bad.get().ok());
    EXPECT_TRUE(good.get().ok());
    EXPECT_EQ(engine.stats().failed(), 1u);
}

TEST(ServingEngineTest, SampledServingIsDeterministicPerSeed)
{
    ServeOptions opts;
    opts.backends = {"GCoD"};
    opts.workers = 1;
    opts.artifactScale = 0.25;
    opts.batching.maxDelay = std::chrono::microseconds(200);
    ServingEngine engine(opts);

    auto sampled = [&](const char *model, int fanout, uint64_t seed) {
        InferenceRequest req;
        req.dataset = "Cora";
        req.model = model;
        req.node = 5;
        req.sampleFanout = fanout;
        req.sampleSeed = seed;
        auto fut = engine.submit(std::move(req));
        engine.drain();
        return fut.get();
    };

    // Same request + same seed: byte-identical reply, across repeats and
    // for both Mean-aggregation families.
    for (const char *model : {"GraphSAGE", "GCN"}) {
        InferenceReply a = sampled(model, 3, 17);
        InferenceReply b = sampled(model, 3, 17);
        ASSERT_TRUE(a.ok()) << model << ": " << a.error;
        ASSERT_TRUE(b.ok()) << model << ": " << b.error;
        EXPECT_EQ(a.prediction, b.prediction) << model;
        EXPECT_EQ(a.backend, b.backend) << model;
    }

    // A different seed is a different (still valid) sample.
    InferenceReply other = sampled("GraphSAGE", 3, 99);
    EXPECT_TRUE(other.ok()) << other.error;

    // Non-Mean families cannot serve sampled neighborhoods; the request
    // fails with an error naming the family, the engine stays up.
    InferenceReply gat = sampled("GAT", 3, 17);
    EXPECT_FALSE(gat.ok());
    EXPECT_NE(gat.error.find("GAT"), std::string::npos) << gat.error;
    EXPECT_TRUE(sampled("GraphSAGE", 3, 17).ok());
}

TEST(ServingEngineTest, SubmitAfterShutdownResolvesWithError)
{
    ServeOptions opts;
    opts.backends = {"GCoD"};
    opts.workers = 1;
    opts.artifactScale = 0.25;
    ServingEngine engine(opts);
    engine.shutdown();
    InferenceReply r = engine.submit({0, "Cora", "GCN", 0}).get();
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(engine.pending(), 0u);
}

TEST(ServingEngineTest, ShutdownUnderLoadResolvesEveryRequest)
{
    ServeOptions opts;
    opts.backends = {"GCoD"};
    opts.workers = 2;
    opts.artifactScale = 0.25;
    // FixedSize with a large target: the backlog sits as partial groups
    // that only the shutdown-triggered drain can release.
    opts.batching.policy = BatchPolicy::FixedSize;
    opts.batching.maxBatch = 64;
    ServingEngine engine(opts);

    std::vector<std::future<InferenceReply>> futures;
    for (int i = 0; i < 20; ++i)
        futures.push_back(engine.submit({0, "Cora", "GCN", NodeId(i)}));
    engine.shutdown();

    for (auto &f : futures) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(60)),
                  std::future_status::ready)
            << "shutdown left a request unresolved";
        InferenceReply r = f.get();
        EXPECT_TRUE(r.ok()) << r.error;
    }
    EXPECT_EQ(engine.stats().completed(), 20u);
    EXPECT_EQ(engine.pending(), 0u);
}

TEST(ServingEngineTest, MultithreadedSmoke)
{
    ServeOptions opts;
    opts.backends = {"GCoD", "HyGCN", "AWB-GCN", "DGL-GPU"};
    opts.workers = 4;
    opts.cacheCapacity = 4;
    opts.artifactScale = 0.25;
    opts.batching.policy = BatchPolicy::Adaptive;
    opts.batching.maxBatch = 16;
    opts.batching.maxDelay = std::chrono::microseconds(500);
    ServingEngine engine(opts);

    constexpr int kSubmitters = 4;
    constexpr int kPerThread = 50;
    std::vector<std::thread> submitters;
    std::mutex futuresMu;
    std::vector<std::future<InferenceReply>> futures;
    for (int t = 0; t < kSubmitters; ++t) {
        submitters.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                InferenceRequest req;
                req.dataset = (t + i) % 3 == 0 ? "CiteSeer" : "Cora";
                req.node = NodeId(i);
                auto fut = engine.submit(std::move(req));
                std::lock_guard<std::mutex> lock(futuresMu);
                futures.push_back(std::move(fut));
            }
        });
    }
    for (auto &t : submitters)
        t.join();
    engine.drain();

    for (auto &f : futures) {
        InferenceReply r = f.get();
        EXPECT_TRUE(r.ok()) << r.error;
        EXPECT_GE(r.batchSize, 1u);
        EXPECT_GT(r.latencySeconds, 0.0);
    }
    EXPECT_EQ(engine.stats().completed(),
              uint64_t(kSubmitters * kPerThread));
    EXPECT_EQ(engine.pending(), 0u);
    // Two datasets, hundreds of requests: almost all lookups must hit.
    EXPECT_GT(engine.cache().hitRate(), 0.5);
    // Batching must actually amortize under concurrent load.
    EXPECT_LT(engine.stats().batches(),
              uint64_t(kSubmitters * kPerThread));
}
