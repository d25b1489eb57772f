/**
 * @file
 * Streamed-update serving tests: ServingEngine::applyUpdate() publishes
 * incrementally rebuilt epochs whose logits match a from-scratch forward
 * over the final graph, swaps drop zero requests under concurrent load,
 * repeated publishes leave no retired-epoch or memo debris
 * (ArtifactCache hygiene), and a batch after an update routes on the
 * updated epoch's cost estimate.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "dyn/delta.hpp"
#include "dyn/dyn_state.hpp"
#include "dyn/incremental_forward.hpp"
#include "serve/engine.hpp"
#include "serve/incremental.hpp"

using namespace gcod;
using namespace gcod::serve;

namespace {

ServeOptions
engineOptions()
{
    ServeOptions opts;
    opts.backends = {"GCoD"};
    opts.workers = 1;
    opts.artifactScale = 0.25;
    opts.batching.maxDelay = std::chrono::microseconds(200);
    return opts;
}

void
expectMatrixEq(const Matrix &a, const Matrix &b)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    EXPECT_EQ(std::memcmp(a.row(0), b.row(0),
                          size_t(a.size()) * sizeof(float)),
              0);
}

/** Edge toggles among the bundle graph's first nodes. */
dyn::GraphDelta
toggleDelta(const Graph &g, int count, uint64_t seed)
{
    Rng rng(seed);
    dyn::GraphDelta d;
    NodeId n = g.numNodes();
    for (int i = 0; i < count; ++i) {
        NodeId u = NodeId(rng.uniformInt(0, n - 1));
        NodeId v = NodeId(rng.uniformInt(0, n - 1));
        if (u == v)
            continue;
        if (g.adjacency().at(u, v) != 0.0f)
            d.removeEdge(u, v);
        else
            d.insertEdge(u, v);
    }
    return d;
}

} // namespace

TEST(ServeUpdates, ApplyUpdatePublishesAnEpochWithExactLogits)
{
    ServingEngine engine(engineOptions());
    ArtifactKey key = engine.keyFor("Cora", "GCN");

    // Prime and remember the cold epoch.
    auto before = engine.submit({0, "Cora", "GCN", 0});
    engine.drain();
    ASSERT_TRUE(before.get().ok());
    uint64_t v0 = engine.cache().peekEpoch(key).version;
    auto bundle0 = engine.cache().peek(key);
    ASSERT_NE(bundle0, nullptr);
    EdgeOffset edges0 = bundle0->synth.graph.numEdges();

    dyn::GraphDelta d = toggleDelta(bundle0->synth.graph, 12, 5);
    ServingEngine::UpdateResult r = engine.applyUpdate(key, d);
    EXPECT_FALSE(r.noop);
    EXPECT_GT(r.version, v0);
    EXPECT_EQ(r.dynEpoch, 1u);
    EXPECT_GT(r.touched, 0u);
    EXPECT_GE(r.dirtyRows, r.touched);

    auto bundle1 = engine.cache().peek(key);
    ASSERT_NE(bundle1, nullptr);
    ASSERT_NE(bundle1.get(), bundle0.get());
    EXPECT_NE(bundle1->synth.graph.numEdges(), edges0);

    // The prefilled fp32 logits equal a from-scratch forward over the
    // final graph, bit for bit.
    ASSERT_TRUE(bundle1->hasHostExec());
    ASSERT_EQ(bundle1->storedLogits.count(32), 1u);
    expectMatrixEq(bundle1->storedLogits.at(32),
                   referenceForward(bundle1->hostRecipe,
                                    bundle1->hostFeatures));

    // Serving continues against the new epoch.
    auto after = engine.submit({0, "Cora", "GCN", 0});
    engine.drain();
    EXPECT_TRUE(after.get().ok());
    engine.shutdown();
}

TEST(ServeUpdates, SecondUpdateStacksIncrementally)
{
    ServingEngine engine(engineOptions());
    ArtifactKey key = engine.keyFor("Cora", "GCN");
    auto first = engine.applyUpdate(key, dyn::GraphDelta{});
    EXPECT_TRUE(first.noop); // empty delta builds the key but swaps nothing

    auto bundle0 = engine.cache().peek(key);
    ASSERT_NE(bundle0, nullptr);
    auto r1 =
        engine.applyUpdate(key, toggleDelta(bundle0->synth.graph, 8, 7));
    ASSERT_FALSE(r1.noop);
    auto bundle1 = engine.cache().peek(key);
    auto r2 =
        engine.applyUpdate(key, toggleDelta(bundle1->synth.graph, 8, 11));
    ASSERT_FALSE(r2.noop);
    EXPECT_EQ(r2.dynEpoch, 2u);
    EXPECT_GT(r2.version, r1.version);

    // The second update rides the incremental forward state: far fewer
    // rows recomputed than a full pass.
    auto bundle2 = engine.cache().peek(key);
    size_t fullRows = size_t(bundle2->hostFeatures.rows()) *
                      bundle2->spec.layers.size();
    EXPECT_LT(r2.recomputedRows, fullRows);
    expectMatrixEq(bundle2->storedLogits.at(32),
                   referenceForward(bundle2->hostRecipe,
                                    bundle2->hostFeatures));
    engine.shutdown();
}

TEST(ServeUpdates, ZeroDropsUnderConcurrentUpdateStream)
{
    ServeOptions opts = engineOptions();
    opts.workers = 2;
    ServingEngine engine(opts);
    ArtifactKey key = engine.keyFor("Cora", "GCN");
    // Warm the key so the writer races serving, not the initial build.
    engine.applyUpdate(key, dyn::GraphDelta{});

    std::atomic<bool> stop{false};
    std::atomic<int> swaps{0};
    std::thread writer([&] {
        uint64_t seed = 100;
        while (!stop.load()) {
            auto bundle = engine.cache().peek(key);
            if (bundle != nullptr) {
                auto r = engine.applyUpdate(
                    key, toggleDelta(bundle->synth.graph, 4, seed++));
                if (!r.noop)
                    swaps.fetch_add(1);
            }
        }
    });

    std::vector<std::future<InferenceReply>> futures;
    for (int i = 0; i < 60; ++i)
        futures.push_back(engine.submit({0, "Cora", "GCN", 0}));
    engine.drain();
    stop.store(true);
    writer.join();

    size_t ok = 0;
    for (auto &f : futures) {
        InferenceReply reply = f.get();
        EXPECT_TRUE(reply.ok()) << reply.error;
        ok += reply.ok();
    }
    EXPECT_EQ(ok, futures.size());
    EXPECT_GT(swaps.load(), 0);
    EXPECT_EQ(engine.stats().failed(), 0u);

    // Every retired epoch drains once in-flight work completes.
    engine.drain();
    engine.reclaimRetiredArtifacts();
    EXPECT_EQ(engine.cache().retiredCount(), 0u);
    engine.shutdown();
}

// ----------------------------------------------------- epoch hygiene
TEST(ServeUpdates, RapidPublishesLeaveOneLiveVersionAndNoMemoDebris)
{
    ServeOptions opts = engineOptions();
    opts.cacheCapacity = 1;
    ServingEngine engine(opts);
    ArtifactKey key = engine.keyFor("Cora", "GCN");

    // Logits computed for the cold epoch live in its memo, and die with it.
    std::weak_ptr<const Matrix> cold = engine.peekLogits(key, 32);
    ASSERT_FALSE(cold.expired());
    auto f = engine.submit({0, "Cora", "GCN", 0});
    engine.drain();
    ASSERT_TRUE(f.get().ok());

    for (int i = 0; i < 6; ++i) {
        auto bundle = engine.cache().peek(key);
        ASSERT_NE(bundle, nullptr);
        engine.applyUpdate(key, toggleDelta(bundle->synth.graph, 3,
                                            uint64_t(40 + i)));
    }
    engine.drain();
    EXPECT_TRUE(cold.expired()) << "a publish must drop the old epoch's memo";
    engine.reclaimRetiredArtifacts();
    EXPECT_EQ(engine.cache().retiredCount(), 0u);
    EXPECT_EQ(engine.cache().size(), 1u);

    // A full rebuild carries no stored logits, so peekLogits fills its
    // memo; even a republish of that very bundle starts an empty one.
    engine.publishArtifact(key);
    std::weak_ptr<const Matrix> fresh = engine.peekLogits(key, 32);
    ASSERT_FALSE(fresh.expired());
    engine.publishArtifact(key, engine.cache().peek(key));
    engine.drain();
    EXPECT_TRUE(fresh.expired());

    // Eviction frees the memo with the entry.
    std::weak_ptr<const Matrix> evicted = engine.peekLogits(key, 32);
    ASSERT_FALSE(evicted.expired());
    engine.peekLogits(engine.keyFor("CiteSeer", "GCN"), 32);
    EXPECT_FALSE(engine.cache().contains(key));
    EXPECT_TRUE(evicted.expired());
    engine.shutdown();
}

TEST(ServeUpdates, BatchesAfterAnUpdateRouteOnTheNewEpochsEstimate)
{
    ServeOptions opts = engineOptions();
    opts.backends = {"HyGCN"};
    opts.traceLevel = 1;
    ServingEngine engine(opts);
    ArtifactKey key = engine.keyFor("Cora", "GCN");
    auto routedEstimate = [&] {
        engine.trace().clear();
        EXPECT_TRUE(engine.submit({0, "Cora", "GCN", 0}).get().ok());
        for (const obs::TraceSpan &s : engine.trace().snapshot())
            if (s.name == "route")
                for (const auto &[k, v] : s.attrs)
                    if (k == "estimate_s")
                        return std::stod(v);
        ADD_FAILURE() << "no route span with an estimate";
        return 0.0;
    };

    const double before = routedEstimate();
    auto bundle0 = engine.cache().peek(key);
    Rng rng(3);
    dyn::GraphDelta d;
    const NodeId n = bundle0->synth.graph.numNodes();
    for (int i = 0; i < 3000; ++i) {
        NodeId u = NodeId(rng.uniformInt(0, n - 1));
        NodeId v = NodeId(rng.uniformInt(0, n - 1));
        if (u != v)
            d.insertEdge(u, v);
    }
    ASSERT_FALSE(engine.applyUpdate(key, d).noop);
    auto after = engine.cache().peek(key);
    ASSERT_GT(after->raw.adj.nnz, bundle0->raw.adj.nnz);

    const double expected = BackendRouter({"HyGCN"}).estimateSeconds(0, *after);
    EXPECT_GT(expected, before * 1.1);
    EXPECT_NEAR(routedEstimate(), expected, expected * 1e-8);
}

TEST(ServeUpdates, RepublishingTheResidentBundleRetiresNothing)
{
    ArtifactCache cache(4, [](const ArtifactKey &k) {
        auto b = std::make_shared<ArtifactBundle>();
        b->key = k;
        return b;
    });
    ArtifactKey key{"Cora", "GCN", 1};
    auto bundle = cache.get(key).bundle;
    uint64_t last = 0;
    for (int i = 0; i < 5; ++i)
        last = cache.publish(key, bundle);
    EXPECT_EQ(cache.retiredCount(), 0u);
    EXPECT_EQ(cache.reclaimRetired(), 0u);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.peekEpoch(key).version, last);

    // A genuinely new bundle still retires the old epoch exactly once.
    auto fresh = std::make_shared<ArtifactBundle>();
    fresh->key = key;
    cache.publish(key, fresh);
    EXPECT_EQ(cache.retiredCount(), 1u);
    bundle.reset();
    EXPECT_EQ(cache.reclaimRetired(), 1u);
    EXPECT_EQ(cache.retiredCount(), 0u);
}

// ------------------------------------------- serve-level dyn equivalence
TEST(ServeUpdates, IncrementalBundleMatchesDynStateOverFinalGraph)
{
    ServingEngine engine(engineOptions());
    ArtifactKey key = engine.keyFor("CiteSeer", "GCN");
    engine.applyUpdate(key, dyn::GraphDelta{}); // build
    auto bundle0 = engine.cache().peek(key);
    ASSERT_NE(bundle0, nullptr);

    for (int i = 0; i < 3; ++i) {
        auto cur = engine.cache().peek(key);
        engine.applyUpdate(key,
                           toggleDelta(cur->synth.graph, 6, uint64_t(i)));
    }
    auto updated = engine.cache().peek(key);

    // Operators of the updated bundle equal a from-scratch derivation
    // over its final graph.
    GraphContext derived(updated->synth.graph);
    const CsrMatrix &norm = updated->hostCtx->normalized();
    EXPECT_EQ(norm.indptr(), derived.normalized().indptr());
    EXPECT_EQ(norm.indices(), derived.normalized().indices());
    EXPECT_EQ(std::memcmp(norm.values().data(),
                          derived.normalized().values().data(),
                          norm.values().size() * sizeof(float)),
              0);
    expectMatrixEq(updated->storedLogits.at(32),
                   referenceForward(updated->hostRecipe,
                                    updated->hostFeatures));
    engine.shutdown();
}
