/**
 * @file
 * Shared host features: every family's bundle of one dataset built
 * through one engine holds the same immutable feature buffer, with the
 * bytes a private materialize() would draw; other seeds, scales and
 * engines get their own buffer; the buffer dies with the dataset's last
 * bundle; concurrent builds converge on one buffer; and streamed
 * updates share it across epochs while no node is added, without
 * touching other families.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "dyn/delta.hpp"
#include "nn/dataset.hpp"
#include "serve/engine.hpp"
#include "sim/rng.hpp"

using namespace gcod;
using namespace gcod::serve;

namespace {

const std::vector<std::string> kFamilies = {"GCN", "GraphSAGE", "GIN",
                                            "GAT", "ResGCN"};

ServeOptions
engineOptions()
{
    ServeOptions opts;
    opts.backends = {"GCoD", "GCoD@bits=8"};
    opts.workers = 1;
    opts.artifactScale = 0.25;
    return opts;
}

bool
sameBytes(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data().data(), b.data().data(),
                       size_t(a.size()) * sizeof(float)) == 0;
}

std::shared_ptr<const ArtifactBundle>
residentBundle(ServingEngine &e, const std::string &dataset,
               const std::string &family)
{
    return e.cache().get(e.keyFor(dataset, family)).bundle;
}

} // namespace

TEST(SharedFeatures, FamiliesOfADatasetShareOneBufferOfFreshBytes)
{
    ServeOptions opts = engineOptions();
    ServingEngine engine(opts);
    std::vector<std::shared_ptr<const ArtifactBundle>> bundles;
    for (const std::string &f : kFamilies)
        bundles.push_back(residentBundle(engine, "Cora", f));

    const float *buf = bundles.front()->hostFeatures.data().data();
    for (const auto &b : bundles) {
        ASSERT_TRUE(b->hasHostExec()) << b->key.toString();
        EXPECT_EQ(b->hostFeatures.data().data(), buf) << b->key.toString();
        EXPECT_EQ(b->hostFeaturesBuf, bundles.front()->hostFeaturesBuf);
    }

    // The shared bytes are exactly what a private build draws.
    Rng frng(opts.artifactSeed ^ 0x51ed270bull);
    Dataset fresh = materialize(bundles.front()->synth, frng);
    EXPECT_TRUE(sameBytes(fresh.features, bundles.front()->hostFeatures));
    engine.shutdown();
}

TEST(SharedFeatures, OtherSeedsScalesAndEnginesGetTheirOwnBuffer)
{
    ServeOptions base = engineOptions();
    ServeOptions otherSeed = base;
    otherSeed.artifactSeed = base.artifactSeed + 1;
    ServeOptions otherScale = base;
    otherScale.artifactScale = 0.3;

    ServingEngine engine(base);
    auto gcn = residentBundle(engine, "Cora", "GCN");
    auto gat = residentBundle(engine, "Cora", "GAT");
    auto citeseer = residentBundle(engine, "CiteSeer", "GCN");
    EXPECT_EQ(gcn->hostFeaturesBuf, gat->hostFeaturesBuf);
    EXPECT_NE(gcn->hostFeaturesBuf, citeseer->hostFeaturesBuf);

    for (const ServeOptions *opts : {&otherSeed, &otherScale, &base}) {
        ServingEngine other(*opts);
        auto b = residentBundle(other, "Cora", "GCN");
        EXPECT_NE(b->hostFeaturesBuf, gcn->hostFeaturesBuf);
        // A second engine's cold build draws the same bytes anew.
        if (opts == &base) {
            EXPECT_TRUE(sameBytes(b->hostFeatures, gcn->hostFeatures));
        }
        other.shutdown();
    }
    engine.shutdown();

    // One memo across builds: the seed and the scale are part of its key.
    HostFeatureMemo memo;
    GcodOptions gopts;
    ArtifactKey key{"Cora", "GCN", hashGcodOptions(gopts)};
    auto build = [&](double scale, uint64_t seed) {
        return buildArtifact(key, gopts, scale, seed, 0, kLargeGraphNodes,
                             {}, &memo)
            ->hostFeaturesBuf;
    };
    auto shared = build(0.25, 42);
    EXPECT_EQ(build(0.25, 42), shared);
    EXPECT_NE(build(0.25, 43), shared);
    EXPECT_NE(build(0.3, 42), shared);
}

TEST(SharedFeatures, BufferIsFreedWithTheDatasetsLastBundle)
{
    ServeOptions opts = engineOptions();
    opts.cacheCapacity = kFamilies.size();
    ServingEngine engine(opts);
    // Held through the first family's bundle, the first one evicted.
    std::weak_ptr<const Matrix> cora =
        residentBundle(engine, "Cora", kFamilies.front())->hostFeaturesBuf;
    for (const std::string &f : kFamilies)
        residentBundle(engine, "Cora", f);
    ASSERT_FALSE(cora.expired());

    // CiteSeer families evict Cora's one by one (LRU); the buffer lives
    // while any Cora bundle is resident.
    for (size_t i = 0; i < kFamilies.size(); ++i) {
        EXPECT_FALSE(cora.expired()) << "after " << i << " evictions";
        residentBundle(engine, "CiteSeer", kFamilies[i]);
    }
    EXPECT_TRUE(cora.expired());

    // Rebuilding Cora afterwards materializes the same bytes again.
    auto again = residentBundle(engine, "Cora", "GCN");
    Rng frng(opts.artifactSeed ^ 0x51ed270bull);
    EXPECT_TRUE(sameBytes(materialize(again->synth, frng).features,
                          again->hostFeatures));
    engine.shutdown();
}

TEST(SharedFeatures, ConcurrentFamilyBuildsEndWithOneBuffer)
{
    ServingEngine parallel(engineOptions());
    std::vector<std::shared_ptr<const ArtifactBundle>> bundles(
        kFamilies.size());
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kFamilies.size(); ++i)
        threads.emplace_back([&, i] {
            bundles[i] = residentBundle(parallel, "Cora", kFamilies[i]);
        });
    for (std::thread &t : threads)
        t.join();
    for (const auto &b : bundles)
        EXPECT_EQ(b->hostFeaturesBuf, bundles.front()->hostFeaturesBuf);

    ServingEngine serial(engineOptions());
    for (const std::string &f : kFamilies) {
        ArtifactKey key = serial.keyFor("Cora", f);
        for (int bits : {32, 8}) {
            auto want = serial.peekLogits(key, bits);
            auto got = parallel.peekLogits(key, bits);
            ASSERT_NE(want, nullptr) << key.toString() << " bits " << bits;
            ASSERT_NE(got, nullptr) << key.toString() << " bits " << bits;
            EXPECT_TRUE(sameBytes(*want, *got))
                << key.toString() << " bits " << bits;
        }
    }
    serial.shutdown();
    parallel.shutdown();
}

TEST(SharedFeatures, EdgeOnlyUpdateKeepsTheBuffer)
{
    ServingEngine engine(engineOptions());
    ArtifactKey key = engine.keyFor("Cora", "GCN");
    auto before = residentBundle(engine, "Cora", "GCN");

    dyn::GraphDelta d;
    d.insertEdge(0, 7);
    d.insertEdge(3, 11);
    ASSERT_FALSE(engine.applyUpdate(key, d).noop);
    auto after = engine.cache().peek(key);
    ASSERT_NE(after, before);
    EXPECT_EQ(after->hostFeaturesBuf, before->hostFeaturesBuf);
    engine.shutdown();
}

TEST(SharedFeatures, NodeInsertExtendsIntoANewBuffer)
{
    ServingEngine engine(engineOptions());
    ArtifactKey key = engine.keyFor("Cora", "GCN");
    auto before = residentBundle(engine, "Cora", "GCN");
    const Matrix &old = before->hostFeatures;
    const NodeId n = NodeId(old.rows());

    dyn::GraphDelta d;
    d.insertEdge(0, n);
    ASSERT_FALSE(engine.applyUpdate(key, d).noop);
    auto after = engine.cache().peek(key);
    ASSERT_NE(after->hostFeaturesBuf, before->hostFeaturesBuf);
    ASSERT_EQ(after->hostFeatures.rows(), old.rows() + 1);
    ASSERT_EQ(after->hostFeatures.cols(), old.cols());
    EXPECT_EQ(std::memcmp(after->hostFeatures.row(0), old.row(0),
                          size_t(old.size()) * sizeof(float)),
              0);
    engine.shutdown();
}

TEST(SharedFeatures, UpdateToOneFamilyLeavesSiblingsUntouched)
{
    ServingEngine engine(engineOptions());
    ArtifactKey gcn = engine.keyFor("Cora", "GCN");
    ArtifactKey gat = engine.keyFor("Cora", "GAT");
    residentBundle(engine, "Cora", "GCN");
    auto gatBundle = residentBundle(engine, "Cora", "GAT");
    const Matrix features = gatBundle->hostFeatures;
    const Matrix logits = *engine.peekLogits(gat, 32);
    const NodeId n = NodeId(features.rows());

    // One edge-only update and one that adds a node.
    dyn::GraphDelta edges;
    edges.insertEdge(1, 9);
    dyn::GraphDelta node;
    node.insertEdge(2, n);
    ASSERT_FALSE(engine.applyUpdate(gcn, edges).noop);
    ASSERT_FALSE(engine.applyUpdate(gcn, node).noop);
    EXPECT_EQ(engine.cache().peek(gcn)->hostFeatures.rows(), n + 1);

    auto gatAfter = engine.cache().peek(gat);
    EXPECT_EQ(gatAfter, gatBundle);
    EXPECT_EQ(gatAfter->hostFeaturesBuf, gatBundle->hostFeaturesBuf);
    EXPECT_TRUE(sameBytes(gatAfter->hostFeatures, features));
    EXPECT_TRUE(sameBytes(*engine.peekLogits(gat, 32), logits));
    engine.shutdown();
}
