/**
 * @file
 * Sampled point queries through the serving engine: every reply's
 * prediction is the argmax of the same row of the library's full
 * sampled pass (buildSampledExecution + referenceForward at fp32,
 * quantizeSampled + quantizedForwardMixed at int8), the row pass the
 * engine runs is memcmp-identical to that row, the int8 memo follows
 * streamed updates and publishes, an epoch keeps a bounded number of
 * fanout memos, and a negative fanout is an error.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "dyn/delta.hpp"
#include "nn/neighbor_sampler.hpp"
#include "serve/engine.hpp"
#include "sim/parallel.hpp"

using namespace gcod;
using namespace gcod::serve;

namespace {

ServeOptions
sampledOptions(const std::string &backend)
{
    ServeOptions opts;
    opts.backends = {backend};
    opts.workers = 1;
    opts.artifactScale = 0.1;
    opts.batching.maxDelay = std::chrono::microseconds(200);
    return opts;
}

/** The library's full sampled pass over @p b at @p bits. */
Matrix
fullSampledPass(const ArtifactBundle &b, int bits, int fanout, uint64_t seed)
{
    SampledExecution se =
        buildSampledExecution(b.hostRecipe, b.synth.graph, fanout, seed);
    return bits == 32 ? referenceForward(se.recipe, b.hostFeatures)
                      : quantizedForwardMixed(
                            quantizeSampled(se, b.quantized.at(bits)),
                            b.hostFeatures);
}

int
argmaxRow(const Matrix &m, int64_t r)
{
    int best = 0;
    for (int64_t c = 1; c < m.cols(); ++c)
        if (m(r, c) > m(r, best))
            best = int(c);
    return best;
}

InferenceRequest
sampledRequest(const std::string &model, NodeId node, int fanout,
               uint64_t seed)
{
    InferenceRequest req;
    req.dataset = "Cora";
    req.model = model;
    req.node = node;
    req.sampleFanout = fanout;
    req.sampleSeed = seed;
    return req;
}

/**
 * Up to 8 hubs at @p fanout, an isolated node when there is one, then
 * @p extra nodes spread over the graph.
 */
std::vector<NodeId>
targetNodes(const Graph &g, int fanout, size_t extra)
{
    std::vector<NodeId> nodes;
    bool isolate = false;
    for (NodeId i = 0; i < g.numNodes(); ++i) {
        EdgeOffset deg = g.adjacency().rowNnz(i);
        if (deg > fanout && nodes.size() < 8)
            nodes.push_back(i);
        else if (deg == 0 && !isolate) {
            nodes.push_back(i);
            isolate = true;
        }
    }
    const NodeId step = std::max<NodeId>(1, g.numNodes() / NodeId(extra));
    for (NodeId i = 0; i < g.numNodes() && extra > 0; i += step, --extra)
        nodes.push_back(i);
    return nodes;
}

/**
 * Submit every (node, seed) pair, then check each reply against the full
 * pass of its seed and the row pass against that row. Returns the pairs.
 */
size_t
checkEngineParity(ServingEngine &engine, const std::string &model,
                  int fanout, const std::vector<uint64_t> &seeds)
{
    auto bundle = engine.cache().get(engine.keyFor("Cora", model)).bundle;
    const Graph &g = bundle->synth.graph;
    const int fan = fanout > 0 ? fanout : int(g.maxDegree());
    std::vector<NodeId> nodes = targetNodes(g, fan, 10);
    std::vector<std::pair<uint64_t, NodeId>> sent;
    std::vector<std::future<InferenceReply>> futs;
    for (uint64_t seed : seeds)
        for (NodeId v : nodes) {
            futs.push_back(engine.submit(sampledRequest(model, v, fan, seed)));
            sent.emplace_back(seed, v);
        }
    engine.drain();

    std::map<uint64_t, Matrix> full;
    const int bits = engine.quantBits().empty() ? 32 : engine.quantBits()[0];
    SampledQuantMemo memo;
    if (bits < 32)
        memo = buildSampledQuantMemo(bundle->quantized.at(bits), g,
                                     bundle->hostFeatures, fan);
    for (size_t i = 0; i < futs.size(); ++i) {
        InferenceReply r = futs[i].get();
        auto [seed, v] = sent[i];
        EXPECT_TRUE(r.ok()) << r.error;
        EXPECT_EQ(r.executedBits, bits);
        auto it = full.find(seed);
        if (it == full.end())
            it = full.emplace(seed, fullSampledPass(*bundle, bits, fan, seed))
                     .first;
        const Matrix &m = it->second;
        EXPECT_EQ(r.prediction, argmaxRow(m, v))
            << model << " bits " << bits << " fanout " << fan << " seed "
            << seed << " node " << v;
        Matrix row = bits == 32
                         ? sampledForwardRow(bundle->hostRecipe, g,
                                             bundle->hostFeatures, fan, seed,
                                             v)
                         : sampledQuantizedForwardRow(
                               bundle->quantized.at(bits), memo, g,
                               bundle->hostFeatures, seed, v);
        EXPECT_EQ(std::memcmp(row.row(0), m.row(v),
                              size_t(m.cols()) * sizeof(float)),
                  0)
            << model << " bits " << bits << " seed " << seed << " node "
            << v;
    }
    return futs.size();
}

/** Sampled memos in @p key's resident epoch. */
size_t
epochSampledMemos(ServingEngine &engine, const ArtifactKey &key)
{
    std::shared_ptr<EpochMemo> memo = engine.cache().peekEpoch(key).memo;
    std::lock_guard<std::mutex> lock(memo->mu);
    return memo->sampled.size();
}

} // namespace

TEST(SampledServing, RepliesMatchTheFullSampledPass)
{
    const int saved = currentThreads();
    size_t pairs = 0;
    for (const char *backend : {"GCoD", "GCoD@bits=8"}) {
        ServingEngine engine(sampledOptions(backend));
        // The kernel pool is process-wide: one engine serves both counts.
        for (int threads : {1, 4}) {
            setThreads(threads);
            for (const char *model : {"GCN", "GraphSAGE"})
                // 0 stands for fanout = max degree: no hubs at all.
                for (int fanout : {1, 10, 0})
                    pairs += checkEngineParity(engine, model, fanout, {3, 8});
        }
    }
    setThreads(saved);
    EXPECT_GE(pairs, 200u);
}

TEST(SampledServing, Int8MemoFollowsUpdatesAndPublishes)
{
    ServeOptions opts = sampledOptions("GCoD@bits=8");
    opts.traceLevel = 1;
    ServingEngine engine(opts);
    const ArtifactKey key = engine.keyFor("Cora", "GCN");
    const int fanout = 3;
    EXPECT_GT(checkEngineParity(engine, "GCN", fanout, {5}), 0u);
    EXPECT_EQ(epochSampledMemos(engine, key), 1u);
    std::weak_ptr<EpochMemo> cold = engine.cache().peekEpoch(key).memo;

    // Lift a leaf past the fanout: its layer-0 row turns seed-dependent.
    auto before = engine.cache().peek(key);
    const Graph &g = before->synth.graph;
    NodeId leaf = -1;
    for (NodeId i = 0; i < g.numNodes() && leaf < 0; ++i)
        if (g.adjacency().rowNnz(i) > 0 && g.adjacency().rowNnz(i) <= fanout)
            leaf = i;
    ASSERT_GE(leaf, 0);
    dyn::GraphDelta d;
    for (NodeId j = 0, added = 0; added <= fanout; ++j)
        if (j != leaf && g.adjacency().at(leaf, j) == 0.0f) {
            d.insertEdge(leaf, j);
            ++added;
        }
    ServingEngine::UpdateResult up = engine.applyUpdate(key, d);
    ASSERT_FALSE(up.noop);
    EXPECT_TRUE(cold.expired())
        << "publishing an update must drop the old epoch's memo";
    EXPECT_EQ(epochSampledMemos(engine, key), 0u);
    auto after = engine.cache().peek(key);
    EXPECT_GT(after->synth.graph.adjacency().rowNnz(leaf), fanout);

    std::vector<std::future<InferenceReply>> futs;
    std::vector<NodeId> nodes = {leaf};
    after->synth.graph.adjacency().forEachInRow(
        leaf, [&](NodeId j, float) { nodes.push_back(j); });
    for (uint64_t seed : {5, 6})
        for (NodeId v : nodes)
            futs.push_back(
                engine.submit(sampledRequest("GCN", v, fanout, seed)));
    engine.drain();
    size_t i = 0;
    for (uint64_t seed : {5, 6}) {
        Matrix full = fullSampledPass(*after, 8, fanout, seed);
        for (NodeId v : nodes) {
            InferenceReply r = futs[i++].get();
            ASSERT_TRUE(r.ok()) << r.error;
            EXPECT_EQ(r.prediction, argmaxRow(full, v))
                << "seed " << seed << " node " << v;
        }
    }
    EXPECT_GT(checkEngineParity(engine, "GCN", fanout, {5, 6}), 0u);

    // A publish starts a new epoch: its first rider rebuilds the memo.
    engine.publishArtifact(key);
    EXPECT_EQ(epochSampledMemos(engine, key), 0u);
    engine.trace().clear();
    EXPECT_GT(checkEngineParity(engine, "GCN", fanout, {5, 6}), 0u);
    EXPECT_EQ(epochSampledMemos(engine, key), 1u);
    std::vector<std::string> memoAttrs;
    for (const obs::TraceSpan &s : engine.trace().snapshot())
        if (s.name == "host.exec.sampled")
            for (const auto &[k, v] : s.attrs)
                if (k == "memo")
                    memoAttrs.push_back(v);
    ASSERT_FALSE(memoAttrs.empty());
    EXPECT_EQ(memoAttrs.front(), "built");
    EXPECT_EQ(std::count(memoAttrs.begin(), memoAttrs.end(), "hit"),
              std::ptrdiff_t(memoAttrs.size() - 1));
}

TEST(SampledServing, DistinctFanoutsPastTheBoundStartTheMemoOver)
{
    ServingEngine engine(sampledOptions("GCoD@bits=8"));
    const ArtifactKey key = engine.keyFor("Cora", "GCN");
    const int fanouts = int(EpochMemo::kMaxSampledMemos) + 2;
    for (int fanout = 1; fanout <= fanouts; ++fanout) {
        EXPECT_GT(checkEngineParity(engine, "GCN", fanout, {9}), 0u);
        EXPECT_LE(epochSampledMemos(engine, key),
                  EpochMemo::kMaxSampledMemos);
    }
    // A full table starts over: only the fanouts after the bound remain.
    EXPECT_EQ(epochSampledMemos(engine, key), 2u);
}

TEST(SampledServing, NegativeFanoutIsAnErrorNamingTheField)
{
    ServingEngine engine(sampledOptions("GCoD"));
    InferenceReply r = engine.submit(sampledRequest("GCN", 4, -3, 1)).get();
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error.find("sampleFanout"), std::string::npos) << r.error;
    EXPECT_EQ(r.prediction, -1);
    EXPECT_TRUE(engine.submit(sampledRequest("GCN", 4, 3, 1)).get().ok());
}
