/**
 * @file
 * Streaming-update tests (src/dyn/): delta resolution semantics, and the
 * subsystem's headline invariant — an incrementally updated epoch is
 * bit-identical to a from-scratch rebuild over the same final graph, for
 * the adjacency, both aggregation operators, the frozen degree-class
 * split, the shard plan, and the fp32 forward activations, at any
 * thread count and under any batching of the same net delta.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <set>

#include "dyn/dyn_state.hpp"
#include "dyn/incremental_forward.hpp"
#include "nn/graph_context.hpp"
#include "nn/models.hpp"
#include "partition/degree_classes.hpp"
#include "sim/parallel.hpp"
#include "sim/rng.hpp"

using namespace gcod;
using namespace gcod::dyn;

namespace {

using EdgeSet = std::set<std::pair<NodeId, NodeId>>;

Graph
graphOf(NodeId n, const EdgeSet &edges)
{
    return Graph(n, {edges.begin(), edges.end()});
}

EdgeSet
edgeSetOf(const Graph &g)
{
    EdgeSet out;
    g.adjacency().forEach([&](NodeId r, NodeId c, float) {
        if (r < c)
            out.insert({r, c});
    });
    return out;
}

Graph
randomGraph(NodeId n, int tries, uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::pair<NodeId, NodeId>> es;
    for (int i = 0; i < tries; ++i) {
        NodeId u = NodeId(rng.uniformInt(0, n - 1));
        NodeId v = NodeId(rng.uniformInt(0, n - 1));
        if (u != v)
            es.push_back({u, v});
    }
    return Graph(n, es);
}

void
expectCsrEq(const CsrMatrix &a, const CsrMatrix &b)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    EXPECT_EQ(a.indptr(), b.indptr());
    EXPECT_EQ(a.indices(), b.indices());
    ASSERT_EQ(a.values().size(), b.values().size());
    EXPECT_EQ(std::memcmp(a.values().data(), b.values().data(),
                          a.values().size() * sizeof(float)),
              0);
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

void
expectPlanEq(const shard::ShardPlan &a, const shard::ShardPlan &b)
{
    ASSERT_EQ(a.numShards, b.numShards);
    ASSERT_EQ(a.numNodes, b.numNodes);
    EXPECT_EQ(a.numClasses, b.numClasses);
    EXPECT_EQ(a.shardOf, b.shardOf);
    EXPECT_EQ(a.classOf, b.classOf);
    EXPECT_EQ(a.edgeCut, b.edgeCut);
    EXPECT_EQ(a.edgeCutFraction, b.edgeCutFraction);
    EXPECT_EQ(a.maxImbalance, b.maxImbalance);
    EXPECT_EQ(a.pairRows, b.pairRows);
    ASSERT_EQ(a.shards.size(), b.shards.size());
    for (size_t s = 0; s < a.shards.size(); ++s) {
        EXPECT_EQ(a.shards[s].owned, b.shards[s].owned);
        EXPECT_EQ(a.shards[s].halo, b.shards[s].halo);
        EXPECT_EQ(a.shards[s].localToGlobal, b.shards[s].localToGlobal);
        EXPECT_EQ(a.shards[s].ownedNnz, b.shards[s].ownedNnz);
        EXPECT_EQ(a.shards[s].cutNnz, b.shards[s].cutNnz);
        EXPECT_EQ(a.shards[s].boundaryCount, b.shards[s].boundaryCount);
    }
}

/**
 * Random batch against the ground-truth edge set: mixes inserts of
 * absent pairs (occasionally growing the id space), removes of present
 * pairs, explicit isolated node adds, and full node removals. Mutates
 * @p edges / @p n to the post-batch truth.
 */
GraphDelta
randomDelta(EdgeSet &edges, NodeId &n, Rng &rng)
{
    GraphDelta d;
    int inserts = int(rng.uniformInt(1, 6));
    for (int i = 0; i < inserts; ++i) {
        bool grow = rng.bernoulli(0.2);
        NodeId u = NodeId(rng.uniformInt(0, n - 1));
        NodeId v = grow ? n : NodeId(rng.uniformInt(0, n - 1));
        if (u == v)
            continue;
        if (u > v)
            std::swap(u, v);
        d.insertEdge(u, v);
        edges.insert({u, v});
        n = std::max(n, NodeId(v + 1));
    }
    int removes = int(rng.uniformInt(0, 3));
    for (int i = 0; i < removes && !edges.empty(); ++i) {
        auto it = edges.begin();
        std::advance(it, long(rng.uniformInt(0, int64_t(edges.size()) - 1)));
        d.removeEdge(it->first, it->second);
        edges.erase(it);
    }
    if (rng.bernoulli(0.3)) {
        NodeId iso = n++;
        d.addNode(iso);
    }
    if (rng.bernoulli(0.25)) {
        NodeId victim = NodeId(rng.uniformInt(0, n - 1));
        d.removeNode(victim);
        for (auto it = edges.begin(); it != edges.end();)
            it = (it->first == victim || it->second == victim)
                     ? edges.erase(it)
                     : std::next(it);
    }
    return d;
}

} // namespace

// --------------------------------------------------------- delta resolution
TEST(GraphDelta, SequentialOverrideWithinOneBatch)
{
    Graph g(4, {{0, 1}});
    GraphDelta d;
    d.insertEdge(2, 3);
    d.removeEdge(2, 3); // overrides: never lands
    d.removeEdge(0, 1);
    d.insertEdge(0, 1); // overrides: edge survives
    ResolvedDelta rd = d.resolve(g);
    EXPECT_TRUE(rd.empty());
    EXPECT_EQ(rd.numNodes, 4);
}

TEST(GraphDelta, SelfLoopsAndDuplicatesAreIgnoredAndCounted)
{
    Graph g(3, {{0, 1}});
    GraphDelta d;
    d.insertEdge(2, 2); // self loop
    d.insertEdge(0, 1); // already present
    d.removeEdge(1, 2); // already absent
    ResolvedDelta rd = d.resolve(g);
    EXPECT_TRUE(rd.empty());
    EXPECT_EQ(rd.ignoredOps, 3u);
}

TEST(GraphDelta, RemoveNodeWipesCurrentAndPendingEdges)
{
    Graph g(4, {{0, 1}, {1, 2}});
    GraphDelta d;
    d.insertEdge(1, 3); // pending, wiped below
    d.removeNode(1);
    ResolvedDelta rd = d.resolve(g);
    EXPECT_TRUE(rd.inserts.empty());
    EXPECT_EQ(rd.removes,
              (std::vector<std::pair<NodeId, NodeId>>{{0, 1}, {1, 2}}));
    // The id space still grew to cover node 3 referenced by the insert.
    EXPECT_EQ(rd.numNodes, 4);
}

TEST(GraphDelta, EdgeOpsGrowTheNodeSpace)
{
    Graph g(2, {{0, 1}});
    GraphDelta d;
    d.insertEdge(1, 5);
    ResolvedDelta rd = d.resolve(g);
    EXPECT_EQ(rd.numNodes, 6);
    EXPECT_EQ(rd.inserts,
              (std::vector<std::pair<NodeId, NodeId>>{{1, 5}}));
    // New ids 2..4 materialize as isolated rows and count as touched.
    EXPECT_EQ(rd.touched, (std::vector<NodeId>{1, 2, 3, 4, 5}));
}

// --------------------------------------------------------- dirty regions
TEST(DirtyRegion, OperatorDirtyCoversBothEndpointNeighborhoods)
{
    Graph oldg(5, {{0, 1}, {1, 2}, {3, 4}});
    Graph newg(5, {{0, 1}, {3, 4}}); // removed {1,2}
    DirtyRegion d0 = operatorDirty(oldg, newg, {1, 2});
    // 1, 2 touched; 0 neighbors 1; nothing reaches 3/4.
    EXPECT_EQ(d0.nodes, (std::vector<NodeId>{0, 1, 2}));
    EXPECT_TRUE(d0.contains(0));
    EXPECT_FALSE(d0.contains(3));
    EXPECT_NEAR(d0.fraction(), 3.0 / 5.0, 1e-12);
}

TEST(DirtyPlan, LevelsExpandOneHopPerLayer)
{
    // Path 0-1-2-3-4; touch node 0's edge. Five layers of one SpMM over
    // the adjacency each.
    Graph g(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
    ForwardRecipe m;
    m.operators = {&g.adjacency()};
    LayerGraph layer;
    OpStep spmm;
    spmm.kind = OpKind::SpMM;
    spmm.out = 1;
    spmm.opIndex = 0;
    layer.ops = {spmm};
    layer.numSlots = 2;
    m.layers.assign(5, layer);

    RowSetPlan plan = dirtyPlan(m, DirtyRegion::of(5, {0, 1}));
    ASSERT_EQ(plan.size(), 5u);
    EXPECT_EQ(plan[0].rows, (std::vector<NodeId>{0, 1}));
    EXPECT_EQ(plan[1].rows, (std::vector<NodeId>{0, 1, 2}));
    EXPECT_EQ(plan[2].rows, (std::vector<NodeId>{0, 1, 2, 3}));
    const std::vector<NodeId> all = {0, 1, 2, 3, 4};
    EXPECT_EQ(plan[3].rows, all);
    EXPECT_EQ(plan[4].rows, all);

    // A partial level holds its rows of the operator, with node-id
    // columns; its own rows index the input by node id too.
    const RowSetLevel &lv = plan[1];
    ASSERT_EQ(lv.op.rows(), 3);
    for (size_t k = 0; k < lv.rows.size(); ++k) {
        std::vector<NodeId> want, got;
        g.adjacency().forEachInRow(lv.rows[k], [&](NodeId j, float) {
            want.push_back(j);
        });
        lv.op.forEachInRow(NodeId(k), [&](NodeId j, float) {
            got.push_back(j);
        });
        EXPECT_EQ(got, want) << "row " << lv.rows[k];
    }
    EXPECT_TRUE(lv.self.empty());
    // Saturated levels carry no operator rows: they run whole.
    EXPECT_EQ(plan[3].op.rows(), 0);
}

// ------------------------------------------------ epoch merge equivalence
TEST(DynamicGraph, EpochsAreBitIdenticalToFromScratchRebuilds)
{
    NodeId n = 30;
    Graph g0 = randomGraph(n, 60, 17);
    EdgeSet edges = edgeSetOf(g0);
    DynamicGraph dg(g0);
    Rng rng(23);
    for (int step = 0; step < 12; ++step) {
        GraphDelta d = randomDelta(edges, n, rng);
        AppliedDelta ad = dg.apply(d);
        EXPECT_EQ(ad.numNodes, n);
        Graph ref = graphOf(n, edges);
        expectCsrEq(dg.current()->adjacency(), ref.adjacency());
        EXPECT_EQ(dg.current()->degrees(), ref.degrees());
    }
    EXPECT_GT(dg.epoch(), 0u);
}

TEST(DynamicGraph, NoopDeltaKeepsTheEpoch)
{
    Graph g0(3, {{0, 1}});
    DynamicGraph dg(g0);
    auto before = dg.current();
    GraphDelta d;
    d.insertEdge(0, 1); // already present
    AppliedDelta ad = dg.apply(d);
    EXPECT_TRUE(ad.noop());
    EXPECT_EQ(dg.epoch(), 0u);
    EXPECT_EQ(dg.current().get(), before.get());
}

// ------------------------------------------- full dyn state equivalence
TEST(DynState, EveryComponentMatchesFromScratchAfterEachBatch)
{
    NodeId n = 60;
    Graph g0 = randomGraph(n, 160, 3);
    EdgeSet edges = edgeSetOf(g0);

    DynStateOptions opts;
    opts.degreeClasses = 2;
    opts.trackShards = true;
    opts.shardOpts.shards = 3;
    opts.shardOpts.partition.seed = 5;
    DynState st(g0, opts);
    std::vector<NodeId> frozen = st.classes().thresholds();

    Rng rng(11);
    for (int step = 0; step < 8; ++step) {
        GraphDelta d = randomDelta(edges, n, rng);
        st.apply(d);
        Graph ref = graphOf(n, edges);

        expectCsrEq(st.graph().adjacency(), ref.adjacency());
        expectCsrEq(st.normalized(), ref.normalizedAdjacency());
        expectCsrEq(st.rowMean(), GraphContext(ref).rowMean());

        DegreeClasses dc = classifyByThresholds(ref, frozen);
        EXPECT_EQ(st.classes().classOf(), dc.classOf);
        EXPECT_EQ(st.classes().classSizes(), dc.classSizes);

        const DynamicShardPlan *dsp = st.shardPlan();
        ASSERT_NE(dsp, nullptr);
        std::vector<int> assign(static_cast<size_t>(n));
        for (NodeId v = 0; v < n; ++v)
            assign[size_t(v)] = dsp->assignOf(v, ref);
        shard::ShardPlan expect =
            shard::derivePlan(ref, 3, dsp->plan().numClasses, assign,
                              dc.classOf);
        expectPlanEq(dsp->plan(), expect);
    }
}

TEST(DynState, BatchingIsPathIndependent)
{
    NodeId n = 40;
    Graph g0 = randomGraph(n, 100, 29);
    EdgeSet edges = edgeSetOf(g0);

    DynStateOptions opts;
    opts.trackShards = true;
    opts.shardOpts.shards = 2;
    opts.shardOpts.partition.seed = 7;
    DynState many(g0, opts);
    DynState one(g0, opts);

    GraphDelta combined;
    Rng rng(31);
    for (int step = 0; step < 5; ++step) {
        GraphDelta d = randomDelta(edges, n, rng);
        for (const DeltaOp &op : d.ops())
            switch (op.kind) {
            case DeltaOp::InsertEdge: combined.insertEdge(op.u, op.v); break;
            case DeltaOp::RemoveEdge: combined.removeEdge(op.u, op.v); break;
            case DeltaOp::AddNode: combined.addNode(op.u); break;
            case DeltaOp::RemoveNode: combined.removeNode(op.u); break;
            }
        many.apply(d);
    }
    one.apply(combined);

    expectCsrEq(many.graph().adjacency(), one.graph().adjacency());
    expectCsrEq(many.normalized(), one.normalized());
    expectCsrEq(many.rowMean(), one.rowMean());
    EXPECT_EQ(many.classes().classOf(), one.classes().classOf());
    expectPlanEq(many.shardPlan()->plan(), one.shardPlan()->plan());
}

TEST(DynamicShardPlan, ImbalanceBoundForcesARebaseOntoAFreshPartition)
{
    Graph g0 = randomGraph(40, 90, 9);
    shard::ShardPlanOptions so;
    so.shards = 2;
    so.partition.seed = 3;
    DynamicShardPlan dsp(g0, so, /*rebase_imbalance=*/1.05);
    DynamicClasses cls(g0, 2);

    // Pile degree-1 leaves onto one hub: the leaves adopt the hub's
    // shard (neighbour-majority rule), so its edge mass runs away until
    // the bound trips.
    GraphDelta d;
    std::vector<NodeId> touched;
    NodeId hub = 0;
    for (NodeId v = 40; v < 80; ++v)
        d.insertEdge(hub, v);
    ResolvedDelta rd = d.resolve(g0);
    Graph g1(mergeAdjacency(g0, rd));
    cls.repair(g1, rd.touched);
    ShardRepairStats stats =
        dsp.repair(g1, rd.touched, cls.classOf(), cls.numClasses());
    EXPECT_TRUE(stats.rebased);
    EXPECT_EQ(dsp.rebases(), 1u);
    expectPlanEq(dsp.plan(), shard::buildShardPlan(g1, so));
}

// -------------------------------------------------- incremental forward
TEST(IncrementalForward, DirtyRowRecomputeIsBitIdenticalAtAnyThreadCount)
{
    struct ThreadGuard
    {
        int saved = currentThreads();
        ~ThreadGuard() { setThreads(saved); }
    } guard;
    NodeId n = 50;
    Graph g0 = randomGraph(n, 140, 41);
    EdgeSet edges = edgeSetOf(g0);

    const int feat = 12, classes = 4;
    Rng wrng(59);
    auto model = makeModel("GCN", feat, classes, false, wrng);
    Matrix x(n, feat);
    Rng xrng(61);
    for (int64_t i = 0; i < x.size(); ++i)
        x.row(0)[i] = float(xrng.normal(0.0, 1.0));

    DynState st(g0, {});
    std::optional<GraphContext> ctx;
    ctx.emplace(st.graph(), st.normalized(), st.rowMean());
    ForwardRecipe recipe = forwardRecipeFor(model, *ctx);
    IncrementalForward fwd = IncrementalForward::fromScratch(recipe, x);
    expectMatrixEq(fwd.logits(), referenceForward(recipe, x));

    Rng rng(67);
    for (int step = 0; step < 4; ++step) {
        // Edge churn only: the feature matrix stays fixed.
        GraphDelta d;
        for (int i = 0; i < 4; ++i) {
            NodeId u = NodeId(rng.uniformInt(0, n - 1));
            NodeId v = NodeId(rng.uniformInt(0, n - 1));
            if (u == v)
                continue;
            if (u > v)
                std::swap(u, v);
            if (edges.count({u, v})) {
                d.removeEdge(u, v);
                edges.erase({u, v});
            } else {
                d.insertEdge(u, v);
                edges.insert({u, v});
            }
        }
        DynUpdateStats us = st.apply(d);
        if (us.applied.noop())
            continue;
        ctx.emplace(st.graph(), st.normalized(), st.rowMean());
        recipe = forwardRecipeFor(model, *ctx);
        fwd = fwd.applied(recipe, x, us.dirty);
        EXPECT_LT(fwd.lastDirtyRows(),
                  size_t(n) * recipe.spec->layers.size());

        for (int threads : {1, 3}) {
            setThreads(threads);
            expectMatrixEq(fwd.logits(), referenceForward(recipe, x));
        }
    }
}

// New nodes, one with an edge and one isolated, are recomputed in every
// family: GAT's aggregation-input cache grows with them, GraphSAGE's
// self concat gathers their rows.
class IncrementalGrowth : public ::testing::TestWithParam<std::string>
{};

TEST_P(IncrementalGrowth, NodeGrowthRecomputesNewRows)
{
    struct ThreadGuard
    {
        int saved = currentThreads();
        ~ThreadGuard() { setThreads(saved); }
    } guard;
    NodeId n = 20;
    Graph g0 = randomGraph(n, 50, 71);
    const int feat = 8, classes = 3;
    Rng wrng(73);
    auto model = makeModel(GetParam(), feat, classes, false, wrng);
    Matrix x0(n, feat);
    Rng xrng(79);
    for (int64_t i = 0; i < x0.size(); ++i)
        x0.row(0)[i] = float(xrng.normal(0.0, 1.0));

    DynState st(g0, {});
    std::optional<GraphContext> ctx;
    ctx.emplace(st.graph(), st.normalized(), st.rowMean());
    ForwardRecipe recipe = forwardRecipeFor(model, *ctx);
    IncrementalForward fwd = IncrementalForward::fromScratch(recipe, x0);

    GraphDelta d;
    d.insertEdge(0, n);     // new node with an edge
    d.addNode(NodeId(n + 1)); // isolated new node
    DynUpdateStats us = st.apply(d);
    ASSERT_EQ(st.graph().numNodes(), n + 2);

    Matrix x1(n + 2, feat, 0.0f);
    std::memcpy(x1.row(0), x0.row(0), size_t(x0.size()) * sizeof(float));
    for (NodeId v = n; v < n + 2; ++v)
        for (int j = 0; j < feat; ++j)
            x1(v, j) = float(xrng.normal(0.0, 1.0));

    ctx.emplace(st.graph(), st.normalized(), st.rowMean());
    recipe = forwardRecipeFor(model, *ctx);
    for (int threads : {1, 3}) {
        setThreads(threads);
        IncrementalForward next = fwd.applied(recipe, x1, us.dirty);
        expectMatrixEq(next.logits(), referenceForward(recipe, x1));
    }
}

INSTANTIATE_TEST_SUITE_P(Zoo, IncrementalGrowth,
                         ::testing::Values("GCN", "GraphSAGE", "GAT", "GIN",
                                           "ResGCN"));

// Every op-graph family (attention scores, GIN residuals, Max
// aggregation, SAGE self-concat) survives streamed deltas: the per-op
// dirty-row recompute stays bit-identical to a from-scratch pass over
// the updated graph, at any thread count.
class IncrementalZoo : public ::testing::TestWithParam<std::string>
{};

TEST_P(IncrementalZoo, DeltaRecomputeMatchesFromScratch)
{
    const std::string family = GetParam();
    struct ThreadGuard
    {
        int saved = currentThreads();
        ~ThreadGuard() { setThreads(saved); }
    } guard;
    NodeId n = 40;
    Graph g0 = randomGraph(n, 120, 83);
    EdgeSet edges = edgeSetOf(g0);

    const int feat = 10, classes = 4;
    Rng wrng(89);
    auto model = makeModel(family, feat, classes, false, wrng);
    Matrix x(n, feat);
    Rng xrng(97);
    for (int64_t i = 0; i < x.size(); ++i)
        x.row(0)[i] = float(xrng.normal(0.0, 1.0));

    DynState st(g0, {});
    std::optional<GraphContext> ctx;
    ctx.emplace(st.graph(), st.normalized(), st.rowMean());
    ForwardRecipe recipe = forwardRecipeFor(model, *ctx);
    IncrementalForward fwd = IncrementalForward::fromScratch(recipe, x);
    expectMatrixEq(fwd.logits(), referenceForward(recipe, x));

    Rng rng(101);
    for (int step = 0; step < 3; ++step) {
        GraphDelta d;
        for (int i = 0; i < 3; ++i) {
            NodeId u = NodeId(rng.uniformInt(0, n - 1));
            NodeId v = NodeId(rng.uniformInt(0, n - 1));
            if (u == v)
                continue;
            if (u > v)
                std::swap(u, v);
            if (edges.count({u, v})) {
                d.removeEdge(u, v);
                edges.erase({u, v});
            } else {
                d.insertEdge(u, v);
                edges.insert({u, v});
            }
        }
        DynUpdateStats us = st.apply(d);
        if (us.applied.noop())
            continue;
        ctx.emplace(st.graph(), st.normalized(), st.rowMean());
        recipe = forwardRecipeFor(model, *ctx);
        fwd = fwd.applied(recipe, x, us.dirty);

        for (int threads : {1, 3}) {
            setThreads(threads);
            expectMatrixEq(fwd.logits(), referenceForward(recipe, x));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Zoo, IncrementalZoo,
                         ::testing::Values("GraphSAGE", "GAT", "GIN",
                                           "ResGCN"));

// ------------------------------------------------ repaired-operator units
TEST(DynStateOperators, AdoptingContextMatchesDerivingContext)
{
    Graph g = randomGraph(25, 70, 83);
    DynState st(g, {});
    GraphContext derived(g);
    expectCsrEq(st.normalized(), derived.normalized());
    expectCsrEq(st.rowMean(), derived.rowMean());
}
