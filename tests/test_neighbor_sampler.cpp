/**
 * @file
 * Tests for seeded neighbor sampling (nn/neighbor_sampler): the sampled
 * operator's row contract — which the int8 row pass's seed-invariant
 * memo relies on — and memcmp parity of the row passes against the same
 * row of the full sampled pass, at fp32, int8 and 4 bits, for GCN and
 * GraphSAGE, at 1 and 4 kernel threads.
 */
#include <gtest/gtest.h>

#include <cstring>

#include "graph/generate.hpp"
#include "nn/neighbor_sampler.hpp"
#include "sim/parallel.hpp"

using namespace gcod;

namespace {

/** A power-law graph (hubs) plus one isolated node, the last one. */
Graph
hubsAndIsolate(NodeId nodes, uint64_t seed)
{
    Rng rng(seed);
    Graph ba = barabasiAlbert(nodes, 2, rng);
    std::vector<std::pair<NodeId, NodeId>> edges;
    ba.adjacency().forEach([&](NodeId r, NodeId c, float) {
        if (r < c)
            edges.emplace_back(r, c);
    });
    return Graph(nodes + 1, edges);
}

/** One Mean-stack model over hubsAndIsolate, with its recipe. */
struct Fixture
{
    Graph graph;
    GraphContext ctx;
    std::unique_ptr<GnnModel> model;
    Matrix x;
    ForwardRecipe recipe;

    explicit Fixture(const std::string &family, NodeId nodes = 120,
                     int features = 24, uint64_t seed = 5)
        : graph(hubsAndIsolate(nodes, seed)), ctx(graph)
    {
        Rng rng(seed + 1);
        model = std::make_unique<GnnModel>(
            makeModel(family, features, 5, false, rng));
        x = Matrix(graph.numNodes(), features);
        for (auto &v : x.data())
            v = float(rng.normal(0.0, 1.0));
        recipe = forwardRecipeFor(*model, ctx);
    }

    NodeId isolated() const { return graph.numNodes() - 1; }

    QuantizedGnn
    pack(int dense_bits, int sparse_bits) const
    {
        MixedPrecisionPolicy policy;
        policy.denseBits = dense_bits;
        policy.sparseBits = sparse_bits;
        return quantizeGnn(recipe, graph.degrees(), policy);
    }
};

bool
sameRow(const Matrix &full, NodeId row, const Matrix &one)
{
    return one.rows() == 1 && one.cols() == full.cols() &&
           std::memcmp(full.row(row), one.row(0),
                       size_t(full.cols()) * sizeof(float)) == 0;
}

bool
sameCsrRow(const CsrMatrix &a, NodeId ra, const CsrMatrix &b, NodeId rb)
{
    if (a.rowNnz(ra) != b.rowNnz(rb))
        return false;
    EdgeOffset ka = a.indptr()[size_t(ra)], kb = b.indptr()[size_t(rb)];
    for (EdgeOffset t = 0; t < a.rowNnz(ra); ++t)
        if (a.indices()[size_t(ka + t)] != b.indices()[size_t(kb + t)] ||
            std::memcmp(&a.values()[size_t(ka + t)],
                        &b.values()[size_t(kb + t)], sizeof(float)) != 0)
            return false;
    return true;
}

/** Restores the kernel pool's thread count on scope exit. */
struct ThreadsGuard
{
    int saved = currentThreads();
    ~ThreadsGuard() { setThreads(saved); }
};

} // namespace

TEST(NeighborSampler, RowsHoldAtMostFanoutEntriesOfEqualWeight)
{
    Fixture f("GraphSAGE");
    for (int fanout : {1, 3, 10}) {
        CsrMatrix op = sampledMeanOperator(f.graph, fanout, 9, 0);
        ASSERT_EQ(op.rows(), f.graph.numNodes());
        for (NodeId i = 0; i < op.rows(); ++i) {
            EdgeOffset len = op.rowNnz(i);
            EXPECT_LE(len, EdgeOffset(fanout));
            EXPECT_EQ(len, std::min<EdgeOffset>(
                               f.graph.adjacency().rowNnz(i), fanout));
            op.forEachInRow(i, [&](NodeId j, float w) {
                EXPECT_EQ(w, 1.0f / float(len));
                EXPECT_NE(f.graph.adjacency().at(i, j), 0.0f)
                    << "sampled a non-neighbor";
            });
        }
        EXPECT_EQ(op.rowNnz(f.isolated()), 0);
    }
}

TEST(NeighborSampler, WholeRowsAreSeedAndLayerFreeAndEqualRowMean)
{
    Fixture f("GraphSAGE");
    const int fanout = 4;
    const CsrMatrix &mean = f.ctx.rowMean();
    CsrMatrix a = sampledMeanOperator(f.graph, fanout, 1, 0);
    CsrMatrix b = sampledMeanOperator(f.graph, fanout, 2, 1);
    size_t whole = 0, hubsDiffer = 0;
    for (NodeId i = 0; i < f.graph.numNodes(); ++i) {
        if (f.graph.adjacency().rowNnz(i) <= fanout) {
            ++whole;
            EXPECT_TRUE(sameCsrRow(a, i, b, i)) << "row " << i;
            EXPECT_TRUE(sameCsrRow(a, i, mean, i)) << "row " << i;
        } else {
            hubsDiffer += !sameCsrRow(a, i, b, i);
        }
    }
    EXPECT_GT(whole, 0u);
    EXPECT_GT(hubsDiffer, 0u) << "hub rows should depend on the seed";
}

TEST(NeighborSampler, OneRowAloneMatchesTheOperatorRow)
{
    Fixture f("GCN");
    for (int fanout : {1, 3}) {
        CsrMatrix op = sampledMeanOperator(f.graph, fanout, 31, 1);
        for (NodeId i = 0; i < f.graph.numNodes(); ++i) {
            CsrMatrix one = sampledMeanRows(f.graph, fanout, 31, 1, {i});
            ASSERT_EQ(one.rows(), 1);
            EXPECT_TRUE(sameCsrRow(op, i, one, 0)) << "row " << i;
        }
        // Rows in any order come back in that order.
        CsrMatrix some = sampledMeanRows(f.graph, fanout, 31, 1, {7, 2, 7});
        EXPECT_TRUE(sameCsrRow(op, 7, some, 0));
        EXPECT_TRUE(sameCsrRow(op, 2, some, 1));
        EXPECT_TRUE(sameCsrRow(op, 7, some, 2));
    }
}

TEST(NeighborSampler, OperatorScaleIsSeedFree)
{
    Fixture f("GraphSAGE");
    QuantizedGnn base = f.pack(8, 16);
    for (int fanout : {1, 3, 1000}) {
        SampledExecution s1 = buildSampledExecution(f.recipe, f.graph,
                                                    fanout, 1);
        SampledExecution s2 = buildSampledExecution(f.recipe, f.graph,
                                                    fanout, 2);
        QuantizedGnn q1 = quantizeSampled(s1, base);
        QuantizedGnn q2 = quantizeSampled(s2, base);
        QuantParams qp = sampledOperatorParams(f.graph, fanout,
                                               base.policy.operatorBits);
        for (size_t l = 0; l < q1.qops.size(); ++l) {
            EXPECT_EQ(q1.qops[l].qp.scale, q2.qops[l].qp.scale);
            EXPECT_EQ(q1.qops[l].qp.scale, qp.scale);
            EXPECT_EQ(q1.qops[l].qp.bits, qp.bits);
        }
    }
}

namespace {

/**
 * Every (node, seed) pair's row pass against the full sampled pass of
 * its seed, at @p bits (32 = fp32; otherwise a dense/sparse pack of
 * @p bits / 2 * @p bits, capped at 16). Returns the pairs checked.
 */
size_t
checkRowParity(const Fixture &f, int fanout, int bits,
               const std::vector<uint64_t> &seeds)
{
    QuantizedGnn base;
    SampledQuantMemo memo;
    if (bits < 32) {
        base = f.pack(bits, std::min(16, 2 * bits));
        memo = buildSampledQuantMemo(base, f.graph, f.x, fanout);
    }
    size_t pairs = 0;
    for (uint64_t seed : seeds) {
        SampledExecution se =
            buildSampledExecution(f.recipe, f.graph, fanout, seed);
        Matrix full =
            bits < 32
                ? quantizedForwardMixed(quantizeSampled(se, base), f.x)
                : referenceForward(se.recipe, f.x);
        for (NodeId t = 0; t < f.graph.numNodes(); ++t) {
            size_t rows = 0;
            Matrix one =
                bits < 32
                    ? sampledQuantizedForwardRow(base, memo, f.graph, f.x,
                                                 seed, t, &rows)
                    : sampledForwardRow(f.recipe, f.graph, f.x, fanout,
                                        seed, t, &rows);
            EXPECT_TRUE(sameRow(full, t, one))
                << f.model->spec().name << " bits " << bits << " fanout "
                << fanout << " seed " << seed << " node " << t;
            EXPECT_GT(rows, 0u);
            ++pairs;
        }
    }
    return pairs;
}

} // namespace

TEST(SampledRowPass, MatchesTheFullSampledPassRow)
{
    ThreadsGuard guard;
    for (const char *family : {"GCN", "GraphSAGE"}) {
        Fixture f(family);
        NodeId maxDegree = f.graph.maxDegree();
        for (int threads : {1, 4}) {
            setThreads(threads);
            for (int fanout : {1, 3, int(maxDegree)})
                for (int bits : {32, 8, 4})
                    EXPECT_GE(checkRowParity(f, fanout, bits, {1, 2, 99}),
                              200u);
        }
    }
}

TEST(SampledRowPass, ComputesOnlyTheRowsTheAnswerReads)
{
    Fixture f("GCN");
    const int fanout = 3;
    size_t rows = 0;
    sampledForwardRow(f.recipe, f.graph, f.x, fanout, 4, 10, &rows);
    // Layer 1: the target; layer 0: it and at most `fanout` neighbors.
    EXPECT_LE(rows, size_t(1 + 1 + fanout));
    sampledForwardRow(f.recipe, f.graph, f.x, fanout, 4, f.isolated(),
                      &rows);
    EXPECT_EQ(rows, 2u) << "an isolated node reads only itself";

    QuantizedGnn base = f.pack(8, 16);
    SampledQuantMemo memo = buildSampledQuantMemo(base, f.graph, f.x, fanout);
    size_t hubs = 0;
    for (NodeId i = 0; i < f.graph.numNodes(); ++i)
        hubs += f.graph.adjacency().rowNnz(i) > fanout;
    EXPECT_EQ(memo.hubs.size(), hubs);
    sampledQuantizedForwardRow(base, memo, f.graph, f.x, 4, 10, &rows);
    EXPECT_EQ(rows, hubs + 1) << "int8: the hubs, then the target";

    // No hubs at fanout >= max degree: only the target row runs.
    SampledQuantMemo whole = buildSampledQuantMemo(
        base, f.graph, f.x, int(f.graph.maxDegree()));
    EXPECT_TRUE(whole.hubs.empty());
    sampledQuantizedForwardRow(base, whole, f.graph, f.x, 4, 10, &rows);
    EXPECT_EQ(rows, 1u);
}

TEST(SampledRowPass, DeeperStacksMatchThroughWholeGraphMiddleLayers)
{
    // A 3-layer plain-Mean stack: GCN's two layers with a hidden-width
    // middle layer spliced in.
    Fixture f("GCN");
    Rng rng(77);
    const int hidden = f.recipe.weights[0]->cols();
    Matrix mid(hidden, hidden);
    for (auto &v : mid.data())
        v = float(rng.normal(0.0, 0.3));
    ModelSpec spec = f.model->spec();
    spec.layers.insert(spec.layers.begin() + 1, spec.layers[0]);
    spec.layers[1].inDim = spec.layers[1].outDim = hidden;
    ForwardRecipe deep = f.recipe;
    deep.spec = &spec;
    deep.weights = {f.recipe.weights[0], &mid, f.recipe.weights[1]};
    deep.layers.insert(deep.layers.begin() + 1, f.recipe.layers[0]);
    for (OpStep &op : deep.layers[1].ops)
        if (op.kind == OpKind::GEMM)
            op.weight = 1;
    for (OpStep &op : deep.layers[2].ops)
        if (op.kind == OpKind::GEMM)
            op.weight = 2;

    f.recipe = deep;
    EXPECT_GT(checkRowParity(f, 2, 32, {3}), 0u);
    EXPECT_GT(checkRowParity(f, 2, 8, {3, 4}), 0u);
}
