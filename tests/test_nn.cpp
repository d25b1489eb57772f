/**
 * @file
 * Tests for the NN library: model shapes, exact numerical gradient checks
 * for every model family and for every OpKind's backward rule, Adam,
 * dataset materialization, and the training loop.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <deque>

#include "nn/adam.hpp"
#include "nn/backward.hpp"
#include "nn/dataset.hpp"
#include "nn/models.hpp"
#include "nn/trainer.hpp"

using namespace gcod;

namespace {

/** A small fixed graph with mixed degrees for gradient checking. */
Graph
tinyGraph()
{
    return Graph(8, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {3, 4}, {4, 5},
                     {5, 6}, {6, 7}, {2, 7}});
}

Matrix
tinyFeatures(Rng &rng)
{
    Matrix x(8, 5);
    for (auto &v : x.data())
        v = float(rng.normal(0.0, 1.0));
    return x;
}

const std::vector<int> kTinyLabels = {0, 1, 2, 0, 1, 2, 0, 1};

double
lossOf(GnnModel &m, const GraphContext &ctx, const Matrix &x)
{
    Matrix logits = referenceForward(forwardRecipeFor(m, ctx), x);
    return crossEntropy(softmaxRows(logits), kTinyLabels);
}

/**
 * Finite-difference check: perturb a sample of each parameter's entries
 * and compare the central-difference quotient of @p loss against the
 * analytic gradient.
 */
template <typename Loss>
void
expectFiniteDifferences(const std::vector<Matrix *> &params,
                        const std::vector<Matrix *> &grads, Loss &&loss,
                        double tol)
{
    ASSERT_EQ(params.size(), grads.size());
    const float eps = 3e-3f;
    for (size_t pi = 0; pi < params.size(); ++pi) {
        Matrix &p = *params[pi];
        const Matrix &gmat = *grads[pi];
        ASSERT_TRUE(p.sameShape(gmat));
        // Sample a handful of entries per parameter.
        int64_t stride = std::max<int64_t>(1, p.size() / 12);
        for (int64_t k = 0; k < p.size(); k += stride) {
            float saved = p.data()[size_t(k)];
            p.data()[size_t(k)] = saved + eps;
            double lp = loss();
            p.data()[size_t(k)] = saved - eps;
            double lm = loss();
            p.data()[size_t(k)] = saved;
            double numeric = (lp - lm) / (2.0 * eps);
            double analytic = gmat.data()[size_t(k)];
            double scale = std::max({std::fabs(numeric),
                                     std::fabs(analytic), 0.05});
            EXPECT_NEAR(analytic, numeric, tol * scale)
                << "param " << pi << " entry " << k;
        }
    }
}

/**
 * Numerical gradient check of a model: the analytic gradient comes from
 * the training graph's backward.
 */
void
checkGradients(GnnModel &m, double tol = 0.08)
{
    Graph g = tinyGraph();
    GraphContext ctx(g);
    Rng rng(77);
    Matrix x = tinyFeatures(rng);

    TrainingGraph graph(m, ctx);
    Matrix logits = graph.forward(x);
    Matrix probs = softmaxRows(logits);
    Matrix dlogits = softmaxCrossEntropyBackward(probs, kTinyLabels);
    graph.backward(dlogits);

    expectFiniteDifferences(m.parameters(), m.gradients(),
                            [&] { return lossOf(m, ctx, x); }, tol);
}

/**
 * A hand-built two-layer recipe for one OpKind's backward rule. Layer 0
 * projects the features (GEMM + Readout), so the op under test, in
 * layer 1, lies on the gradient path of that projection's weight.
 */
struct OpRecipe
{
    std::deque<Matrix> weights; // stable addresses: the recipe points in
    ForwardRecipe recipe;
    std::vector<const CsrMatrix *> transposes;

    OpRecipe(int features, int width, Rng &rng)
    {
        recipe.layers.resize(2);
        int w0 = weight(features, width, rng);
        push(0, gemm(0, w0));
        push(0, unary(OpKind::Readout, 1));
    }

    int
    weight(int64_t rows, int64_t cols, Rng &rng)
    {
        weights.emplace_back(rows, cols);
        weights.back().glorotInit(rng);
        recipe.weights.push_back(&weights.back());
        return int(weights.size()) - 1;
    }

    int
    op(const CsrMatrix &a, const CsrMatrix &a_t)
    {
        recipe.operators.push_back(&a);
        transposes.push_back(&a_t);
        return int(recipe.operators.size()) - 1;
    }

    /** Append @p step to layer @p l as its next slot. */
    int
    push(size_t l, OpStep step)
    {
        LayerGraph &g = recipe.layers[l];
        step.out = g.numSlots++;
        g.ops.push_back(step);
        return step.out;
    }

    static OpStep
    gemm(int in, int w)
    {
        OpStep s;
        s.kind = OpKind::GEMM;
        s.in = in;
        s.weight = w;
        return s;
    }

    static OpStep
    unary(OpKind kind, int in)
    {
        OpStep s;
        s.kind = kind;
        s.in = in;
        return s;
    }

    std::vector<Matrix *>
    params()
    {
        std::vector<Matrix *> ps;
        for (Matrix &w : weights)
            ps.push_back(&w);
        return ps;
    }

    /** backwardPass's gradients for @p x, one per weight. */
    std::vector<Matrix>
    gradients(const Matrix &x) const
    {
        ForwardTape tape;
        Matrix logits = tapedForward(recipe, x, tape);
        Matrix dl = softmaxCrossEntropyBackward(softmaxRows(logits),
                                                kTinyLabels);
        std::vector<Matrix> grads;
        for (const Matrix &w : weights)
            grads.emplace_back(w.rows(), w.cols());
        std::vector<Matrix *> gp;
        for (Matrix &g : grads)
            gp.push_back(&g);
        backwardPass(recipe, transposes, tape, dl, gp);
        return grads;
    }

    void
    check(const Matrix &x, double tol = 0.08)
    {
        std::vector<Matrix> grads = gradients(x);
        std::vector<Matrix *> gp;
        for (Matrix &g : grads)
            gp.push_back(&g);
        expectFiniteDifferences(params(), gp, [&] {
            return crossEntropy(softmaxRows(referenceForward(recipe, x)),
                                kTinyLabels);
        }, tol);
    }
};

/** A directed, weighted 8-node operator: A != Aᵀ. */
CsrMatrix
directedOperator()
{
    CooMatrix coo(8, 8);
    coo.add(0, 1, 0.5f);
    coo.add(0, 4, -0.3f);
    coo.add(1, 2, -1.2f);
    coo.add(2, 0, 0.7f);
    coo.add(2, 6, 0.6f);
    coo.add(3, 5, 1.1f);
    coo.add(4, 4, 0.9f);
    coo.add(5, 7, 0.3f);
    coo.add(6, 1, 0.25f);
    coo.add(7, 3, -0.4f);
    return std::move(coo).toCsr();
}

} // namespace

// ------------------------------------------------------------- graph ctx
TEST(GraphContext, OperatorsHaveExpectedShape)
{
    Graph g = tinyGraph();
    GraphContext ctx(g);
    EXPECT_EQ(ctx.normalized().rows(), 8);
    EXPECT_EQ(ctx.binary().nnz(), g.adjacency().nnz());
    // rowMean rows sum to 1 (or 0 for isolates).
    for (NodeId r = 0; r < 8; ++r) {
        double sum = 0.0;
        ctx.rowMean().forEachInRow(r, [&](NodeId, float v) { sum += v; });
        EXPECT_NEAR(sum, g.degrees()[size_t(r)] > 0 ? 1.0 : 0.0, 1e-5);
    }
}

// ----------------------------------------------------------- model shapes
class ModelShapes : public ::testing::TestWithParam<const char *>
{};

TEST_P(ModelShapes, ForwardProducesLogitsPerNode)
{
    Rng rng(1);
    GnnModel m = makeModel(GetParam(), 5, 3, false, rng);
    Graph g = tinyGraph();
    GraphContext ctx(g);
    Matrix x = tinyFeatures(rng);
    Matrix logits = referenceForward(forwardRecipeFor(m, ctx), x);
    EXPECT_EQ(logits.rows(), 8);
    EXPECT_EQ(logits.cols(), 3);
    for (float v : logits.data())
        EXPECT_TRUE(std::isfinite(v));
}

TEST_P(ModelShapes, ParametersAndGradientsAreParallel)
{
    Rng rng(2);
    GnnModel m = makeModel(GetParam(), 5, 3, false, rng);
    auto ps = m.parameters();
    auto gs = m.gradients();
    ASSERT_EQ(ps.size(), gs.size());
    for (size_t i = 0; i < ps.size(); ++i)
        EXPECT_TRUE(ps[i]->sameShape(*gs[i]));
    EXPECT_GT(m.spec().weightCount(), 0);
}

TEST_P(ModelShapes, QuantizedForwardRestoresWeights)
{
    Rng rng(3);
    GnnModel m = makeModel(GetParam(), 5, 3, false, rng);
    Graph g = tinyGraph();
    GraphContext ctx(g);
    Matrix x = tinyFeatures(rng);
    std::vector<Matrix> before;
    for (Matrix *p : m.parameters())
        before.push_back(*p);
    Matrix logits = quantizedForward(m, ctx, x, 8);
    EXPECT_EQ(logits.rows(), 8);
    auto after = m.parameters();
    for (size_t i = 0; i < after.size(); ++i)
        EXPECT_LT(Matrix::maxAbsDiff(before[i], *after[i]), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelShapes,
                         ::testing::Values("GCN", "GIN", "GAT", "GraphSAGE",
                                           "ResGCN"));

// --------------------------------------------------------- gradient checks
TEST(Gradients, GcnBackwardIsExact)
{
    Rng rng(10);
    GnnModel m = makeModel("GCN", 5, 3, false, rng);
    checkGradients(m);
}

TEST(Gradients, GinBackwardIsExact)
{
    Rng rng(11);
    GnnModel m = makeModel("GIN", 5, 3, false, rng);
    checkGradients(m);
}

TEST(Gradients, GatBackwardIsExact)
{
    Rng rng(12);
    GnnModel m = makeModel("GAT", 5, 3, false, rng);
    checkGradients(m, 0.12); // attention softmax is float-noisier
}

TEST(Gradients, SageBackwardIsExact)
{
    Rng rng(13);
    // Unsampled (full-mean) variant so the operator is deterministic.
    GnnModel m(ModelSpec{"GraphSAGE",
                         {{5, 7, Aggregation::Mean, 1, true},
                          {7, 3, Aggregation::Mean, 1, true}}},
               rng);
    checkGradients(m);
}

TEST(Gradients, ResGcnBackwardIsExact)
{
    // A shallow instance: 28 float32 layers accumulate too much rounding
    // for finite differences, but the backward code is depth-independent.
    Rng rng(14);
    GnnModel m(ModelSpec{"ResGCN",
                         {{5, 8, Aggregation::Max, 1, false},
                          {8, 8, Aggregation::Max, 1, false},
                          {8, 8, Aggregation::Max, 1, false},
                          {8, 3, Aggregation::Max, 1, false}}},
               rng);
    checkGradients(m, 0.15);
}

// ------------------------------------------------ per-OpKind backward rules
TEST(OpGradients, SpmmUsesTheTransposeOfANonSymmetricOperator)
{
    Rng rng(30);
    CsrMatrix a = directedOperator();
    CsrMatrix at = a.transpose();
    OpRecipe r(5, 4, rng);
    int op = r.op(a, at);
    int w1 = r.weight(4, 3, rng);
    OpStep spmm = OpRecipe::unary(OpKind::SpMM, 0);
    spmm.opIndex = op;
    int s = r.push(1, spmm);
    int z = r.push(1, OpRecipe::gemm(s, w1));
    r.push(1, OpRecipe::unary(OpKind::Readout, z));
    r.check(tinyFeatures(rng));
}

TEST(OpGradients, ResidualScalesTheAuxGradient)
{
    Rng rng(31);
    Graph g = tinyGraph();
    OpRecipe r(5, 4, rng);
    r.op(g.adjacency(), g.adjacency()); // passes check rows against it
    int w1 = r.weight(4, 4, rng);
    int w2 = r.weight(4, 3, rng);
    int h = r.push(1, OpRecipe::gemm(0, w1));
    OpStep res = OpRecipe::unary(OpKind::Residual, h);
    res.aux = 0;
    res.scale = 1.7f;
    int o = r.push(1, res);
    int z = r.push(1, OpRecipe::gemm(o, w2));
    r.push(1, OpRecipe::unary(OpKind::Readout, z));
    r.check(tinyFeatures(rng));
}

namespace {

/** Layer 1 = MaxAgg over the tiny graph, then a GEMM to 3 classes. */
OpRecipe
maxAggRecipe(int features, const CsrMatrix &adj, Rng &rng)
{
    OpRecipe r(features, 4, rng);
    int op = r.op(adj, adj);
    int w1 = r.weight(4, 3, rng);
    OpStep agg = OpRecipe::unary(OpKind::MaxAgg, 0);
    agg.opIndex = op;
    int s = r.push(1, agg);
    int z = r.push(1, OpRecipe::gemm(s, w1));
    r.push(1, OpRecipe::unary(OpKind::Readout, z));
    return r;
}

} // namespace

TEST(OpGradients, MaxAggRoutesTiesToOneWinner)
{
    // Neighbors 0-1, 3-4 and 6-7 share feature rows, so their projected
    // rows tie under every perturbation: the max stays differentiable,
    // and a tie routed to both candidates would double the gradient.
    Rng rng(32);
    Graph g = tinyGraph();
    Matrix x = tinyFeatures(rng);
    for (auto [from, to] : {std::pair{0, 1}, {3, 4}, {6, 7}})
        std::copy(x.row(from), x.row(from) + x.cols(), x.row(to));
    OpRecipe r = maxAggRecipe(5, g.adjacency(), rng);
    r.check(x);
}

TEST(OpGradients, MaxAggTieGoesToTheFirstCandidate)
{
    // One-hot features make W0's rows the projected rows, so dW0 row j
    // is exactly the gradient routed to node j. Rows 0 and 1 tie; the
    // winner is the first candidate: the node itself, then neighbors in
    // row order.
    Rng rng(33);
    Graph g = tinyGraph();
    Matrix x(8, 8, 0.0f);
    for (int64_t i = 0; i < 8; ++i)
        x(i, i) = 1.0f;
    OpRecipe r = maxAggRecipe(8, g.adjacency(), rng);
    Matrix &w0 = r.weights[0];
    std::copy(w0.row(0), w0.row(0) + w0.cols(), w0.row(1));
    std::vector<Matrix> grads = r.gradients(x);

    Matrix h = matmul(x, w0);
    ForwardTape tape;
    Matrix logits = tapedForward(r.recipe, x, tape);
    Matrix dl =
        softmaxCrossEntropyBackward(softmaxRows(logits), kTinyLabels);
    Matrix ds = matmulTransposedB(dl, r.weights[1]);
    Matrix expect(8, 4, 0.0f);
    for (NodeId i = 0; i < 8; ++i)
        for (int64_t c = 0; c < 4; ++c) {
            NodeId win = i;
            g.adjacency().forEachInRow(i, [&](NodeId j, float) {
                if (h(j, c) > h(win, c))
                    win = j;
            });
            expect(win, c) += ds(i, c);
        }
    EXPECT_EQ(Matrix::maxAbsDiff(grads[0], expect), 0.0);
    // Node 2 reads both tied rows; the first in its row, node 0, wins.
    bool tie_decided = false;
    for (int64_t c = 0; c < 4; ++c)
        tie_decided |= h(0, c) > h(2, c) && h(0, c) > h(7, c);
    EXPECT_TRUE(tie_decided);
}

class AttentionGradients
    : public ::testing::TestWithParam<std::tuple<int, bool>>
{};

TEST_P(AttentionGradients, MatchFiniteDifferences)
{
    const auto [heads, concat] = GetParam();
    Rng rng(34 + uint64_t(heads) * 2 + (concat ? 1 : 0));
    Graph g = tinyGraph();
    const int dim = 3;
    OpRecipe r(5, 4, rng);
    int op = r.op(g.adjacency(), g.adjacency());
    int w = r.weight(4, int64_t(heads) * dim, rng);
    int a_src = r.weight(heads, dim, rng);
    int a_dst = r.weight(heads, dim, rng);
    int w2 = r.weight(concat ? heads * dim : dim, 3, rng);
    int h = r.push(1, OpRecipe::gemm(0, w));
    OpStep att = OpRecipe::unary(OpKind::AttentionScore, h);
    att.opIndex = op;
    att.aSrc = a_src;
    att.aDst = a_dst;
    att.heads = heads;
    att.headDim = dim;
    att.concatHeads = concat;
    int o = r.push(1, att);
    int z = r.push(1, OpRecipe::gemm(o, w2));
    r.push(1, OpRecipe::unary(OpKind::Readout, z));
    r.check(tinyFeatures(rng));
}

INSTANTIATE_TEST_SUITE_P(HeadsAndMerge, AttentionGradients,
                         ::testing::Combine(::testing::Values(1, 2),
                                            ::testing::Bool()));

// ------------------------------------------------------------------- adam
TEST(Adam, MinimizesQuadratic)
{
    // One 1x1 parameter, loss (w-3)^2: Adam should converge to 3.
    Matrix w(1, 1, 0.0f);
    Adam adam({&w}, {.lr = 0.1f});
    Matrix g(1, 1);
    for (int i = 0; i < 500; ++i) {
        g(0, 0) = 2.0f * (w(0, 0) - 3.0f);
        adam.step({&g});
    }
    EXPECT_NEAR(w(0, 0), 3.0f, 0.05f);
    EXPECT_EQ(adam.steps(), 500);
}

TEST(Adam, ShapeMismatchPanics)
{
    Matrix w(2, 2);
    Adam adam({&w});
    Matrix bad(3, 3);
    EXPECT_THROW(adam.step({&bad}), std::logic_error);
}

TEST(Adam, WeightDecayShrinksWeights)
{
    Matrix w(1, 1, 10.0f);
    AdamOptions opts;
    opts.lr = 0.1f;
    opts.weightDecay = 1.0f;
    Adam adam({&w}, opts);
    Matrix g(1, 1, 0.0f);
    for (int i = 0; i < 100; ++i)
        adam.step({&g});
    EXPECT_LT(std::fabs(w(0, 0)), 10.0f);
}

// ---------------------------------------------------------------- dataset
TEST(Dataset, MaterializeShapesAndMasks)
{
    Rng rng(20);
    SyntheticGraph synth = synthesize(profileByName("Cora"), 0.2, rng);
    Dataset ds = materialize(synth, rng);
    NodeId n = synth.graph.numNodes();
    EXPECT_EQ(ds.features.rows(), int64_t(n));
    EXPECT_EQ(ds.labels.size(), size_t(n));
    // Masks partition all nodes.
    int covered = 0;
    for (NodeId v = 0; v < n; ++v) {
        int in = int(ds.trainMask[size_t(v)]) + int(ds.valMask[size_t(v)]) +
                 int(ds.testMask[size_t(v)]);
        EXPECT_EQ(in, 1);
        covered += in;
    }
    EXPECT_EQ(covered, n);
}

TEST(Dataset, FeaturesCorrelateWithLabels)
{
    // Same-class nodes must be closer in feature space than cross-class
    // (otherwise accuracy experiments are meaningless).
    Rng rng(21);
    SyntheticGraph synth = synthesize(profileByName("Cora"), 0.2, rng);
    Dataset ds = materialize(synth, rng);
    double same = 0.0, cross = 0.0;
    int n_same = 0, n_cross = 0;
    for (int trial = 0; trial < 4000; ++trial) {
        auto i = int64_t(rng.uniformInt(0, ds.features.rows() - 1));
        auto j = int64_t(rng.uniformInt(0, ds.features.rows() - 1));
        if (i == j)
            continue;
        double d = 0.0;
        for (int64_t c = 0; c < ds.features.cols(); ++c) {
            double diff = ds.features(i, c) - ds.features(j, c);
            d += diff * diff;
        }
        if (ds.labels[size_t(i)] == ds.labels[size_t(j)]) {
            same += d;
            ++n_same;
        } else {
            cross += d;
            ++n_cross;
        }
    }
    EXPECT_LT(same / n_same, cross / n_cross);
}

// ---------------------------------------------------------------- trainer
TEST(Trainer, GcnLearnsAboveChance)
{
    Rng rng(22);
    SyntheticGraph synth = synthesize(profileByName("Cora"), 0.15, rng);
    Dataset ds = materialize(synth, rng);
    GraphContext ctx(ds.synth.graph);
    GnnModel m = makeModel("GCN", ds.featureDim(), ds.numClasses(), false,
                           rng);
    TrainOptions topts;
    topts.epochs = 40;
    TrainReport rep = train(m, ctx, ds, topts);
    double chance = 1.0 / double(ds.numClasses());
    EXPECT_GT(rep.testAccuracy, chance * 2.0);
    EXPECT_EQ(rep.epochsRun, 40);
    EXPECT_GT(rep.trainingCostProxy, 0.0);
}

TEST(Trainer, EarlyBirdStopsEarly)
{
    Rng rng(23);
    SyntheticGraph synth = synthesize(profileByName("Cora"), 0.15, rng);
    Dataset ds = materialize(synth, rng);
    GraphContext ctx(ds.synth.graph);
    GnnModel m = makeModel("GCN", ds.featureDim(), ds.numClasses(), false,
                           rng);
    TrainOptions topts;
    topts.epochs = 300;
    topts.earlyBird = true;
    TrainReport rep = train(m, ctx, ds, topts);
    EXPECT_LT(rep.epochsRun, 300);
    EXPECT_GE(rep.epochsRun, topts.minEpochs);
}

TEST(Trainer, QuantizedEvalCloseToFloat)
{
    Rng rng(24);
    SyntheticGraph synth = synthesize(profileByName("Cora"), 0.15, rng);
    Dataset ds = materialize(synth, rng);
    GraphContext ctx(ds.synth.graph);
    GnnModel m = makeModel("GCN", ds.featureDim(), ds.numClasses(), false,
                           rng);
    TrainOptions topts;
    topts.epochs = 40;
    TrainReport rep = train(m, ctx, ds, topts);
    EXPECT_GT(rep.testAccuracyInt8, rep.testAccuracy - 0.15);
}

// --------------------------------------------------------------- specs
TEST(ModelSpec, MatchesPaperTable4)
{
    ModelSpec gcn = makeModelSpec("GCN", 1433, 7, false);
    EXPECT_EQ(gcn.layers.size(), 2u);
    EXPECT_EQ(gcn.layers[0].outDim, 16);
    ModelSpec gcn_large = makeModelSpec("GCN", 602, 41, true);
    EXPECT_EQ(gcn_large.layers[0].outDim, 64);
    ModelSpec gat = makeModelSpec("GAT", 1433, 7, false);
    EXPECT_EQ(gat.layers[0].heads, 8);
    EXPECT_EQ(gat.layers[0].outDim, 8);
    ModelSpec gin = makeModelSpec("GIN", 1433, 7, false);
    EXPECT_EQ(gin.layers.size(), 3u);
    EXPECT_EQ(gin.layers[0].agg, Aggregation::Add);
    ModelSpec res = makeModelSpec("ResGCN", 128, 40, true);
    EXPECT_EQ(res.layers.size(), 28u);
    EXPECT_EQ(res.layers[1].outDim, 128);
    EXPECT_EQ(res.layers[0].agg, Aggregation::Max);
    ModelSpec sage = makeModelSpec("GraphSAGE", 1433, 7, false);
    EXPECT_TRUE(sage.layers[0].concatSelf);
    EXPECT_THROW(makeModelSpec("NoSuchModel", 1, 1, false),
                 std::runtime_error);
}

TEST(ModelSpec, WeightCountAccountsConcatAndHeads)
{
    ModelSpec sage = makeModelSpec("GraphSAGE", 10, 2, false);
    // Layer 0: 2*10*16, layer 1: 2*16*2.
    EXPECT_EQ(sage.weightCount(), 2 * 10 * 16 + 2 * 16 * 2);
}

TEST(ModelSpec, WeightCountSumsEveryRecipeMatrix)
{
    // A GIN layer runs a two-GEMM MLP: W1 (in x hidden), W2 (hidden x
    // out), with hidden the first layer's width (16 here).
    ModelSpec gin = makeModelSpec("GIN", 10, 3, false);
    ModelSpec one = gin;
    one.layers.resize(1);
    EXPECT_EQ(one.weightCount(), 10 * 16 + 16 * 16);
    EXPECT_EQ(gin.weightCount(),
              (10 * 16 + 16 * 16) + (16 * 16 + 16 * 16) + (16 * 16 + 16 * 3));
    // GAT adds its two attention vectors (heads x out) per layer.
    ModelSpec gat = makeModelSpec("GAT", 10, 3, false);
    EXPECT_EQ(gat.weightCount(),
              (10 * 64 + 2 * 8 * 8) + (64 * 3 + 2 * 1 * 3));
    // Every family: the entries of the model's own parameters.
    for (const char *name : {"GCN", "GraphSAGE", "GIN", "GAT", "ResGCN"}) {
        Rng rng(4);
        GnnModel m = makeModel(name, 10, 3, false, rng);
        int64_t entries = 0;
        for (const Matrix &w : m.weights())
            entries += w.size();
        EXPECT_EQ(m.spec().weightCount(), entries) << name;
    }
}

TEST(ModelSpec, SpecOnlyModelHasZeroedRecipeShapedWeights)
{
    ModelSpec spec = makeModelSpec("GIN", 10, 3, false);
    Rng rng(5);
    GnnModel seeded(spec, rng);
    GnnModel zeroed(spec);
    ASSERT_EQ(zeroed.weights().size(), seeded.weights().size());
    for (size_t i = 0; i < zeroed.weights().size(); ++i) {
        EXPECT_TRUE(zeroed.weights()[i].sameShape(seeded.weights()[i]));
        for (float v : zeroed.weights()[i].data())
            ASSERT_EQ(v, 0.0f);
    }
}
