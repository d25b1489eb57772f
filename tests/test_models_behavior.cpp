/**
 * @file
 * Behavioural tests for the model families: training actually reduces
 * loss for every architecture, attention heads differentiate, GraphSAGE
 * sampling operators are well-formed, and deep ResGCN stays trainable
 * (the residual connections' whole point).
 */
#include <gtest/gtest.h>

#include <cstring>

#include "nn/backward.hpp"
#include "nn/dataset.hpp"
#include "nn/trainer.hpp"
#include "sim/parallel.hpp"

using namespace gcod;

namespace {

Dataset
smallDataset(uint64_t seed)
{
    Rng rng(seed);
    SyntheticGraph s = synthesize(profileByName("Cora"), 0.12, rng);
    return materialize(s, rng);
}

/** Masked train loss after n epochs of Adam on the given model. */
double
lossAfter(GnnModel &m, const GraphContext &ctx, const Dataset &ds,
          int epochs)
{
    AdamOptions aopts;
    aopts.lr = 0.01f;
    Adam adam(m.parameters(), aopts);
    Rng rng(1);
    double loss = 0.0;
    TrainingGraph graph(m, ctx);
    for (int e = 0; e < epochs; ++e) {
        graph.step(ds, rng, &loss);
        adam.step(m.gradients());
    }
    return loss;
}

/** A two-layer GraphSAGE with 8 hidden units, trained unsampled. */
GnnModel
smallSage(const Dataset &ds, Rng &rng)
{
    return GnnModel(ModelSpec{"GraphSAGE",
                              {{ds.featureDim(), 8, Aggregation::Mean, 1,
                                true},
                               {8, ds.numClasses(), Aggregation::Mean, 1,
                                true}}},
                    rng);
}

/** One sampleMeanOperator per fanout, drawn in order. */
std::vector<CsrMatrix>
sampleOperators(const Dataset &ds, const std::vector<int> &fanouts,
                Rng &rng)
{
    std::vector<CsrMatrix> ops;
    for (int k : fanouts)
        ops.push_back(sampleMeanOperator(ds.synth.graph, k, rng));
    return ops;
}

/**
 * One GAT layer's weights, Glorot-initialized in parameter order: the
 * projection W, then the attention vectors. forward() runs the
 * projection and an AttentionScore op with heads concatenated.
 */
struct AttentionWeights
{
    int heads, dim;
    Matrix w, aSrc, aDst;

    AttentionWeights(int in, int out, int heads_, Rng &rng)
        : heads(heads_), dim(out), w(in, int64_t(heads_) * out),
          aSrc(heads_, out), aDst(heads_, out)
    {
        w.glorotInit(rng);
        aSrc.glorotInit(rng);
        aDst.glorotInit(rng);
    }

    Matrix
    forward(const CsrMatrix &adj, const Matrix &x) const
    {
        ForwardRecipe m;
        m.operators = {&adj};
        m.weights = {&w, &aSrc, &aDst};
        OpStep att;
        att.kind = OpKind::AttentionScore;
        att.opIndex = 0;
        att.aSrc = 1;
        att.aDst = 2;
        att.heads = heads;
        att.headDim = dim;
        att.concatHeads = true;
        Matrix out;
        runOp(m, nullptr, att, matmul(x, w), nullptr, OpPack(), out);
        return out;
    }
};

} // namespace

class TrainingReducesLoss : public ::testing::TestWithParam<const char *>
{};

TEST_P(TrainingReducesLoss, LossDropsMateriallyWithinTwentyEpochs)
{
    Dataset ds = smallDataset(50);
    GraphContext ctx(ds.synth.graph);
    Rng rng(2);
    GnnModel m = makeModel(GetParam(), ds.featureDim(), ds.numClasses(),
                           false, rng);
    Matrix logits0 = referenceForward(forwardRecipeFor(m, ctx), ds.features);
    double loss0 = crossEntropy(softmaxRows(logits0), ds.labels,
                                ds.trainMask);
    double loss20 = lossAfter(m, ctx, ds, 20);
    EXPECT_LT(loss20, loss0 * 0.8) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllModels, TrainingReducesLoss,
                         ::testing::Values("GCN", "GIN", "GAT", "GraphSAGE",
                                           "ResGCN"));

TEST(Gat, HeadsProduceDistinctAttention)
{
    // With independently initialized attention vectors, two heads must
    // not produce identical outputs.
    Rng rng(3);
    AttentionWeights layer(6, 4, 2, rng);
    Graph g(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}});
    Matrix x(6, 6);
    for (auto &v : x.data())
        v = float(rng.normal(0.0, 1.0));
    Matrix out = layer.forward(g.adjacency(), x);
    ASSERT_EQ(out.cols(), 8);
    double diff = 0.0;
    for (int64_t r = 0; r < out.rows(); ++r)
        for (int64_t c = 0; c < 4; ++c)
            diff += std::fabs(out(r, c) - out(r, c + 4));
    EXPECT_GT(diff, 1e-3);
}

TEST(Gat, IsolatedNodeAttendsOnlyToItself)
{
    // Node 3 has no neighbors: its output must equal its own projected
    // features (softmax over the single self-loop edge = 1).
    Rng rng(4);
    AttentionWeights layer(4, 3, 1, rng);
    Graph g(4, {{0, 1}, {1, 2}});
    Matrix x(4, 4);
    for (auto &v : x.data())
        v = float(rng.normal(0.0, 1.0));
    Matrix out = layer.forward(g.adjacency(), x);
    Matrix h = matmul(x, layer.w);
    for (int64_t c = 0; c < 3; ++c)
        EXPECT_NEAR(out(3, c), h(3, c), 1e-5);
}

TEST(Sage, SampledOperatorIsRowStochasticAndCapped)
{
    Rng rng(5);
    SyntheticGraph s = synthesize(profileByName("Cora"), 0.2, rng);
    Dataset ds = materialize(s, rng);
    GraphContext ctx(ds.synth.graph);
    GnnModel m = smallSage(ds, rng);
    std::vector<CsrMatrix> ops = sampleOperators(ds, {3, 2}, rng);
    // The sampled forward must run and produce finite logits even though
    // every node sees at most 3 neighbors.
    Matrix logits = referenceForward(
        onLayerOperators(forwardRecipeFor(m, ctx), ops), ds.features);
    for (float v : logits.data())
        EXPECT_TRUE(std::isfinite(v));
}

TEST(Sage, ResamplingChangesTheStochasticForward)
{
    Rng rng(6);
    SyntheticGraph s = synthesize(profileByName("Cora"), 0.15, rng);
    Dataset ds = materialize(s, rng);
    GraphContext ctx(ds.synth.graph);
    GnnModel m = smallSage(ds, rng);
    ForwardRecipe full = forwardRecipeFor(m, ctx);
    std::vector<CsrMatrix> first = sampleOperators(ds, {2, 2}, rng);
    Matrix a = referenceForward(onLayerOperators(full, first), ds.features);
    std::vector<CsrMatrix> second = sampleOperators(ds, {2, 2}, rng);
    Matrix b = referenceForward(onLayerOperators(full, second), ds.features);
    EXPECT_GT(Matrix::maxAbsDiff(a, b), 1e-6);
}

TEST(Sage, ClearSamplingRestoresDeterminism)
{
    Rng rng(7);
    SyntheticGraph s = synthesize(profileByName("Cora"), 0.15, rng);
    Dataset ds = materialize(s, rng);
    GraphContext ctx(ds.synth.graph);
    GnnModel m = smallSage(ds, rng);
    m.fanouts = {2, 2};
    TrainingGraph graph(m, ctx);
    graph.resample(rng);
    // The model's own recipe keeps the full operators.
    Matrix a = referenceForward(forwardRecipeFor(m, ctx), ds.features);
    Matrix b = referenceForward(forwardRecipeFor(m, ctx), ds.features);
    EXPECT_LT(Matrix::maxAbsDiff(a, b), 1e-9);
}

TEST(ResGcn, DeepModelGradientsReachTheFirstLayer)
{
    // Residual connections must keep layer-0 gradients alive through all
    // 28 layers (a plain deep GCN would vanish).
    Rng rng(8);
    GnnModel m = makeModel("ResGCN", 5, 3, false, rng);
    Graph g(8, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}});
    GraphContext ctx(g);
    Matrix x(8, 5);
    for (auto &v : x.data())
        v = float(rng.normal(0.0, 1.0));
    TrainingGraph graph(m, ctx);
    Matrix logits = graph.forward(x);
    Matrix probs = softmaxRows(logits);
    std::vector<int> labels = {0, 1, 2, 0, 1, 2, 0, 1};
    Matrix dl = softmaxCrossEntropyBackward(probs, labels);
    graph.backward(dl);
    // First parameter = input projection; its gradient must be nonzero.
    EXPECT_GT(m.gradients().front()->frobeniusNorm(), 1e-8);
}

TEST(EarlyBird, MatchesFullTrainingAccuracyClosely)
{
    // Sec. IV-B2's claim: stopping when the winning-subnetwork mask
    // stabilizes does not compromise final accuracy materially.
    Dataset ds = smallDataset(60);
    GraphContext ctx(ds.synth.graph);
    TrainOptions full;
    full.epochs = 120;
    Rng r1(9), r2(9);
    GnnModel m1 =
        makeModel("GCN", ds.featureDim(), ds.numClasses(), false, r1);
    TrainReport full_rep = train(m1, ctx, ds, full);
    TrainOptions eb = full;
    eb.earlyBird = true;
    GnnModel m2 =
        makeModel("GCN", ds.featureDim(), ds.numClasses(), false, r2);
    TrainReport eb_rep = train(m2, ctx, ds, eb);
    EXPECT_LT(eb_rep.epochsRun, full_rep.epochsRun);
    EXPECT_GT(eb_rep.testAccuracy, full_rep.testAccuracy - 0.12);
}

TEST(Training, TestAccuracyIsMeasuredOnTheFullOperators)
{
    // GraphSAGE trains on a fresh neighbor sample each epoch, but its
    // reported accuracy must be the one serving gets: the full row mean.
    // On this dataset the last epoch's sample scores a different test
    // accuracy than the full operators do.
    Dataset ds = smallDataset(64);
    GraphContext ctx(ds.synth.graph);
    Rng rng(10);
    GnnModel m = makeModel("GraphSAGE", ds.featureDim(), ds.numClasses(),
                           false, rng);
    TrainOptions opts;
    opts.epochs = 30;
    TrainReport rep = train(m, ctx, ds, opts);
    Matrix full = referenceForward(forwardRecipeFor(m, ctx), ds.features);
    EXPECT_EQ(rep.testAccuracy, accuracy(full, ds.labels, ds.testMask));
    EXPECT_EQ(rep.testAccuracyInt8,
              accuracy(quantizedForward(m, ctx, ds.features, 8), ds.labels,
                       ds.testMask));
}

TEST(Training, BitIdenticalAcrossThreadCounts)
{
    Dataset ds = smallDataset(62);
    GraphContext ctx(ds.synth.graph);
    TrainOptions opts;
    opts.epochs = 4;
    const int before = currentThreads();
    for (const char *family : {"GCN", "GraphSAGE", "GAT", "GIN", "ResGCN"}) {
        std::vector<std::vector<Matrix>> trained;
        for (int threads : {1, 4}) {
            setThreads(threads);
            Rng rng(11);
            GnnModel m = makeModel(family, ds.featureDim(), ds.numClasses(),
                                   false, rng);
            train(m, ctx, ds, opts);
            trained.push_back(m.weights());
        }
        ASSERT_EQ(trained[0].size(), trained[1].size());
        for (size_t i = 0; i < trained[0].size(); ++i) {
            const std::vector<float> &a = trained[0][i].data();
            const std::vector<float> &b = trained[1][i].data();
            ASSERT_EQ(a.size(), b.size());
            EXPECT_EQ(std::memcmp(a.data(), b.data(),
                                  a.size() * sizeof(float)),
                      0)
                << family << " parameter " << i;
        }
    }
    setThreads(before);
}
