#include "compress.hpp"

#include <algorithm>

#include "gcod/polarize.hpp"
#include "nn/backward.hpp"
#include "tensor/quant.hpp"

namespace gcod {

namespace {

bool
isLarge(const Dataset &ds)
{
    return ds.synth.original.nodes >= kLargeGraphNodes;
}

/** Dataset copy with a replacement graph. */
Dataset
withGraph(const Dataset &ds, Graph g)
{
    Dataset out = ds;
    out.synth.graph = std::move(g);
    return out;
}

} // namespace

CompressReport
randomPrune(const Dataset &ds, const std::string &model, double prune_ratio,
            const TrainOptions &topts, Rng &rng)
{
    CompressReport rep;
    rep.method = "RP";
    rep.edgeSparsity = prune_ratio;

    std::vector<std::pair<NodeId, NodeId>> edges;
    ds.synth.graph.adjacency().forEach([&](NodeId r, NodeId c, float) {
        if (r < c)
            edges.emplace_back(r, c);
    });
    rng.shuffle(edges);
    size_t keep = size_t(double(edges.size()) * (1.0 - prune_ratio));
    edges.resize(std::max<size_t>(keep, 1));
    Dataset pruned = withGraph(ds, Graph(ds.synth.graph.numNodes(), edges));

    GraphContext ctx(pruned.synth.graph);
    auto m = makeModel(model, ds.featureDim(), ds.numClasses(), isLarge(ds),
                       rng);
    TrainReport tr = train(m, ctx, pruned, topts);
    rep.testAccuracy = tr.testAccuracy;
    return rep;
}

CompressReport
sgcnSparsify(const Dataset &ds, const std::string &model, double prune_ratio,
             const TrainOptions &topts, Rng &rng)
{
    CompressReport rep;
    rep.method = "SGCN";

    // Pretrain an auxiliary GCN for the graph-tuning loss (as in [23]).
    GraphContext ctx0(ds.synth.graph);
    GnnModel aux =
        makeModel("GCN", ds.featureDim(), ds.numClasses(), isLarge(ds), rng);
    TrainOptions pre = topts;
    pre.earlyBird = true;
    train(aux, ctx0, ds, pre);

    PolarizeOptions popts;
    popts.pruneRatio = prune_ratio;
    popts.polaWeight = 0.0; // pure sparsifier: no polarization preference
    auto params = aux.parameters();
    PolarizeResult pr = sparsifyAndPolarize(
        ds.synth.graph, ds.features, ds.labels, ds.trainMask, *params[0],
        *params[1], popts);
    rep.edgeSparsity = pr.achievedPruneRatio;

    Dataset pruned = withGraph(ds, Graph(pr.prunedAdj));
    GraphContext ctx(pruned.synth.graph);
    auto m = makeModel(model, ds.featureDim(), ds.numClasses(), isLarge(ds),
                       rng);
    TrainReport tr = train(m, ctx, pruned, topts);
    rep.testAccuracy = tr.testAccuracy;
    return rep;
}

namespace {

/**
 * Shared QAT core: straight-through-estimator training with fake-quantized
 * weights. When protect_ratio >= 0, evaluation protects the top-degree
 * nodes' features from quantization (Degree-Quant).
 */
CompressReport
qatCore(const Dataset &ds, const std::string &model, int bits,
        double protect_ratio, const TrainOptions &topts, Rng &rng)
{
    CompressReport rep;
    rep.bits = bits;

    GraphContext ctx(ds.synth.graph);
    auto m = makeModel(model, ds.featureDim(), ds.numClasses(), isLarge(ds),
                       rng);
    AdamOptions aopts;
    aopts.lr = topts.lr;
    Adam adam(m.parameters(), aopts);
    Rng srng(topts.seed);

    // Straight-through estimator: the forward/backward pass sees the
    // fake-quantized weights, the optimizer updates the fp32 masters.
    TrainingGraph graph(m, ctx);
    for (int epoch = 0; epoch < topts.epochs; ++epoch) {
        {
            FakeQuantizedWeights quantized(m, bits);
            graph.step(ds, srng);
        }
        adam.step(m.gradients());
    }

    if (protect_ratio >= 0.0) {
        // Degree-Quant evaluation: quantize weights, but keep the features
        // of the most quantization-sensitive (high-degree) nodes intact.
        FakeQuantizedWeights quantized(m, bits);
        Matrix qx = degreeAwareFakeQuantize(
            ds.features, ds.synth.graph.degrees(), bits, protect_ratio);
        Matrix logits = referenceForward(forwardRecipeFor(m, ctx), qx);
        rep.testAccuracy = accuracy(logits, ds.labels, ds.testMask);
    } else {
        rep.testAccuracy = evaluateQuantized(m, ctx, ds, bits);
    }
    return rep;
}

} // namespace

CompressReport
qatTrain(const Dataset &ds, const std::string &model, int bits,
         const TrainOptions &topts, Rng &rng)
{
    CompressReport rep = qatCore(ds, model, bits, -1.0, topts, rng);
    rep.method = "QAT";
    return rep;
}

CompressReport
degreeQuant(const Dataset &ds, const std::string &model, int bits,
            double protect_ratio, const TrainOptions &topts, Rng &rng)
{
    CompressReport rep = qatCore(ds, model, bits, protect_ratio, topts, rng);
    rep.method = "Degree-Quant";
    return rep;
}

} // namespace gcod
