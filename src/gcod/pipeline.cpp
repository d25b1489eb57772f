#include "pipeline.hpp"

#include <algorithm>
#include <numeric>

#include "sim/logging.hpp"

namespace gcod {

Dataset
permuteDataset(const Dataset &ds, const std::vector<NodeId> &perm,
               Graph reordered_graph)
{
    GCOD_ASSERT(perm.size() == size_t(ds.features.rows()),
                "permutation size mismatch");
    Dataset out = ds;
    out.synth.graph = std::move(reordered_graph);
    for (size_t i = 0; i < perm.size(); ++i) {
        auto ni = size_t(perm[i]);
        std::copy(ds.features.row(int64_t(i)),
                  ds.features.row(int64_t(i)) + ds.features.cols(),
                  out.features.row(int64_t(ni)));
        out.labels[ni] = ds.labels[i];
        out.trainMask[ni] = ds.trainMask[i];
        out.valMask[ni] = ds.valMask[i];
        out.testMask[ni] = ds.testMask[i];
    }
    return out;
}

namespace {

bool
isLargeDataset(const Dataset &ds)
{
    return ds.synth.original.nodes >= kLargeGraphNodes;
}

/** Replace a dataset's graph, keeping features/labels/masks. */
Dataset
withGraph(const Dataset &ds, Graph g)
{
    Dataset out = ds;
    out.synth.graph = std::move(g);
    return out;
}

} // namespace

GcodOutcome
runGcodPipeline(const Dataset &ds, const GcodOptions &opts)
{
    GcodOutcome out;
    Rng rng(opts.seed);
    bool large = isLargeDataset(ds);
    int fdim = ds.featureDim();
    int classes = ds.numClasses();

    out.originalProfile = profileMatrix(ds.synth.graph.adjacency());

    // --- Vanilla baseline: standard full training on the raw graph -----
    {
        GraphContext ctx(ds.synth.graph);
        auto model = makeModel(opts.model, fdim, classes, large, rng);
        TrainOptions vopts = opts.retrain;
        vopts.earlyBird = false;
        TrainReport rep = train(model, ctx, ds, vopts);
        out.baselineAccuracy = rep.testAccuracy;
        out.vanillaCost = rep.trainingCostProxy;
    }

    // --- Step 1: partition + reorder, pretrain with early stopping -----
    out.partitioning = reorderGraph(ds.synth.graph, opts.reorder);
    Graph reordered = ds.synth.graph.permuted(out.partitioning.perm);
    Dataset rdata = permuteDataset(ds, out.partitioning.perm, reordered);
    out.workloadAfterReorder =
        workloadOf(out.partitioning, rdata.synth.graph.adjacency());
    out.polaBefore = polarizationLoss(rdata.synth.graph.adjacency());

    // Pretrained auxiliary GCN supplies the frozen W0/W1 for graph tuning
    // (the paper's L_GCN(A) is always the GCN loss, Eq. 4).
    GnnModel aux = makeModel("GCN", fdim, classes, large, rng);
    {
        GraphContext ctx(rdata.synth.graph);
        TrainOptions popts = opts.pretrain;
        popts.earlyBird = true;
        TrainReport rep = train(aux, ctx, rdata, popts);
        out.pretrainCost = rep.trainingCostProxy;
    }

    // --- Step 2: sparsify + polarize (ADMM) + retrain -------------------
    Graph tuned = rdata.synth.graph;
    double removed_step2 = 0.0;
    for (int round = 0; round < opts.tuneRounds; ++round) {
        auto params = aux.parameters();
        PolarizeResult pr = sparsifyAndPolarize(
            tuned, rdata.features, rdata.labels, rdata.trainMask,
            *params[0], *params[1], opts.polarize);
        removed_step2 = 1.0 - (1.0 - removed_step2) *
                                  (1.0 - pr.achievedPruneRatio);
        tuned = Graph(pr.prunedAdj);
        out.tuneCost += double(opts.polarize.admmIterations *
                               opts.polarize.gradSteps) *
                        double(aux.spec().weightCount());
        // Retrain the aux GCN on the tuned graph to restore accuracy
        // before the next tuning round.
        if (round + 1 < opts.tuneRounds) {
            GraphContext ctx(tuned);
            Dataset tds = withGraph(rdata, tuned);
            TrainOptions ropts = opts.retrain;
            TrainReport rep = train(aux, ctx, tds, ropts);
            out.retrainCost += rep.trainingCostProxy;
        }
    }
    out.step2PruneRatio = removed_step2;

    // --- Step 3: structural (patch) sparsification + retrain ------------
    StructuralOptions sopts = opts.structural;
    if (sopts.patchSize <= 0) {
        // Patches are sub-blocks of the subgraph tiles (Fig. 2): half a
        // typical tile, floored so thresholds stay meaningful.
        NodeId avg_tile = NodeId(
            std::max<size_t>(1, size_t(ds.synth.graph.numNodes()) /
                                    std::max<size_t>(
                                        out.partitioning.tiles.size(), 1)));
        sopts.patchSize = std::max<NodeId>(64, avg_tile / 2);
    }
    StructuralResult sr = structuralSparsify(tuned.adjacency(), sopts);
    out.step3PruneRatio = sr.removedFraction;
    Graph finalGraph(sr.prunedAdj);

    {
        GraphContext ctx(finalGraph);
        Dataset fds = withGraph(rdata, finalGraph);
        auto model = makeModel(opts.model, fdim, classes, large, rng);
        TrainReport rep = train(model, ctx, fds, opts.retrain);
        out.retrainCost += rep.trainingCostProxy;
        out.finalAccuracy = rep.testAccuracy;
        out.finalAccuracyInt8 = rep.testAccuracyInt8;
    }

    out.workload = workloadOf(out.partitioning, finalGraph.adjacency());
    out.polaAfter = polarizationLoss(finalGraph.adjacency());
    out.reorderedData = withGraph(rdata, finalGraph);
    out.finalGraph = std::move(finalGraph);
    return out;
}

GcodOutcome
runGcodStructureOnly(const SyntheticGraph &synth, const GcodOptions &opts)
{
    GcodOutcome out;
    const Graph &g = synth.graph;
    out.originalProfile = profileMatrix(g.adjacency());

    // Step 1: identical to the full pipeline.
    out.partitioning = reorderGraph(g, opts.reorder);
    Graph reordered = g.permuted(out.partitioning.perm);
    out.workloadAfterReorder =
        workloadOf(out.partitioning, reordered.adjacency());
    out.polaBefore = polarizationLoss(reordered.adjacency());

    // Step 2, topology-driven: the ADMM projection ranks edges by
    // value - lambda*dist; without a loss term the ranking reduces to the
    // diagonal distance, i.e. prune the p% of edges furthest from the
    // diagonal. This preserves the structural effect (polarization toward
    // the denser branch) that the latency/bandwidth experiments measure.
    std::vector<std::pair<NodeId, NodeId>> edges;
    reordered.adjacency().forEach([&](NodeId r, NodeId c, float) {
        if (r < c)
            edges.emplace_back(r, c);
    });
    std::sort(edges.begin(), edges.end(),
              [](const auto &a, const auto &b) {
                  return (a.second - a.first) < (b.second - b.first);
              });
    size_t keep = size_t(std::llround(double(edges.size()) *
                                      (1.0 - opts.polarize.pruneRatio)));
    keep = std::min(keep, edges.size());
    edges.resize(keep);
    Graph tuned(reordered.numNodes(), edges);
    out.step2PruneRatio = opts.polarize.pruneRatio;

    // Step 3: identical patch pruning (tile-aware auto patch size).
    StructuralOptions sopts = opts.structural;
    if (sopts.patchSize <= 0) {
        NodeId avg_tile = NodeId(
            std::max<size_t>(1, size_t(synth.graph.numNodes()) /
                                    std::max<size_t>(
                                        out.partitioning.tiles.size(), 1)));
        sopts.patchSize = std::max<NodeId>(64, avg_tile / 2);
    }
    StructuralResult sr = structuralSparsify(tuned.adjacency(), sopts);
    out.step3PruneRatio = sr.removedFraction;
    Graph finalGraph(sr.prunedAdj);

    out.workload = workloadOf(out.partitioning, finalGraph.adjacency());
    out.polaAfter = polarizationLoss(finalGraph.adjacency());
    out.finalGraph = std::move(finalGraph);
    return out;
}

} // namespace gcod
