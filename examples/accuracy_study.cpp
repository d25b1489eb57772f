/**
 * @file
 * Algorithm-side walkthrough: train a GCN with the full GCoD pipeline on
 * a CiteSeer-profile graph and compare its accuracy against the vanilla
 * model and the compression baselines (RP / SGCN / QAT / Degree-Quant) —
 * a single-dataset slice of the paper's Tab. VII, plus the training-cost
 * accounting of Sec. IV-B2.
 *
 * Usage: accuracy_study [dataset=CiteSeer] [model=GCN] [epochs=80]
 */
#include <iostream>

#include "compress/compress.hpp"
#include "gcod/pipeline.hpp"
#include "sim/config.hpp"
#include "sim/table.hpp"

using namespace gcod;

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.parseArgs(argc, argv);
    std::string dataset = cfg.getString("dataset", "CiteSeer");
    std::string model = cfg.getString("model", "GCN");
    int epochs = int(cfg.getInt("epochs", 80));

    Rng rng(3);
    const DatasetProfile &profile = profileByName(dataset);
    double scale = cfg.getDouble("scale", profile.nodes > 10000 ? 0.1 : 1.0);
    SyntheticGraph synth = synthesize(profile, scale, rng);
    Dataset ds = materialize(synth, rng);
    inform("dataset ", dataset, " at scale ", scale, ": ",
           ds.synth.graph.numNodes(), " nodes, ", ds.featureDim(),
           " features, ", ds.numClasses(), " classes");

    TrainOptions topts;
    topts.epochs = epochs;

    Table t("Accuracy comparison | " + model + " on " + dataset);
    t.header({"Method", "Test accuracy", "Edges pruned", "Bits"});

    {
        GraphContext ctx(ds.synth.graph);
        Rng mr(5);
        auto m = makeModel(model, ds.featureDim(), ds.numClasses(),
                           profile.nodes > 20000, mr);
        TrainReport rep = train(m, ctx, ds, topts);
        t.row({"Vanilla", formatPercent(rep.testAccuracy), "0%", "32"});
    }
    Rng cr(7);
    auto rp = randomPrune(ds, model, 0.10, topts, cr);
    t.row({"RP", formatPercent(rp.testAccuracy),
           formatPercent(rp.edgeSparsity), "32"});
    auto sg = sgcnSparsify(ds, model, 0.10, topts, cr);
    t.row({"SGCN", formatPercent(sg.testAccuracy),
           formatPercent(sg.edgeSparsity), "32"});
    auto qa = qatTrain(ds, model, 8, topts, cr);
    t.row({"QAT", formatPercent(qa.testAccuracy), "0%", "8"});
    auto dq = degreeQuant(ds, model, 8, 0.1, topts, cr);
    t.row({"Degree-Quant", formatPercent(dq.testAccuracy), "0%", "8"});

    GcodOptions gopts;
    gopts.model = model;
    gopts.pretrain.epochs = epochs;
    gopts.retrain.epochs = epochs;
    GcodOutcome out = runGcodPipeline(ds, gopts);
    double pruned = 1.0 - (1.0 - out.step2PruneRatio) *
                              (1.0 - out.step3PruneRatio);
    t.row({"GCoD", formatPercent(out.finalAccuracy), formatPercent(pruned),
           "32"});
    t.row({"GCoD (8-bit)", formatPercent(out.finalAccuracyInt8),
           formatPercent(pruned), "8"});
    t.print(std::cout);

    std::cout << "training cost: pretrain "
              << formatPercent(out.pretrainCost /
                               (out.pretrainCost + out.tuneCost +
                                out.retrainCost))
              << ", tune "
              << formatPercent(out.tuneCost /
                               (out.pretrainCost + out.tuneCost +
                                out.retrainCost))
              << ", retrain "
              << formatPercent(out.retrainCost /
                               (out.pretrainCost + out.tuneCost +
                                out.retrainCost))
              << "; overall "
              << formatNumber(out.trainingOverheadRatio())
              << "x of standard training (paper: 0.7x-1.1x)\n"
              << "(synthetic planted-partition data: compare method "
                 "orderings, not absolute levels)\n";
    return 0;
}
