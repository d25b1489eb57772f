/**
 * @file
 * Reproduces the Sec. IV-B2 training-cost analysis: GCoD's three-step
 * pipeline cost relative to standard GCN training, with and without the
 * early-bird early-stopping.
 *
 * Expected shape (paper): with early-bird, total GCoD training costs
 * 0.7x-1.1x of standard training (at most ~10% overhead), with the three
 * steps at roughly 5% / 50% / 45% of the pipeline cost (Steps 2-3
 * dominated by subnetwork retraining).
 */
#include "bench_common.hpp"
#include "nn/dataset.hpp"

using namespace gcod;
using namespace gcod::bench;

namespace {

void
printTrainingCost(Config &cfg)
{
    std::vector<std::string> datasets = citationDatasetNames();
    if (cfg.has("dataset"))
        datasets = {cfg.getString("dataset")};
    int epochs = int(cfg.getInt("epochs", 60));

    Table t("Training cost | GCoD pipeline vs standard GCN training");
    t.header({"Dataset", "Mode", "Step1 %", "Step2 %", "Step3 %",
              "Overhead vs vanilla", "Final acc", "Vanilla acc"});

    for (const auto &d : datasets) {
        std::map<std::string, double> acc_scale = {
            {"Cora", 0.5}, {"CiteSeer", 0.5}, {"Pubmed", 0.1}};
        Rng rng(31);
        SyntheticGraph synth = synthesize(
            profileByName(d),
            cfg.getDouble("scale", acc_scale.count(d) ? acc_scale[d] : 0.1),
            rng);
        Dataset ds = materialize(synth, rng);

        for (bool early_bird : {true, false}) {
            GcodOptions opts;
            opts.pretrain.epochs = epochs;
            opts.retrain.epochs = epochs;
            opts.pretrain.earlyBird = early_bird;
            opts.retrain.earlyBird = early_bird;
            GcodOutcome out = runGcodPipeline(ds, opts);
            double total =
                out.pretrainCost + out.tuneCost + out.retrainCost;
            t.row({d, early_bird ? "early-bird" : "full",
                   formatPercent(out.pretrainCost / total),
                   formatPercent(out.tuneCost / total),
                   formatPercent(out.retrainCost / total),
                   formatNumber(out.trainingOverheadRatio()) + "x",
                   formatPercent(out.finalAccuracy),
                   formatPercent(out.baselineAccuracy)});
        }
    }
    t.print(std::cout);
    std::cout << "(paper: early-bird keeps GCoD at 0.7x-1.1x of standard "
                 "training; steps split ~5%/50%/45%)\n";
}

void
BM_EarlyBirdMask(benchmark::State &state)
{
    Rng rng(7);
    static SyntheticGraph synth =
        synthesize(profileByName("Cora"), 1.0, rng);
    static Dataset ds = materialize(synth, rng);
    static GraphContext ctx(ds.synth.graph);
    for (auto _ : state) {
        Rng mr(11);
        auto m = makeModel("GCN", ds.featureDim(), ds.numClasses(), false,
                           mr);
        TrainOptions topts;
        topts.epochs = 15;
        topts.earlyBird = true;
        benchmark::DoNotOptimize(train(m, ctx, ds, topts));
    }
}
BENCHMARK(BM_EarlyBirdMask);

} // namespace

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, printTrainingCost);
}
