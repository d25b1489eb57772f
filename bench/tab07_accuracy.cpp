/**
 * @file
 * Reproduces paper Tab. VII: test accuracy of GCoD against the SOTA GCN
 * compression baselines (RP, SGCN, QAT, Degree-Quant) plus the vanilla
 * model, for GCN / GAT / GIN / GraphSAGE on five datasets.
 *
 * This bench runs the *full* training pipelines (pretrain, ADMM tune,
 * retrain), so it uses short default epoch budgets and down-scaled large
 * datasets; override with epochs=400 scale=1 for a paper-scale run.
 *
 * Expected shape (paper): GCoD matches or beats the vanilla accuracy
 * (+0.1% to +4.2% over baselines) while RP loses accuracy; GCoD (8-bit)
 * stays within ~1% of GCoD.
 */
#include "bench_common.hpp"
#include "compress/compress.hpp"
#include "nn/backward.hpp"
#include "nn/dataset.hpp"

using namespace gcod;
using namespace gcod::bench;

namespace {

void
printTable7(Config &cfg)
{
    // Default scope is a CI-fast subset; pass full=1 (or model=/dataset=)
    // for the paper's complete 4-model x 5-dataset sweep.
    std::vector<std::string> models = {"GCN", "GIN"};
    std::vector<std::string> datasets = {"Cora", "CiteSeer", "Pubmed"};
    if (cfg.getBool("full")) {
        models = {"GCN", "GAT", "GIN", "GraphSAGE", "ResGCN"};
        datasets = {"Cora", "CiteSeer", "Pubmed", "NELL", "Reddit"};
    }
    if (cfg.has("model"))
        models = {cfg.getString("model")};
    if (cfg.has("dataset"))
        datasets = {cfg.getString("dataset")};
    int epochs = int(cfg.getInt("epochs", 30));
    double scale_override = cfg.getDouble("scale", 0.0);

    // Accuracy runs need actual training, so the large datasets run at
    // small scale by default (structure and label process preserved).
    std::map<std::string, double> acc_scale = {
        {"Cora", 0.6}, {"CiteSeer", 0.6},   {"Pubmed", 0.12},
        {"NELL", 0.02}, {"Ogbn-ArXiv", 0.015}, {"Reddit", 0.006}};

    TrainOptions topts;
    topts.epochs = epochs;

    for (const auto &model : models) {
        Table t("Tab. VII | Test accuracy (%), " + model);
        std::vector<std::string> header = {"Method"};
        for (const auto &d : datasets)
            header.push_back(d);
        t.header(header);

        std::map<std::string, std::vector<std::string>> rows;
        std::vector<std::string> order = {
            "Vanilla", "RP",   "SGCN",        "QAT",
            "Degree-Quant", "GCoD", "GCoD (8-bit)"};
        for (const auto &m : order)
            rows[m] = {m};

        for (const auto &d : datasets) {
            double scale =
                scale_override > 0.0 ? scale_override : acc_scale[d];
            Rng rng(17);
            SyntheticGraph synth =
                synthesize(profileByName(d), scale, rng);
            Dataset ds = materialize(synth, rng);
            auto pct = [](double a) { return formatPercent(a); };

            // Vanilla.
            {
                GraphContext ctx(ds.synth.graph);
                Rng mr(23);
                auto m = makeModel(model, ds.featureDim(), ds.numClasses(),
                                   synth.original.nodes >= kLargeGraphNodes, mr);
                TrainReport tr = train(m, ctx, ds, topts);
                rows["Vanilla"].push_back(pct(tr.testAccuracy));
            }
            Rng cr(29);
            rows["RP"].push_back(
                pct(randomPrune(ds, model, 0.10, topts, cr).testAccuracy));
            rows["SGCN"].push_back(pct(
                sgcnSparsify(ds, model, 0.10, topts, cr).testAccuracy));
            rows["QAT"].push_back(
                pct(qatTrain(ds, model, 8, topts, cr).testAccuracy));
            rows["Degree-Quant"].push_back(pct(
                degreeQuant(ds, model, 8, 0.1, topts, cr).testAccuracy));

            // GCoD full pipeline.
            GcodOptions gopts;
            gopts.model = model;
            gopts.pretrain.epochs = epochs;
            gopts.retrain.epochs = epochs;
            GcodOutcome out = runGcodPipeline(ds, gopts);
            rows["GCoD"].push_back(pct(out.finalAccuracy));
            rows["GCoD (8-bit)"].push_back(pct(out.finalAccuracyInt8));
        }
        for (const auto &m : order)
            t.row(rows[m]);
        t.print(std::cout);
        std::cout << "\n";
    }
    std::cout << "(synthetic planted-partition datasets; absolute accuracy "
                 "differs from the paper's real datasets — compare method "
                 "orderings, not levels)\n";
}

void
BM_TrainGcnEpochCora(benchmark::State &state)
{
    Rng rng(5);
    static SyntheticGraph synth =
        synthesize(profileByName("Cora"), 1.0, rng);
    static Dataset ds = materialize(synth, rng);
    static GraphContext ctx(ds.synth.graph);
    GnnModel m = makeModel("GCN", ds.featureDim(), ds.numClasses(), false,
                           rng);
    TrainingGraph graph(m, ctx);
    for (auto _ : state) {
        graph.step(ds, rng);
        benchmark::DoNotOptimize(m.gradients());
    }
}
BENCHMARK(BM_TrainGcnEpochCora);

} // namespace

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, printTable7);
}
