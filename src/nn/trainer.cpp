#include "trainer.hpp"

#include <algorithm>
#include <cmath>

#include "nn/backward.hpp"
#include "sim/logging.hpp"

namespace gcod {

namespace {

/**
 * Binary mask of the top-|ratio| fraction of weights by magnitude across
 * all parameters; the early-bird criterion tracks its stabilization.
 */
std::vector<bool>
topMagnitudeMask(const std::vector<Matrix *> &params, double ratio)
{
    std::vector<float> mags;
    for (const Matrix *p : params)
        for (float v : p->data())
            mags.push_back(std::fabs(v));
    if (mags.empty())
        return {};
    std::vector<float> sorted = mags;
    size_t keep = size_t(double(sorted.size()) * ratio);
    keep = std::clamp<size_t>(keep, 1, sorted.size());
    std::nth_element(sorted.begin(), sorted.begin() + (keep - 1),
                     sorted.end(), std::greater<float>());
    float threshold = sorted[keep - 1];
    std::vector<bool> mask(mags.size());
    for (size_t i = 0; i < mags.size(); ++i)
        mask[i] = mags[i] >= threshold;
    return mask;
}

double
maskDistance(const std::vector<bool> &a, const std::vector<bool> &b)
{
    if (a.size() != b.size() || a.empty())
        return 1.0;
    size_t diff = 0;
    for (size_t i = 0; i < a.size(); ++i)
        diff += a[i] != b[i];
    return double(diff) / double(a.size());
}

} // namespace

TrainReport
train(GnnModel &model, const GraphContext &ctx, const Dataset &ds,
      const TrainOptions &opts)
{
    TrainReport report;
    Rng rng(opts.seed);

    AdamOptions aopts;
    aopts.lr = opts.lr;
    Adam adam(model.parameters(), aopts);

    std::vector<bool> prev_mask;
    int stable_epochs = 0;

    // Best-val snapshot of parameters for final test evaluation.
    std::vector<Matrix> best_params;
    double best_val = -1.0;

    TrainingGraph graph(model, ctx);
    for (int epoch = 0; epoch < opts.epochs; ++epoch) {
        double loss = 0.0;
        Matrix logits = graph.step(ds, rng, &loss);
        adam.step(model.gradients());

        double val_acc = accuracy(logits, ds.labels, ds.valMask);
        if (val_acc > best_val) {
            best_val = val_acc;
            best_params.clear();
            for (Matrix *p : model.parameters())
                best_params.push_back(*p);
        }
        report.finalTrainLoss = loss;
        report.epochsRun = epoch + 1;
        if (opts.verbose && (epoch % 20 == 0 || epoch == opts.epochs - 1))
            inform("epoch ", epoch, " loss ", loss, " val ", val_acc);

        if (opts.earlyBird && epoch + 1 >= opts.minEpochs) {
            auto mask = topMagnitudeMask(model.parameters(),
                                         opts.ebPruneRatio);
            if (!prev_mask.empty() &&
                maskDistance(prev_mask, mask) < opts.ebMaskTolerance) {
                if (++stable_epochs >= opts.ebPatience)
                    break; // winning subnetwork has emerged
            } else {
                stable_epochs = 0;
            }
            prev_mask = std::move(mask);
        }
    }

    // Restore the best-val weights before reporting test accuracy.
    if (!best_params.empty()) {
        auto params = model.parameters();
        for (size_t i = 0; i < params.size(); ++i)
            *params[i] = best_params[i];
    }
    report.bestValAccuracy = best_val;
    // Test accuracy on the full operators, as serving runs the model.
    report.testAccuracy = evaluate(model, ctx, ds);
    report.testAccuracyInt8 = evaluateQuantized(model, ctx, ds, 8);
    report.trainingCostProxy =
        double(report.epochsRun) * double(model.spec().weightCount());
    return report;
}

double
evaluate(GnnModel &model, const GraphContext &ctx, const Dataset &ds)
{
    Matrix logits = referenceForward(forwardRecipeFor(model, ctx),
                                     ds.features);
    return accuracy(logits, ds.labels, ds.testMask);
}

double
evaluateQuantized(GnnModel &model, const GraphContext &ctx, const Dataset &ds,
                  int bits)
{
    Matrix logits = quantizedForward(model, ctx, ds.features, bits);
    return accuracy(logits, ds.labels, ds.testMask);
}

} // namespace gcod
