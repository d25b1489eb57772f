/**
 * @file
 * Full-batch GNN training loop with optional early-bird early stopping
 * (Sec. IV-B2: winning subnetworks are identified within the first 10-20
 * of 400 epochs; GCoD uses this to keep total training cost at 0.7x-1.1x
 * of standard training).
 */
#ifndef GCOD_NN_TRAINER_HPP
#define GCOD_NN_TRAINER_HPP

#include <vector>

#include "nn/adam.hpp"
#include "nn/dataset.hpp"
#include "nn/models.hpp"

namespace gcod {

/** Training-run configuration. */
struct TrainOptions
{
    int epochs = 400;            ///< paper default
    float lr = 0.01f;            ///< paper default (Adam)
    bool earlyBird = false;      ///< enable early-bird stopping
    /**
     * Early-bird criterion: stop when the top-magnitude weight mask's
     * Hamming distance between consecutive epochs stays below this
     * fraction for `ebPatience` epochs (mask drawn at `ebPruneRatio`).
     */
    double ebMaskTolerance = 0.02;
    int ebPatience = 5;
    double ebPruneRatio = 0.5;
    int minEpochs = 10;
    uint64_t seed = 7;
    bool verbose = false;
};

/** Outcome of one training run. */
struct TrainReport
{
    int epochsRun = 0;
    double finalTrainLoss = 0.0;
    double bestValAccuracy = 0.0;
    double testAccuracy = 0.0;
    /** Accuracy of the 8-bit fake-quantized model on the test mask. */
    double testAccuracyInt8 = 0.0;
    /** Proxy for training cost: epochs x weight count (MAC-proportional). */
    double trainingCostProxy = 0.0;
};

/**
 * Train @p model on @p ds through its op graph (nn/backward.hpp);
 * evaluates val each epoch, test at the end. A model with fanouts
 * trains on a fresh neighbor sample each epoch; its test accuracies
 * are measured on the full operators.
 */
TrainReport train(GnnModel &model, const GraphContext &ctx,
                  const Dataset &ds, const TrainOptions &opts = {});

/** Test accuracy of the model as-is over the full operators. */
double evaluate(GnnModel &model, const GraphContext &ctx, const Dataset &ds);

/** Evaluate test accuracy under b-bit fake quantization. */
double evaluateQuantized(GnnModel &model, const GraphContext &ctx,
                         const Dataset &ds, int bits);

} // namespace gcod

#endif // GCOD_NN_TRAINER_HPP
