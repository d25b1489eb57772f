#include "serve/incremental.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "dyn/incremental_forward.hpp"
#include "shard/scheduler.hpp"
#include "sim/logging.hpp"
#include "sim/rng.hpp"

namespace gcod::serve {

namespace {

/**
 * Per-node stream for attributes of nodes added after epoch 0. Keyed by
 * (seed, node id) only, so labels/features of a node do not depend on
 * which batch introduced it — N small deltas and one net delta produce
 * bit-identical bundles.
 */
Rng
nodeRng(uint64_t seed, NodeId v)
{
    return Rng(seed ^ (0x9e3779b97f4a7c15ull * (uint64_t(v) + 1)));
}

/**
 * Extend the feature buffer with deterministic rows for new nodes. An
 * edge-only delta keeps the node count, so the next epoch shares the
 * previous epoch's (read-only) buffer.
 */
std::shared_ptr<const Matrix>
extendFeatures(const std::shared_ptr<const Matrix> &old, NodeId n,
               uint64_t seed)
{
    if (old->rows() == n)
        return old;
    auto next = std::make_shared<Matrix>(n, old->cols(), 0.0f);
    std::memcpy(next->row(0), old->row(0),
                size_t(old->rows() * old->cols()) * sizeof(float));
    for (NodeId v = NodeId(old->rows()); v < n; ++v) {
        Rng r = nodeRng(seed ^ 0x51ed270bull, v);
        float *row = next->row(v);
        for (int64_t j = 0; j < old->cols(); ++j)
            row[j] = float(r.normal(0.0, 0.1));
    }
    return next;
}

} // namespace

std::shared_ptr<const ArtifactBundle>
applyDeltaToBundle(const std::shared_ptr<const ArtifactBundle> &prev,
                   const dyn::GraphDelta &delta, uint64_t seed,
                   const ReorderOptions &reorder, double rebase_imbalance,
                   UpdateBuildStats *stats)
{
    auto t0 = std::chrono::steady_clock::now();
    auto elapsed = [&t0] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };
    GCOD_ASSERT(prev != nullptr, "no bundle to update");
    GCOD_ASSERT(prev->hasHostExec(),
                "incremental updates need host execution state, present "
                "for every op-graph family (supported: ",
                supportedRecipeFamilies(), ")");

    // Continue the bundle's dyn state, or bootstrap it on the first
    // streamed delta. The aliasing shared_ptr keeps `prev` alive while
    // the state still references its graph.
    dyn::DynState work;
    if (prev->dynState) {
        work = *prev->dynState;
    } else {
        dyn::DynStateOptions dopts;
        dopts.rebaseImbalance = rebase_imbalance;
        shard::ShardPlan base;
        if (prev->sharded) {
            dopts.trackShards = true;
            // Mirror buildShardedArtifact's plan configuration so the
            // adopted base and any rebase use the same knobs.
            dopts.shardOpts.shards = prev->sharded->plan.numShards;
            dopts.shardOpts.partition.seed = seed;
            dopts.degreeClasses = dopts.shardOpts.degreeClasses;
            base = prev->sharded->plan;
        }
        work = dyn::DynState(
            std::shared_ptr<const Graph>(prev, &prev->synth.graph), dopts,
            std::move(base));
    }

    dyn::DynUpdateStats ds = work.apply(delta);
    if (stats != nullptr) {
        *stats = UpdateBuildStats{};
        stats->ignoredOps = ds.applied.ignoredOps;
    }
    if (ds.applied.noop()) {
        if (stats != nullptr) {
            stats->dynEpoch = work.epoch();
            stats->seconds = elapsed();
        }
        return prev;
    }

    const NodeId old_n = prev->synth.graph.numNodes();
    const NodeId n = ds.applied.numNodes;

    // Host execution state: features only gain deterministic rows for
    // new nodes.
    auto next = std::make_shared<ArtifactBundle>(
        extendFeatures(prev->hostFeaturesBuf, n, seed));
    next->key = prev->key;
    next->profile = prev->profile;
    next->scaleUsed = prev->scaleUsed;
    next->spec = prev->spec;
    // Structure-only pipeline state is NOT re-run here; the next full
    // publishArtifact() refreshes it (documented cost-model staleness).
    next->outcome = prev->outcome;

    next->synth = prev->synth;
    next->synth.graph = work.graph();
    next->synth.profile.nodes = n;
    next->synth.profile.edges = next->synth.graph.numEdges();
    next->synth.labels.resize(size_t(n));
    for (NodeId v = old_n; v < n; ++v) {
        Rng r = nodeRng(seed ^ 0x7ab315ull, v);
        next->synth.labels[size_t(v)] =
            int(r.uniformInt(0, std::max(1, next->profile.classes) - 1));
    }

    next->raw = makeGraphInput(next->synth.graph.adjacency());
    next->raw.publishedNodes = next->profile.nodes;
    next->raw.featureDensity = next->profile.featureDensity;
    next->gcodIn = makeGraphInput(next->outcome.finalGraph.adjacency(),
                                  next->outcome.workload);
    next->gcodIn.publishedNodes = next->profile.nodes;
    next->gcodIn.featureDensity = next->profile.featureDensity;

    if (prev->sharded) {
        const dyn::DynamicShardPlan *dsp = work.shardPlan();
        GCOD_ASSERT(dsp != nullptr,
                    "sharded bundle lost its dyn shard state");
        auto sharded = std::make_shared<shard::ShardedArtifact>();
        sharded->plan = dsp->plan();
        // Execution units are self-referential slices of (graph, plan);
        // re-slicing them is cheap next to the cost pipeline, so all
        // shards are rebuilt even when only a few were repaired.
        sharded->units = shard::buildShardExecutions(next->synth.graph,
                                                     sharded->plan, reorder);
        next->sharded = std::move(sharded);
    }

    // The model is immutable across updates; the operators were
    // repaired by the dyn state.
    next->hostModel = prev->hostModel;
    next->hostCtx = std::make_shared<GraphContext>(
        next->synth.graph, work.normalized(), work.rowMean());
    next->hostRecipe = forwardRecipeFor(*next->hostModel, *next->hostCtx);

    // Quantized packs refresh whole-pack: their calibration (degree
    // quantile split + per-tensor scales) is a global function of the
    // graph, so per-row requantization would change served bits.
    for (const auto &[bits, unused] : prev->quantized) {
        (void)unused;
        MixedPrecisionPolicy pol;
        pol.denseBits = bits;
        pol.sparseBits = std::min(2 * bits, 16);
        pol.operatorBits = pol.sparseBits;
        next->quantized.emplace(bits,
                                quantizeGnn(next->hostRecipe,
                                            next->synth.graph.degrees(),
                                            pol));
    }

    // fp32 logits: recompute only the per-layer dirty rows. The first
    // update after a cold bundle pays one full pass to seed the state.
    dyn::IncrementalForward fwd;
    if (prev->fwdState != nullptr &&
        !prev->fwdState->activations().empty()) {
        fwd = prev->fwdState->applied(next->hostRecipe, next->hostFeatures,
                                      ds.dirty);
    } else {
        fwd = dyn::IncrementalForward::fromScratch(next->hostRecipe,
                                                   next->hostFeatures);
    }
    size_t recomputed = fwd.lastDirtyRows();

    // Prefill the logit store for every served precision, so post-swap
    // serving hits storedLogits instead of running a cold pass against
    // the new epoch.
    next->storedLogits.emplace(32, fwd.logits());
    for (const auto &[bits, pack] : next->quantized)
        next->storedLogits.emplace(
            bits, next->sharded
                      ? shard::shardedForward(next->sharded->plan,
                                              next->hostRecipe,
                                              next->hostFeatures, &pack)
                      : quantizedForwardMixed(pack, next->hostFeatures));

    if (stats != nullptr) {
        stats->dynEpoch = work.epoch();
        stats->touched = ds.applied.touched.size();
        stats->dirtyRows = ds.dirty.count();
        stats->recomputedRows = recomputed;
        stats->migrations = ds.migrations.size();
        stats->reassigned = ds.shardRepair.reassigned;
        stats->affectedShards = ds.shardRepair.affectedShards.size();
        stats->rebased = ds.shardRepair.rebased;
    }

    next->fwdState =
        std::make_shared<const dyn::IncrementalForward>(std::move(fwd));
    next->dynState = std::make_shared<const dyn::DynState>(std::move(work));
    next->buildSeconds = elapsed();
    if (stats != nullptr)
        stats->seconds = next->buildSeconds;
    return next;
}

} // namespace gcod::serve
