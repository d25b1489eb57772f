/**
 * @file
 * The precompiled co-design artifact served by the inference engine.
 *
 * GCoD's value proposition for serving is that the expensive offline work
 * (graph synthesis, Step 1-3 processing, tile layout, workload
 * extraction, model shape) is paid once per (dataset, model, options)
 * triple and then amortized across millions of requests. An
 * ArtifactBundle is that unit of amortization: everything a platform
 * simulator needs to execute one inference, with both the raw-adjacency
 * input (baseline backends) and the GCoD workload input (the co-designed
 * accelerator) prebuilt so the serving hot path does no profiling work.
 */
#ifndef GCOD_SERVE_ARTIFACT_HPP
#define GCOD_SERVE_ARTIFACT_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>

#include "accel/graph_input.hpp"
#include "gcod/pipeline.hpp"
#include "nn/model_spec.hpp"
#include "nn/quant_exec.hpp"

namespace gcod::shard {
struct ShardedArtifact;
}

namespace gcod::dyn {
class DynState;
class IncrementalForward;
} // namespace gcod::dyn

namespace gcod::serve {

/** Stable content hash of every pipeline knob that shapes the artifact. */
uint64_t hashGcodOptions(const GcodOptions &opts);

/** Cache key: which artifact a request needs. */
struct ArtifactKey
{
    std::string dataset;
    std::string model = "GCN";
    uint64_t optionsHash = 0;

    bool
    operator==(const ArtifactKey &o) const
    {
        return optionsHash == o.optionsHash && dataset == o.dataset &&
               model == o.model;
    }
    bool operator!=(const ArtifactKey &o) const { return !(*this == o); }
    bool
    operator<(const ArtifactKey &o) const
    {
        return std::tie(dataset, model, optionsHash) <
               std::tie(o.dataset, o.model, o.optionsHash);
    }

    std::string toString() const;
};

/** Hash functor for unordered containers. */
struct ArtifactKeyHash
{
    size_t operator()(const ArtifactKey &k) const;
};

/**
 * One precompiled serving artifact. Immutable once built; the engine
 * holds it through a shared_ptr so in-flight batches keep it alive across
 * cache evictions. Not copyable/movable: `gcodIn.workload` points into
 * `outcome`, so the object must stay where it was built.
 */
struct ArtifactBundle
{
    /** @p features is the host feature buffer; null = none (empty). */
    explicit ArtifactBundle(std::shared_ptr<const Matrix> features = nullptr);
    ArtifactBundle(const ArtifactBundle &) = delete;
    ArtifactBundle &operator=(const ArtifactBundle &) = delete;

    ArtifactKey key;
    /** Published dataset statistics (Tab. III). */
    DatasetProfile profile;
    /** Synthesized stand-in graph at `scaleUsed` of the published size. */
    SyntheticGraph synth;
    /** Structure-only GCoD pipeline output (tiles + workload). */
    GcodOutcome outcome;
    /** Model shapes at the published dimensions (Tab. IV). */
    ModelSpec spec;
    double scaleUsed = 1.0;
    /** Wall-clock cost of building this bundle, seconds. */
    double buildSeconds = 0.0;

    /** Prebuilt simulator input for baseline backends (raw adjacency). */
    GraphInput raw;
    /** Prebuilt input for the GCoD accelerator (processed + workload). */
    GraphInput gcodIn;

    /**
     * Sharded execution state (plan + per-shard simulator inputs), set
     * when the builder was configured with shards > 1 and the dataset
     * is large enough; null otherwise. The engine routes batches over
     * artifacts that carry this through the shard scheduler.
     */
    std::shared_ptr<const shard::ShardedArtifact> sharded;

    /**
     * Host execution state: a deterministically seeded model over the
     * stand-in graph plus materialized features, present for every
     * family forwardRecipeFor lowers (GCN, GraphSAGE, GIN, GAT,
     * ResGCN). The engine runs REAL host
     * forwards against this — fp32 for full-precision backends,
     * integer kernels for quantized ones — while cost simulation stays
     * separate. `hostRecipe` points into hostModel/hostCtx; the
     * operators in hostCtx reference `synth.graph`, so the whole state
     * shares the bundle's lifetime.
     *
     * The feature matrix is a pure function of (dataset, scaleUsed,
     * seed), not of the family, so it lives in an immutable buffer
     * shared read-only between bundles: an engine's builder
     * materializes it once per dataset (HostFeatureMemo) and hands the
     * same buffer to every family's bundle, edge-only updates carry it
     * to the next epoch, and it is freed with the last bundle holding
     * it. A store load reads its own copy per artifact file.
     * `hostFeatures` is bound to `*hostFeaturesBuf` at construction.
     */
    std::shared_ptr<GnnModel> hostModel;
    std::shared_ptr<GraphContext> hostCtx;
    const std::shared_ptr<const Matrix> hostFeaturesBuf;
    const Matrix &hostFeatures;
    ForwardRecipe hostRecipe;
    /**
     * Pre-quantized execution packs keyed by backend operand precision
     * (bits): the PlatformRegistry capability of each sub-32-bit
     * backend the engine serves selects which pack its batches execute
     * with (dense branch at `bits`, protected branch at up to 2x).
     * Each pack's qop points at a hostCtx operator.
     */
    std::map<int, QuantizedGnn> quantized;

    /**
     * Memoized host-execution logits restored from the artifact store,
     * keyed by execution bits (32 = fp32). Empty for freshly built
     * bundles; the engine consults this before running a host forward,
     * so a warm-started server skips even the first execution per
     * precision.
     */
    std::map<int, Matrix> storedLogits;

    /**
     * Incremental-update state (src/dyn/), set by applyDeltaToBundle:
     * the combined dyn repair state over `synth.graph` plus the
     * per-layer fp32 activations of the last epoch. Null on freshly
     * built and store-restored bundles; the first streamed delta
     * bootstraps both. Never persisted.
     */
    std::shared_ptr<const dyn::DynState> dynState;
    std::shared_ptr<const dyn::IncrementalForward> fwdState;

    bool hasHostExec() const { return hostModel != nullptr; }
};

/** Serving-friendly synthesis scale for a dataset (keeps builds fast). */
double defaultServeScale(const std::string &dataset);

/**
 * Host feature buffers keyed by (dataset, scale, seed), held weakly: a
 * buffer is shared by every bundle built while one is alive, and freed
 * with the last of them. One per builder (so per engine), never
 * process-wide. Thread-safe; concurrent builds of one key wait for a
 * single materialization, other keys proceed in parallel.
 */
class HostFeatureMemo
{
  public:
    using Make = std::function<std::shared_ptr<const Matrix>()>;

    /** The live buffer for the key, or @p make's, remembered weakly. */
    std::shared_ptr<const Matrix> get(const std::string &dataset,
                                      double scale, uint64_t seed,
                                      const Make &make);

  private:
    struct Slot
    {
        std::mutex mu;
        std::weak_ptr<const Matrix> features;
    };
    using Key = std::tuple<std::string, double, uint64_t>;

    std::mutex mu_;
    std::map<Key, std::shared_ptr<Slot>> slots_;
};

/**
 * Build a bundle: synthesize the dataset profile, run the structure-only
 * GCoD pipeline, and prebuild both simulator inputs.
 *
 * @param scale 0 = the per-dataset default.
 * @param shards > 1 additionally builds the sharded execution state for
 *        datasets with at least @p shard_min_nodes published nodes.
 * @param quant_bits sub-32-bit precisions to pre-quantize host
 *        execution packs for (one per distinct quantized backend the
 *        engine serves); ignored for model families without host
 *        execution support.
 * @param features memo to take the host features from (and remember
 *        them in); null materializes a private copy. Either way they
 *        are `materialize(synth, Rng(seed ^ 0x51ed270b)).features`.
 */
std::shared_ptr<const ArtifactBundle>
buildArtifact(const ArtifactKey &key, const GcodOptions &opts,
              double scale = 0.0, uint64_t seed = 42, int shards = 0,
              NodeId shard_min_nodes = kLargeGraphNodes,
              const std::vector<int> &quant_bits = {},
              HostFeatureMemo *features = nullptr);

} // namespace gcod::serve

#endif // GCOD_SERVE_ARTIFACT_HPP
