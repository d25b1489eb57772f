#include "serve/artifact.hpp"

#include <chrono>
#include <map>
#include <sstream>

#include "graph/profiles.hpp"
#include "nn/dataset.hpp"
#include "shard/scheduler.hpp"
#include "sim/rng.hpp"

namespace gcod::serve {

namespace {

/** FNV-1a over raw bytes. */
void
hashBytes(uint64_t &h, const void *data, size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
}

template <typename T>
void
hashValue(uint64_t &h, const T &v)
{
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>,
                  "hashValue takes scalar fields only");
    hashBytes(h, &v, sizeof(v));
}

/**
 * The host features of @p synth for the artifact @p seed: the one place
 * bundle features come from, with or without a HostFeatureMemo.
 */
std::shared_ptr<const Matrix>
materializeHostFeatures(const SyntheticGraph &synth, uint64_t seed)
{
    Rng frng(seed ^ 0x51ed270bull);
    return std::make_shared<const Matrix>(
        std::move(materialize(synth, frng).features));
}

} // namespace

uint64_t
hashGcodOptions(const GcodOptions &opts)
{
    uint64_t h = 14695981039346656037ULL;
    hashBytes(h, opts.model.data(), opts.model.size());
    hashValue(h, opts.reorder.numClasses);
    hashValue(h, opts.reorder.numSubgraphs);
    hashValue(h, opts.reorder.numGroups);
    hashValue(h, opts.reorder.seed);
    hashValue(h, opts.polarize.pruneRatio);
    hashValue(h, opts.polarize.polaWeight);
    hashValue(h, opts.polarize.admmIterations);
    hashValue(h, opts.polarize.gradSteps);
    hashValue(h, opts.polarize.lr);
    hashValue(h, opts.polarize.rho);
    hashValue(h, opts.structural.patchSize);
    hashValue(h, opts.structural.eta);
    hashValue(h, opts.pretrain.epochs);
    hashValue(h, opts.pretrain.earlyBird);
    hashValue(h, opts.retrain.epochs);
    hashValue(h, opts.retrain.earlyBird);
    hashValue(h, opts.tuneRounds);
    hashValue(h, opts.seed);
    return h;
}

std::string
ArtifactKey::toString() const
{
    std::ostringstream os;
    os << dataset << '/' << model << '/' << std::hex << optionsHash;
    return os.str();
}

size_t
ArtifactKeyHash::operator()(const ArtifactKey &k) const
{
    uint64_t h = k.optionsHash;
    hashBytes(h, k.dataset.data(), k.dataset.size());
    hashBytes(h, k.model.data(), k.model.size());
    return size_t(h);
}

double
defaultServeScale(const std::string &dataset)
{
    static const std::map<std::string, double> scales = {
        {"Cora", 1.0},  {"CiteSeer", 1.0},    {"Pubmed", 0.5},
        {"NELL", 0.08}, {"Ogbn-ArXiv", 0.05}, {"Reddit", 0.01},
    };
    auto it = scales.find(dataset);
    return it == scales.end() ? 1.0 : it->second;
}

ArtifactBundle::ArtifactBundle(std::shared_ptr<const Matrix> features)
    : hostFeaturesBuf(features ? std::move(features)
                               : std::make_shared<const Matrix>()),
      hostFeatures(*hostFeaturesBuf)
{
}

std::shared_ptr<const Matrix>
HostFeatureMemo::get(const std::string &dataset, double scale,
                     uint64_t seed, const Make &make)
{
    // Slots are never erased: a builder's scale and seed are fixed, so
    // an engine's memo holds at most one small slot per dataset.
    std::shared_ptr<Slot> slot;
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::shared_ptr<Slot> &s = slots_[Key{dataset, scale, seed}];
        if (s == nullptr)
            s = std::make_shared<Slot>();
        slot = s;
    }
    std::lock_guard<std::mutex> lock(slot->mu);
    std::shared_ptr<const Matrix> features = slot->features.lock();
    if (features == nullptr) {
        features = make();
        slot->features = features;
    }
    return features;
}

std::shared_ptr<const ArtifactBundle>
buildArtifact(const ArtifactKey &key, const GcodOptions &opts, double scale,
              uint64_t seed, int shards, NodeId shard_min_nodes,
              const std::vector<int> &quant_bits, HostFeatureMemo *features)
{
    auto t0 = std::chrono::steady_clock::now();
    DatasetProfile profile = profileByName(key.dataset);
    const double scaleUsed =
        scale > 0.0 ? scale : defaultServeScale(key.dataset);
    Rng rng(seed);
    SyntheticGraph synth = synthesize(profile, scaleUsed, rng);
    ModelSpec spec = makeModelSpec(key.model, profile.features,
                                   profile.classes,
                                   profile.nodes >= kLargeGraphNodes);

    // Host execution state for every op-graph family starts from the
    // dataset's features, which the family does not shape: with a memo
    // every family's bundle shares one buffer.
    const bool hostExec = supportsRecipeForward(spec);
    if (!hostExec)
        warn("artifact ", key.toString(), ": model family '", spec.name,
             "' has no op-graph recipe (supported: ",
             supportedRecipeFamilies(),
             "); serving without host execution state");
    std::shared_ptr<const Matrix> hostFeatures;
    if (hostExec) {
        auto make = [&] { return materializeHostFeatures(synth, seed); };
        hostFeatures = features != nullptr
                           ? features->get(key.dataset, scaleUsed, seed, make)
                           : make();
    }

    auto bundle = std::make_shared<ArtifactBundle>(std::move(hostFeatures));
    bundle->key = key;
    bundle->profile = std::move(profile);
    bundle->scaleUsed = scaleUsed;
    bundle->synth = std::move(synth);
    bundle->outcome = runGcodStructureOnly(bundle->synth, opts);
    bundle->spec = std::move(spec);

    bundle->raw = makeGraphInput(bundle->synth.graph.adjacency());
    bundle->raw.publishedNodes = bundle->profile.nodes;
    bundle->raw.featureDensity = bundle->profile.featureDensity;

    bundle->gcodIn = makeGraphInput(bundle->outcome.finalGraph.adjacency(),
                                    bundle->outcome.workload);
    bundle->gcodIn.publishedNodes = bundle->profile.nodes;
    bundle->gcodIn.featureDensity = bundle->profile.featureDensity;

    // Large-graph artifacts additionally carry the sharded execution
    // state: the multi-chip runtime executes the raw synthetic graph
    // cut into shards, so the plan and its per-shard simulator inputs
    // amortize across requests exactly like the rest of the bundle.
    if (shards > 1 && bundle->profile.nodes >= shard_min_nodes)
        bundle->sharded = shard::buildShardedArtifact(
            bundle->synth.graph, shards, opts.reorder, seed);

    // Seeded weights plus one pre-quantized pack per requested backend
    // precision. All derived from the fixed artifact seed, so serving
    // results are deterministic per bundle.
    if (hostExec) {
        Rng wrng(seed + 17);
        bundle->hostModel = std::make_shared<GnnModel>(makeModel(
            key.model, int(bundle->hostFeatures.cols()),
            bundle->profile.classes,
            bundle->profile.nodes >= kLargeGraphNodes, wrng));
        bundle->hostCtx =
            std::make_shared<GraphContext>(bundle->synth.graph);
        bundle->hostRecipe =
            forwardRecipeFor(*bundle->hostModel, *bundle->hostCtx);
        for (int bits : quant_bits) {
            // Packed codes support 2..16 bits; backends outside that
            // range (e.g. a bits=24 spec) fall back to fp32 execution.
            if (bits < 2 || bits > 16 || bundle->quantized.count(bits))
                continue;
            MixedPrecisionPolicy pol;
            pol.denseBits = bits;
            pol.sparseBits = std::min(2 * bits, 16);
            pol.operatorBits = pol.sparseBits;
            bundle->quantized.emplace(
                bits, quantizeGnn(bundle->hostRecipe,
                                  bundle->synth.graph.degrees(),
                                  pol));
        }
    }

    bundle->buildSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return bundle;
}

} // namespace gcod::serve
