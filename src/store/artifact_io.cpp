#include "store/artifact_io.hpp"

#include <chrono>
#include <filesystem>
#include <sstream>

#include "graph/profiles.hpp"
#include "nn/models.hpp"
#include "shard/scheduler.hpp"
#include "store/bytes.hpp"
#include "store/file.hpp"

namespace gcod::store {

namespace {

using serve::ArtifactBundle;
using serve::ArtifactKey;

// ---------------------------------------------------------------------
// Field-by-field codecs. Structs are serialized member-wise (never as raw
// struct bytes) so padding can neither leak into the file nor make CRCs
// nondeterministic across compilers.
// ---------------------------------------------------------------------

void
putProfile(ByteWriter &w, const DatasetProfile &p)
{
    w.putString(p.name);
    w.put(p.nodes);
    w.put(p.edges);
    w.put(int32_t(p.features));
    w.put(int32_t(p.classes));
    w.put(p.storageMB);
    w.put(p.featureDensity);
    w.put(p.pIntra);
    w.put(p.gamma);
    w.put(int32_t(p.trainFeatureCap));
}

DatasetProfile
getProfile(ByteCursor &c)
{
    DatasetProfile p;
    p.name = c.getString();
    p.nodes = c.get<NodeId>();
    p.edges = c.get<EdgeOffset>();
    p.features = c.get<int32_t>();
    p.classes = c.get<int32_t>();
    p.storageMB = c.get<double>();
    p.featureDensity = c.get<double>();
    p.pIntra = c.get<double>();
    p.gamma = c.get<double>();
    p.trainFeatureCap = c.get<int32_t>();
    return p;
}

void
putCsr(ByteWriter &w, const CsrMatrix &m)
{
    w.put(m.rows());
    w.put(m.cols());
    w.putVector(m.indptr());
    w.putVector(m.indices());
    w.putVector(m.values());
}

CsrMatrix
getCsr(ByteCursor &c)
{
    NodeId rows = c.get<NodeId>();
    NodeId cols = c.get<NodeId>();
    auto indptr = c.getVector<EdgeOffset>();
    auto indices = c.getVector<NodeId>();
    auto values = c.getVector<float>();
    // The CsrMatrix constructor re-validates offsets and column bounds,
    // so structurally corrupt (but CRC-clean) data still fails loudly.
    return CsrMatrix(rows, cols, std::move(indptr), std::move(indices),
                     std::move(values));
}

void
putMatrix(ByteWriter &w, const Matrix &m)
{
    w.put(m.rows());
    w.put(m.cols());
    w.putVector(m.data());
}

Matrix
getMatrix(ByteCursor &c, const char *what)
{
    int64_t rows = c.get<int64_t>();
    int64_t cols = c.get<int64_t>();
    auto data = c.getVector<float>();
    if (rows < 0 || cols < 0 || data.size() != size_t(rows * cols))
        GCOD_FATAL("artifact store: ", what, " declares ", rows, "x", cols,
                   " but carries ", data.size(), " values");
    return Matrix(rows, cols, std::move(data));
}

void
putSpec(ByteWriter &w, const ModelSpec &s)
{
    w.putString(s.name);
    w.put(uint32_t(s.layers.size()));
    for (const LayerSpec &l : s.layers) {
        w.put(int32_t(l.inDim));
        w.put(int32_t(l.outDim));
        w.put(uint32_t(l.agg));
        w.put(int32_t(l.heads));
        w.put(uint8_t(l.concatSelf));
    }
}

ModelSpec
getSpec(ByteCursor &c)
{
    ModelSpec s;
    s.name = c.getString();
    uint32_t n = c.get<uint32_t>();
    s.layers.resize(n);
    for (LayerSpec &l : s.layers) {
        l.inDim = c.get<int32_t>();
        l.outDim = c.get<int32_t>();
        l.agg = Aggregation(c.get<uint32_t>());
        l.heads = c.get<int32_t>();
        l.concatSelf = c.get<uint8_t>() != 0;
    }
    return s;
}

void
putWorkload(ByteWriter &w, const WorkloadDescriptor &d)
{
    w.put(d.numNodes);
    w.put(d.totalNnz);
    w.put(int32_t(d.numClasses));
    w.put(int32_t(d.numGroups));
    w.put(uint32_t(d.tiles.size()));
    for (const DiagonalTile &t : d.tiles) {
        w.put(int32_t(t.classId));
        w.put(int32_t(t.groupId));
        w.put(int32_t(t.subgraphId));
        w.put(t.begin);
        w.put(t.end);
        w.put(t.nnz);
    }
    w.put(d.diagNnz);
    w.put(d.offDiagNnz);
    w.putVector(d.offDiagColNnz);
    w.putVector(d.classNnz);
    w.put(d.offDiagEmptyColFraction);
}

WorkloadDescriptor
getWorkload(ByteCursor &c)
{
    WorkloadDescriptor d;
    d.numNodes = c.get<NodeId>();
    d.totalNnz = c.get<EdgeOffset>();
    d.numClasses = c.get<int32_t>();
    d.numGroups = c.get<int32_t>();
    uint32_t tiles = c.get<uint32_t>();
    d.tiles.resize(tiles);
    for (DiagonalTile &t : d.tiles) {
        t.classId = c.get<int32_t>();
        t.groupId = c.get<int32_t>();
        t.subgraphId = c.get<int32_t>();
        t.begin = c.get<NodeId>();
        t.end = c.get<NodeId>();
        t.nnz = c.get<EdgeOffset>();
    }
    d.diagNnz = c.get<EdgeOffset>();
    d.offDiagNnz = c.get<EdgeOffset>();
    d.offDiagColNnz = c.getVector<EdgeOffset>();
    d.classNnz = c.getVector<EdgeOffset>();
    d.offDiagEmptyColFraction = c.get<double>();
    return d;
}

void
putQuantizedMatrix(ByteWriter &w, const QuantizedMatrix &m)
{
    w.put(m.rows());
    w.put(m.cols());
    w.put(m.params().scale);
    w.put(int32_t(m.params().bits));
    w.putVector(m.codes8());
    w.putVector(m.codes16());
}

QuantizedMatrix
getQuantizedMatrix(ByteCursor &c)
{
    int64_t rows = c.get<int64_t>();
    int64_t cols = c.get<int64_t>();
    QuantParams qp;
    qp.scale = c.get<float>();
    qp.bits = c.get<int32_t>();
    auto q8 = c.getVector<int8_t>();
    auto q16 = c.getVector<int16_t>();
    return QuantizedMatrix::fromCodes(rows, cols, qp, std::move(q8),
                                      std::move(q16));
}

/**
 * QuantPack payload. v2 writes one optional quantized CSR per recipe
 * operator (op-graph families interpret attention/Max operators in fp32,
 * so those slots are absent); v1 wrote exactly one quantized CSR, the
 * single shared operator of plain-Mean stacks.
 */
std::vector<uint8_t>
encodeQuantPack(const QuantizedGnn &q, uint32_t version)
{
    ByteWriter w;
    putSpec(w, q.spec());
    if (version < 2) {
        GCOD_ASSERT(q.qops.size() == 1 && q.qops[0].pattern != nullptr,
                    "format v1 stores exactly one quantized operator; "
                    "pack for model '", q.spec().name, "' carries ",
                    q.qops.size());
        bool concat_self = !q.spec().layers.empty() &&
                           q.spec().layers.front().concatSelf;
        w.put(uint8_t(concat_self));
    }
    w.put(int32_t(q.policy.denseBits));
    w.put(int32_t(q.policy.sparseBits));
    w.put(int32_t(q.policy.operatorBits));
    w.put(q.policy.protectRatio);
    w.putVector(q.branchOf);
    w.putVector(q.localIndex);
    if (version < 2) {
        w.put(q.qops[0].qp.scale);
        w.put(int32_t(q.qops[0].qp.bits));
        w.putVector(q.qops[0].values);
    } else {
        w.put(uint32_t(q.qops.size()));
        for (const QuantizedCsr &op : q.qops) {
            w.put(uint8_t(op.pattern != nullptr));
            if (op.pattern == nullptr)
                continue;
            w.put(op.qp.scale);
            w.put(int32_t(op.qp.bits));
            w.putVector(op.values);
        }
    }
    w.put(uint32_t(q.wLo.size()));
    for (const QuantizedMatrix &m : q.wLo)
        putQuantizedMatrix(w, m);
    w.put(uint32_t(q.wHi.size()));
    for (const QuantizedMatrix &m : q.wHi)
        putQuantizedMatrix(w, m);
    w.put(q.protectedCount);
    return w.take();
}

QuantizedGnn
decodeQuantPack(ByteCursor &c, const ForwardRecipe &recipe,
                uint32_t version)
{
    QuantizedGnn q;
    q.recipe = recipe;
    // The stored spec is redundant with the bundle's (kept for
    // self-description); cross-check the identity and drop it.
    ModelSpec stored = getSpec(c);
    if (recipe.spec == nullptr ||
        stored.layers.size() != recipe.spec->layers.size())
        GCOD_FATAL("artifact store: quantized pack was built for a ",
                   stored.layers.size(), "-layer '", stored.name,
                   "' but the bundle's recipe expects ",
                   recipe.spec ? recipe.spec->layers.size() : 0,
                   " layers");
    if (version < 2)
        c.get<uint8_t>(); // v1 concatSelf flag, derivable from the spec
    q.policy.denseBits = c.get<int32_t>();
    q.policy.sparseBits = c.get<int32_t>();
    q.policy.operatorBits = c.get<int32_t>();
    q.policy.protectRatio = c.get<double>();
    q.branchOf = c.getVector<uint8_t>();
    q.localIndex = c.getVector<int32_t>();
    q.qops.assign(recipe.operators.size(), QuantizedCsr{});
    auto readOp = [&](size_t i) {
        QuantizedCsr &op = q.qops[i];
        op.pattern = recipe.operators[i];
        op.qp.scale = c.get<float>();
        op.qp.bits = c.get<int32_t>();
        op.values = c.getVector<int16_t>();
        if (op.values.size() != size_t(op.pattern->nnz()))
            GCOD_FATAL("artifact store: quantized operator ", i,
                       " carries ", op.values.size(),
                       " values for a pattern of ", op.pattern->nnz(),
                       " nonzeros");
    };
    if (version < 2) {
        // v1 files predate op-graph recipes: one quantized CSR, the
        // plain-Mean family's single shared operator.
        if (q.qops.size() != 1)
            GCOD_FATAL("artifact store: format v1 quantized pack for "
                       "model '", stored.name, "' but the recipe has ",
                       q.qops.size(), " operators");
        readOp(0);
    } else {
        uint32_t ops = c.get<uint32_t>();
        if (ops != q.qops.size())
            GCOD_FATAL("artifact store: quantized pack carries ", ops,
                       " operators but the bundle's recipe has ",
                       q.qops.size());
        for (uint32_t i = 0; i < ops; ++i)
            if (c.get<uint8_t>() != 0)
                readOp(i);
    }
    uint32_t lo = c.get<uint32_t>();
    q.wLo.reserve(lo);
    for (uint32_t i = 0; i < lo; ++i)
        q.wLo.push_back(getQuantizedMatrix(c));
    uint32_t hi = c.get<uint32_t>();
    q.wHi.reserve(hi);
    for (uint32_t i = 0; i < hi; ++i)
        q.wHi.push_back(getQuantizedMatrix(c));
    q.protectedCount = c.get<int64_t>();
    if (q.wLo.size() != recipe.weights.size() ||
        q.wHi.size() != recipe.weights.size())
        GCOD_FATAL("artifact store: quantized pack carries ", q.wLo.size(),
                   "/", q.wHi.size(), " weight matrices but model '",
                   stored.name, "' has ", recipe.weights.size());
    for (QuantizedMatrix &w : q.wLo)
        w.packPairs();
    for (QuantizedMatrix &w : q.wHi)
        w.packPairs();
    q.rebuildDequantized();
    return q;
}

std::vector<uint8_t>
encodeShardPlan(const shard::ShardPlan &p, const ReorderOptions &reorder)
{
    ByteWriter w;
    w.put(int32_t(reorder.numClasses));
    w.put(int32_t(reorder.numSubgraphs));
    w.put(int32_t(reorder.numGroups));
    w.put(reorder.seed);
    w.put(int32_t(p.numShards));
    w.put(p.numNodes);
    w.put(int32_t(p.numClasses));
    w.putVector(p.shardOf);
    w.putVector(p.classOf);
    w.put(uint32_t(p.shards.size()));
    for (const shard::Shard &s : p.shards) {
        w.put(int32_t(s.id));
        w.putVector(s.owned);
        w.putVector(s.halo);
        w.putVector(s.localToGlobal);
        w.put(s.ownedNnz);
        w.put(s.cutNnz);
        w.put(s.boundaryCount);
    }
    w.put(p.edgeCut);
    w.put(p.edgeCutFraction);
    w.put(p.maxImbalance);
    w.putVector(p.pairRows);
    return w.take();
}

shard::ShardPlan
decodeShardPlan(ByteCursor &c, ReorderOptions &reorder)
{
    reorder.numClasses = c.get<int32_t>();
    reorder.numSubgraphs = c.get<int32_t>();
    reorder.numGroups = c.get<int32_t>();
    reorder.seed = c.get<uint64_t>();
    shard::ShardPlan p;
    p.numShards = c.get<int32_t>();
    p.numNodes = c.get<NodeId>();
    p.numClasses = c.get<int32_t>();
    p.shardOf = c.getVector<int>();
    p.classOf = c.getVector<int>();
    uint32_t shards = c.get<uint32_t>();
    p.shards.resize(shards);
    for (shard::Shard &s : p.shards) {
        s.id = c.get<int32_t>();
        s.owned = c.getVector<NodeId>();
        s.halo = c.getVector<NodeId>();
        s.localToGlobal = c.getVector<NodeId>();
        s.ownedNnz = c.get<EdgeOffset>();
        s.cutNnz = c.get<EdgeOffset>();
        s.boundaryCount = c.get<NodeId>();
    }
    p.edgeCut = c.get<EdgeOffset>();
    p.edgeCutFraction = c.get<double>();
    p.maxImbalance = c.get<double>();
    p.pairRows = c.getVector<NodeId>();
    return p;
}

std::string
sanitizeComponent(const std::string &s)
{
    std::string out = s;
    for (char &ch : out) {
        bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                  (ch >= '0' && ch <= '9') || ch == '-' || ch == '_';
        if (!ok)
            ch = '_';
    }
    return out;
}

} // namespace

std::string
artifactStorePath(const std::string &dir, const ArtifactKey &key)
{
    std::ostringstream os;
    os << dir << '/' << sanitizeComponent(key.dataset) << '_'
       << sanitizeComponent(key.model) << '_' << std::hex << key.optionsHash
       << ".gcodstore";
    return os.str();
}

void
saveArtifactBundle(const std::string &path, const ArtifactBundle &bundle,
                   const ReorderOptions &shard_reorder,
                   const std::map<int, Matrix> &logits,
                   uint32_t format_version)
{
    StoreWriter store;
    store.setVersion(format_version);

    {
        ByteWriter w;
        w.putString(bundle.key.dataset);
        w.putString(bundle.key.model);
        w.put(bundle.key.optionsHash);
        w.put(bundle.scaleUsed);
        w.put(bundle.buildSeconds); // cold-build cost, informational
        w.put(bundle.synth.scale);
        store.addSection(SectionType::Meta, 0, w.take());
    }
    {
        ByteWriter w;
        putProfile(w, bundle.profile);
        putProfile(w, bundle.synth.profile);
        putProfile(w, bundle.synth.original);
        store.addSection(SectionType::Profiles, 0, w.take());
    }
    {
        ByteWriter w;
        putCsr(w, bundle.synth.graph.adjacency());
        store.addSection(SectionType::SynthGraph, 0, w.take());
    }
    {
        ByteWriter w;
        w.putVector(bundle.synth.labels);
        store.addSection(SectionType::Labels, 0, w.take());
    }
    {
        ByteWriter w;
        putCsr(w, bundle.outcome.finalGraph.adjacency());
        store.addSection(SectionType::FinalGraph, 0, w.take());
    }
    {
        ByteWriter w;
        putWorkload(w, bundle.outcome.workload);
        const GcodOutcome &o = bundle.outcome;
        w.put(o.baselineAccuracy);
        w.put(o.finalAccuracy);
        w.put(o.finalAccuracyInt8);
        w.put(o.step2PruneRatio);
        w.put(o.step3PruneRatio);
        w.put(o.polaBefore);
        w.put(o.polaAfter);
        w.put(o.pretrainCost);
        w.put(o.tuneCost);
        w.put(o.retrainCost);
        w.put(o.vanillaCost);
        store.addSection(SectionType::Workload, 0, w.take());
    }
    {
        ByteWriter w;
        putSpec(w, bundle.spec);
        store.addSection(SectionType::ModelSpecSec, 0, w.take());
    }

    if (bundle.hasHostExec()) {
        {
            ByteWriter w;
            putMatrix(w, bundle.hostFeatures);
            store.addSection(SectionType::Features, 0, w.take());
        }
        {
            ByteWriter w;
            // parameters() is order-stable, so save/load agree on layout.
            auto params = bundle.hostModel->parameters();
            w.put(uint32_t(params.size()));
            for (const Matrix *m : params)
                putMatrix(w, *m);
            store.addSection(SectionType::Weights, 0, w.take());
        }
        for (const auto &[bits, pack] : bundle.quantized)
            store.addSection(SectionType::QuantPack, uint32_t(bits),
                             encodeQuantPack(pack, format_version));
    }

    if (bundle.sharded)
        store.addSection(
            SectionType::ShardPlanSec, 0,
            encodeShardPlan(bundle.sharded->plan, shard_reorder));

    // Persist memoized logits: whatever the bundle already carried plus
    // whatever the caller hands over (caller wins on overlap).
    std::map<int, const Matrix *> allLogits;
    for (const auto &[bits, m] : bundle.storedLogits)
        allLogits[bits] = &m;
    for (const auto &[bits, m] : logits)
        allLogits[bits] = &m;
    for (const auto &[bits, m] : allLogits) {
        ByteWriter w;
        putMatrix(w, *m);
        store.addSection(SectionType::Logits, uint32_t(bits), w.take());
    }

    std::filesystem::path parent = std::filesystem::path(path).parent_path();
    if (!parent.empty())
        std::filesystem::create_directories(parent);
    store.write(path);
}

LoadedArtifact
loadArtifactBundle(const std::string &path)
{
    auto t0 = std::chrono::steady_clock::now();
    StoreReader reader(path);
    // The bundle is constructed around its feature buffer, so the
    // features section (absent for families without host execution)
    // decodes first. Each loaded file owns its copy.
    const Section *features = reader.find(SectionType::Features);
    std::shared_ptr<const Matrix> featureBuf;
    if (features != nullptr) {
        ByteCursor c(features->data, features->size, "features section");
        featureBuf =
            std::make_shared<const Matrix>(getMatrix(c, "feature matrix"));
        c.expectEnd();
    }
    auto bundle = std::make_shared<ArtifactBundle>(std::move(featureBuf));

    {
        const Section &s = reader.require(SectionType::Meta);
        ByteCursor c(s.data, s.size, "meta section");
        bundle->key.dataset = c.getString();
        bundle->key.model = c.getString();
        bundle->key.optionsHash = c.get<uint64_t>();
        bundle->scaleUsed = c.get<double>();
        c.get<double>(); // original cold-build seconds (informational)
        bundle->synth.scale = c.get<double>();
        c.expectEnd();
    }
    {
        const Section &s = reader.require(SectionType::Profiles);
        ByteCursor c(s.data, s.size, "profiles section");
        bundle->profile = getProfile(c);
        bundle->synth.profile = getProfile(c);
        bundle->synth.original = getProfile(c);
        c.expectEnd();
    }
    {
        const Section &s = reader.require(SectionType::SynthGraph);
        ByteCursor c(s.data, s.size, "synth graph section");
        bundle->synth.graph = Graph(getCsr(c));
        c.expectEnd();
    }
    {
        const Section &s = reader.require(SectionType::Labels);
        ByteCursor c(s.data, s.size, "labels section");
        bundle->synth.labels = c.getVector<int>();
        c.expectEnd();
    }
    {
        const Section &s = reader.require(SectionType::FinalGraph);
        ByteCursor c(s.data, s.size, "final graph section");
        bundle->outcome.finalGraph = Graph(getCsr(c));
        c.expectEnd();
    }
    {
        const Section &s = reader.require(SectionType::Workload);
        ByteCursor c(s.data, s.size, "workload section");
        bundle->outcome.workload = getWorkload(c);
        GcodOutcome &o = bundle->outcome;
        o.baselineAccuracy = c.get<double>();
        o.finalAccuracy = c.get<double>();
        o.finalAccuracyInt8 = c.get<double>();
        o.step2PruneRatio = c.get<double>();
        o.step3PruneRatio = c.get<double>();
        o.polaBefore = c.get<double>();
        o.polaAfter = c.get<double>();
        o.pretrainCost = c.get<double>();
        o.tuneCost = c.get<double>();
        o.retrainCost = c.get<double>();
        o.vanillaCost = c.get<double>();
        c.expectEnd();
    }
    {
        const Section &s = reader.require(SectionType::ModelSpecSec);
        ByteCursor c(s.data, s.size, "model spec section");
        bundle->spec = getSpec(c);
        c.expectEnd();
    }

    // Rebuild the prebuilt simulator inputs exactly as buildArtifact
    // does; pointers (gcodIn.workload) target this bundle's own outcome.
    bundle->raw = makeGraphInput(bundle->synth.graph.adjacency());
    bundle->raw.publishedNodes = bundle->profile.nodes;
    bundle->raw.featureDensity = bundle->profile.featureDensity;
    bundle->gcodIn = makeGraphInput(bundle->outcome.finalGraph.adjacency(),
                                    bundle->outcome.workload);
    bundle->gcodIn.publishedNodes = bundle->profile.nodes;
    bundle->gcodIn.featureDensity = bundle->profile.featureDensity;

    if (const Section *s = reader.find(SectionType::ShardPlanSec)) {
        ByteCursor c(s->data, s->size, "shard plan section");
        ReorderOptions reorder;
        shard::ShardPlan plan = decodeShardPlan(c, reorder);
        c.expectEnd();
        if (plan.numNodes != bundle->synth.graph.numNodes())
            GCOD_FATAL("artifact store: shard plan covers ", plan.numNodes,
                       " nodes but the stored graph has ",
                       bundle->synth.graph.numNodes());
        // Per-shard executions are derived state: rebuild them
        // deterministically from the stored plan instead of storing
        // every shard's local graph and workload twice.
        auto sharded = std::make_shared<shard::ShardedArtifact>();
        sharded->plan = std::move(plan);
        sharded->units = shard::buildShardExecutions(
            bundle->synth.graph, sharded->plan, reorder);
        bundle->sharded = std::move(sharded);
    }

    if (features != nullptr) {
        // Host model: zeroed weights at the stored shape, each then
        // overwritten with the stored one.
        bundle->hostModel = std::make_shared<GnnModel>(makeModelSpec(
            bundle->key.model, int(bundle->hostFeatures.cols()),
            bundle->profile.classes,
            bundle->profile.nodes >= kLargeGraphNodes));

        const Section &ws = reader.require(SectionType::Weights);
        ByteCursor wc(ws.data, ws.size, "weights section");
        auto params = bundle->hostModel->parameters();
        uint32_t count = wc.get<uint32_t>();
        if (count != params.size())
            GCOD_FATAL("artifact store: weights section carries ", count,
                       " matrices but model '", bundle->key.model,
                       "' has ", params.size(), " parameters");
        for (Matrix *p : params) {
            Matrix stored = getMatrix(wc, "weight matrix");
            if (!stored.sameShape(*p))
                GCOD_FATAL("artifact store: stored weight is ",
                           stored.rows(), "x", stored.cols(),
                           " but the model expects ", p->rows(), "x",
                           p->cols());
            *p = std::move(stored);
        }
        wc.expectEnd();

        bundle->hostCtx =
            std::make_shared<GraphContext>(bundle->synth.graph);
        bundle->hostRecipe =
            forwardRecipeFor(*bundle->hostModel, *bundle->hostCtx);

        for (const Section *qs : reader.all(SectionType::QuantPack)) {
            ByteCursor qc(qs->data, qs->size, "quant pack section");
            QuantizedGnn pack = decodeQuantPack(qc, bundle->hostRecipe,
                                                reader.version());
            qc.expectEnd();
            bundle->quantized.emplace(int(qs->tag), std::move(pack));
        }
    }

    for (const Section *ls : reader.all(SectionType::Logits)) {
        ByteCursor lc(ls->data, ls->size, "logits section");
        bundle->storedLogits.emplace(int(ls->tag),
                                     getMatrix(lc, "logits matrix"));
        lc.expectEnd();
    }

    LoadedArtifact out;
    out.loadSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    // Build-time accounting (ArtifactCache::totalBuildSeconds) should
    // report what this bundle actually cost this process: the warm load.
    bundle->buildSeconds = out.loadSeconds;
    out.bundle = std::move(bundle);
    return out;
}

} // namespace gcod::store
