/**
 * @file
 * Persistent artifact store tests: byte-level round trips through the
 * section container, full ArtifactBundle save/load equivalence (weights,
 * features, quantized packs, shard plans, memoized logits), loud
 * failures on every corruption mode (truncation, bad magic, bad CRC,
 * version mismatch), and the engine's warm-start integration.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "serve/engine.hpp"
#include "store/artifact_io.hpp"
#include "store/bytes.hpp"
#include "store/file.hpp"

using namespace gcod;
using namespace gcod::store;
using serve::ArtifactBundle;
using serve::ArtifactKey;

namespace {

/** Fresh per-test scratch directory under the gtest temp root. */
std::string
scratchDir(const std::string &name)
{
    std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / ("gcod_store_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              std::streamsize(bytes.size()));
}

/** A small real bundle with host execution, int8 pack, and shards. */
std::shared_ptr<const ArtifactBundle>
smallBundle(const std::string &model = "GCN")
{
    GcodOptions opts;
    opts.model = model;
    return serve::buildArtifact(
        ArtifactKey{"Cora", model, serve::hashGcodOptions(opts)}, opts,
        /*scale=*/0.25, /*seed=*/7, /*shards=*/2, /*shard_min_nodes=*/1,
        /*quant_bits=*/{8});
}

void
expectMatrixEq(const Matrix &a, const Matrix &b, const char *what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    // vector<float> equality is bitwise here: every value either came
    // through a lossless byte copy or a deterministic integer kernel.
    EXPECT_TRUE(a.data() == b.data()) << what << ": payload differs";
}

} // namespace

// ---------------------------------------------------------------- container
TEST(StoreFileTest, WriterReaderRoundTripWithAlignment)
{
    std::string dir = scratchDir("container");
    std::string path = dir + "/sections.bin";

    std::vector<uint8_t> meta = {1, 2, 3};
    std::vector<uint8_t> pack(1000);
    for (size_t i = 0; i < pack.size(); ++i)
        pack[i] = uint8_t(i * 7);

    StoreWriter w;
    w.addSection(SectionType::Meta, 0, std::vector<uint8_t>(meta));
    w.addSection(SectionType::QuantPack, 8, std::vector<uint8_t>(pack));
    w.write(path);

    StoreReader r(path);
    ASSERT_EQ(r.sections().size(), 2u);
    const Section &m = r.require(SectionType::Meta);
    ASSERT_EQ(m.size, meta.size());
    EXPECT_EQ(std::memcmp(m.data, meta.data(), meta.size()), 0);
    const Section &q = r.require(SectionType::QuantPack, 8);
    ASSERT_EQ(q.size, pack.size());
    EXPECT_EQ(std::memcmp(q.data, pack.data(), pack.size()), 0);

    // Zero-copy: every section points into the mapped (or fallback)
    // image, at the promised 64-byte alignment.
    for (const Section &s : r.sections()) {
        EXPECT_GE(s.data, r.base());
        EXPECT_LE(s.data + s.size, r.base() + r.fileSize());
        EXPECT_EQ((s.data - r.base()) % int64_t(kSectionAlign), 0);
    }
#if defined(__unix__) || defined(__APPLE__)
    EXPECT_TRUE(r.mapped());
#endif

    EXPECT_EQ(r.find(SectionType::Logits), nullptr);
    EXPECT_THROW(r.require(SectionType::Logits), std::runtime_error);
}

TEST(StoreFileTest, ByteCursorBoundsAreEnforced)
{
    ByteWriter w;
    w.put<uint32_t>(5);
    w.putString("hello");
    std::vector<uint8_t> bytes = w.take();

    ByteCursor c(bytes.data(), bytes.size(), "test");
    EXPECT_EQ(c.get<uint32_t>(), 5u);
    EXPECT_EQ(c.getString(), "hello");
    EXPECT_NO_THROW(c.expectEnd());
    EXPECT_THROW(c.get<uint64_t>(), std::runtime_error);

    // A length prefix larger than the remaining payload must not be
    // trusted (this is what makes truncation loud instead of UB).
    ByteWriter w2;
    w2.put<uint64_t>(uint64_t(1) << 60);
    std::vector<uint8_t> evil = w2.take();
    ByteCursor c2(evil.data(), evil.size(), "test");
    EXPECT_THROW(c2.getVector<float>(), std::runtime_error);
}

// ------------------------------------------------------------- corruption
TEST(StoreFileTest, CorruptionFailsLoudly)
{
    std::string dir = scratchDir("corruption");
    std::string path = dir + "/artifact.bin";
    saveArtifactBundle(path, *smallBundle());
    std::vector<uint8_t> good = readFile(path);
    ASSERT_GT(good.size(), sizeof(FileHeader) + 256);

    // Missing file.
    EXPECT_THROW(loadArtifactBundle(dir + "/nope.bin"),
                 std::runtime_error);

    // Truncated to half: header fileSize no longer matches.
    std::vector<uint8_t> truncated(good.begin(),
                                   good.begin() + good.size() / 2);
    writeFile(path, truncated);
    EXPECT_THROW(loadArtifactBundle(path), std::runtime_error);

    // Bad magic.
    std::vector<uint8_t> badMagic = good;
    badMagic[0] ^= 0xFF;
    writeFile(path, badMagic);
    EXPECT_THROW(loadArtifactBundle(path), std::runtime_error);

    // Future format version (bytes 8..11 hold the version field).
    std::vector<uint8_t> badVersion = good;
    uint32_t v = 0xFFFF;
    std::memcpy(badVersion.data() + 8, &v, sizeof(v));
    writeFile(path, badVersion);
    EXPECT_THROW(loadArtifactBundle(path), std::runtime_error);

    // One flipped payload byte: the section CRC must catch it. Locate a
    // real payload byte through the reader (the file tail may be
    // alignment padding, which no checksum covers).
    writeFile(path, good);
    size_t payloadByte = 0;
    {
        StoreReader r(path);
        const Section &s = r.sections().back();
        payloadByte = size_t(s.data - r.base()) + s.size / 2;
    }
    std::vector<uint8_t> badCrc = good;
    badCrc[payloadByte] ^= 0x01;
    writeFile(path, badCrc);
    EXPECT_THROW(loadArtifactBundle(path), std::runtime_error);

    // Untouched original still loads after all that abuse.
    writeFile(path, good);
    EXPECT_NO_THROW(loadArtifactBundle(path));
}

TEST(StoreFileTest, DegenerateFilesFailCleanlyNotCatastrophically)
{
    std::string dir = scratchDir("degenerate");

    // Zero-length file: smaller than the header, clean runtime_error
    // (not a wild read or an escaping bad_alloc).
    std::string empty = dir + "/empty.bin";
    writeFile(empty, {});
    EXPECT_THROW(StoreReader r(empty), std::runtime_error);

    // Header claims more sections than the file can possibly hold: the
    // table-bounds check fires before anything reads past the end. The
    // count stays under kMaxSections so this exercises the bounds check,
    // not the count cap.
    std::string inflated = dir + "/inflated.bin";
    {
        FileHeader h;
        h.sectionCount = kMaxSections - 1;
        h.fileSize = sizeof(FileHeader);
        std::vector<uint8_t> raw(sizeof(FileHeader));
        std::memcpy(raw.data(), &h, sizeof(h));
        writeFile(inflated, raw);
    }
    EXPECT_THROW(StoreReader r(inflated), std::runtime_error);

    // Truncation mid-section-table: header promises two entries but the
    // file ends halfway through the first.
    std::string cut = dir + "/cut_table.bin";
    {
        FileHeader h;
        h.sectionCount = 2;
        h.fileSize = sizeof(FileHeader) + sizeof(SectionEntry) / 2;
        std::vector<uint8_t> raw(size_t(h.fileSize));
        std::memcpy(raw.data(), &h, sizeof(h));
        writeFile(cut, raw);
    }
    EXPECT_THROW(StoreReader r(cut), std::runtime_error);
}

TEST(StoreFileTest, QuarantineMovesTheFileAside)
{
    std::string dir = scratchDir("quarantine");
    std::string path = dir + "/bad.bin";
    writeFile(path, {1, 2, 3});

    EXPECT_TRUE(quarantineFile(path));
    EXPECT_FALSE(fileExists(path));
    ASSERT_TRUE(fileExists(quarantinePath(path)));

    // Repeated corruption of the same key: the newest bad bytes replace
    // the previous quarantine file instead of erroring out.
    writeFile(path, {4, 5, 6});
    EXPECT_TRUE(quarantineFile(path));
    EXPECT_FALSE(fileExists(path));
    EXPECT_EQ(readFile(quarantinePath(path)),
              (std::vector<uint8_t>{4, 5, 6}));

    // Quarantining a missing file: the contract is "path no longer
    // exists afterwards", which a never-existing file satisfies.
    EXPECT_TRUE(quarantineFile(dir + "/never_existed.bin"));
}

// -------------------------------------------------------------- round trip
TEST(StoreArtifactTest, BundleRoundTripIsEquivalentForServing)
{
    std::string dir = scratchDir("roundtrip");
    std::shared_ptr<const ArtifactBundle> built = smallBundle();
    std::string path = artifactStorePath(dir, built->key);

    std::map<int, Matrix> memo;
    memo.emplace(32, referenceForward(built->hostRecipe,
                                      built->hostFeatures));
    saveArtifactBundle(path, *built, ReorderOptions{}, memo);
    LoadedArtifact loaded = loadArtifactBundle(path);
    const ArtifactBundle &b = *loaded.bundle;

    EXPECT_EQ(b.key, built->key);
    EXPECT_DOUBLE_EQ(b.scaleUsed, built->scaleUsed);
    EXPECT_GT(loaded.loadSeconds, 0.0);
    EXPECT_DOUBLE_EQ(b.buildSeconds, loaded.loadSeconds);

    // Profiles and processed graph.
    EXPECT_EQ(b.profile.nodes, built->profile.nodes);
    EXPECT_EQ(b.synth.graph.numNodes(), built->synth.graph.numNodes());
    EXPECT_EQ(b.outcome.finalGraph.adjacency().nnz(),
              built->outcome.finalGraph.adjacency().nnz());
    EXPECT_EQ(b.outcome.workload.tiles.size(),
              built->outcome.workload.tiles.size());
    EXPECT_EQ(b.gcodIn.adj.nnz, built->gcodIn.adj.nnz);

    // Host execution state: features, weights, and therefore the fp32
    // forward must be bit-identical.
    ASSERT_TRUE(b.hasHostExec());
    expectMatrixEq(b.hostFeatures, built->hostFeatures, "features");
    auto wa = built->hostModel->parameters();
    auto wb = b.hostModel->parameters();
    ASSERT_EQ(wa.size(), wb.size());
    for (size_t i = 0; i < wa.size(); ++i)
        expectMatrixEq(*wb[i], *wa[i], "weights");
    expectMatrixEq(referenceForward(b.hostRecipe, b.hostFeatures),
                   referenceForward(built->hostRecipe,
                                    built->hostFeatures),
                   "fp32 logits");

    // Quantized pack executes bit-identically (integer kernels).
    ASSERT_EQ(b.quantized.count(8), 1u);
    expectMatrixEq(quantizedForwardMixed(b.quantized.at(8),
                                         b.hostFeatures),
                   quantizedForwardMixed(built->quantized.at(8),
                                         built->hostFeatures),
                   "int8 logits");

    // Shard plan and rebuilt executions.
    ASSERT_NE(built->sharded, nullptr);
    ASSERT_NE(b.sharded, nullptr);
    ASSERT_EQ(b.sharded->plan.shards.size(),
              built->sharded->plan.shards.size());
    EXPECT_EQ(b.sharded->plan.edgeCut, built->sharded->plan.edgeCut);
    ASSERT_EQ(b.sharded->units.size(), built->sharded->units.size());
    for (size_t s = 0; s < b.sharded->plan.shards.size(); ++s) {
        EXPECT_EQ(b.sharded->plan.shards[s].owned,
                  built->sharded->plan.shards[s].owned);
        EXPECT_EQ(b.sharded->plan.shards[s].halo,
                  built->sharded->plan.shards[s].halo);
    }
    expectMatrixEq(shard::shardedForward(b.sharded->plan, b.hostRecipe,
                                         b.hostFeatures, &b.quantized.at(8)),
                   shard::shardedForward(built->sharded->plan,
                                         built->hostRecipe,
                                         built->hostFeatures,
                                         &built->quantized.at(8)),
                   "sharded int8 logits");

    // Memoized logits handed to save come back as storedLogits.
    ASSERT_EQ(b.storedLogits.count(32), 1u);
    expectMatrixEq(b.storedLogits.at(32), memo.at(32), "stored logits");
}

// --------------------------------------------------------- format versions
TEST(StoreArtifactTest, OpGraphPackRoundTripsInFormatV2)
{
    std::string dir = scratchDir("v2_opgraph");
    std::shared_ptr<const ArtifactBundle> built = smallBundle("GAT");
    std::string path = artifactStorePath(dir, built->key);

    saveArtifactBundle(path, *built);
    {
        StoreReader r(path);
        EXPECT_EQ(r.version(), kFormatVersion);
    }
    LoadedArtifact loaded = loadArtifactBundle(path);
    const ArtifactBundle &b = *loaded.bundle;

    // The attention operator runs interpreted in fp32, so its slot in
    // the pack carries no quantized CSR; v2 must preserve exactly which
    // operators are packed and which are absent.
    ASSERT_EQ(b.quantized.count(8), 1u);
    const QuantizedGnn &q = b.quantized.at(8);
    const QuantizedGnn &q0 = built->quantized.at(8);
    ASSERT_EQ(q.qops.size(), q0.qops.size());
    for (size_t i = 0; i < q.qops.size(); ++i)
        EXPECT_EQ(q.qops[i].pattern != nullptr,
                  q0.qops[i].pattern != nullptr)
            << "operator " << i << " presence";
    expectMatrixEq(quantizedForwardMixed(q, b.hostFeatures),
                   quantizedForwardMixed(q0, built->hostFeatures),
                   "GAT int8 logits");
    expectMatrixEq(referenceForward(b.hostRecipe, b.hostFeatures),
                   referenceForward(built->hostRecipe,
                                    built->hostFeatures),
                   "GAT fp32 logits");
}

TEST(StoreArtifactTest, FormatV1FilesStillLoadAndServeIdentically)
{
    std::string dir = scratchDir("v1_compat");
    std::shared_ptr<const ArtifactBundle> built = smallBundle();
    std::string path = artifactStorePath(dir, built->key);

    // Emit a genuine v1 file: plain-Mean GCN packs are exactly the
    // single-operator shape the old format could carry.
    saveArtifactBundle(path, *built, ReorderOptions{}, {},
                       /*format_version=*/1);
    {
        StoreReader r(path);
        EXPECT_EQ(r.version(), 1u);
    }
    LoadedArtifact loaded = loadArtifactBundle(path);
    const ArtifactBundle &b = *loaded.bundle;
    ASSERT_TRUE(b.hasHostExec());
    ASSERT_EQ(b.quantized.count(8), 1u);
    expectMatrixEq(quantizedForwardMixed(b.quantized.at(8),
                                         b.hostFeatures),
                   quantizedForwardMixed(built->quantized.at(8),
                                         built->hostFeatures),
                   "v1 int8 logits");
    expectMatrixEq(referenceForward(b.hostRecipe, b.hostFeatures),
                   referenceForward(built->hostRecipe,
                                    built->hostFeatures),
                   "v1 fp32 logits");
}

TEST(StoreArtifactTest, FormatV1RefusesOpGraphPacksItCannotRepresent)
{
    std::string dir = scratchDir("v1_reject");
    std::shared_ptr<const ArtifactBundle> built = smallBundle("GAT");
    std::string path = artifactStorePath(dir, built->key);

    // A GAT pack keeps its operator in fp32 (no quantized CSR), which v1
    // cannot encode; the writer must refuse loudly, never misencode.
    EXPECT_THROW(saveArtifactBundle(path, *built, ReorderOptions{}, {},
                                    /*format_version=*/1),
                 std::logic_error);

    // Versions this build does not write are rejected up front.
    EXPECT_THROW(saveArtifactBundle(path, *built, ReorderOptions{}, {},
                                    kFormatVersion + 1),
                 std::runtime_error);
}

// ------------------------------------------------------------- engine warm
TEST(StoreEngineTest, WarmStartLoadsFromStoreAndPredictsIdentically)
{
    std::string dir = scratchDir("warm");
    serve::ServeOptions opts;
    opts.backends = {"GCoD"};
    opts.workers = 1;
    opts.artifactScale = 0.25;
    opts.batching.maxDelay = std::chrono::microseconds(200);
    opts.storeDir = dir;

    std::vector<int> cold;
    ArtifactKey key;
    {
        serve::ServingEngine engine(opts);
        key = engine.keyFor("Cora", "GCN");
        std::vector<std::future<serve::InferenceReply>> futs;
        for (int n = 0; n < 8; ++n)
            futs.push_back(engine.submit({0, "Cora", "GCN", NodeId(n)}));
        engine.drain();
        for (auto &f : futs) {
            serve::InferenceReply r = f.get();
            ASSERT_TRUE(r.ok()) << r.error;
            cold.push_back(r.prediction);
        }
        // The cold build persisted itself; saveArtifact additionally
        // captures the memoized logits for the next process.
        EXPECT_TRUE(fileExists(artifactStorePath(dir, key)));
        EXPECT_TRUE(engine.saveArtifact(key));
    }

    serve::ServingEngine warm(opts);
    std::vector<std::future<serve::InferenceReply>> futs;
    for (int n = 0; n < 8; ++n)
        futs.push_back(warm.submit({0, "Cora", "GCN", NodeId(n)}));
    warm.drain();
    for (int n = 0; n < 8; ++n) {
        serve::InferenceReply r = futs[size_t(n)].get();
        ASSERT_TRUE(r.ok()) << r.error;
        EXPECT_EQ(r.prediction, cold[size_t(n)]) << "node " << n;
    }
    // The warm engine built nothing: its one miss was a store load.
    EXPECT_EQ(warm.cache().misses(), 1u);
    EXPECT_LT(warm.cache().totalBuildSeconds(), 1.0);
}

TEST(StoreEngineTest, CorruptStoreFileFallsBackToRebuild)
{
    std::string dir = scratchDir("fallback");
    serve::ServeOptions opts;
    opts.backends = {"GCoD"};
    opts.workers = 1;
    opts.artifactScale = 0.25;
    opts.batching.maxDelay = std::chrono::microseconds(200);
    opts.storeDir = dir;

    ArtifactKey key;
    {
        serve::ServingEngine engine(opts);
        key = engine.keyFor("Cora", "GCN");
        engine.submit({0, "Cora", "GCN", 0}).wait_for(
            std::chrono::seconds(0));
        engine.drain();
    }
    std::string path = artifactStorePath(dir, key);
    ASSERT_TRUE(fileExists(path));
    std::vector<uint8_t> bytes = readFile(path);
    bytes[bytes.size() / 2] ^= 0xA5;
    writeFile(path, bytes);

    serve::ServingEngine engine(opts);
    serve::InferenceReply r = engine.submit({0, "Cora", "GCN", 0}).get();
    EXPECT_TRUE(r.ok()) << r.error;
    // The corrupt file was rebuilt and re-saved: loadable again.
    EXPECT_NO_THROW(loadArtifactBundle(path));
}

TEST(StoreEngineTest, CorruptStoreFileIsQuarantinedAndRepublished)
{
    std::string dir = scratchDir("quarantine_engine");
    serve::ServeOptions opts;
    opts.backends = {"GCoD"};
    opts.workers = 1;
    opts.artifactScale = 0.25;
    opts.batching.maxDelay = std::chrono::microseconds(200);
    opts.storeDir = dir;

    ArtifactKey key;
    int coldPrediction = -1;
    {
        serve::ServingEngine engine(opts);
        key = engine.keyFor("Cora", "GCN");
        serve::InferenceReply r =
            engine.submit({0, "Cora", "GCN", 3}).get();
        ASSERT_TRUE(r.ok()) << r.error;
        coldPrediction = r.prediction;
    }
    std::string path = artifactStorePath(dir, key);
    ASSERT_TRUE(fileExists(path));

    // Flip a byte that is provably covered by a section CRC (the file
    // tail may be alignment padding, which no checksum sees).
    std::vector<uint8_t> bytes = readFile(path);
    size_t payloadByte = 0;
    {
        StoreReader r(path);
        const Section &s = r.sections().back();
        payloadByte = size_t(s.data - r.base()) + s.size / 2;
    }
    bytes[payloadByte] ^= 0x40;
    writeFile(path, bytes);

    serve::ServingEngine engine(opts);
    serve::InferenceReply r = engine.submit({0, "Cora", "GCN", 3}).get();
    ASSERT_TRUE(r.ok()) << r.error;
    // Same graph seed + deterministic pipeline: the rebuild must serve
    // the same prediction the store-backed artifact did.
    EXPECT_EQ(r.prediction, coldPrediction);
    // The bad bytes sit in quarantine for forensics; the key's path got
    // a clean re-published file; the stats counted exactly one event.
    ASSERT_TRUE(fileExists(quarantinePath(path)));
    EXPECT_EQ(readFile(quarantinePath(path)), bytes);
    EXPECT_NO_THROW(loadArtifactBundle(path));
    EXPECT_EQ(engine.stats().quarantined(), 1u);
}
