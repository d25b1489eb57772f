/**
 * @file
 * Tests for the integer (quantized) execution path: packed matrix round
 * trips, integer kernels vs their fp32 counterparts, the mixed-precision
 * forward's error bound against fp32 logits, bit-identity across thread
 * counts and shard counts, and the serving route that executes an
 * artifact's int8 pack when the backend's registry capability says
 * bits=8.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>

#include "graph/generate.hpp"
#include "nn/quant_exec.hpp"
#include "serve/engine.hpp"
#include "shard/executor.hpp"
#include "sim/parallel.hpp"

using namespace gcod;
using namespace gcod::serve;

namespace {

/**
 * Documented bound for the default mixed policy (int8 dense branch,
 * int16 protected branch, int16 operator): quantized logits stay within
 * 5% of the fp32 logit peak (docs/quantization.md).
 */
constexpr double kLogitErrorFraction = 0.05;

Matrix
randomDense(int64_t r, int64_t c, Rng &rng)
{
    Matrix m(r, c);
    for (auto &v : m.data())
        v = float(rng.normal(0.0, 1.0));
    return m;
}

double
peakAbs(const Matrix &m)
{
    double peak = 0.0;
    for (float v : m.data())
        peak = std::max(peak, double(std::fabs(v)));
    return peak;
}

bool
bitIdentical(const Matrix &a, const Matrix &b)
{
    return a.sameShape(b) &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.data().size() * sizeof(float)) == 0;
}

/** A small GCN + context + pack over a power-law graph. */
struct QuantFixture
{
    Graph graph;
    GraphContext ctx;
    std::unique_ptr<GnnModel> model;
    Matrix x;
    ForwardRecipe recipe;

    explicit QuantFixture(NodeId nodes = 400, int features = 48,
                          uint64_t seed = 11)
        : graph([&] {
              Rng grng(seed);
              return barabasiAlbert(nodes, 4, grng);
          }()),
          ctx(graph)
    {
        Rng rng(seed + 1);
        model = std::make_unique<GnnModel>(
            makeModel("GCN", features, 7, false, rng));
        x = randomDense(nodes, features, rng);
        recipe = forwardRecipeFor(*model, ctx);
    }
};

} // namespace

// --------------------------------------------------------------- packing
TEST(QuantizedMatrixTest, PacksAtNarrowWidths)
{
    Rng rng(3);
    Matrix x = randomDense(20, 30, rng);
    QuantizedMatrix q8(x, 8);
    QuantizedMatrix q16(x, 16);
    EXPECT_TRUE(q8.narrow());
    EXPECT_FALSE(q16.narrow());
    EXPECT_DOUBLE_EQ(q8.payloadBytes(), 20.0 * 30.0);
    EXPECT_DOUBLE_EQ(q16.payloadBytes(), 2.0 * 20.0 * 30.0);
    // Round trip within half a quantization step.
    EXPECT_LE(Matrix::maxAbsDiff(x, q8.toMatrix()),
              q8.params().scale * 0.5 + 1e-6);
    EXPECT_LE(Matrix::maxAbsDiff(x, q16.toMatrix()),
              q16.params().scale * 0.5 + 1e-6);
}

TEST(QuantizedMatrixTest, SharedScaleCodesStaySymmetric)
{
    // The packed ctor must honor the symmetric clamp for values beyond
    // the scale-defining peak (shared-scale callers).
    QuantParams qp;
    qp.scale = 1.0f;
    qp.bits = 8;
    Matrix x(1, 2);
    x(0, 0) = -1000.0f;
    x(0, 1) = 1000.0f;
    QuantizedMatrix q(x, qp);
    EXPECT_EQ(q.at(0, 0), -127);
    EXPECT_EQ(q.at(0, 1), 127);
}

// --------------------------------------------------------------- kernels
TEST(QuantKernelsTest, RowScaledGemmIsExactPerRowAndStitchesBitIdentically)
{
    Rng rng(7);
    Matrix x = randomDense(50, 30, rng);
    Matrix w = randomDense(30, 20, rng);
    // Blow up a few rows so one shared scale would starve the rest —
    // the per-row pack must stay accurate anyway.
    for (int64_t j = 0; j < x.cols(); ++j)
        x(3, j) *= 1000.0f;
    std::vector<uint8_t> branch(size_t(x.rows()), 0);
    branch[3] = 1;
    branch[17] = 1;
    QuantizedMatrix wLo(w, 8), wHi(w, 16);
    RowQuantizedMatrix rx = rowQuantize(x, branch, 8, 16);
    Matrix full = qmatmulRowScaled(rx, wLo, wHi);

    // Accuracy: each row against its own dequantized product.
    Matrix deq(x.rows(), x.cols());
    for (int64_t r = 0; r < x.rows(); ++r)
        for (int64_t j = 0; j < x.cols(); ++j)
            deq(r, j) = float(rx.row(r)[j]) * rx.rowScale[size_t(r)];
    Matrix refLo = matmul(deq, wLo.toMatrix());
    Matrix refHi = matmul(deq, wHi.toMatrix());
    for (int64_t r = 0; r < x.rows(); ++r) {
        const Matrix &ref = branch[size_t(r)] ? refHi : refLo;
        for (int64_t j = 0; j < full.cols(); ++j)
            EXPECT_NEAR(full(r, j), ref(r, j),
                        2e-2f * std::fabs(ref(r, j)) + 1e-3f);
    }

    // Determinism: a gathered row subset, coded on its own, reproduces
    // those rows of the whole product bit for bit (the shard executor's
    // contract: each shard codes its compact rows).
    for (int parity : {0, 1}) {
        std::vector<int64_t> rows;
        for (int64_t r = parity; r < x.rows(); r += 2)
            rows.push_back(r);
        Matrix sub(int64_t(rows.size()), x.cols());
        std::vector<uint8_t> subBranch;
        for (size_t k = 0; k < rows.size(); ++k) {
            std::memcpy(sub.row(int64_t(k)), x.row(rows[k]),
                        size_t(x.cols()) * sizeof(float));
            subBranch.push_back(branch[size_t(rows[k])]);
        }
        Matrix part =
            qmatmulRowScaled(rowQuantize(sub, subBranch, 8, 16), wLo, wHi);
        for (size_t k = 0; k < rows.size(); ++k)
            EXPECT_EQ(std::memcmp(part.row(int64_t(k)), full.row(rows[k]),
                                  size_t(full.cols()) * sizeof(float)),
                      0)
                << "row " << rows[k];
    }
}

// --------------------------------------------------- mixed-precision GNN
TEST(QuantExecTest, BranchSplitFollowsDegreeProtectionRule)
{
    QuantFixture f;
    MixedPrecisionPolicy pol;
    QuantizedGnn q = quantizeGnn(f.recipe, f.graph.degrees(), pol);
    ASSERT_EQ(q.branchOf.size(), size_t(f.graph.numNodes()));
    EXPECT_GT(q.protectedCount, 0);
    EXPECT_LT(q.protectedCount, int64_t(f.graph.numNodes()));
    int32_t threshold =
        protectionThreshold(f.graph.degrees(), pol.protectRatio);
    for (NodeId v = 0; v < f.graph.numNodes(); ++v)
        EXPECT_EQ(q.branchOf[size_t(v)] != 0,
                  f.graph.degrees()[size_t(v)] >= threshold);
}

TEST(QuantExecTest, MixedForwardWithinDocumentedLogitBound)
{
    QuantFixture f;
    Matrix ref = referenceForward(f.recipe, f.x);
    QuantizedGnn q = quantizeGnn(f.recipe, f.graph.degrees());
    Matrix got = quantizedForwardMixed(q, f.x);
    double err = Matrix::maxAbsDiff(ref, got);
    EXPECT_GT(err, 0.0) << "quantization must actually change numerics";
    EXPECT_LE(err, kLogitErrorFraction * peakAbs(ref));
}

TEST(QuantExecTest, WiderBitsShrinkLogitError)
{
    QuantFixture f;
    Matrix ref = referenceForward(f.recipe, f.x);
    double last = 1e30;
    for (int bits : {4, 8, 16}) {
        MixedPrecisionPolicy pol;
        pol.denseBits = bits;
        pol.sparseBits = std::min(2 * bits, 16);
        pol.operatorBits = pol.sparseBits;
        QuantizedGnn q = quantizeGnn(f.recipe, f.graph.degrees(), pol);
        double err =
            Matrix::maxAbsDiff(ref, quantizedForwardMixed(q, f.x));
        EXPECT_LT(err, last);
        last = err;
    }
}

TEST(QuantExecTest, BitIdenticalAcrossThreadCounts)
{
    QuantFixture f;
    QuantizedGnn q = quantizeGnn(f.recipe, f.graph.degrees());
    int before = currentThreads();
    setThreads(1);
    Matrix serial = quantizedForwardMixed(q, f.x);
    for (int t : {2, 3, 5, 8}) {
        setThreads(t);
        EXPECT_TRUE(bitIdentical(serial, quantizedForwardMixed(q, f.x)))
            << "thread count " << t;
    }
    setThreads(before);
}

TEST(QuantExecTest, BitIdenticalAcrossShardCounts)
{
    QuantFixture f(600, 32, 21);
    QuantizedGnn q = quantizeGnn(f.recipe, f.graph.degrees());
    Matrix mono = quantizedForwardMixed(q, f.x);
    for (int k : {1, 2, 4}) {
        shard::ShardPlanOptions popts;
        popts.shards = k;
        shard::ShardPlan plan = shard::buildShardPlan(f.graph, popts);
        Matrix sharded = shard::shardedForward(plan, q.recipe, f.x, &q);
        EXPECT_TRUE(bitIdentical(mono, sharded)) << "K=" << k;
    }
}

// -------------------------------------------------------------- model zoo
// The op-graph interpreter is the execution contract for every family:
// training's taped forward must reproduce referenceForward bit for bit
// (memcmp), both must hold at every thread count 1..8, and the quantized
// interpreter must be thread-stable over the same recipes.
class ZooParity : public ::testing::TestWithParam<std::string>
{};

TEST_P(ZooParity, RecipeMatchesModelForwardAtThreads1To8)
{
    const std::string family = GetParam();
    Rng grng(29);
    Graph g = barabasiAlbert(300, 4, grng);
    GraphContext ctx(g);
    Rng rng(31);
    GnnModel model = makeModel(family, 16, 6, false, rng);
    Matrix x = randomDense(g.numNodes(), 16, rng);
    ForwardRecipe recipe = forwardRecipeFor(model, ctx);
    EXPECT_TRUE(supportsRecipeForward(model.spec()));

    int before = currentThreads();
    setThreads(1);
    ForwardTape tape;
    Matrix mono = tapedForward(recipe, x, tape);
    Matrix serial = referenceForward(recipe, x);
    EXPECT_TRUE(bitIdentical(mono, serial))
        << family << " recipe diverged from model forward, maxAbsDiff="
        << Matrix::maxAbsDiff(mono, serial);
    QuantizedGnn q = quantizeGnn(recipe, g.degrees());
    Matrix qserial = quantizedForwardMixed(q, x);
    for (int t = 2; t <= 8; ++t) {
        setThreads(t);
        EXPECT_TRUE(bitIdentical(mono, tapedForward(recipe, x, tape)))
            << family << " model forward at threads " << t;
        EXPECT_TRUE(bitIdentical(serial, referenceForward(recipe, x)))
            << family << " recipe forward at threads " << t;
        EXPECT_TRUE(bitIdentical(qserial, quantizedForwardMixed(q, x)))
            << family << " quantized forward at threads " << t;
    }
    setThreads(before);
}

INSTANTIATE_TEST_SUITE_P(Zoo, ZooParity,
                         ::testing::Values("GCN", "GraphSAGE", "GAT",
                                           "GIN", "ResGCN"));

// ------------------------------------------------------------- row forms
// runOp's level form over a compact row set must give row k equal to
// row rows[k] of the whole-matrix form, for every op of every family at
// both precisions and any thread count.

/** A sorted random third of the nodes. */
std::vector<NodeId>
randomRowSet(NodeId n, Rng &rng)
{
    std::vector<NodeId> rows;
    for (NodeId r = 0; r < n; ++r)
        if (rng.bernoulli(1.0 / 3.0))
            rows.push_back(r);
    return rows;
}

/** Rows @p rows of @p x, in that order. */
Matrix
gathered(const Matrix &x, const std::vector<NodeId> &rows)
{
    Matrix out(int64_t(rows.size()), x.cols());
    for (size_t k = 0; k < rows.size(); ++k)
        std::memcpy(out.row(int64_t(k)), x.row(rows[k]),
                    size_t(x.cols()) * sizeof(float));
    return out;
}

/**
 * @p op over the level of @p rows, its int8 operands packed as the shard
 * executor packs them: an aggregation reads the whole input @p in
 * through the level's operator rows (SpMM: their codes over the whole
 * input's pack); every other op reads the set's rows of @p in and
 * @p aux, a GEMM coding them at their nodes' branches. Expects row k
 * equal to row rows[k] of @p whole.
 */
void
expectLevelMatches(const ForwardRecipe &m, const QuantizedGnn *q,
                   const OpStep &op, const Matrix &in, const Matrix *aux,
                   const std::vector<NodeId> &rows, const Matrix &whole,
                   const std::string &what)
{
    const bool agg = isAggregation(op.kind);
    RowSetLevel lv;
    lv.rows = rows;
    OpPack wire;
    QuantizedCsr codes;
    if (agg) {
        lv.op = operatorRows(*m.operators[size_t(op.opIndex)], rows);
        packOp(q, op, in, wire);
        if (wire.op != nullptr)
            codes = quantizeCsr(lv.op, wire.op->qp);
    }
    const Matrix src = agg ? in : gathered(in, rows);
    const Matrix auxRows = aux != nullptr ? gathered(*aux, rows) : Matrix();
    OpPack pack(wire.op != nullptr ? &codes : nullptr, wire.x);
    if (!agg)
        packOp(q, op, src, pack, &rows);
    Matrix got;
    runOp(m, q, op, src, aux != nullptr ? &auxRows : nullptr, pack, got,
          &lv);
    ASSERT_EQ(got.rows(), int64_t(rows.size())) << what;
    ASSERT_EQ(got.cols(), whole.cols()) << what;
    for (size_t k = 0; k < rows.size(); ++k)
        ASSERT_EQ(std::memcmp(got.row(int64_t(k)), whole.row(rows[k]),
                              size_t(whole.cols()) * sizeof(float)),
                  0)
            << what << " row " << rows[k];
}

class RowForms : public ::testing::TestWithParam<std::string>
{};

TEST_P(RowForms, EveryOpRowSetEqualsWholeMatrixRows)
{
    const std::string family = GetParam();
    Rng grng(41);
    Graph g = barabasiAlbert(90, 3, grng);
    GraphContext ctx(g);
    Rng rng(43);
    GnnModel model = makeModel(family, 12, 5, false, rng);
    ForwardRecipe m = forwardRecipeFor(model, ctx);
    QuantizedGnn pack = quantizeGnn(m, g.degrees());
    Matrix x = randomDense(g.numNodes(), 12, rng);
    const int before = currentThreads();
    std::set<OpKind> seen;
    for (int t : {1, 4}) {
        setThreads(t);
        Matrix cur = x;
        for (size_t l = 0; l < m.layers.size(); ++l) {
            std::vector<Matrix> slots;
            forwardLayer(m, nullptr, l, cur, slots);
            auto at = [&](int s) -> const Matrix & {
                return s == 0 ? cur : slots[size_t(s)];
            };
            for (const OpStep &op : m.layers[l].ops) {
                seen.insert(op.kind);
                const Matrix *aux = op.aux >= 0 ? &at(op.aux) : nullptr;
                const std::vector<NodeId> rows =
                    randomRowSet(g.numNodes(), rng);
                for (const QuantizedGnn *q : {(const QuantizedGnn *)nullptr,
                                              (const QuantizedGnn *)&pack}) {
                    OpPack opPack;
                    packOp(q, op, at(op.in), opPack);
                    Matrix whole;
                    runOp(m, q, op, at(op.in), aux, opPack, whole);
                    expectLevelMatches(
                        m, q, op, at(op.in), aux, rows, whole,
                        family + " layer " + std::to_string(l) + " " +
                            opKindName(op.kind) +
                            (q != nullptr ? " int8" : " fp32") +
                            " threads " + std::to_string(t));
                }
            }
            cur = std::move(slots[size_t(m.layers[l].ops.back().out)]);
        }
    }
    setThreads(before);
    EXPECT_TRUE(seen.count(OpKind::Readout));
}

INSTANTIATE_TEST_SUITE_P(Zoo, RowForms,
                         ::testing::Values("GCN", "GraphSAGE", "GAT",
                                           "GIN", "ResGCN"));

/** Columns cycling through negatives, ±0, NaN, ±inf and positives. */
Matrix
specialValues(int64_t rows, int64_t cols, Rng &rng)
{
    const float special[] = {-3.5f,
                             -0.0f,
                             0.0f,
                             std::nanf(""),
                             -std::nanf(""),
                             2.0f,
                             -1e-8f,
                             -100.0f,
                             std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity(),
                             std::numeric_limits<float>::denorm_min(),
                             -std::numeric_limits<float>::denorm_min()};
    const size_t ns = sizeof(special) / sizeof(special[0]);
    Matrix x(rows, cols);
    for (int64_t r = 0; r < rows; ++r)
        for (int64_t j = 0; j < cols; ++j)
            x(r, j) = (r + j) % 2 == 0 ? special[size_t(r + j) / 2 % ns]
                                       : float(rng.normal(0.0, 2.0));
    return x;
}

TEST(RowLocalOps, RowAndWholeFormsMatchIndependentOraclesOnSpecialValues)
{
    Rng rng(47);
    ForwardRecipe m; // row-local ops read no operator or weight
    // Enough rows that the whole-matrix form splits across 4 threads.
    const NodeId n = 6000;
    const Matrix in = specialValues(n, 13, rng);
    const Matrix aux = specialValues(n, 13, rng);
    const Matrix self = specialValues(n, 6, rng);

    auto stepOf = [](OpKind kind) {
        OpStep s;
        s.kind = kind;
        return s;
    };
    OpStep residual = stepOf(OpKind::Residual);
    residual.scale = 1.7f;
    OpStep relu_ = stepOf(OpKind::Activation);
    relu_.act = ActKind::Relu;
    OpStep elu = stepOf(OpKind::Activation);
    elu.act = ActKind::Elu;
    const OpStep concat = stepOf(OpKind::ConcatSelf);
    const OpStep readout = stepOf(OpKind::Readout);

    // The oracles: whole-matrix library arithmetic, one pass per
    // operation (Residual stores the scaled aux before the add).
    Matrix scaled = aux;
    scaled *= 1.7f;
    Matrix residualWant = in;
    residualWant += scaled;
    Matrix eluWant = in;
    for (float &v : eluWant.data())
        v = v < 0.0f ? std::exp(v) - 1.0f : v;
    struct Case
    {
        const OpStep &op;
        const Matrix *aux;
        Matrix want;
    };
    const Case cases[] = {{residual, &aux, residualWant},
                          {relu_, nullptr, relu(in)},
                          {elu, nullptr, eluWant},
                          {concat, &self, hconcat(self, in)},
                          {readout, nullptr, in}};
    const int before = currentThreads();
    for (int t : {1, 4}) {
        setThreads(t);
        for (const Case &c : cases) {
            const std::string what = std::string(opKindName(c.op.kind)) +
                                     " threads " + std::to_string(t);
            Matrix whole;
            runOp(m, nullptr, c.op, in, c.aux, OpPack(), whole);
            EXPECT_TRUE(bitIdentical(whole, c.want)) << what;
            expectLevelMatches(m, nullptr, c.op, in, c.aux,
                               randomRowSet(n, rng), whole, what);
        }
    }
    setThreads(before);
}

// ----------------------------------------------------------------- serve
TEST(QuantServeTest, GcodBits8RouteExecutesInt8ArtifactPack)
{
    ServeOptions opts;
    opts.backends = {"GCoD@bits=8"};
    opts.workers = 1;
    opts.artifactScale = 0.25;
    opts.batching.maxDelay = std::chrono::microseconds(200);
    ServingEngine engine(opts);
    ASSERT_EQ(engine.quantBits(), std::vector<int>{8});

    std::vector<std::future<InferenceReply>> futures;
    for (NodeId n = 0; n < 5; ++n)
        futures.push_back(engine.submit({0, "Cora", "GCN", n}));
    engine.drain();

    ArtifactKey key{"Cora", "GCN", hashGcodOptions(opts.gcod)};
    auto bundle = engine.cache().get(key).bundle;
    ASSERT_TRUE(bundle->hasHostExec());
    ASSERT_EQ(bundle->quantized.count(8), 1u);
    EXPECT_EQ(bundle->quantized.at(8).policy.denseBits, 8);

    // The served predictions must come from the int8 pack's logits.
    Matrix qlogits = quantizedForwardMixed(bundle->quantized.at(8),
                                           bundle->hostFeatures);
    Matrix ref = referenceForward(bundle->hostRecipe,
                                  bundle->hostFeatures);
    double err = Matrix::maxAbsDiff(qlogits, ref);
    EXPECT_GT(err, 0.0);
    EXPECT_LE(err, kLogitErrorFraction * peakAbs(ref));

    for (size_t i = 0; i < futures.size(); ++i) {
        InferenceReply r = futures[i].get();
        ASSERT_TRUE(r.ok()) << r.error;
        EXPECT_EQ(r.executedBits, 8);
        int64_t row = int64_t(i) % qlogits.rows();
        const float *lrow = qlogits.row(row);
        int best = 0;
        for (int64_t c = 1; c < qlogits.cols(); ++c)
            if (lrow[c] > lrow[best])
                best = int(c);
        EXPECT_EQ(r.prediction, best);
    }
    const StatScalar *quantized =
        engine.stats().group().findScalar("batches_quantized");
    ASSERT_NE(quantized, nullptr);
    EXPECT_GE(quantized->value(), 1.0);
}

TEST(QuantServeTest, UnpackableBackendPrecisionFallsBackToFp32)
{
    // Packed codes cover 2..16 bits; a backend declaring e.g. bits=24
    // (legal as a generic registry override) must serve fp32 host math
    // instead of crashing the artifact build.
    ServeOptions opts;
    opts.backends = {"HyGCN@bits=24"};
    opts.workers = 1;
    opts.artifactScale = 0.25;
    opts.batching.maxDelay = std::chrono::microseconds(200);
    ServingEngine engine(opts);
    ASSERT_EQ(engine.quantBits(), std::vector<int>{24});

    InferenceReply r = engine.submit({0, "Cora", "GCN", 1}).get();
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.executedBits, 32);
    EXPECT_GE(r.prediction, 0);
}

TEST(QuantServeTest, FullPrecisionRouteReportsFp32)
{
    ServeOptions opts;
    opts.backends = {"GCoD"};
    opts.workers = 1;
    opts.artifactScale = 0.25;
    opts.batching.maxDelay = std::chrono::microseconds(200);
    ServingEngine engine(opts);
    EXPECT_TRUE(engine.quantBits().empty());

    InferenceReply r = engine.submit({0, "Cora", "GCN", 3}).get();
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.executedBits, 32);
    EXPECT_GE(r.prediction, 0);
    EXPECT_EQ(
        engine.stats().group().findScalar("batches_quantized")->value(),
        0.0);
}
