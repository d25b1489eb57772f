/**
 * @file
 * Tests for the sharded multi-accelerator runtime: plan invariants,
 * operator slicing, bit-identical GCN/GraphSAGE forward passes for any
 * shard count and chip mix, scheduler behaviour, the halo-exchange cost
 * model, and the serving-engine integration.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <set>
#include <tuple>

#include "graph/generate.hpp"
#include "nn/graph_context.hpp"
#include "nn/models.hpp"
#include "nn/quant_exec.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"
#include "shard/executor.hpp"
#include "shard/halo.hpp"
#include "shard/plan.hpp"
#include "shard/scheduler.hpp"
#include "sim/rng.hpp"

using namespace gcod;
using namespace gcod::shard;

namespace {

Graph
testGraph(NodeId n = 600, uint64_t seed = 7)
{
    Rng rng(seed);
    std::vector<int> labels;
    return degreeCorrectedSbm(n, n * 5, 4, 0.9, 2.6, labels, rng);
}

bool
bitIdentical(const Matrix &a, const Matrix &b)
{
    return a.sameShape(b) &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.data().size() * sizeof(float)) == 0;
}

} // namespace

// ------------------------------------------------------------------- plan
TEST(ShardPlan, PartitionsAllNodesDisjointly)
{
    Graph g = testGraph();
    ShardPlanOptions opts;
    opts.shards = 4;
    ShardPlan plan = buildShardPlan(g, opts);

    EXPECT_EQ(plan.numShards, 4);
    EXPECT_EQ(plan.shardOf.size(), size_t(g.numNodes()));
    std::set<NodeId> seen;
    for (const Shard &sh : plan.shards) {
        EXPECT_TRUE(std::is_sorted(sh.owned.begin(), sh.owned.end()));
        for (NodeId u : sh.owned) {
            EXPECT_TRUE(seen.insert(u).second) << "node owned twice";
            EXPECT_EQ(plan.shardOf[size_t(u)], sh.id);
        }
    }
    EXPECT_EQ(NodeId(seen.size()), g.numNodes());
}

TEST(ShardPlan, HaloIsExactlyTheForeignNeighborSet)
{
    Graph g = testGraph();
    ShardPlanOptions opts;
    opts.shards = 3;
    ShardPlan plan = buildShardPlan(g, opts);

    for (const Shard &sh : plan.shards) {
        std::set<NodeId> expected;
        for (NodeId u : sh.owned)
            g.adjacency().forEachInRow(u, [&](NodeId v, float) {
                if (plan.shardOf[size_t(v)] != sh.id)
                    expected.insert(v);
            });
        std::set<NodeId> got(sh.halo.begin(), sh.halo.end());
        EXPECT_EQ(got, expected);
        // Local space = owned then halo, both ascending.
        ASSERT_EQ(sh.localToGlobal.size(),
                  sh.owned.size() + sh.halo.size());
        for (size_t i = 0; i < sh.owned.size(); ++i)
            EXPECT_EQ(sh.localToGlobal[i], sh.owned[i]);
        for (size_t i = 0; i < sh.halo.size(); ++i)
            EXPECT_EQ(sh.localToGlobal[sh.owned.size() + i], sh.halo[i]);
    }
}

TEST(ShardPlan, ExchangeMatrixMatchesHalos)
{
    Graph g = testGraph();
    ShardPlanOptions opts;
    opts.shards = 4;
    ShardPlan plan = buildShardPlan(g, opts);

    int k = plan.numShards;
    for (int t = 0; t < k; ++t) {
        EdgeOffset inbound = 0;
        for (int s = 0; s < k; ++s)
            inbound += plan.pairRows[size_t(s) * size_t(k) + size_t(t)];
        EXPECT_EQ(inbound, plan.shards[size_t(t)].haloCount());
        // A shard never imports its own rows.
        EXPECT_EQ(plan.pairRows[size_t(t) * size_t(k) + size_t(t)], 0);
        EXPECT_LE(plan.shards[size_t(t)].boundaryCount,
                  plan.shards[size_t(t)].ownedCount());
    }
    EXPECT_EQ(plan.edgeCut, computeEdgeCut(g, plan.shardOf));
    EXPECT_GT(plan.maxImbalance, 0.0);
}

TEST(ShardPlan, SingleShardHasNoHaloOrCut)
{
    Graph g = testGraph(200);
    ShardPlanOptions opts;
    opts.shards = 1;
    ShardPlan plan = buildShardPlan(g, opts);
    EXPECT_EQ(plan.edgeCut, 0);
    EXPECT_EQ(plan.haloNodes(), 0);
    EXPECT_EQ(plan.shards[0].ownedCount(), g.numNodes());
}

TEST(ShardPlan, ShardsInheritBothDegreeClasses)
{
    // The GCoD Step-1 reuse: every (non-degenerate) shard should own
    // nodes from the dense *and* the sparse degree class instead of one
    // shard swallowing all hubs.
    Rng rng(3);
    Graph g = barabasiAlbert(1200, 5, rng);
    ShardPlanOptions opts;
    opts.shards = 3;
    ShardPlan plan = buildShardPlan(g, opts);
    ASSERT_GE(plan.numClasses, 2);
    for (const Shard &sh : plan.shards) {
        std::set<int> classes;
        for (NodeId u : sh.owned)
            classes.insert(plan.classOf[size_t(u)]);
        EXPECT_GE(classes.size(), 2u) << "shard " << sh.id
                                      << " missed a degree class";
    }
}

// -------------------------------------------------------- operator slices
TEST(ShardOperators, SlicesPreserveRowOrderAndValues)
{
    Graph g = testGraph(300);
    GraphContext ctx(g);
    ShardPlanOptions opts;
    opts.shards = 3;
    ShardPlan plan = buildShardPlan(g, opts);
    for (const Shard &sh : plan.shards) {
        CsrMatrix loc =
            extractLocalOperator(ctx.normalized(), sh, plan.numNodes);
        ASSERT_EQ(loc.rows(), sh.ownedCount());
        ASSERT_EQ(loc.cols(), sh.localCount());
        for (NodeId i = 0; i < sh.ownedCount(); ++i) {
            NodeId u = sh.owned[size_t(i)];
            ASSERT_EQ(loc.rowNnz(i), ctx.normalized().rowNnz(u));
            std::vector<std::pair<NodeId, float>> global_row, local_row;
            ctx.normalized().forEachInRow(u, [&](NodeId v, float w) {
                global_row.emplace_back(v, w);
            });
            loc.forEachInRow(i, [&](NodeId lv, float w) {
                local_row.emplace_back(
                    sh.localToGlobal[size_t(lv)], w);
            });
            EXPECT_EQ(global_row, local_row);
        }
    }
}

// -------------------------------------------------- bit-identical forward
class ShardedForwardK : public ::testing::TestWithParam<int>
{};

TEST_P(ShardedForwardK, GcnMatchesMonolithicBitForBit)
{
    Graph g = testGraph();
    GraphContext ctx(g);
    Rng rng(11);
    auto model = makeModel("GCN", 24, 5, false, rng);
    Matrix x(g.numNodes(), 24);
    x.glorotInit(rng);
    Matrix mono = referenceForward(forwardRecipeFor(model, ctx), x);

    ShardPlanOptions opts;
    opts.shards = GetParam();
    ShardPlan plan = buildShardPlan(g, opts);
    Matrix sharded =
        shardedForward(plan, forwardRecipeFor(model, ctx), x);
    EXPECT_TRUE(bitIdentical(mono, sharded))
        << "GCN diverged at K=" << GetParam()
        << " maxAbsDiff=" << Matrix::maxAbsDiff(mono, sharded);
}

TEST_P(ShardedForwardK, SageMatchesMonolithicBitForBit)
{
    Graph g = testGraph(500, 13);
    GraphContext ctx(g);
    Rng rng(17);
    auto model = makeModel("GraphSAGE", 20, 6, false, rng);
    Matrix x(g.numNodes(), 20);
    x.glorotInit(rng);
    Matrix mono = referenceForward(forwardRecipeFor(model, ctx), x);

    ShardPlanOptions opts;
    opts.shards = GetParam();
    ShardPlan plan = buildShardPlan(g, opts);
    Matrix sharded =
        shardedForward(plan, forwardRecipeFor(model, ctx), x);
    EXPECT_TRUE(bitIdentical(mono, sharded))
        << "GraphSAGE diverged at K=" << GetParam()
        << " maxAbsDiff=" << Matrix::maxAbsDiff(mono, sharded);
}

INSTANTIATE_TEST_SUITE_P(KSweep, ShardedForwardK,
                         ::testing::Values(1, 2, 3, 5, 8));

// Every op-graph family stitches bit-identically at K ∈ {1,2,4}, both
// the fp32 interpreter and the quantized one (vs its monolithic pass).
class ShardedZoo
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{};

TEST_P(ShardedZoo, FamilyMatchesMonolithicBitForBit)
{
    const std::string family = std::get<0>(GetParam());
    const int k = std::get<1>(GetParam());
    Graph g = testGraph(400, 19);
    GraphContext ctx(g);
    Rng rng(37);
    auto model = makeModel(family, 12, 5, false, rng);
    Matrix x(g.numNodes(), 12);
    x.glorotInit(rng);
    Matrix mono = referenceForward(forwardRecipeFor(model, ctx), x);

    ShardPlanOptions opts;
    opts.shards = k;
    ShardPlan plan = buildShardPlan(g, opts);
    ForwardRecipe recipe = forwardRecipeFor(model, ctx);
    Matrix sharded = shardedForward(plan, recipe, x);
    EXPECT_TRUE(bitIdentical(mono, sharded))
        << family << " fp32 diverged at K=" << k
        << " maxAbsDiff=" << Matrix::maxAbsDiff(mono, sharded);

    MixedPrecisionPolicy pol;
    pol.denseBits = 8;
    pol.sparseBits = 16;
    pol.operatorBits = 16;
    QuantizedGnn q = quantizeGnn(recipe, g.degrees(), pol);
    Matrix qmono = quantizedForwardMixed(q, x);
    Matrix qsharded = shardedForward(plan, recipe, x, &q);
    EXPECT_TRUE(bitIdentical(qmono, qsharded))
        << family << " int8 diverged at K=" << k
        << " maxAbsDiff=" << Matrix::maxAbsDiff(qmono, qsharded);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ShardedZoo,
    ::testing::Combine(::testing::Values("GCN", "GraphSAGE", "GAT", "GIN",
                                         "ResGCN"),
                       ::testing::Values(1, 2, 4)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>> &info) {
        return std::get<0>(info.param) + "_K" +
               std::to_string(std::get<1>(info.param));
    });

class ShardedForward : public ::testing::TestWithParam<std::string>
{};

TEST_P(ShardedForward, ManyShardsOnTinyGraphStillExact)
{
    // More shards than some classes have nodes: empty shards must be
    // handled, and the stitched result still exact at both precisions —
    // GAT's projection staging and the self-row gather of GraphSAGE, GIN
    // and ResGCN included.
    const std::string family = GetParam();
    Graph g(12, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6},
                 {6, 7}, {7, 8}, {8, 9}, {9, 10}, {10, 11}, {0, 11}});
    GraphContext ctx(g);
    Rng rng(23);
    auto model = makeModel(family, 6, 2, false, rng);
    Matrix x(g.numNodes(), 6);
    x.glorotInit(rng);
    Matrix mono = referenceForward(forwardRecipeFor(model, ctx), x);

    ShardPlanOptions opts;
    opts.shards = 16;
    ShardPlan plan = buildShardPlan(g, opts);
    size_t empty = 0;
    for (const Shard &sh : plan.shards)
        empty += sh.owned.empty();
    EXPECT_GT(empty, 0u) << "the plan should leave some shard empty";
    ForwardRecipe recipe = forwardRecipeFor(model, ctx);
    Matrix sharded = shardedForward(plan, recipe, x);
    EXPECT_TRUE(bitIdentical(mono, sharded)) << family << " fp32";

    QuantizedGnn q = quantizeGnn(recipe, g.degrees());
    Matrix qsharded = shardedForward(plan, recipe, x, &q);
    EXPECT_TRUE(bitIdentical(quantizedForwardMixed(q, x), qsharded))
        << family << " int8";
}

INSTANTIATE_TEST_SUITE_P(Zoo, ShardedForward,
                         ::testing::Values("GCN", "GraphSAGE", "GAT", "GIN",
                                           "ResGCN"),
                         [](const ::testing::TestParamInfo<std::string> &i) {
                             return i.param;
                         });

// -------------------------------------------------------------- scheduler
TEST(ShardScheduler, MixedChipFleetRunsExactAndCosts)
{
    Graph g = testGraph(800, 29);
    GraphContext ctx(g);
    Rng rng(31);
    auto model = makeModel("GCN", 32, 7, false, rng);
    Matrix x(g.numNodes(), 32);
    x.glorotInit(rng);
    Matrix mono = referenceForward(forwardRecipeFor(model, ctx), x);

    ShardPlanOptions popts;
    popts.shards = 4;
    ShardPlan plan = buildShardPlan(g, popts);
    std::vector<ShardExecution> units = buildShardExecutions(g, plan);

    ShardScheduler::Options sopts;
    sopts.chips = {"GCoD", "GCoD@bits=8", "HyGCN"};
    ShardScheduler sched(sopts);
    EXPECT_EQ(sched.fleetName(), "shard[GCoD,GCoD@bits=8,HyGCN]");

    Matrix output = shardedForward(plan, forwardRecipeFor(model, ctx), x);
    EXPECT_TRUE(bitIdentical(mono, output))
        << "numerics must not depend on the chip mix";

    const ShardScheduleResult c = sched.schedule(plan, units, model.spec());
    ASSERT_EQ(c.chipOf.size(), size_t(plan.numShards));
    for (int chip : c.chipOf) {
        EXPECT_GE(chip, 0);
        EXPECT_LT(chip, sched.numChips());
    }
    EXPECT_GT(c.makespanSeconds, 0.0);
    EXPECT_GT(c.exchange.seconds, 0.0);
    EXPECT_DOUBLE_EQ(c.latencySeconds,
                     c.makespanSeconds + c.exchange.seconds);
    double max_chip = 0.0;
    for (double s : c.chipSeconds)
        max_chip = std::max(max_chip, s);
    EXPECT_DOUBLE_EQ(c.makespanSeconds, max_chip);
}

TEST(ShardScheduler, DeterministicAssignment)
{
    Graph g = testGraph(500, 37);
    ShardPlanOptions popts;
    popts.shards = 4;
    ShardPlan plan = buildShardPlan(g, popts);
    std::vector<ShardExecution> units = buildShardExecutions(g, plan);
    ModelSpec spec = makeModelSpec("GCN", 64, 8, false);

    ShardScheduler::Options sopts;
    sopts.chips = {"GCoD", "GCoD@bits=8"};
    ShardScheduler sched(sopts);
    ShardScheduleResult a = sched.schedule(plan, units, spec);
    ShardScheduleResult b = sched.schedule(plan, units, spec);
    EXPECT_EQ(a.chipOf, b.chipOf);
    EXPECT_DOUBLE_EQ(a.latencySeconds, b.latencySeconds);
}

TEST(ShardScheduler, HalosTravelAtTheFleetWirePrecision)
{
    Graph g = testGraph(500, 37);
    ShardPlanOptions popts;
    popts.shards = 4;
    ShardPlan plan = buildShardPlan(g, popts);
    std::vector<ShardExecution> units = buildShardExecutions(g, plan);
    ModelSpec spec = makeModelSpec("GCN", 64, 8, false);

    ShardScheduler::Options full;
    full.chips = {"GCoD", "GCoD"};
    ShardScheduler sched32(full);
    EXPECT_EQ(sched32.wireBits(), 32);

    ShardScheduler::Options low;
    low.chips = {"GCoD@bits=8", "GCoD@bits=8"};
    ShardScheduler sched8(low);
    EXPECT_EQ(sched8.wireBits(), 8);

    // An all-8-bit fleet moves 1-byte activation scalars: exactly a
    // quarter of the fp32 fleet's halo traffic over the same plan.
    HaloExchangeCost w32 = sched32.schedule(plan, units, spec).exchange;
    HaloExchangeCost w8 = sched8.schedule(plan, units, spec).exchange;
    EXPECT_GT(w8.wireBytes, 0.0);
    EXPECT_DOUBLE_EQ(w8.wireBytes, w32.wireBytes / 4.0);
    EXPECT_LT(w8.seconds, w32.seconds);

    // A mixed fleet's widest consumer pins the wire coding at fp32.
    ShardScheduler::Options mixed;
    mixed.chips = {"GCoD", "GCoD@bits=8"};
    EXPECT_EQ(ShardScheduler(mixed).wireBits(), 32);

    // Pinning bytesPerScalar explicitly opts out of the derivation.
    ShardScheduler::Options pinned;
    pinned.chips = {"GCoD@bits=8", "GCoD@bits=8"};
    pinned.deriveWirePrecision = false;
    pinned.halo.bytesPerScalar = 4.0;
    HaloExchangeCost wp =
        ShardScheduler(pinned).schedule(plan, units, spec).exchange;
    EXPECT_DOUBLE_EQ(wp.wireBytes, w32.wireBytes);
}

TEST(ShardScheduler, MakespanDecreasesWithChips)
{
    Rng rng(41);
    Graph g = barabasiAlbert(4000, 6, rng);
    ModelSpec spec = makeModelSpec("GCN", 128, 16, false);

    double prev = 0.0;
    for (int k : {1, 2, 4}) {
        ShardPlanOptions popts;
        popts.shards = k;
        ShardPlan plan = buildShardPlan(g, popts);
        std::vector<ShardExecution> units = buildShardExecutions(g, plan);
        ShardScheduler::Options sopts;
        sopts.chips.assign(size_t(k), "GCoD");
        ShardScheduler sched(sopts);
        double makespan =
            sched.schedule(plan, units, spec).makespanSeconds;
        if (prev > 0.0)
            EXPECT_LT(makespan, prev)
                << "makespan must shrink from " << k / 2 << " to " << k
                << " chips";
        prev = makespan;
    }
}

TEST(FleetSpec, CountsAndMixesParse)
{
    std::vector<std::string> fleet =
        parseFleetSpec("2xGCoD;GCoD@bits=8;HyGCN");
    ASSERT_EQ(fleet.size(), 4u);
    EXPECT_EQ(fleet[0], "GCoD");
    EXPECT_EQ(fleet[1], "GCoD");
    EXPECT_EQ(fleet[2], "GCoD@bits=8");
    EXPECT_EQ(fleet[3], "HyGCN");
    // 'x' inside a platform name is not a count separator.
    EXPECT_EQ(parseFleetSpec("4xAWB-GCN").size(), 4u);
}

TEST(FleetSpec, UnknownChipAndEmptySpecAreFatal)
{
    EXPECT_THROW(parseFleetSpec("3xNoSuchChip"), std::runtime_error);
    EXPECT_THROW(parseFleetSpec(";;"), std::runtime_error);
}

// ---------------------------------------------------------- halo exchange
TEST(HaloExchange, SingleShardIsFree)
{
    Graph g = testGraph(200);
    ShardPlanOptions opts;
    opts.shards = 1;
    ShardPlan plan = buildShardPlan(g, opts);
    HaloExchangeCost c = haloExchangeCost(plan, 64);
    EXPECT_DOUBLE_EQ(c.seconds, 0.0);
    EXPECT_DOUBLE_EQ(c.wireBytes, 0.0);
}

TEST(HaloExchange, CostsScaleWithWidthAndCountTransitions)
{
    Graph g = testGraph();
    ShardPlanOptions opts;
    opts.shards = 4;
    ShardPlan plan = buildShardPlan(g, opts);

    HaloExchangeCost narrow = haloExchangeCost(plan, 16);
    HaloExchangeCost wide = haloExchangeCost(plan, 64);
    EXPECT_GT(wide.seconds, narrow.seconds);
    EXPECT_DOUBLE_EQ(wide.wireBytes, narrow.wireBytes * 4.0);

    // Wire bytes: push boundary rows once, pull halo rows replicated.
    EdgeOffset boundary = 0;
    for (const Shard &sh : plan.shards)
        boundary += sh.boundaryCount;
    double expected =
        double(boundary + plan.haloNodes()) * 16.0 * 4.0;
    EXPECT_DOUBLE_EQ(narrow.wireBytes, expected);

    // A 2-layer model pays exactly one exchange, at hidden width.
    ModelSpec spec = makeModelSpec("GCN", 500, 7, false);
    HaloExchangeCost fwd = forwardExchangeCost(plan, spec);
    EXPECT_EQ(fwd.exchanges, 1);
    HaloExchangeCost hidden =
        haloExchangeCost(plan, spec.layers[0].outDim);
    EXPECT_DOUBLE_EQ(fwd.seconds, hidden.seconds);
}

// ---------------------------------------------------------------- serving
TEST(ServeSharded, LargeGraphsRouteThroughTheFleet)
{
    serve::ServeOptions opts;
    opts.backends = {"GCoD", "HyGCN"};
    opts.shards = 2;
    opts.shardBackends = {"GCoD", "GCoD@bits=8"};
    opts.workers = 1;
    opts.artifactScale = 0.002; // keep the Reddit stand-in test-sized
    serve::ServingEngine engine(opts);

    auto big = engine.submit({0, "Reddit", "GCN", 0});
    engine.drain();
    serve::InferenceReply reply = big.get();
    ASSERT_TRUE(reply.ok()) << reply.error;
    EXPECT_EQ(reply.backend, "shard[GCoD,GCoD@bits=8]");
    EXPECT_GT(reply.serviceSeconds, 0.0);
}

TEST(ServeSharded, HomogeneousLowBitFleetExecutesQuantizedSharded)
{
    serve::ServeOptions opts;
    opts.backends = {"GCoD"};
    opts.shards = 2;
    opts.shardBackends = {"GCoD@bits=8", "GCoD@bits=8"};
    opts.workers = 1;
    opts.artifactScale = 0.002; // keep the Reddit stand-in test-sized
    serve::ServingEngine engine(opts);
    ASSERT_EQ(engine.quantBits(), std::vector<int>{8});
    ASSERT_NE(engine.shardScheduler(), nullptr);
    EXPECT_EQ(engine.shardScheduler()->wireBits(), 8);

    auto big = engine.submit({0, "Reddit", "GCN", 5});
    engine.drain();
    serve::InferenceReply reply = big.get();
    ASSERT_TRUE(reply.ok()) << reply.error;
    EXPECT_EQ(reply.executedBits, 8);
    EXPECT_GE(reply.prediction, 0);

    // The fleet's pass must reproduce the monolithic int8 pass exactly
    // (the bit-identity the quantized executor guarantees).
    serve::ArtifactKey key{"Reddit", "GCN",
                           serve::hashGcodOptions(opts.gcod)};
    auto bundle = engine.cache().get(key).bundle;
    ASSERT_NE(bundle->sharded, nullptr);
    ASSERT_EQ(bundle->quantized.count(8), 1u);
    Matrix mono = quantizedForwardMixed(bundle->quantized.at(8),
                                        bundle->hostFeatures);
    Matrix fleet = shardedForward(bundle->sharded->plan, bundle->hostRecipe,
                                  bundle->hostFeatures,
                                  &bundle->quantized.at(8));
    EXPECT_TRUE(bitIdentical(mono, fleet));
}

TEST(ServeSharded, Fp32FleetExecutesShardedAndTracesEveryShard)
{
    serve::ServeOptions opts;
    opts.backends = {"GCoD"};
    opts.shards = 2;
    opts.shardBackends = {"GCoD", "GCoD"};
    opts.workers = 1;
    opts.artifactScale = 0.002; // keep the Reddit stand-in test-sized
    opts.traceLevel = obs::kTraceKernels;
    serve::ServingEngine engine(opts);

    std::vector<std::future<serve::InferenceReply>> futures;
    for (NodeId node = 0; node < 8; ++node)
        futures.push_back(engine.submit({0, "Reddit", "GCN", node}));
    engine.drain();

    serve::ArtifactKey key{"Reddit", "GCN",
                           serve::hashGcodOptions(opts.gcod)};
    auto bundle = engine.cache().get(key).bundle;
    ASSERT_NE(bundle->sharded, nullptr);
    Matrix mono = referenceForward(bundle->hostRecipe, bundle->hostFeatures);
    ASSERT_GE(mono.rows(), 8);
    for (NodeId node = 0; node < 8; ++node) {
        serve::InferenceReply reply = futures[size_t(node)].get();
        ASSERT_TRUE(reply.ok()) << reply.error;
        EXPECT_EQ(reply.executedBits, 32);
        const float *row = mono.row(node);
        int best = 0;
        for (int64_t c = 1; c < mono.cols(); ++c)
            if (row[c] > row[best])
                best = int(c);
        EXPECT_EQ(reply.prediction, best) << "node " << node;
    }

    // The fleet ran the sharded pass: one shard.compute per shard per
    // layer, each under a host.exec span.
    std::vector<obs::TraceSpan> spans = engine.trace().snapshot();
    std::set<uint64_t> execIds;
    for (const obs::TraceSpan &s : spans)
        if (s.name == "host.exec")
            execIds.insert(s.id);
    size_t computes = 0;
    for (const obs::TraceSpan &s : spans)
        if (s.name == "shard.compute") {
            ++computes;
            EXPECT_EQ(execIds.count(s.parent), 1u);
        }
    EXPECT_EQ(computes, size_t(opts.shards) * bundle->spec.layers.size());
}

TEST(ServeSharded, SmallGraphsStayOnTheSingleChipPath)
{
    serve::ServeOptions opts;
    opts.backends = {"GCoD"};
    opts.shards = 2;
    opts.workers = 1;
    serve::ServingEngine engine(opts);

    auto small = engine.submit({0, "Cora", "GCN", 0});
    engine.drain();
    serve::InferenceReply reply = small.get();
    ASSERT_TRUE(reply.ok()) << reply.error;
    EXPECT_EQ(reply.backend, "GCoD");
}
