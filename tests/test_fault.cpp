/**
 * @file
 * Fault-injection and recovery tests: FaultPlan purity and seeded
 * determinism (same seed => same decisions, same trace, at any thread
 * count), injection-rate accuracy, the GCOD_FAULT_SEED override, the
 * backend circuit breaker's trip/probe/close lifecycle, bit-identical
 * shard re-execution under halo drops, and end-to-end engine recovery:
 * retries + failover complete every request with logits byte-identical
 * to a fault-free run, deadlines resolve as timeouts (never drops), and
 * injected store corruption quarantines + republishes the artifact.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "fault/fault.hpp"
#include "graph/generate.hpp"
#include "nn/graph_context.hpp"
#include "nn/models.hpp"
#include "serve/engine.hpp"
#include "shard/executor.hpp"
#include "store/artifact_io.hpp"
#include "store/file.hpp"
#include "shard/plan.hpp"
#include "sim/parallel.hpp"
#include "sim/rng.hpp"

using namespace gcod;
using namespace gcod::fault;
using namespace gcod::serve;

namespace {

/**
 * Scoped GCOD_FAULT_SEED control: several tests need the env override
 * pinned (or absent) regardless of how the suite was launched — CI
 * deliberately sweeps GCOD_FAULT_SEED, and these tests must hold under
 * any sweep value. Restores the prior value on scope exit.
 */
class ScopedFaultSeedEnv
{
  public:
    explicit ScopedFaultSeedEnv(const char *value)
    {
        const char *old = std::getenv("GCOD_FAULT_SEED");
        had_ = old != nullptr;
        if (had_)
            old_ = old;
        if (value)
            ::setenv("GCOD_FAULT_SEED", value, 1);
        else
            ::unsetenv("GCOD_FAULT_SEED");
    }
    ~ScopedFaultSeedEnv()
    {
        if (had_)
            ::setenv("GCOD_FAULT_SEED", old_.c_str(), 1);
        else
            ::unsetenv("GCOD_FAULT_SEED");
    }

  private:
    bool had_ = false;
    std::string old_;
};

std::string
scratchDir(const std::string &name)
{
    std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / ("gcod_fault_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

bool
bitIdentical(const Matrix &a, const Matrix &b)
{
    return a.sameShape(b) &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.data().size() * sizeof(float)) == 0;
}

} // namespace

// ---------------------------------------------------------------- FaultPlan
TEST(FaultPlanTest, DefaultPlanInjectsNothing)
{
    FaultPlan p;
    EXPECT_FALSE(p.enabled());
    for (uint64_t k = 0; k < 100; ++k)
        EXPECT_FALSE(p.wouldInject(FaultKind::BackendFailure, "s", k));
    EXPECT_FALSE(p.shouldInject(FaultKind::StoreCorrupt, "s"));
    EXPECT_EQ(p.injectedCount(), 0u);
    EXPECT_TRUE(p.trace().empty());
}

TEST(FaultPlanTest, DecisionsArePureFunctionsOfSeedSiteAndIndex)
{
    FaultConfig cfg;
    cfg.seed = 99;
    cfg.backendFailRate = 0.5;
    FaultPlan a(cfg), b(cfg);

    // Same (seed, kind, site, k) => same answer, in any evaluation
    // order, with any interleaved stateful draws on the other plan.
    for (uint64_t k = 0; k < 512; ++k)
        b.shouldInject(FaultKind::BackendFailure, "backend.GCoD");
    for (uint64_t k = 512; k-- > 0;) {
        EXPECT_EQ(
            a.wouldInject(FaultKind::BackendFailure, "backend.GCoD", k),
            b.wouldInject(FaultKind::BackendFailure, "backend.GCoD", k));
        // Repeated evaluation never flips.
        EXPECT_EQ(
            a.wouldInject(FaultKind::BackendFailure, "backend.GCoD", k),
            a.wouldInject(FaultKind::BackendFailure, "backend.GCoD", k));
    }
}

TEST(FaultPlanTest, SeedSiteAndKindAllSeparateDecisions)
{
    // Pin the env override off: this test is *about* distinct config
    // seeds, which GCOD_FAULT_SEED deliberately collapses.
    ScopedFaultSeedEnv env(nullptr);
    FaultConfig cfg;
    cfg.seed = 1;
    cfg.backendFailRate = 0.5;
    cfg.haloDropRate = 0.5;
    FaultPlan p1(cfg);
    cfg.seed = 2;
    FaultPlan p2(cfg);

    int seedDiff = 0, siteDiff = 0, kindDiff = 0;
    for (uint64_t k = 0; k < 2048; ++k) {
        seedDiff +=
            p1.wouldInject(FaultKind::BackendFailure, "backend.A", k) !=
            p2.wouldInject(FaultKind::BackendFailure, "backend.A", k);
        siteDiff +=
            p1.wouldInject(FaultKind::BackendFailure, "backend.A", k) !=
            p1.wouldInject(FaultKind::BackendFailure, "backend.B", k);
        kindDiff +=
            p1.wouldInject(FaultKind::BackendFailure, "backend.A", k) !=
            p1.wouldInject(FaultKind::HaloDrop, "backend.A", k);
    }
    EXPECT_GT(seedDiff, 0) << "seed does not enter the decision";
    EXPECT_GT(siteDiff, 0) << "site does not enter the decision";
    EXPECT_GT(kindDiff, 0) << "kind does not enter the decision";
}

TEST(FaultPlanTest, InjectionRateIsStatisticallyAccurate)
{
    FaultConfig cfg;
    cfg.seed = 4242;
    cfg.backendFailRate = 0.1;
    FaultPlan p(cfg);

    const uint64_t kDraws = 20000;
    uint64_t hits = 0;
    for (uint64_t k = 0; k < kDraws; ++k)
        hits += p.wouldInject(FaultKind::BackendFailure, "backend.X", k);
    double rate = double(hits) / double(kDraws);
    // 0.1 +- 14 sigma: holds for any seed unless the hash is broken.
    EXPECT_GE(rate, 0.07) << "observed rate " << rate;
    EXPECT_LE(rate, 0.13) << "observed rate " << rate;

    // Degenerate rates are exact, not statistical.
    cfg.backendFailRate = 0.0;
    cfg.haloDropRate = 1.0;
    FaultPlan q(cfg);
    for (uint64_t k = 0; k < 1000; ++k) {
        EXPECT_FALSE(q.wouldInject(FaultKind::BackendFailure, "s", k));
        EXPECT_TRUE(q.wouldInject(FaultKind::HaloDrop, "s", k));
    }
}

TEST(FaultPlanTest, StatefulDrawsCountInvocationsAndRecordTrace)
{
    FaultConfig cfg;
    cfg.seed = 7;
    cfg.backendFailRate = 0.3;
    FaultPlan p(cfg);

    uint64_t injected = 0;
    for (int i = 0; i < 200; ++i)
        injected += p.shouldInject(FaultKind::BackendFailure, "backend.G");
    EXPECT_EQ(p.invocations(FaultKind::BackendFailure, "backend.G"), 200u);
    EXPECT_EQ(p.injectedCount(FaultKind::BackendFailure), injected);
    EXPECT_EQ(p.injectedCount(), injected);
    EXPECT_EQ(p.trace().size(), size_t(injected));

    // The stateful walk must agree with the pure decision at each index,
    // and the trace must be exactly the injected subset.
    for (const FaultRecord &r : p.trace()) {
        EXPECT_EQ(r.kind, FaultKind::BackendFailure);
        EXPECT_EQ(r.site, "backend.G");
        EXPECT_TRUE(p.wouldInject(r.kind, r.site, r.invocation));
    }
}

TEST(FaultPlanTest, EnvSeedOverridesConfigSeed)
{
    FaultConfig cfg;
    cfg.seed = 7;
    cfg.backendFailRate = 0.5;
    {
        ScopedFaultSeedEnv env("123456789");
        EXPECT_EQ(faultSeedFromEnv(7), 123456789u);
        FaultPlan p(cfg);
        EXPECT_EQ(p.seed(), 123456789u);
    }
    {
        ScopedFaultSeedEnv env(nullptr);
        EXPECT_EQ(faultSeedFromEnv(7), 7u);
        FaultPlan p(cfg);
        EXPECT_EQ(p.seed(), 7u);
    }
}

TEST(FaultPlanTest, IndexedDecisionsAreThreadCountInvariant)
{
    FaultConfig cfg;
    cfg.seed = 31;
    cfg.haloDropRate = 0.25;

    // Serial reference walk over the index grid.
    FaultPlan serial(cfg);
    for (uint64_t k = 0; k < 1024; ++k)
        serial.checkIndexed(FaultKind::HaloDrop, "halo.fp32", k);

    // The same grid drawn from 4 racing threads, strided interleave:
    // arrival order is scrambled, the decision set must not be.
    FaultPlan threaded(cfg);
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t)
        workers.emplace_back([&threaded, t] {
            for (uint64_t k = uint64_t(t); k < 1024; k += 4)
                threaded.checkIndexed(FaultKind::HaloDrop, "halo.fp32", k);
        });
    for (std::thread &w : workers)
        w.join();

    EXPECT_GT(serial.injectedCount(), 0u);
    EXPECT_EQ(serial.trace(), threaded.trace());
}

// ---------------------------------------------------------- circuit breaker
TEST(CircuitBreakerTest, TripsProbesAndClosesThroughTheLifecycle)
{
    GcodOptions gopts;
    auto bundle = buildArtifact(
        ArtifactKey{"Cora", "GCN", hashGcodOptions(gopts)}, gopts, 0.25, 11);
    HealthOptions health;
    health.tripThreshold = 2;
    health.cooldownSeconds = 0.01;
    BackendRouter router({"GCoD", "HyGCN"}, health);
    const std::vector<double> est = router.estimateAll(*bundle);

    int favorite = router.choose(est).backend;
    int other = 1 - favorite;
    EXPECT_EQ(router.healthyCount(), 2);

    // One failure is not enough to trip; a success resets the streak.
    router.recordFailure(favorite);
    EXPECT_EQ(router.healthState(favorite), HealthState::Closed);
    router.recordSuccess(favorite);
    router.recordFailure(favorite);
    EXPECT_EQ(router.healthState(favorite), HealthState::Closed);

    // A consecutive streak at the threshold trips the breaker Open and
    // routing fails over to the surviving backend.
    router.recordFailure(favorite);
    EXPECT_EQ(router.healthState(favorite), HealthState::Open);
    EXPECT_EQ(router.trips(favorite), 1u);
    EXPECT_EQ(router.healthyCount(), 1);
    RouteDecision d = router.choose(est);
    EXPECT_EQ(d.backend, other);
    EXPECT_FALSE(d.probe);

    // After the cooldown the tripped backend gets a single half-open
    // probe...
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    RouteDecision probe = router.choose(est);
    EXPECT_EQ(probe.backend, favorite);
    EXPECT_TRUE(probe.probe);
    EXPECT_EQ(router.healthState(favorite), HealthState::HalfOpen);
    // ...and only one: the next batch routes around the probe in flight.
    RouteDecision during = router.choose(est);
    EXPECT_EQ(during.backend, other);

    // A failed probe re-opens immediately.
    router.recordFailure(favorite);
    EXPECT_EQ(router.healthState(favorite), HealthState::Open);
    EXPECT_EQ(router.trips(favorite), 2u);

    // A successful probe closes the breaker for good.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    RouteDecision again = router.choose(est);
    EXPECT_TRUE(again.probe);
    router.recordSuccess(favorite);
    EXPECT_EQ(router.healthState(favorite), HealthState::Closed);
    EXPECT_EQ(router.healthyCount(), 2);
    EXPECT_EQ(router.failures(favorite), 4u);
}

TEST(CircuitBreakerTest, AllBackendsTrippedStillRoutesSomewhere)
{
    GcodOptions gopts;
    auto bundle = buildArtifact(
        ArtifactKey{"Cora", "GCN", hashGcodOptions(gopts)}, gopts, 0.25, 11);
    HealthOptions health;
    health.tripThreshold = 1;
    health.cooldownSeconds = 60.0; // no probe within this test
    BackendRouter router({"GCoD", "HyGCN"}, health);
    const std::vector<double> est = router.estimateAll(*bundle);

    router.recordFailure(0);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    router.recordFailure(1);
    EXPECT_EQ(router.healthyCount(), 0);

    // Routing must never hard-fail: with every breaker open the
    // least-recently-tripped backend is drafted back in.
    RouteDecision d = router.choose(est);
    EXPECT_EQ(d.backend, 0);

    // Latency traffic never rides a probe while healthy chips exist,
    // but with none left it takes the forced pick too.
    RouteDecision lat = router.choose(est, SloTier::Latency);
    EXPECT_GE(lat.backend, 0);
}

// ------------------------------------------------------ shard re-execution
TEST(ShardFaultTest, HaloDropsRecoverBitIdenticallyFp32)
{
    Rng rng(7);
    std::vector<int> labels;
    Graph g = degreeCorrectedSbm(400, 2000, 4, 0.9, 2.6, labels, rng);
    GraphContext ctx(g);
    Rng mrng(11);
    auto model = makeModel("GCN", 16, 5, false, mrng);
    Matrix x(g.numNodes(), 16);
    x.glorotInit(mrng);

    shard::ShardPlanOptions popts;
    popts.shards = 3;
    shard::ShardPlan plan = shard::buildShardPlan(g, popts);
    ForwardRecipe m = forwardRecipeFor(model, ctx);

    Matrix clean = shard::shardedForward(plan, m, x);

    // Drop every halo payload: every (layer, shard) attempt is discarded
    // and re-executed, and the stitch must still be bit-identical.
    FaultConfig cfg;
    cfg.seed = 5;
    cfg.haloDropRate = 1.0;
    FaultPlan faults(cfg);
    shard::ShardExecStats stats;
    Matrix drilled =
        shard::shardedForward(plan, m, x, nullptr, &faults, &stats);

    EXPECT_TRUE(bitIdentical(clean, drilled))
        << "maxAbsDiff=" << Matrix::maxAbsDiff(clean, drilled);
    uint64_t cells = m.layers.size() * uint64_t(plan.numShards);
    EXPECT_EQ(stats.haloDrops, cells);
    EXPECT_EQ(stats.reexecutions, cells);
    EXPECT_EQ(faults.injectedCount(FaultKind::HaloDrop), cells);
}

TEST(ShardFaultTest, QuantizedRecoveryBitIdenticalAtAnyThreadCount)
{
    GcodOptions gopts;
    auto bundle = buildArtifact(
        ArtifactKey{"Cora", "GCN", hashGcodOptions(gopts)}, gopts,
        /*scale=*/0.25, /*seed=*/7, /*shards=*/2, /*shard_min_nodes=*/1,
        /*quant_bits=*/{8});
    ASSERT_NE(bundle->sharded, nullptr);
    ASSERT_EQ(bundle->quantized.count(8), 1u);
    const QuantizedGnn &q = bundle->quantized.at(8);

    Matrix clean = shard::shardedForward(bundle->sharded->plan, q.recipe,
                                         bundle->hostFeatures, &q);

    // Pin the seed: this test wants a *partial* drop pattern that is
    // provably nonempty, and an unlucky sweep seed over the small
    // (layer, shard) grid at rate 0.5 could legitimately drop nothing.
    ScopedFaultSeedEnv env(nullptr);
    FaultConfig cfg;
    cfg.seed = 13;
    cfg.haloDropRate = 0.5;

    // FaultPlan owns a mutex (not movable), so keep one per thread count.
    FaultPlan plan1(cfg), plan4(cfg);
    int before = currentThreads();
    setThreads(1);
    shard::ShardExecStats stats1;
    Matrix out1 = shard::shardedForward(bundle->sharded->plan, q.recipe,
                                        bundle->hostFeatures, &q, &plan1,
                                        &stats1);
    setThreads(4);
    shard::ShardExecStats stats4;
    Matrix out4 = shard::shardedForward(bundle->sharded->plan, q.recipe,
                                        bundle->hostFeatures, &q, &plan4,
                                        &stats4);
    setThreads(before);
    EXPECT_EQ(stats1.haloDrops, plan1.injectedCount(FaultKind::HaloDrop));
    EXPECT_EQ(stats4.haloDrops, plan4.injectedCount(FaultKind::HaloDrop));

    // Same seed => same injected (layer, shard) set at 1 and 4 threads,
    // and recovery keeps the integer stitch bit-identical throughout.
    EXPECT_GT(plan1.injectedCount(), 0u);
    EXPECT_EQ(plan1.trace(), plan4.trace());
    EXPECT_TRUE(bitIdentical(clean, out1));
    EXPECT_TRUE(bitIdentical(clean, out4));
}

// --------------------------------------------------------- engine recovery
namespace {

ServeOptions
faultEngineOptions()
{
    ServeOptions opts;
    opts.backends = {"GCoD", "HyGCN"};
    opts.workers = 1;
    opts.artifactScale = 0.25;
    opts.artifactSeed = 11;
    opts.batching.policy = BatchPolicy::FixedSize;
    opts.batching.maxBatch = 4;
    // Cooldown 0: probe eligibility never depends on wall-clock timing,
    // so recovery decisions replay exactly under a fixed seed.
    opts.health.tripThreshold = 2;
    opts.health.cooldownSeconds = 0.0;
    opts.retry.maxAttempts = 6;
    opts.retry.backoffBaseSeconds = 1e-5;
    opts.retry.backoffMaxSeconds = 1e-4;
    return opts;
}

/** Per-reply recovery decisions, for cross-run comparison. */
struct RecoveryTrace
{
    std::vector<std::string> backends;
    std::vector<int> retries;
    std::vector<bool> failedOver;
    std::vector<int> predictions;

    bool
    operator==(const RecoveryTrace &o) const
    {
        return backends == o.backends && retries == o.retries &&
               failedOver == o.failedOver && predictions == o.predictions;
    }
};

} // namespace

TEST(EngineFaultTest, RetriesAndFailoverPreserveByteIdenticalLogits)
{
    ServeOptions opts = faultEngineOptions();

    // Fault-free baseline.
    ServingEngine baseline(opts);
    std::vector<int> cleanPred;
    {
        std::vector<std::future<InferenceReply>> futures;
        for (int i = 0; i < 24; ++i)
            futures.push_back(
                baseline.submit({0, "Cora", "GCN", NodeId(i % 8)}));
        baseline.drain();
        for (auto &f : futures) {
            InferenceReply r = f.get();
            ASSERT_TRUE(r.ok()) << r.error;
            cleanPred.push_back(r.prediction);
        }
    }

    // Same traffic under a 30% injected backend failure rate (plus
    // latency spikes): recovery may retry and fail over, but every
    // completed reply must match the fault-free run exactly.
    opts.fault.seed = 3;
    opts.fault.backendFailRate = 0.3;
    opts.fault.backendSlowRate = 0.2;
    ServingEngine engine(opts);
    std::vector<std::future<InferenceReply>> futures;
    for (int i = 0; i < 24; ++i)
        futures.push_back(engine.submit({0, "Cora", "GCN", NodeId(i % 8)}));
    engine.drain();

    size_t completed = 0, failed = 0;
    int retried = 0;
    for (size_t i = 0; i < futures.size(); ++i) {
        ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
                  std::future_status::ready)
            << "request dropped under injected faults";
        InferenceReply r = futures[i].get();
        EXPECT_FALSE(r.shed);
        EXPECT_FALSE(r.timedOut);
        if (!r.ok()) {
            ++failed; // retry budget exhausted: loud, never wrong
            continue;
        }
        ++completed;
        retried += r.retries;
        EXPECT_EQ(r.prediction, cleanPred[i])
            << "recovered reply diverged from the fault-free run";
    }
    EXPECT_EQ(completed + failed, futures.size());
    EXPECT_EQ(engine.stats().completed(), completed);
    EXPECT_EQ(engine.stats().failed(), failed);
    EXPECT_EQ(engine.pending(), 0u);

    // The drill must have actually drilled, and retries must show up in
    // the stats taxonomy exactly as often as the replies claim.
    EXPECT_GT(engine.faultPlan().injectedCount(), 0u);
    EXPECT_EQ(engine.stats().retried() > 0, retried > 0);

    // Byte-identity oracle: the logits the faulted engine serves from
    // are memcmp-equal to the baseline engine's.
    ArtifactKey k = engine.keyFor("Cora", "GCN");
    auto cleanLogits = baseline.peekLogits(k, 32);
    auto drillLogits = engine.peekLogits(k, 32);
    ASSERT_NE(cleanLogits, nullptr);
    ASSERT_NE(drillLogits, nullptr);
    EXPECT_TRUE(bitIdentical(*cleanLogits, *drillLogits));
}

TEST(EngineFaultTest, SameSeedReplaysTheSameFaultsAndRecovery)
{
    auto run = [] {
        ServeOptions opts = faultEngineOptions();
        opts.fault.seed = 17;
        opts.fault.backendFailRate = 0.4;
        opts.fault.backendSlowRate = 0.25;
        ServingEngine engine(opts);

        RecoveryTrace t;
        // Phase-by-phase drains pin batch composition, so the draw
        // sequence at each backend site replays exactly.
        for (int phase = 0; phase < 6; ++phase) {
            std::vector<std::future<InferenceReply>> futures;
            for (int i = 0; i < 4; ++i)
                futures.push_back(
                    engine.submit({0, "Cora", "GCN", NodeId(i)}));
            engine.drain();
            for (auto &f : futures) {
                InferenceReply r = f.get();
                t.backends.push_back(r.backend);
                t.retries.push_back(r.retries);
                t.failedOver.push_back(r.failedOver);
                t.predictions.push_back(r.ok() ? r.prediction : -1);
            }
        }
        return std::make_pair(t, engine.faultPlan().trace());
    };

    auto [traceA, faultsA] = run();
    auto [traceB, faultsB] = run();
    EXPECT_GT(faultsA.size(), 0u);
    EXPECT_EQ(faultsA, faultsB) << "injected fault trace not replayable";
    EXPECT_TRUE(traceA == traceB) << "recovery decisions not replayable";
}

TEST(EngineFaultTest, DeadlinesResolveAsTimeoutsNeverDrops)
{
    ServeOptions opts = faultEngineOptions();
    opts.backends = {"GCoD"}; // nowhere to fail over
    opts.fault.seed = 1;
    opts.fault.backendFailRate = 1.0; // every attempt fails
    opts.retry.maxAttempts = 1000;
    opts.retry.backoffBaseSeconds = 2e-3;
    opts.retry.backoffMaxSeconds = 8e-3;
    opts.defaultTimeoutSeconds = 0.03;
    ServingEngine engine(opts);

    std::vector<std::future<InferenceReply>> futures;
    for (int i = 0; i < 4; ++i)
        futures.push_back(engine.submit({0, "Cora", "GCN", NodeId(i)}));
    engine.drain();

    for (auto &f : futures) {
        InferenceReply r = f.get();
        EXPECT_TRUE(r.timedOut);
        EXPECT_FALSE(r.ok());
        EXPECT_FALSE(r.error.empty());
    }
    EXPECT_EQ(engine.stats().timedOut(), 4u);
    EXPECT_EQ(engine.stats().tierTimedOut(SloTier::Standard), 4u);
    EXPECT_EQ(engine.stats().completed(), 0u);
    EXPECT_EQ(engine.pending(), 0u);

    // A per-request deadline overrides the engine default the same way.
    // (FixedSize batching never flushes a partial batch on its own, so
    // drain before collecting the reply.)
    InferenceRequest req{0, "Cora", "GCN", 0};
    req.timeoutSeconds = 0.02;
    auto f = engine.submit(std::move(req));
    engine.drain();
    InferenceReply r = f.get();
    EXPECT_TRUE(r.timedOut);
}

TEST(EngineFaultTest, InjectedStoreCorruptionQuarantinesAndRepublishes)
{
    std::string dir = scratchDir("inject_store");
    ServeOptions opts = faultEngineOptions();
    opts.storeDir = dir;

    // Warm the store with a clean artifact.
    ServingEngine warm(opts);
    auto warmFuture = warm.submit({0, "Cora", "GCN", 3});
    warm.drain();
    InferenceReply clean = warmFuture.get();
    ASSERT_TRUE(clean.ok()) << clean.error;
    ArtifactKey k = warm.keyFor("Cora", "GCN");
    std::string path = store::artifactStorePath(dir, k);
    ASSERT_TRUE(std::filesystem::exists(path));
    warm.shutdown();

    // A new engine whose store reads are injected-corrupt must
    // quarantine the file, rebuild from scratch, republish, and still
    // serve the same answer.
    opts.fault.seed = 2;
    opts.fault.storeCorruptRate = 1.0;
    ServingEngine engine(opts);
    auto future = engine.submit({0, "Cora", "GCN", 3});
    engine.drain();
    InferenceReply r = future.get();
    EXPECT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.prediction, clean.prediction);
    EXPECT_EQ(engine.stats().quarantined(), 1u);
    EXPECT_EQ(engine.faultPlan().injectedCount(FaultKind::StoreCorrupt), 1u);
    EXPECT_TRUE(std::filesystem::exists(store::quarantinePath(path)));
    EXPECT_TRUE(std::filesystem::exists(path)) << "rebuild not republished";
}
