/**
 * @file
 * SLO-tier tests: priority-ordered dequeue with the starvation guard,
 * per-tier depth accounting, tier-aware routing, admission control that
 * sheds the cheapest tier first, and the shed-vs-completed stats split.
 */
#include <gtest/gtest.h>

#include "serve/engine.hpp"

using namespace gcod;
using namespace gcod::serve;

namespace {

ArtifactKey
key(const std::string &dataset)
{
    return ArtifactKey{dataset, "GCN", 7};
}

PendingRequest
pending(const std::string &dataset, uint64_t id, SloTier tier)
{
    PendingRequest p;
    p.req.id = id;
    p.req.dataset = dataset;
    p.req.tier = tier;
    p.key = key(dataset);
    p.enqueued = Clock::now();
    return p;
}

void
push(BatchQueue &q, PendingRequest r)
{
    EXPECT_TRUE(q.push(r));
}

} // namespace

// ------------------------------------------------------------------- queue
TEST(SloQueueTest, LatencyBeatsStandardBeatsBestEffort)
{
    BatchOptions opts;
    opts.policy = BatchPolicy::FixedSize;
    opts.maxBatch = 2;
    opts.starvationLimit = std::chrono::microseconds(10'000'000);
    BatchQueue q(opts);

    // Enqueue in worst-first order; full groups are all ready at once.
    push(q, pending("Cora", 1, SloTier::BestEffort));
    push(q, pending("Cora", 2, SloTier::BestEffort));
    push(q, pending("Cora", 3, SloTier::Standard));
    push(q, pending("Cora", 4, SloTier::Standard));
    push(q, pending("Cora", 5, SloTier::Latency));
    push(q, pending("Cora", 6, SloTier::Latency));

    EXPECT_EQ(q.tierDepth(SloTier::Latency), 2u);
    EXPECT_EQ(q.tierDepth(SloTier::Standard), 2u);
    EXPECT_EQ(q.tierDepth(SloTier::BestEffort), 2u);

    auto b1 = q.pop();
    auto b2 = q.pop();
    auto b3 = q.pop();
    ASSERT_TRUE(b1 && b2 && b3);
    EXPECT_EQ(b1->tier, SloTier::Latency);
    EXPECT_EQ(b2->tier, SloTier::Standard);
    EXPECT_EQ(b3->tier, SloTier::BestEffort);
    EXPECT_EQ(b1->requests[0].req.id, 5u);
    EXPECT_EQ(q.tierDepth(SloTier::BestEffort), 0u);
    EXPECT_EQ(q.depth(), 0u);
}

TEST(SloQueueTest, StarvationGuardPromotesOldLowTierWork)
{
    BatchOptions opts;
    opts.policy = BatchPolicy::FixedSize;
    opts.maxBatch = 1;
    // Zero limit: everything is immediately "starved", so dequeue
    // degenerates to oldest-first FIFO regardless of tier.
    opts.starvationLimit = std::chrono::microseconds(0);
    BatchQueue q(opts);

    push(q, pending("Cora", 1, SloTier::BestEffort));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    push(q, pending("Cora", 2, SloTier::Latency));

    auto first = q.pop();
    ASSERT_TRUE(first);
    EXPECT_EQ(first->tier, SloTier::BestEffort)
        << "starved best-effort work must outrank fresh latency work";
    auto second = q.pop();
    ASSERT_TRUE(second);
    EXPECT_EQ(second->tier, SloTier::Latency);
}

TEST(SloQueueTest, TiersNeverShareABatch)
{
    BatchOptions opts;
    opts.policy = BatchPolicy::FixedSize;
    opts.maxBatch = 8;
    BatchQueue q(opts);
    push(q, pending("Cora", 1, SloTier::Latency));
    push(q, pending("Cora", 2, SloTier::BestEffort));
    q.flush();
    auto b1 = q.pop();
    auto b2 = q.pop();
    ASSERT_TRUE(b1 && b2);
    EXPECT_EQ(b1->requests.size(), 1u);
    EXPECT_EQ(b2->requests.size(), 1u);
    EXPECT_NE(b1->tier, b2->tier);
}

// ------------------------------------------------------------------ router
TEST(SloRouterTest, BestEffortAvoidsTheFastestBackend)
{
    GcodOptions gopts;
    auto bundle = buildArtifact(
        ArtifactKey{"Cora", "GCN", hashGcodOptions(gopts)}, gopts, 0.25);
    BackendRouter router({"GCoD", "HyGCN"});
    const std::vector<double> est = router.estimateAll(*bundle);

    RouteDecision latency = router.choose(est, SloTier::Latency);
    RouteDecision standard = router.choose(est, SloTier::Standard);
    RouteDecision effort = router.choose(est, SloTier::BestEffort);
    ASSERT_GE(latency.backend, 0);
    ASSERT_GE(effort.backend, 0);
    // Idle router: latency and standard both race to the cheapest
    // estimate, best-effort is explicitly kept off it.
    EXPECT_EQ(latency.backend, standard.backend);
    EXPECT_NE(effort.backend, latency.backend);
}

// ------------------------------------------------------------------- stats
TEST(SloStatsTest, ShedRequestsDoNotPollutePercentiles)
{
    ServerStats stats;

    InferenceReply shed;
    shed.id = 1;
    shed.tier = SloTier::BestEffort;
    shed.shed = true;
    shed.error = "shed by admission control";
    shed.latencySeconds = 42.0; // must be ignored
    stats.recordReply(shed);

    InferenceReply ok;
    ok.id = 2;
    ok.tier = SloTier::Standard;
    ok.latencySeconds = 0.125;
    stats.recordReply(ok);

    InferenceReply failed;
    failed.id = 3;
    failed.error = "boom";
    stats.recordReply(failed);

    EXPECT_EQ(stats.completed(), 1u);
    EXPECT_EQ(stats.failed(), 1u);
    EXPECT_EQ(stats.shed(), 1u);
    EXPECT_EQ(stats.tierShed(SloTier::BestEffort), 1u);
    EXPECT_EQ(stats.tierCompleted(SloTier::Standard), 1u);
    EXPECT_EQ(stats.tierCompleted(SloTier::BestEffort), 0u);
    // The 42 s shed "latency" must not appear anywhere.
    EXPECT_DOUBLE_EQ(stats.latencyPercentile(99.0), 0.125);
    EXPECT_DOUBLE_EQ(stats.tierLatencyPercentile(SloTier::Standard, 50.0),
                     0.125);
    EXPECT_DOUBLE_EQ(
        stats.tierLatencyPercentile(SloTier::BestEffort, 99.0), 0.0);
}

TEST(SloStatsTest, FailureTaxonomyOutcomesAreDisjointAndTierScoped)
{
    ServerStats stats;

    InferenceReply shed;
    shed.tier = SloTier::BestEffort;
    shed.shed = true;
    shed.error = "shed by admission control";
    stats.recordReply(shed);

    InferenceReply timed;
    timed.tier = SloTier::Standard;
    timed.timedOut = true;
    timed.error = "deadline exceeded";
    timed.latencySeconds = 9.0; // must not reach the percentiles
    stats.recordReply(timed);

    InferenceReply failed;
    failed.tier = SloTier::Latency;
    failed.error = "boom";
    stats.recordReply(failed);

    InferenceReply recovered;
    recovered.tier = SloTier::Standard;
    recovered.retries = 2;
    recovered.failedOver = true;
    recovered.latencySeconds = 0.25;
    stats.recordReply(recovered);

    InferenceReply clean;
    clean.tier = SloTier::Standard;
    clean.latencySeconds = 0.5;
    stats.recordReply(clean);

    // Every reply landed in exactly one outcome bucket.
    EXPECT_EQ(stats.shed(), 1u);
    EXPECT_EQ(stats.timedOut(), 1u);
    EXPECT_EQ(stats.failed(), 1u);
    EXPECT_EQ(stats.completed(), 2u);
    // retried/failed_over annotate completed work; they are not
    // outcomes and must not double-count anything.
    EXPECT_EQ(stats.retried(), 1u);
    EXPECT_EQ(stats.failedOver(), 1u);

    // Tier-scoped views of the same taxonomy.
    EXPECT_EQ(stats.tierShed(SloTier::BestEffort), 1u);
    EXPECT_EQ(stats.tierTimedOut(SloTier::Standard), 1u);
    EXPECT_EQ(stats.tierTimedOut(SloTier::Latency), 0u);
    EXPECT_EQ(stats.tierFailed(SloTier::Latency), 1u);
    EXPECT_EQ(stats.tierFailed(SloTier::Standard), 0u);
    EXPECT_EQ(stats.tierRetried(SloTier::Standard), 1u);
    EXPECT_EQ(stats.tierFailedOver(SloTier::Standard), 1u);
    EXPECT_EQ(stats.tierCompleted(SloTier::Standard), 2u);

    // Neither the timed-out 9 s nor the shed request pollutes the
    // latency distribution of executed work.
    EXPECT_DOUBLE_EQ(stats.latencyPercentile(100.0), 0.5);

    // Recovery-event recorders land in their own scalars.
    stats.recordBackendFailure("GCoD");
    stats.recordBackendFailure("GCoD");
    stats.recordQuarantine();
    stats.recordShardReexecutions(3);
    stats.recordShardReexecutions(0); // no-op, not a sample
    EXPECT_EQ(stats.quarantined(), 1u);
    EXPECT_EQ(stats.shardReexecutions(), 3u);
}

// --------------------------------------------------------------- admission
TEST(SloAdmissionTest, ShedsCheapestTierFirstAtTheDoor)
{
    ServeOptions opts;
    opts.backends = {"GCoD"};
    opts.workers = 1;
    opts.artifactScale = 0.25;
    // FixedSize with a huge target: nothing dispatches until drain(),
    // so queue depth at each submit is exact and the test deterministic.
    opts.batching.policy = BatchPolicy::FixedSize;
    opts.batching.maxBatch = 64;
    opts.admission.bestEffortMaxDepth = 2;
    opts.admission.standardMaxDepth = 4;
    opts.admission.maxQueueDepth = 6;
    ServingEngine engine(opts);

    auto submit = [&](SloTier tier) {
        InferenceRequest req;
        req.dataset = "Cora";
        req.tier = tier;
        return engine.submit(std::move(req));
    };

    std::vector<std::future<InferenceReply>> futures;
    // Depths 0,1 accepted; depth 2 hits bestEffortMaxDepth.
    for (int i = 0; i < 3; ++i)
        futures.push_back(submit(SloTier::BestEffort));
    // Depths 2,3 accepted; depth 4 hits standardMaxDepth.
    for (int i = 0; i < 3; ++i)
        futures.push_back(submit(SloTier::Standard));
    // Depths 4,5 accepted; depth 6 hits maxQueueDepth.
    for (int i = 0; i < 3; ++i)
        futures.push_back(submit(SloTier::Latency));

    engine.drain();

    int completedCount = 0, shedCount = 0;
    for (auto &f : futures) {
        InferenceReply r = f.get();
        if (r.shed)
            ++shedCount;
        else if (r.ok())
            ++completedCount;
    }
    EXPECT_EQ(completedCount, 6);
    EXPECT_EQ(shedCount, 3);
    EXPECT_EQ(engine.stats().completed(), 6u);
    EXPECT_EQ(engine.stats().shed(), 3u);
    EXPECT_EQ(engine.stats().tierShed(SloTier::BestEffort), 1u);
    EXPECT_EQ(engine.stats().tierShed(SloTier::Standard), 1u);
    EXPECT_EQ(engine.stats().tierShed(SloTier::Latency), 1u);
    EXPECT_EQ(engine.stats().tierCompleted(SloTier::Latency), 2u);
    // Shed futures resolve immediately with the tier echoed back.
}

TEST(SloAdmissionTest, DefaultsShedNothing)
{
    ServeOptions opts;
    opts.backends = {"GCoD"};
    opts.workers = 1;
    opts.artifactScale = 0.25;
    opts.batching.maxDelay = std::chrono::microseconds(200);
    ServingEngine engine(opts);
    std::vector<std::future<InferenceReply>> futures;
    for (int i = 0; i < 32; ++i) {
        InferenceRequest req;
        req.dataset = "Cora";
        req.tier = i % 2 ? SloTier::BestEffort : SloTier::Latency;
        futures.push_back(engine.submit(std::move(req)));
    }
    engine.drain();
    for (auto &f : futures)
        EXPECT_TRUE(f.get().ok());
    EXPECT_EQ(engine.stats().shed(), 0u);
}
