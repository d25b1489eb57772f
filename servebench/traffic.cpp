#include "traffic.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace servebench {

namespace {

/**
 * Pause between collector sweeps. It bounds how late a completion can be
 * stamped (plus the sleep's own overshoot); short against the
 * millisecond latencies measured, long enough that the sweeping thread
 * stays a small share of one core.
 */
constexpr auto kSweepPause = std::chrono::microseconds(50);

Clock::duration
toDuration(double seconds)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
}

/** A submitted request whose reply has not been found yet. */
struct Outstanding
{
    size_t index;
    /** Due (open loop) or send (closed loop) time. */
    Clock::time_point from;
    std::future<InferenceReply> fut;
};

/**
 * Move every ready reply of @p live to @p done, stamped with the clock
 * when found. Returns how many were found.
 */
size_t
sweep(std::vector<Outstanding> &live, std::vector<Completion> &done)
{
    size_t found = 0;
    for (size_t i = 0; i < live.size();) {
        if (live[i].fut.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
            ++i;
            continue;
        }
        Completion c;
        c.readyAt = Clock::now();
        c.index = live[i].index;
        c.latencyMs = msBetween(live[i].from, c.readyAt);
        c.reply = live[i].fut.get();
        done.push_back(std::move(c));
        live[i] = std::move(live.back());
        live.pop_back();
        ++found;
    }
    return found;
}

/** Run @p body, keeping its exception for the joining thread. */
template <typename F>
std::thread
guardedThread(std::exception_ptr &error, F body)
{
    return std::thread([&error, body = std::move(body)]() mutable {
        try {
            body();
        } catch (...) {
            error = std::current_exception();
        }
    });
}

/**
 * Owns the outstanding futures of an open-loop phase. The generator
 * thread add()s; run() is the collector thread's body and stamps each
 * future the moment a sweep finds it ready.
 */
class Collector
{
  public:
    void
    add(size_t index, Clock::time_point from,
        std::future<InferenceReply> fut)
    {
        std::lock_guard<std::mutex> lock(mu_);
        inbox_.push_back({index, from, std::move(fut)});
    }

    /** No further add(); run() returns once everything resolved. */
    void
    close()
    {
        std::lock_guard<std::mutex> lock(mu_);
        closed_ = true;
    }

    void
    run()
    {
        std::vector<Outstanding> live;
        for (;;) {
            bool closed = false;
            {
                std::lock_guard<std::mutex> lock(mu_);
                for (Outstanding &it : inbox_)
                    live.push_back(std::move(it));
                inbox_.clear();
                closed = closed_;
            }
            sweep(live, done);
            // Every add() happens before close(), so once closed was seen
            // with the inbox emptied, nothing else can arrive.
            if (closed && live.empty())
                return;
            std::this_thread::sleep_for(kSweepPause);
        }
    }

    /** Written by run() only; read after the collector thread joined. */
    std::vector<Completion> done;

  private:
    std::mutex mu_;
    std::vector<Outstanding> inbox_;
    bool closed_ = false;
};

void
rethrowFirst(std::initializer_list<std::exception_ptr> errors)
{
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
}

} // namespace

TrafficMix::TrafficMix(const Workload &w, uint64_t seed) : w_(w), rng_(seed)
{
    for (const auto &[dataset, parts] : w.datasets)
        for (const std::string &family : w.families)
            for (int tier = 0; tier < gcod::serve::kNumSloTiers; ++tier)
                for (int k = 0; k < parts * w.tierParts[tier]; ++k) {
                    InferenceRequest q;
                    q.dataset = dataset;
                    q.model = family;
                    q.tier = gcod::serve::SloTier(tier);
                    q.sampleFanout = w.sampleFanout;
                    deck_.push_back(q);
                }
}

InferenceRequest
TrafficMix::next()
{
    if (dealt_ % deck_.size() == 0)
        rng_.shuffle(deck_);
    InferenceRequest q = deck_[dealt_++ % deck_.size()];
    // Published node space; the engine folds it onto the stand-in rows.
    q.node = gcod::NodeId(rng_.uniformInt(0, (1 << 20) - 1));
    if (q.sampleFanout > 0)
        q.sampleSeed = uint64_t(
            rng_.uniformInt(0, std::numeric_limits<int64_t>::max()));
    return q;
}

std::vector<Scheduled>
makeSchedule(const Workload &w, uint64_t seed, double seconds)
{
    TrafficMix mix(w, seed);
    gcod::Rng gaps(seed ^ 0x5eedull);
    std::vector<Scheduled> out;
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - gaps.uniformReal()) / w.offeredRps;
        if (t >= seconds)
            return out;
        out.push_back({t, mix.next()});
    }
}

uint64_t
PhaseResult::failed() const
{
    uint64_t n = 0;
    for (const Completion &c : done)
        n += c.reply.ok() ? 0 : 1;
    return n;
}

PhaseResult
runOpenLoop(ServingEngine &engine, const std::vector<Scheduled> &schedule,
            double seconds)
{
    PhaseResult r;
    r.sent.reserve(schedule.size());
    r.lateMs.reserve(schedule.size());
    Collector col;
    std::exception_ptr colErr, genErr;
    std::thread collector = guardedThread(colErr, [&] { col.run(); });
    r.start = Clock::now();
    r.end = r.start + toDuration(seconds);
    std::thread gen = guardedThread(genErr, [&] {
        struct CloseOnExit
        {
            Collector &c;
            ~CloseOnExit() { c.close(); }
        } closer{col};
        for (size_t i = 0; i < schedule.size(); ++i) {
            Clock::time_point due =
                r.start + toDuration(schedule[i].dueSeconds);
            std::this_thread::sleep_until(due);
            r.lateMs.push_back(msBetween(due, Clock::now()));
            r.sent.push_back(schedule[i].req);
            col.add(i, due, engine.submit(schedule[i].req));
        }
    });
    gen.join();
    collector.join();
    rethrowFirst({genErr, colErr});
    r.done = std::move(col.done);
    return r;
}

PhaseResult
runClosedLoop(ServingEngine &engine, TrafficMix &mix, size_t window,
              double seconds, double *capacity_rps)
{
    // The calling thread both sends and sweeps, so a slot is refilled by
    // the sweep that found its reply, with no hand-off between threads.
    PhaseResult r;
    std::vector<Outstanding> live;
    r.start = Clock::now();
    r.end = r.start + toDuration(seconds);
    Clock::time_point freed = r.start;
    for (;;) {
        if (Clock::now() < r.end) {
            while (live.size() < window) {
                r.sent.push_back(mix.next());
                Clock::time_point sentAt = Clock::now();
                r.lateMs.push_back(msBetween(freed, sentAt));
                live.push_back({r.sent.size() - 1, sentAt,
                                engine.submit(r.sent.back())});
            }
        } else if (live.empty()) {
            break;
        }
        if (sweep(live, r.done) != 0)
            freed = Clock::now();
        else
            std::this_thread::sleep_for(kSweepPause);
    }

    // The first tenth fills the window and is left out; the rest is cut
    // into slices whose median completion rate is the capacity, so a
    // short stall of the machine moves one slice, not the result.
    constexpr int kSlices = 9;
    double slice = seconds / 10.0;
    std::vector<double> counts(kSlices, 0.0);
    for (const Completion &c : r.done) {
        double at = std::chrono::duration<double>(c.readyAt - r.start).count();
        int k = int(std::floor(at / slice)) - 1;
        if (k >= 0 && k < kSlices)
            counts[size_t(k)] += 1.0;
    }
    if (capacity_rps != nullptr)
        *capacity_rps = pct(counts, 50) / slice;
    return r;
}

NodePairs
deltaPairs(const gcod::Graph &g, uint64_t seed)
{
    gcod::Rng rng(seed);
    const gcod::CsrMatrix &adj = g.adjacency();
    NodePairs pairs;
    for (int i = 0; i < kDeltaEdges; ++i) {
        gcod::NodeId u, v;
        if (i % 2 == 0 || adj.nnz() == 0) {
            u = gcod::NodeId(rng.uniformInt(0, g.numNodes() - 1));
            v = gcod::NodeId(rng.uniformInt(0, g.numNodes() - 1));
        } else {
            auto e = rng.uniformInt(0, int64_t(adj.nnz()) - 1);
            v = adj.indices()[size_t(e)];
            u = gcod::NodeId(std::upper_bound(adj.indptr().begin(),
                                              adj.indptr().end(), e) -
                             adj.indptr().begin() - 1);
        }
        if (u != v)
            pairs.emplace_back(u, v);
    }
    return pairs;
}

UpdateRecord
timedUpdate(ServingEngine &engine, const gcod::serve::ArtifactKey &key,
            const NodePairs &pairs)
{
    UpdateRecord rec;
    gcod::dyn::GraphDelta delta;
    {
        auto bundle = engine.cache().peek(key);
        if (bundle == nullptr)
            throw std::runtime_error("update target not resident: " +
                                     key.toString());
        const gcod::Graph &g = bundle->synth.graph;
        for (const auto &[u, v] : pairs) {
            if (g.adjacency().at(u, v) != 0.0f)
                delta.removeEdge(u, v);
            else
                delta.insertEdge(u, v);
        }
        rec.nodes = g.numNodes();
    }
    Clock::time_point t0 = Clock::now();
    rec.result = engine.applyUpdate(key, delta);
    rec.callMs = msBetween(t0, Clock::now());
    // Replaced epochs stay parked until reclaimed; free them so repeated
    // updates do not grow the process.
    engine.reclaimRetiredArtifacts();
    return rec;
}

} // namespace servebench
