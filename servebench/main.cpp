/**
 * @file
 * The serving benchmark: drives serve::ServingEngine through its public
 * API (submit, applyUpdate, cache().peek, peekLogits) on one seeded
 * workload and prints its metrics, the last stdout line being the JSON
 * result.
 *
 *   servebench --workload <warm_mix|sampled_point>
 *              --seed <n> --seconds <s> --trace <0|1>
 *
 * --trace 0 measures the end-to-end metrics with tracing off: set-up
 * (median of the workload's set-up repetitions), a latency phase (75% of
 * --seconds) and a closed-loop capacity phase (25%), then the output
 * checks. --trace 1 measures the per-layer metrics:
 * the update probe, an untraced latency window, the same seeded traffic
 * again with engine tracing at level 2 and the kernel profiler on, then
 * the layer probes.
 * Exits 1 when an output is wrong, 2 on bad arguments. Metric
 * definitions, workload parameters and what each layer metric should
 * move are in LEDGER.md.
 */
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "checks.hpp"
#include "layers.hpp"
#include "obs/kernel_profile.hpp"

using namespace servebench;
using gcod::serve::ArtifactKey;

namespace {

/** Seed of the probe's deltas: fixed, so every run does the same work. */
constexpr uint64_t kProbeSeed = 0x5e7u;
/** Deltas of the update probe, each applied and undone once a round. */
constexpr int kProbeDeltas = 8;
/** Share of --seconds the untraced run spends in the latency phase. */
constexpr double kLatencyShare = 0.75;
/** Latency windows per phase, and the fewest completions one may hold. */
constexpr size_t kLatencyWindows = 16;
constexpr size_t kWindowSamples = 1000;
/**
 * Requests a traced window may carry. The engine's span buffer is split
 * into per-thread shards of 64Ki spans, and both workers may land in one
 * shard; at about six spans per request this keeps it inside its share,
 * so no span is dropped.
 */
constexpr double kTracedRequests = 10000.0;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "servebench: " << why
              << "\nusage: servebench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\nworkloads:";
    for (const Workload &w : workloads())
        std::cerr << " " << w.name;
    std::cerr << "\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string v = argv[++i];
        try {
            if (flag == "--workload")
                a.workload = v;
            else if (flag == "--seed")
                a.seed = std::stoull(v);
            else if (flag == "--seconds")
                a.seconds = std::stod(v);
            else if (flag == "--trace")
                a.trace = std::stoi(v);
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + v);
        }
    }
    if (a.seconds <= 0.0 || (a.trace != 0 && a.trace != 1))
        usage("--seconds must be positive and --trace 0 or 1");
    return a;
}

const Workload &
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (w.name == name)
            return w;
    usage("unknown workload '" + name + "'");
}

/** A warm engine and what building it cost. */
struct Setup
{
    std::unique_ptr<ServingEngine> engine;
    double seconds = 0.0;
    /** Wall seconds of each artifact's pipeline build, by (dataset, family). */
    std::map<std::pair<std::string, std::string>, double> buildSeconds;
};

/**
 * Construct an engine and make every artifact of the mix built and warm:
 * resident, with host logits at every served precision memoized.
 */
Setup
setUp(const Workload &w)
{
    Setup s;
    Clock::time_point t0 = Clock::now();
    s.engine = std::make_unique<ServingEngine>(engineOptions(w));
    ServingEngine &e = *s.engine;
    e.trace().setLevel(gcod::obs::kTraceOff);
    for (const auto &art : w.artifacts()) {
        ArtifactKey key = e.keyFor(art.first, art.second);
        Clock::time_point t = Clock::now();
        e.cache().get(key);
        s.buildSeconds[art] = secondsSince(t);
        e.peekLogits(key, 32);
        for (int bits : e.quantBits())
            e.peekLogits(key, bits);
    }
    s.seconds = secondsSince(t0);
    return s;
}

/** Latencies (ms) of the phase's successful requests, in completion order. */
std::vector<double>
okLatencies(const PhaseResult &p)
{
    std::vector<double> ms;
    for (const Completion &c : p.done)
        if (c.reply.ok())
            ms.push_back(c.latencyMs);
    return ms;
}

/**
 * Percentile @p p of @p ms as the median over consecutive windows of at
 * least kWindowSamples completions (at most kLatencyWindows of them), so
 * a short stall of the machine moves one window, not the result. Each
 * window's p99 still has ten samples beyond it.
 */
double
windowedPct(const std::vector<double> &ms, double p)
{
    size_t k = std::clamp<size_t>(ms.size() / kWindowSamples, 1,
                                  kLatencyWindows);
    std::vector<double> perWindow;
    for (size_t i = 0; i < k; ++i) {
        auto first = ms.begin() + ptrdiff_t(ms.size() * i / k);
        auto last = ms.begin() + ptrdiff_t(ms.size() * (i + 1) / k);
        perWindow.push_back(pct(std::vector<double>(first, last), p));
    }
    return pct(perWindow, 50);
}

/**
 * The latency phase: the workload's seeded open-loop schedule, or for a
 * workload with latency clients a closed loop keeping that many requests
 * outstanding.
 */
PhaseResult
latencyPhase(ServingEngine &e, const Workload &w, uint64_t seed,
             double seconds)
{
    if (w.latencyClients > 0) {
        TrafficMix mix(w, seed);
        return runClosedLoop(e, mix, w.latencyClients, seconds, nullptr);
    }
    return runOpenLoop(e, makeSchedule(w, seed, seconds), seconds);
}

/**
 * Update cost on the idle, freshly set-up engine: timed applyUpdate()
 * calls on Cora x GCN, before any traffic, so the heap the updates
 * allocate from is the same on every run. Each of kProbeDeltas deltas is
 * applied and then undone, so each of the workload's probeRounds rounds
 * replays the same calls on the same graph. One record per call: the
 * round with the call's median time, so a slow moment of the machine
 * cannot reorder the calls' costs. The deltas are the same on every run:
 * which nodes a delta touches moves its cost more than the machine does,
 * and the probe compares commits, not seeds. Afterwards the artifact's
 * stored logits must equal a fresh forward; a mismatch clears @p correct.
 */
std::vector<UpdateRecord>
updateProbe(ServingEngine &e, const Workload &w, std::ostream &log,
            bool &correct)
{
    ArtifactKey key = e.keyFor("Cora", "GCN");
    std::vector<NodePairs> deltas;
    {
        auto bundle = e.cache().peek(key);
        if (bundle == nullptr)
            throw std::runtime_error("probe target not resident: " +
                                     key.toString());
        for (int i = 0; i <= kProbeDeltas; ++i)
            deltas.push_back(
                deltaPairs(bundle->synth.graph, kProbeSeed + uint64_t(i)));
    }
    // The first update builds the artifact's incremental state; the
    // second undoes it, so the timed rounds start from the set-up graph.
    timedUpdate(e, key, deltas[kProbeDeltas]);
    timedUpdate(e, key, deltas[kProbeDeltas]);
    std::vector<std::vector<UpdateRecord>> calls(2 * kProbeDeltas);
    for (int round = 0; round < w.probeRounds; ++round)
        for (size_t c = 0; c < calls.size(); ++c)
            calls[c].push_back(timedUpdate(e, key, deltas[c / 2]));
    std::vector<UpdateRecord> out;
    for (std::vector<UpdateRecord> &rounds : calls) {
        std::sort(rounds.begin(), rounds.end(),
                  [](const UpdateRecord &a, const UpdateRecord &b) {
                      return a.callMs < b.callMs;
                  });
        out.push_back(rounds[rounds.size() / 2]);
    }
    correct = checkUpdatedLogits(e, key, log) && correct;
    return out;
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

void
addUpdateLayerMetrics(const std::vector<UpdateRecord> &ups, Metrics &m)
{
    std::vector<double> call, build, publish, dirty, recomputed;
    for (const UpdateRecord &u : ups) {
        if (u.result.noop)
            continue;
        call.push_back(u.callMs);
        build.push_back(u.result.seconds * 1e3);
        publish.push_back(u.callMs - u.result.seconds * 1e3);
        dirty.push_back(double(u.result.dirtyRows) / double(u.nodes));
        recomputed.push_back(double(u.result.recomputedRows));
    }
    m.add("update.call_ms.p50", pct(call, 50), "ms");
    m.add("update.call_ms.p90", pct(call, 90), "ms");
    m.add("update.build_ms.p50", pct(build, 50), "ms");
    m.add("update.publish_ms.p50", pct(publish, 50), "ms");
    m.add("update.dirty_row_fraction.mean", mean(dirty), "ratio");
    m.add("update.recomputed_rows.mean", mean(recomputed), "count");
}

void
printPhase(const char *name, const PhaseResult &p)
{
    std::map<int, size_t> byBits;
    for (const Completion &c : p.done)
        byBits[c.reply.executedBits] += c.reply.ok() ? 1 : 0;
    std::cout << name << ": sent " << p.sent.size() << ", completed "
              << p.done.size() - p.failed() << ", failed " << p.failed()
              << "; served at";
    for (const auto &[bits, n] : byBits)
        std::cout << " " << bits << " bits: " << n;
    std::cout << "\n";
}

/** Flag a generator that could not keep its schedule. */
double
generatorLateP99(const std::vector<const PhaseResult *> &phases,
                 double latency_p50)
{
    std::vector<double> late;
    for (const PhaseResult *p : phases)
        late.insert(late.end(), p->lateMs.begin(), p->lateMs.end());
    double p99 = pct(late, 99);
    if (p99 > std::max(1.0, 0.1 * latency_p50))
        std::cout << "WARNING: generator fell behind its schedule (late "
                     "p99 "
                  << p99 << " ms): the engine saw less than the offered "
                            "rate\n";
    std::cout << "generator late ms: p50 " << pct(late, 50) << " p90 "
              << pct(late, 90) << " p99 " << p99 << " max " << pct(late, 100)
              << "\n";
    return p99;
}

int
runUntraced(const Workload &w, const Args &a)
{
    double latencySeconds = a.seconds * kLatencyShare;
    std::vector<double> setupSeconds;
    Setup s;
    for (int rep = 0; rep < w.setupReps; ++rep) {
        s.engine.reset();
        s = setUp(w);
        setupSeconds.push_back(s.seconds);
    }
    ServingEngine &e = *s.engine;

    PhaseResult open = latencyPhase(e, w, a.seed, latencySeconds);
    // Read before the capacity phase: the records it keeps for the output
    // checks grow with the completions it reaches, so a later reading
    // would follow the machine's speed rather than the engine's memory.
    double peakRss = peakRssMb();
    TrafficMix closedMix(w, a.seed ^ 0xc105edull);
    double capacity = 0.0;
    PhaseResult closed = runClosedLoop(e, closedMix, w.closedWindow,
                                       a.seconds - latencySeconds, &capacity);
    e.drain();
    printPhase("latency phase", open);
    printPhase("capacity phase", closed);

    std::ostringstream log;
    bool correct = checkOutputs(e, w, {&open, &closed}, a.seed, log);

    std::vector<double> lat = okLatencies(open);
    uint64_t attempted = open.sent.size() + closed.sent.size();
    uint64_t failed = open.failed() + closed.failed();

    Metrics m;
    m.add("latency_p50_ms", windowedPct(lat, 50), "ms");
    m.add("latency_p99_ms", windowedPct(lat, 99), "ms");
    m.add("capacity_rps", capacity, "1/s");
    m.add("success_rate", double(attempted - failed) / double(attempted),
          "ratio");
    // error_rate is a note: it reads 0 on a healthy run, so the ledger
    // bounds its complement.
    m.add("error_rate", double(failed) / double(attempted), "ratio", false);
    m.add("setup_s", pct(setupSeconds, 50), "s");
    m.add("peak_rss_mb", peakRss, "MiB");

    std::cout << log.str() << "latency samples: " << lat.size() << " in "
              << std::clamp<size_t>(lat.size() / kWindowSamples, 1,
                                    kLatencyWindows)
              << " window(s)"
              << (lat.size() >= kWindowSamples
                      ? ""
                      : " (fewer than 1000: p99 has under 10 samples "
                        "beyond it)")
              << "\nfailed: " << failed << " of " << attempted << "\n";
    generatorLateP99({&open}, pct(lat, 50));
    std::cout << "end-to-end metrics (" << w.name << ", seed " << a.seed
              << "):\n";
    m.printText(std::cout);
    m.printJson(std::cout, correct, attempted, failed);
    return correct ? 0 : 1;
}

int
runTraced(const Workload &w, const Args &a)
{
    // Both windows replay the same seeded traffic; the traced one is
    // capped so the engine's span buffer never overflows.
    double tracedSeconds = a.seconds / 2.0;
    if (w.latencyClients == 0)
        tracedSeconds = std::min(tracedSeconds, kTracedRequests / w.offeredRps);
    double plainSeconds = a.seconds - tracedSeconds;
    Setup s = setUp(w);
    ServingEngine &e = *s.engine;
    std::ostringstream log;
    bool correct = true;
    std::vector<UpdateRecord> updates = updateProbe(e, w, log, correct);

    PhaseResult plain = latencyPhase(e, w, a.seed, plainSeconds);

    TraceWindow tw;
    e.trace().clear();
    e.trace().setLevel(gcod::obs::kTraceKernels);
    gcod::obs::KernelProfiler profiler;
    profiler.enable();
    tw.cacheHits = e.cache().hits();
    tw.cacheMisses = e.cache().misses();
    Clock::time_point t0 = Clock::now();
    PhaseResult traced = latencyPhase(e, w, a.seed, tracedSeconds);
    tw.wallSeconds = secondsSince(t0);
    profiler.disable();
    e.trace().setLevel(gcod::obs::kTraceOff);
    tw.cacheHits = e.cache().hits() - tw.cacheHits;
    tw.cacheMisses = e.cache().misses() - tw.cacheMisses;
    tw.spans = e.trace().snapshot();
    tw.zones = profiler.zones();
    tw.droppedSpans = e.trace().dropped();
    tw.poolThreads = gcod::currentThreads();
    tw.done = traced.done;
    e.drain();
    printPhase("untraced latency phase", plain);
    printPhase("traced latency phase", traced);

    correct = checkOutputs(e, w, {&plain, &traced}, a.seed, log) && correct;

    Metrics m;
    double closure = aggregateTrace(tw, m, log);
    double p50Plain = pct(okLatencies(plain), 50);
    double p50Traced = pct(okLatencies(traced), 50);
    m.add("trace.closure", closure, "ratio");
    m.add("trace.overhead_p50", p50Plain > 0 ? p50Traced / p50Plain : 0.0,
          "ratio");
    m.add("trace.dropped_spans", double(tw.droppedSpans), "count");
    m.add("gen.late_ms.p99", generatorLateP99({&plain, &traced}, p50Plain),
          "ms");
    correct = runProbes(e, w, a.seed, m, log) && correct;
    addUpdateLayerMetrics(updates, m);
    double buildTotal = 0.0;
    for (const std::string &d : allDatasets())
        for (const std::string &f : allFamilies()) {
            auto it = s.buildSeconds.find({d, f});
            double sec = it != s.buildSeconds.end() ? it->second : 0.0;
            buildTotal += sec;
            m.add("build.artifact_s." + d + "." + f, sec,
                  "s", servedByAll(d, f));
        }
    m.add("build.total_s", buildTotal, "s");

    uint64_t attempted = plain.sent.size() + traced.sent.size();
    uint64_t failed = plain.failed() + traced.failed();
    std::cout << log.str() << "per-layer metrics (" << w.name << ", seed "
              << a.seed << "):\n";
    m.printText(std::cout);
    m.printJson(std::cout, correct, attempted, failed);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    const Workload &w = findWorkload(a.workload);
    // One malloc arena: with one per thread, peak_rss_mb moved by several
    // MiB with how many arenas the engine's threads happened to touch.
    // Fixed mmap and trim thresholds: with glibc's adaptive ones, every
    // other update probe call ran about 35% slower in some runs and not
    // in others.
    mallopt(M_ARENA_MAX, 1);
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
    try {
        return a.trace ? runTraced(w, a) : runUntraced(w, a);
    } catch (const std::exception &e) {
        std::cerr << "servebench: " << e.what() << "\n";
        return 1;
    }
}
