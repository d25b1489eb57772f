/**
 * @file
 * Shared vocabulary of the serving benchmark: workload definitions, the
 * metric sink that prints the result line, and small timing helpers.
 */
#ifndef SERVEBENCH_COMMON_HPP
#define SERVEBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serve/engine.hpp"

namespace servebench {

using gcod::serve::Clock;

/** One traffic mix and the engine configuration it runs against. */
struct Workload
{
    std::string name;
    /** Registry spec strings the router spreads batches across. */
    std::vector<std::string> backends;
    /** Datasets with their relative share of the traffic (integer parts). */
    std::vector<std::pair<std::string, int>> datasets;
    /** Model families, one part each. */
    std::vector<std::string> families;
    /** Parts of latency / standard / best-effort requests. */
    int tierParts[gcod::serve::kNumSloTiers] = {0, 1, 0};
    /** > 0: every request is a sampled point query with this fanout. */
    int sampleFanout = 0;
    /** Graph synthesis scale of every artifact; 0 = serving default. */
    double artifactScale = 0.0;
    /** Offered open-loop rate, requests per second. */
    double offeredRps = 0.0;
    /**
     * > 0: the latency phase is instead a closed loop of this many
     * outstanding requests, each sent when a reply frees its slot.
     */
    size_t latencyClients = 0;
    /** Requests the closed-loop capacity phase keeps outstanding. */
    size_t closedWindow = 16;
    /** Fresh engines built per untraced run; setup_s is their median. */
    int setupReps = 1;
    /** Rounds of the update probe; each call reports its median round. */
    int probeRounds = 3;

    /** Every (dataset, family) artifact the mix touches. */
    std::vector<std::pair<std::string, std::string>> artifacts() const;
};

/** The benchmark's workloads (names match BENCHMARK.json). */
const std::vector<Workload> &workloads();

/** Every backend any workload routes to; per-backend metrics use these. */
const std::vector<std::string> &allBackends();
/** The model zoo, in metric-name order. */
const std::vector<std::string> &allFamilies();
/** Every dataset any workload serves, in metric-name order. */
const std::vector<std::string> &allDatasets();

/** True when every workload serves (@p dataset, @p family). */
bool servedByAll(const std::string &dataset, const std::string &family);
/** True when every workload routes to @p backend. */
bool routedByAll(const std::string &backend);

/** Engine options every workload serves with. */
gcod::serve::ServeOptions engineOptions(const Workload &w);

/**
 * Ordered metric sink; printed as text and as the final JSON line. The
 * JSON line carries only the ledger metrics BENCHMARK.json lists, which
 * every workload produces; the text also shows notes, metrics that only
 * some workloads exercise (they read 0 on the others).
 */
class Metrics
{
  public:
    /** A metric: in the text, and in the JSON line when @p ledger. */
    void add(const std::string &name, double value, const std::string &unit,
             bool ledger = true);
    /** Human-readable lines ("name = value unit") on @p os. */
    void printText(std::ostream &os) const;
    /** The single-line JSON result object. */
    void printJson(std::ostream &os, bool correct, uint64_t attempted,
                   uint64_t failed) const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
        bool ledger;
    };
    std::vector<Entry> entries_;
};

/** Seconds elapsed since @p t. */
inline double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/** Milliseconds between two time points. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Nearest-rank percentile (p in [0, 100]); 0 for an empty set. */
double pct(std::vector<double> v, double p);
/** Arithmetic mean; 0 for an empty set. */
double mean(const std::vector<double> &v);

/** Backend spec string as a metric-name component ("GCoD@bits=8" -> "GCoD_bits8"). */
std::string metricSafe(const std::string &s);

/** Row @p node of the published node space folded onto @p rows rows. */
int64_t foldedRow(gcod::NodeId node, int64_t rows);
/** First-maximum argmax of row @p row of @p m (the engine's prediction rule). */
int argmaxRow(const gcod::Matrix &m, int64_t row);
/** Byte-exact equality of two logit matrices. */
bool sameBytes(const gcod::Matrix &a, const gcod::Matrix &b);

} // namespace servebench

#endif // SERVEBENCH_COMMON_HPP
