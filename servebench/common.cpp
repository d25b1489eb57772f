#include "common.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>

#include "serve/server_stats.hpp"

namespace servebench {

std::vector<std::pair<std::string, std::string>>
Workload::artifacts() const
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto &d : datasets)
        for (const auto &f : families)
            out.emplace_back(d.first, f);
    return out;
}

const std::vector<Workload> &
workloads()
{
    // warm_mix's offered rate sits far below its closed-loop
    // capacity_rps, so the open loop measures latency without a growing
    // backlog; at higher rates the p99 followed the machine's other load
    // from run to run (it varied twofold at half capacity). sampled_point
    // runs one closed-loop client on small graphs: its requests cost
    // milliseconds each, and in an open loop a short backlog turns into
    // batches whose riders run serially.
    // Why each mix exists is recorded in BENCHMARK.json and LEDGER.md.
    static const std::vector<Workload> all = [] {
        const std::vector<std::string> &zoo = allFamilies();
        std::vector<Workload> w(2);

        w[0].name = "warm_mix";
        w[0].backends = {"GCoD", "GCoD@bits=8", "HyGCN", "AWB-GCN",
                         "DGL-GPU"};
        w[0].datasets = {{"Cora", 11}, {"CiteSeer", 6}, {"Pubmed", 3}};
        w[0].families = zoo;
        w[0].tierParts[0] = 1;
        w[0].tierParts[1] = 3;
        w[0].tierParts[2] = 1;
        w[0].offeredRps = 10000.0;
        // Deep enough that every (artifact, tier) group fills a 32-request
        // batch. At 1024, about 23 a group, some batches left full and
        // some on the 2 ms timeout, and capacity_rps moved by up to 29%
        // from run to run.
        w[0].closedWindow = 4096;
        w[0].setupReps = 1;

        w[1].name = "sampled_point";
        w[1].backends = {"GCoD", "GCoD@bits=8"};
        w[1].datasets = {{"Cora", 1}, {"Pubmed", 1}};
        w[1].families = {"GCN", "GraphSAGE"};
        w[1].sampleFanout = 10;
        w[1].artifactScale = 0.03;
        w[1].latencyClients = 1;
        w[1].closedWindow = 16;
        w[1].setupReps = 15;
        // Its updates take milliseconds, so more rounds cost little.
        w[1].probeRounds = 25;

        return w;
    }();
    return all;
}

const std::vector<std::string> &
allBackends()
{
    return workloads().front().backends;
}

const std::vector<std::string> &
allFamilies()
{
    static const std::vector<std::string> zoo = {"GCN", "GraphSAGE", "GIN",
                                                 "GAT", "ResGCN"};
    return zoo;
}

const std::vector<std::string> &
allDatasets()
{
    static const std::vector<std::string> d = {"Cora", "CiteSeer", "Pubmed"};
    return d;
}

bool
servedByAll(const std::string &dataset, const std::string &family)
{
    for (const Workload &w : workloads()) {
        auto arts = w.artifacts();
        if (std::find(arts.begin(), arts.end(),
                      std::make_pair(dataset, family)) == arts.end())
            return false;
    }
    return true;
}

bool
routedByAll(const std::string &backend)
{
    for (const Workload &w : workloads())
        if (std::find(w.backends.begin(), w.backends.end(), backend) ==
            w.backends.end())
            return false;
    return true;
}

gcod::serve::ServeOptions
engineOptions(const Workload &w)
{
    gcod::serve::ServeOptions o;
    o.backends = w.backends;
    o.workers = 2;
    o.kernelThreads = 2;
    o.artifactScale = w.artifactScale;
    // Every artifact of the mix stays resident: an LRU miss would put a
    // multi-second pipeline build inside the timed window.
    o.cacheCapacity = w.artifacts().size() + 1;
    return o;
}

void
Metrics::add(const std::string &name, double value, const std::string &unit,
             bool ledger)
{
    entries_.push_back({name, value, unit, ledger});
}

void
Metrics::printText(std::ostream &os) const
{
    for (const Entry &e : entries_)
        os << "  " << std::left << std::setw(40) << e.name << " "
           << std::setprecision(6) << e.value << " " << e.unit
           << (e.ledger ? "" : "  (note)") << "\n";
}

void
Metrics::printJson(std::ostream &os, bool correct, uint64_t attempted,
                   uint64_t failed) const
{
    std::ostringstream js;
    js << std::setprecision(std::numeric_limits<double>::max_digits10);
    js << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    const char *sep = "";
    for (const Entry &e : entries_) {
        if (!e.ledger)
            continue;
        double v = std::isfinite(e.value) ? e.value : 0.0;
        js << sep << "\"" << e.name << "\": {\"value\": " << v
           << ", \"unit\": \"" << e.unit << "\"}";
        sep = ", ";
    }
    js << "}}";
    os << js.str() << "\n";
}

double
pct(std::vector<double> v, double p)
{
    return gcod::serve::percentile(std::move(v), p);
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / double(v.size());
}

std::string
metricSafe(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
            c == '.' || c == '-')
            out += c;
        else if (c == '@' || c == ',')
            out += '_';
    }
    return out;
}

int64_t
foldedRow(gcod::NodeId node, int64_t rows)
{
    return ((int64_t(node) % rows) + rows) % rows;
}

int
argmaxRow(const gcod::Matrix &m, int64_t row)
{
    const float *r = m.row(row);
    int best = 0;
    for (int64_t c = 1; c < m.cols(); ++c)
        if (r[c] > r[best])
            best = int(c);
    return best;
}

bool
sameBytes(const gcod::Matrix &a, const gcod::Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data().data(), b.data().data(),
                       size_t(a.rows() * a.cols()) * sizeof(float)) == 0;
}

} // namespace servebench
