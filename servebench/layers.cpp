#include "layers.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <unordered_map>

#include "nn/neighbor_sampler.hpp"
#include "nn/quant_exec.hpp"

namespace servebench {

using gcod::Matrix;
using gcod::obs::TraceSpan;

namespace {

/** Kernel zones reported by name; every other zone folds into "other". */
const std::vector<std::string> kZones = {
    "matmul", "spmmRowWise", "qmatmulRowScaled", "qspmmMixed", "rowQuantize",
};

/** Datasets the forward probes are named after. */
const std::vector<std::string> kForwardDatasets = {"Cora", "Pubmed"};

/** Sampled-execution probe calls per run. */
constexpr int kSamplerProbes = 4;

const std::string *
attrOf(const TraceSpan &s, const char *key)
{
    for (const auto &kv : s.attrs)
        if (kv.first == key)
            return &kv.second;
    return nullptr;
}

double
nsToMs(uint64_t ns)
{
    return double(ns) * 1e-6;
}

/** Length of the union of [a, b) intervals, clipped to [lo, hi). */
uint64_t
coveredNs(std::vector<std::pair<uint64_t, uint64_t>> iv, uint64_t lo,
          uint64_t hi)
{
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0, reach = lo;
    for (auto [a, b] : iv) {
        a = std::max(a, reach);
        b = std::min(b, hi);
        if (b > a) {
            covered += b - a;
            reach = b;
        }
    }
    return covered;
}

std::pair<uint64_t, uint64_t>
interval(const TraceSpan &s)
{
    return {s.startNs, s.startNs + s.durNs};
}

/**
 * Time of one probe call: the median of up to three calls, fewer when a
 * single call already takes most of the probe budget. The first call's
 * result is handed back for checking.
 */
template <typename F>
double
probeMs(F &&f, Matrix *first = nullptr)
{
    constexpr double kBudgetMs = 600.0;
    std::vector<double> ms;
    double spent = 0.0;
    do {
        Clock::time_point t0 = Clock::now();
        Matrix out = f();
        double t = msBetween(t0, Clock::now());
        if (first != nullptr && ms.empty())
            *first = std::move(out);
        ms.push_back(t);
        spent += t;
    } while (ms.size() < 3 && spent < kBudgetMs);
    return pct(ms, 50);
}

/** Flops and bytes moved of one forward pass, from tensor shapes. */
struct ForwardCost
{
    double flops = 0.0;
    double bytes = 0.0;
};

/**
 * Cost of interpreting @p r over @p x_cols input features at nominal
 * element widths: @p act (activation operands), @p val (operator
 * values), @p wgt (weights); outputs are fp32.
 */
ForwardCost
recipeCost(const gcod::ForwardRecipe &r, double rows, int64_t x_cols,
           double act, double val, double wgt)
{
    ForwardCost c;
    int64_t cols = x_cols;
    for (size_t l = 0; l < r.layers.size(); ++l) {
        std::vector<int64_t> w = gcod::layerSlotWidths(r, l, cols);
        for (const gcod::OpStep &op : r.layers[l].ops) {
            double in = double(w[size_t(op.in)]);
            double out = double(w[size_t(op.out)]);
            const gcod::CsrMatrix *a =
                op.opIndex >= 0 ? r.operators[size_t(op.opIndex)] : nullptr;
            double n = rows;
            double nnz = a != nullptr ? double(a->nnz()) : 0.0;
            double csr = nnz * (4.0 + val) + (n + 1.0) * 8.0;
            switch (op.kind) {
            case gcod::OpKind::SpMM:
                c.flops += 2.0 * nnz * in;
                c.bytes += csr + n * in * act + n * out * 4.0;
                break;
            case gcod::OpKind::GEMM: {
                const Matrix &wm = *r.weights[size_t(op.weight)];
                c.flops += 2.0 * rows * double(wm.rows()) * double(wm.cols());
                c.bytes += rows * double(wm.rows()) * act +
                           double(wm.rows() * wm.cols()) * wgt +
                           rows * double(wm.cols()) * 4.0;
                break;
            }
            case gcod::OpKind::AttentionScore: {
                double hd = double(op.heads) * double(op.headDim);
                c.flops += 2.0 * (nnz + n) * hd + 4.0 * n * hd;
                c.bytes += csr + n * hd * 4.0 + n * out * 4.0;
                break;
            }
            case gcod::OpKind::MaxAgg:
                c.flops += (nnz + n) * in;
                c.bytes += csr + 2.0 * n * in * 4.0;
                break;
            default: {
                // Row-local ops (Residual, ConcatSelf, Activation,
                // Readout): one pass over their operands.
                c.flops += op.kind == gcod::OpKind::Residual ||
                                   op.kind == gcod::OpKind::Activation
                               ? rows * out
                               : 0.0;
                c.bytes += 2.0 * rows * out * 4.0;
                break;
            }
            }
        }
        cols = w[size_t(r.layers[l].ops.back().out)];
    }
    return c;
}

/**
 * Rows of every layer's output a point query for @p row actually needs
 * (its receptive field through the sampled operators), over the rows a
 * full-graph pass computes.
 */
double
usefulRowRatio(const gcod::SampledExecution &se, int64_t row)
{
    size_t n = se.ops.empty() ? 0 : size_t(se.ops.front().rows());
    if (n == 0)
        return 0.0;
    std::vector<char> need(n, 0);
    need[size_t(row)] = 1;
    size_t needed = 1;
    for (size_t l = se.ops.size(); l-- > 1;) {
        std::vector<char> below = need;
        for (size_t i = 0; i < n; ++i)
            if (need[i])
                se.ops[l].forEachInRow(gcod::NodeId(i),
                                       [&](gcod::NodeId c, float) {
                                           below[size_t(c)] = 1;
                                       });
        need.swap(below);
        needed += size_t(std::count(need.begin(), need.end(), 1));
    }
    return double(needed) / (double(n) * double(se.ops.size()));
}

} // namespace

double
aggregateTrace(const TraceWindow &w, Metrics &m, std::ostream &log)
{
    std::unordered_map<uint64_t, const TraceSpan *> byId;
    std::unordered_map<uint64_t, std::vector<const TraceSpan *>> children;
    // batch.form hangs under the batch's first rider, like the batch.
    std::unordered_map<uint64_t, const TraceSpan *> formByRider;
    for (const TraceSpan &s : w.spans) {
        byId[s.id] = &s;
        if (s.parent != 0)
            children[s.parent].push_back(&s);
        if (s.name == "batch.form")
            formByRider[s.parent] = &s;
    }

    std::vector<double> queueWait, postDispatch, closure;
    std::vector<double> batchSize, batchForm, admission, route, execute,
        cacheGet;
    std::map<std::string, double> routeCount;
    double routes = 0.0, hostExec = 0.0, hostMemo = 0.0;
    for (const TraceSpan &s : w.spans) {
        if (s.name == "batch") {
            if (const std::string *v = attrOf(s, "size"))
                batchSize.push_back(std::stod(*v));
        } else if (s.name == "batch.form") {
            batchForm.push_back(nsToMs(s.durNs));
        } else if (s.name == "admission") {
            admission.push_back(double(s.durNs) * 1e-3);
        } else if (s.name == "route") {
            route.push_back(nsToMs(s.durNs));
            if (const std::string *b = attrOf(s, "backend"))
                routeCount[*b] += 1.0;
            routes += 1.0;
        } else if (s.name == "execute.attempt") {
            execute.push_back(nsToMs(s.durNs));
        } else if (s.name == "artifact.get") {
            cacheGet.push_back(nsToMs(s.durNs));
        } else if (s.name == "host.exec") {
            const std::string *src = attrOf(s, "source");
            hostExec += 1.0;
            hostMemo += src != nullptr && (*src == "memo" || *src == "store")
                            ? 1.0
                            : 0.0;
        } else if (s.name == "request") {
            const std::string *outcome = attrOf(s, "outcome");
            const std::string *bid = attrOf(s, "batch_span");
            if (outcome == nullptr || *outcome != "ok" || bid == nullptr ||
                s.durNs == 0)
                continue;
            auto b = byId.find(std::stoull(*bid));
            if (b == byId.end())
                continue;
            const TraceSpan &batch = *b->second;
            uint64_t end = s.startNs + s.durNs;
            queueWait.push_back(
                batch.startNs > s.startNs
                    ? nsToMs(batch.startNs - s.startNs)
                    : 0.0);
            postDispatch.push_back(
                end > batch.startNs ? nsToMs(end - batch.startNs) : 0.0);
            // Stages of this request: its batch (with every child stage
            // nested inside), the batch's formation, and its own spans.
            std::vector<std::pair<uint64_t, uint64_t>> iv = {
                interval(batch)};
            if (auto f = formByRider.find(batch.parent);
                f != formByRider.end())
                iv.push_back(interval(*f->second));
            for (const TraceSpan *c : children[s.id])
                iv.push_back(interval(*c));
            closure.push_back(double(coveredNs(iv, s.startNs, end)) /
                              double(s.durNs));
        }
    }

    m.add("serve.queue_wait_ms.p50", pct(queueWait, 50), "ms");
    m.add("serve.queue_wait_ms.p99", pct(queueWait, 99), "ms");
    m.add("serve.batch_size.mean", mean(batchSize), "count");
    m.add("serve.batch_form_ms.p50", pct(batchForm, 50), "ms");
    m.add("serve.admission_us.p50", pct(admission, 50), "us");
    m.add("serve.post_dispatch_ms.p50", pct(postDispatch, 50), "ms");
    m.add("serve.post_dispatch_ms.p99", pct(postDispatch, 99), "ms");
    m.add("route.ms.p50", pct(route, 50), "ms");
    m.add("accel.simulate_ms.p50", pct(execute, 50), "ms");
    for (const std::string &b : allBackends())
        m.add("route.share." + metricSafe(b),
              routes > 0.0 ? routeCount[b] / routes : 0.0, "ratio",
              routedByAll(b));
    std::vector<double> simMs;
    for (const Completion &c : w.done)
        if (c.reply.ok())
            simMs.push_back(c.reply.serviceSeconds * 1e3);
    m.add("accel.sim_service_ms.mean", mean(simMs), "ms");
    double lookups = double(w.cacheHits + w.cacheMisses);
    m.add("cache.hit_rate", lookups > 0 ? double(w.cacheHits) / lookups : 0.0,
          "ratio");
    m.add("cache.get_ms.p99", pct(cacheGet, 99), "ms");
    m.add("host_exec.memo_share", hostExec > 0 ? hostMemo / hostExec : 0.0,
          "ratio");

    // Kernel pool: busy time per zone and per thread.
    std::map<std::string, gcod::obs::ZoneStats> folded;
    std::map<int, double> threadSeconds;
    double busy = 0.0;
    uint64_t tasks = 0;
    for (const auto &[zone, z] : w.zones) {
        bool named =
            std::find(kZones.begin(), kZones.end(), zone) != kZones.end();
        gcod::obs::ZoneStats &f = folded[named ? zone : "other"];
        f.tasks += z.tasks;
        f.seconds += z.seconds;
        f.maxTaskSeconds = std::max(f.maxTaskSeconds, z.maxTaskSeconds);
        for (const auto &[t, s] : z.threadSeconds)
            threadSeconds[t] += s;
        busy += z.seconds;
        tasks += z.tasks;
    }
    std::vector<std::string> zones = kZones;
    zones.push_back("other");
    for (const std::string &z : zones) {
        const gcod::obs::ZoneStats &f = folded[z];
        // Kernel time is a note: the memo-warm mix runs no kernels, and
        // a time that reads 0 on every run carries no signal.
        m.add("kernel." + z + ".ms", f.seconds * 1e3, "ms", false);
        m.add("kernel." + z + ".share", busy > 0 ? f.seconds / busy : 0.0,
              "ratio");
        m.add("kernel." + z + ".max_task_ms", f.maxTaskSeconds * 1e3, "ms",
              false);
    }
    double busiest = 0.0;
    for (const auto &ts : threadSeconds)
        busiest = std::max(busiest, ts.second);
    m.add("pool.tasks", double(tasks), "count");
    m.add("pool.busy_share",
          w.wallSeconds > 0
              ? busy / (w.wallSeconds * double(w.poolThreads))
              : 0.0,
          "ratio");
    m.add("pool.thread_imbalance", busy > 0 ? busiest / busy : 0.0, "ratio");

    // Self time per stage: a span's duration minus what its children
    // cover. Stages missing here are time no span explains.
    std::map<std::string, std::pair<size_t, double>> self;
    for (const TraceSpan &s : w.spans) {
        std::vector<std::pair<uint64_t, uint64_t>> iv;
        for (const TraceSpan *c : children[s.id])
            iv.push_back(interval(*c));
        uint64_t end = s.startNs + s.durNs;
        auto &e = self[s.name];
        e.first += 1;
        e.second += nsToMs(s.durNs - coveredNs(iv, s.startNs, end));
    }
    log << "stage self time over the traced window (wall):\n";
    for (const auto &[name, e] : self)
        log << "  " << std::left << std::setw(20) << name << " n="
            << std::setw(8) << e.first << " self_ms=" << e.second << "\n";
    return pct(closure, 50);
}

bool
runProbes(ServingEngine &engine, const Workload &w, uint64_t seed,
          Metrics &m, std::ostream &log)
{
    bool match = true;
    std::vector<int> precisions = {32};
    for (int b : engine.quantBits())
        precisions.push_back(b);

    // nn/quant_exec + tensor: one forward per family x precision on the
    // workload's Cora and Pubmed artifacts, checked against the served
    // logits byte for byte.
    std::map<std::string, std::pair<double, double>> forward;
    log << "forward probes (flops and bytes computed from tensor shapes at "
           "nominal widths):\n";
    for (const auto &[dataset, family] : w.artifacts()) {
        if (std::find(kForwardDatasets.begin(), kForwardDatasets.end(),
                      dataset) == kForwardDatasets.end())
            continue;
        gcod::serve::ArtifactKey key = engine.keyFor(dataset, family);
        auto bundle = engine.cache().peek(key);
        if (bundle == nullptr || !bundle->hasHostExec())
            continue;
        for (int bits : precisions) {
            Matrix out;
            double ms;
            ForwardCost cost;
            double rows = double(bundle->hostFeatures.rows());
            int64_t xCols = bundle->hostFeatures.cols();
            if (bits == 32) {
                ms = probeMs(
                    [&] {
                        return gcod::referenceForward(bundle->hostRecipe,
                                                      bundle->hostFeatures);
                    },
                    &out);
                cost = recipeCost(bundle->hostRecipe, rows, xCols, 4, 4, 4);
            } else {
                const gcod::QuantizedGnn &q = bundle->quantized.at(bits);
                ms = probeMs(
                    [&] {
                        return gcod::quantizedForwardMixed(
                            q, bundle->hostFeatures);
                    },
                    &out);
                cost = recipeCost(q.recipe, rows, xCols,
                                  q.policy.denseBits / 8.0,
                                  q.policy.operatorBits / 8.0,
                                  q.policy.denseBits / 8.0);
            }
            auto served = engine.peekLogits(key, bits);
            bool same = served != nullptr && sameBytes(out, *served);
            match = match && same;
            std::string prec = bits == 32 ? "fp32" : "int" + std::to_string(bits);
            std::string name = "forward." + family + "." + prec + "." + dataset;
            double gflops = cost.flops / (ms * 1e6);
            forward[name] = {ms, gflops};
            log << "  " << std::left << std::setw(34) << name << " "
                << ms << " ms, " << cost.flops * 1e-9 << " GFLOP, "
                << cost.bytes / (1 << 20) << " MiB moved, " << gflops
                << " GFLOP/s, " << cost.bytes / (ms * 1e6) << " GB/s"
                << (same ? "" : "  LOGITS DIFFER FROM SERVED") << "\n";
        }
    }
    for (const std::string &family : allFamilies())
        for (const char *prec : {"fp32", "int8"})
            for (const std::string &dataset : kForwardDatasets) {
                std::string name = "forward." + family + "." + prec + "." +
                                   dataset;
                auto it = forward.find(name);
                bool ledger = servedByAll(dataset, family);
                m.add(name + ".ms",
                      it != forward.end() ? it->second.first : 0.0, "ms",
                      ledger);
                m.add(name + ".gflops",
                      it != forward.end() ? it->second.second : 0.0,
                      "GFLOP/s", ledger);
            }

    // nn/neighbor_sampler: sampled operators for the whole graph, their
    // re-pack, and the full-graph pass a sampled point query runs.
    std::vector<gcod::serve::ArtifactKey> sampledKeys;
    for (const auto &[dataset, family] : w.artifacts()) {
        auto key = engine.keyFor(dataset, family);
        auto bundle = engine.cache().peek(key);
        if (std::find(kForwardDatasets.begin(), kForwardDatasets.end(),
                      dataset) != kForwardDatasets.end() &&
            bundle != nullptr && bundle->hasHostExec() &&
            gcod::supportsSampledExecution(bundle->spec))
            sampledKeys.push_back(key);
    }
    std::vector<double> buildMs, requantMs, fwd32, fwdQ, useful;
    gcod::Rng rng(seed ^ 0x9b0beull);
    for (int i = 0; i < kSamplerProbes && !sampledKeys.empty(); ++i) {
        auto bundle = engine.cache().peek(sampledKeys[size_t(i) %
                                                      sampledKeys.size()]);
        uint64_t sampleSeed = uint64_t(rng.uniformInt(0, 1 << 30));
        int64_t row = rng.uniformInt(0, bundle->hostFeatures.rows() - 1);
        int fanout = w.sampleFanout > 0 ? w.sampleFanout : 10;
        Clock::time_point t0 = Clock::now();
        gcod::SampledExecution se = gcod::buildSampledExecution(
            bundle->hostRecipe, bundle->synth.graph, fanout, sampleSeed);
        buildMs.push_back(msBetween(t0, Clock::now()));
        t0 = Clock::now();
        Matrix ref = gcod::referenceForward(se.recipe, bundle->hostFeatures);
        fwd32.push_back(msBetween(t0, Clock::now()));
        for (int bits : engine.quantBits()) {
            t0 = Clock::now();
            gcod::QuantizedGnn q =
                gcod::quantizeSampled(se, bundle->quantized.at(bits));
            requantMs.push_back(msBetween(t0, Clock::now()));
            t0 = Clock::now();
            Matrix out = gcod::quantizedForwardMixed(q, bundle->hostFeatures);
            fwdQ.push_back(msBetween(t0, Clock::now()));
        }
        useful.push_back(usefulRowRatio(se, row));
    }
    m.add("sampler.build_ms.p50", pct(buildMs, 50), "ms");
    m.add("sampler.requant_ms.p50", pct(requantMs, 50), "ms");
    m.add("sampled.forward_ms.fp32.p50", pct(fwd32, 50), "ms");
    m.add("sampled.forward_ms.int8.p50", pct(fwdQ, 50), "ms");
    m.add("sampled.useful_row_ratio", mean(useful), "ratio");

    // accel: one cost-model simulation per backend over every artifact.
    gcod::serve::BackendRouter &router = engine.router();
    std::map<std::string, double> simMs;
    for (size_t i = 0; i < router.numBackends() && i < w.backends.size();
         ++i) {
        std::vector<double> ms;
        for (const auto &[dataset, family] : w.artifacts()) {
            auto bundle = engine.cache().peek(engine.keyFor(dataset, family));
            if (bundle == nullptr)
                continue;
            const gcod::AcceleratorModel &model = router.model(int(i));
            const gcod::GraphInput &in = router.inputFor(int(i), *bundle);
            Clock::time_point t0 = Clock::now();
            model.simulate(bundle->spec, in);
            ms.push_back(msBetween(t0, Clock::now()));
        }
        simMs[w.backends[i]] = pct(ms, 50);
    }
    for (const std::string &b : allBackends())
        m.add("accel.simulate_ms." + metricSafe(b), simMs[b],
              "ms", routedByAll(b));
    return match;
}

} // namespace servebench
