#include "shard/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "sim/logging.hpp"
#include "sim/parallel.hpp"

namespace gcod::shard {

namespace {

/**
 * The shard's square cost matrix: owned rows carry their adjacency
 * entries (columns in the local node space), halo rows are empty. The
 * chip computes combination only for rows it owns, but its aggregation
 * reads every local column — exactly this matrix's shape, so nnz equals
 * the shard's real aggregation work (cut entries included, mirrors
 * excluded).
 */
CsrMatrix
localCostMatrix(const Graph &g, const Shard &sh)
{
    CsrMatrix rect =
        extractLocalOperator(g.adjacency(), sh, g.numNodes());
    std::vector<EdgeOffset> indptr = rect.indptr();
    indptr.resize(size_t(sh.localCount()) + 1, indptr.back());
    return CsrMatrix(sh.localCount(), sh.localCount(), std::move(indptr),
                     rect.indices(), rect.values());
}

} // namespace

std::vector<ShardExecution>
buildShardExecutions(const Graph &g, const ShardPlan &plan,
                     const ReorderOptions &reorder)
{
    std::vector<ShardExecution> units(size_t(plan.numShards));
    parallelFor(
        0, plan.numShards,
        [&](const Range &r, size_t) {
            for (int64_t s = r.begin; s < r.end; ++s) {
                const Shard &sh = plan.shards[size_t(s)];
                if (sh.owned.empty())
                    continue;
                ShardExecution &u = units[size_t(s)];
                // The symmetric local graph drives the per-shard GCoD
                // Step-1 layout; tile nnz then comes from the cost
                // matrix so only real (owned-row) work is counted.
                u.local = localShardGraph(g, sh);
                u.layout = reorderGraph(u.local, reorder);
                CsrMatrix cost =
                    localCostMatrix(g, sh).permuted(u.layout.perm);
                u.workload = workloadOf(u.layout, cost);
                // Combination runs on owned rows only; halo columns are
                // aggregation operands delivered by the exchange.
                u.workload.numNodes = sh.ownedCount();
                u.raw = makeGraphInput(extractLocalOperator(
                    g.adjacency(), sh, g.numNodes()));
                u.gcod = makeGraphInput(cost, u.workload);
            }
        },
        1);
    return units;
}

ShardScheduler::ShardScheduler(Options opts) : opts_(std::move(opts))
{
    GCOD_ASSERT(!opts_.chips.empty(), "scheduler needs >= 1 chip");
    fleetName_ = "shard[";
    wireBits_ = 0;
    for (size_t i = 0; i < opts_.chips.size(); ++i) {
        Chip chip;
        chip.name = opts_.chips[i];
        chip.descriptor = &platformDescriptor(chip.name);
        chip.model = makeAccelerator(chip.name);
        wireBits_ = std::max(wireBits_, chip.model->config().dataBits);
        chips_.push_back(std::move(chip));
        fleetName_ += (i ? "," : "") + opts_.chips[i];
    }
    fleetName_ += "]";
    if (wireBits_ <= 0)
        wireBits_ = 32;
    // Halos travel at the fleet's wire precision: the widest consumer
    // fixes the scalar coding, so an all-8-bit fleet moves 1-byte
    // activations instead of fp32 ones.
    if (opts_.deriveWirePrecision)
        opts_.halo.bytesPerScalar = double(wireBits_) / 8.0;
}

ShardScheduleResult
ShardScheduler::schedule(const ShardPlan &plan,
                         const std::vector<ShardExecution> &units,
                         const ModelSpec &spec,
                         double feature_density) const
{
    GCOD_ASSERT(units.size() == size_t(plan.numShards),
                "one execution unit per shard expected");
    int k = plan.numShards;
    int c = numChips();

    // Per-(shard, chip) latency from the chip's own simulator, against
    // the input family its descriptor declares. Simulations are
    // independent; fan them out on the kernel pool.
    std::vector<double> cost(size_t(k) * size_t(c), 0.0);
    parallelFor(
        0, int64_t(k) * int64_t(c),
        [&](const Range &r, size_t) {
            for (int64_t i = r.begin; i < r.end; ++i) {
                int s = int(i / c);
                int ch = int(i % c);
                const ShardExecution &u = units[size_t(s)];
                if (u.local.numNodes() == 0)
                    continue;
                GraphInput in = chips_[size_t(ch)].descriptor
                                        ->consumesWorkload
                                    ? u.gcod
                                    : u.raw;
                in.featureDensity = feature_density;
                in.publishedNodes = 0; // real execution, no extrapolation
                cost[size_t(i)] = chips_[size_t(ch)]
                                      .model->simulate(spec, in)
                                      .latencySeconds;
            }
        },
        1);

    // LPT in simulated time: biggest shard first (by its cheapest-chip
    // cost), each placed on the chip that finishes it earliest.
    std::vector<int> order(static_cast<size_t>(k));
    std::iota(order.begin(), order.end(), 0);
    auto min_cost = [&](int s) {
        double best = std::numeric_limits<double>::max();
        for (int ch = 0; ch < c; ++ch)
            best = std::min(best, cost[size_t(s) * size_t(c) + size_t(ch)]);
        return best;
    };
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return min_cost(a) > min_cost(b);
    });

    ShardScheduleResult res;
    res.chipOf.assign(size_t(k), 0);
    res.shardSeconds.assign(size_t(k), 0.0);
    res.chipSeconds.assign(size_t(c), 0.0);
    for (int s : order) {
        int best = 0;
        double best_finish = std::numeric_limits<double>::max();
        for (int ch = 0; ch < c; ++ch) {
            double finish = res.chipSeconds[size_t(ch)] +
                            cost[size_t(s) * size_t(c) + size_t(ch)];
            if (finish < best_finish) {
                best_finish = finish;
                best = ch;
            }
        }
        res.chipOf[size_t(s)] = best;
        res.shardSeconds[size_t(s)] =
            cost[size_t(s) * size_t(c) + size_t(best)];
        res.chipSeconds[size_t(best)] = best_finish;
    }
    res.makespanSeconds =
        *std::max_element(res.chipSeconds.begin(), res.chipSeconds.end());
    res.exchange = forwardExchangeCost(plan, spec, opts_.halo);
    res.latencySeconds = res.makespanSeconds + res.exchange.seconds;
    return res;
}

std::vector<std::string>
parseFleetSpec(const std::string &spec)
{
    std::vector<std::string> chips;
    size_t pos = 0;
    while (pos <= spec.size()) {
        size_t next = spec.find(';', pos);
        if (next == std::string::npos)
            next = spec.size();
        std::string entry = spec.substr(pos, next - pos);
        pos = next + 1;
        if (entry.empty())
            continue;
        int count = 1;
        std::string name = entry;
        size_t x = entry.find('x');
        if (x != std::string::npos && x > 0 &&
            entry.find_first_not_of("0123456789") == x) {
            // Same 256-chip ceiling as the kernel pool's setThreads
            // clamp: enough for any simulated fleet, and it keeps a
            // typo from constructing a million accelerator models.
            constexpr int kMaxChips = 256;
            name = entry.substr(x + 1);
            try {
                count = std::stoi(entry.substr(0, x));
            } catch (const std::out_of_range &) {
                count = kMaxChips + 1;
            }
            if (count < 1 || count > kMaxChips || name.empty())
                GCOD_FATAL("malformed fleet entry '", entry,
                           "'; expected <count>x<platform spec> with "
                           "count in [1, ", kMaxChips, "]");
        }
        platformDescriptor(name); // fatal with lineup when unknown
        chips.insert(chips.end(), size_t(count), name);
    }
    if (chips.empty())
        GCOD_FATAL("fleet spec '", spec, "' names no chips");
    return chips;
}

std::shared_ptr<const ShardedArtifact>
buildShardedArtifact(const Graph &g, int shards,
                     const ReorderOptions &reorder, uint64_t seed)
{
    auto art = std::make_shared<ShardedArtifact>();
    ShardPlanOptions popts;
    popts.shards = shards;
    popts.partition.seed = seed;
    art->plan = buildShardPlan(g, popts);
    art->units = buildShardExecutions(g, art->plan, reorder);
    return art;
}

} // namespace gcod::shard
