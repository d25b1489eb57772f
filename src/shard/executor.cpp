#include "shard/executor.hpp"

#include <atomic>
#include <cstring>

#include "sim/logging.hpp"
#include "sim/parallel.hpp"

namespace gcod::shard {

Matrix
shardedForward(const ShardPlan &plan, const ForwardRecipe &m, const Matrix &x,
               const QuantizedGnn *q, fault::FaultPlan *faults,
               ShardExecStats *fault_stats, const obs::TraceCtx *trace)
{
    GCOD_ASSERT(!m.operators.empty() &&
                    int64_t(m.operators[0]->rows()) == x.rows() &&
                    x.rows() == int64_t(plan.numNodes),
                "activation rows must match the plan graph and the recipe");
    GCOD_ASSERT(q == nullptr || q->recipe.layers.size() == m.layers.size(),
                "quantization pack must execute the recipe's op graph");

    obs::TraceRecorder *rec =
        trace != nullptr && trace->enabled(obs::kTraceKernels)
            ? trace->rec
            : nullptr;
    uint64_t trace_parent = trace != nullptr ? trace->parent : 0;
    const size_t K = size_t(plan.numShards);
    // Each shard is a compact level per aggregation operator: its owned
    // rows and their operator rows, columns staying node ids into the
    // global input; at int8 also those rows' SpMM codes.
    std::vector<std::vector<RowSetLevel>> levels(m.operators.size());
    std::vector<std::vector<QuantizedCsr>> codes(m.operators.size());
    for (const LayerGraph &g : m.layers) {
        GCOD_ASSERT(g.aggOp() >= 0, "a sharded layer needs an aggregation");
        const size_t o = size_t(g.ops[size_t(g.aggOp())].opIndex);
        if (!levels[o].empty())
            continue;
        levels[o].resize(K);
        for (size_t s = 0; s < K; ++s) {
            levels[o][s].rows = plan.shards[s].owned;
            levels[o][s].op = operatorRows(*m.operators[o], levels[o][s].rows);
        }
        if (q != nullptr && q->qops[o].pattern != nullptr)
            for (const RowSetLevel &lv : levels[o])
                codes[o].push_back(quantizeCsr(lv.op, q->qops[o].qp));
    }

    std::atomic<uint64_t> drops{0};
    const Matrix *in = &x;
    Matrix cur;
    for (size_t l = 0; l < m.layers.size(); ++l) {
        const LayerGraph &g = m.layers[l];
        const int aggIdx = g.aggOp();
        const OpStep &aggStep = g.ops[size_t(aggIdx)];
        const std::vector<RowSetLevel> &lv = levels[size_t(aggStep.opIndex)];
        const std::vector<QuantizedCsr> &lvCodes =
            codes[size_t(aggStep.opIndex)];
        const std::vector<int64_t> widths = layerSlotWidths(m, l, in->cols());
        // GAT's projection is made inside the layer and aggregated over
        // halo rows: each shard stages its rows of it globally.
        Matrix aggIn;
        if (aggStep.in != 0)
            aggIn = Matrix(x.rows(), widths[size_t(aggStep.in)]);
        Matrix next(x.rows(), widths[size_t(g.ops.back().out)]);
        std::vector<std::vector<Matrix>> slots(K);
        for (size_t i = 0; i < g.ops.size(); ++i) {
            const OpStep &op = g.ops[i];
            const bool agg = int(i) == aggIdx;
            OpPack wire;
            if (agg && op.kind == OpKind::SpMM) {
                // Global packing first: every shard codes its halo
                // inputs exactly as the monolithic pass would. At int8
                // the packed branch codes are what crosses chips, so the
                // SpMM pack IS the halo-exchange payload preparation.
                obs::ScopedSpan xspan(q != nullptr ? rec : nullptr,
                                      obs::kTraceKernels, "halo.exchange",
                                      "shard", trace_parent);
                if (xspan.active())
                    xspan.attr("layer", int64_t(l))
                        .attr("nodes", in->rows())
                        .attr("dense_bits", q->policy.denseBits)
                        .attr("sparse_bits", q->policy.sparseBits);
                packOp(q, op, aggStep.in == 0 ? *in : aggIn, wire);
            }
            const bool traced = agg || op.kind == OpKind::GEMM;
            // One shard per pool range = one chip per shard; its kernels
            // run serially inside it, so shards progress concurrently
            // without perturbing any accumulation order.
            parallelFor(
                0, int64_t(K),
                [&](const Range &rg, size_t) {
                    for (int64_t s = rg.begin; s < rg.end; ++s) {
                        const Shard &sh = plan.shards[size_t(s)];
                        if (sh.owned.empty())
                            continue;
                        obs::ScopedSpan span(
                            traced ? rec : nullptr, obs::kTraceKernels,
                            agg ? "shard.compute" : "shard.transform",
                            "shard", trace_parent);
                        if (span.active()) {
                            span.attr("layer", int64_t(l)).attr("shard", s);
                            if (agg)
                                span.attr("owned", int64_t(sh.ownedCount()))
                                    .attr("halo", int64_t(sh.haloCount()));
                        }
                        const OpPack pack(
                            lvCodes.empty() ? nullptr : &lvCodes[size_t(s)],
                            wire.x);
                        auto run = [&] {
                            runRowSetOp(m, q, l, i, lv[size_t(s)], *in, &pack,
                                        aggStep.in != 0 ? &aggIn : nullptr,
                                        slots[size_t(s)]);
                        };
                        // Injected halo drop: the exchange delivered this
                        // shard's halo corrupted, keyed by (layer, shard)
                        // so the set is thread-schedule independent. The
                        // attempt is discarded and re-executed; it
                        // overwrites the shard's slots, so re-execution is
                        // idempotent and the stitch stays bit-identical.
                        if (agg && faults != nullptr &&
                            faults->checkIndexed(
                                fault::FaultKind::HaloDrop,
                                q != nullptr ? "halo.quant" : "halo.fp32",
                                uint64_t(l) * uint64_t(K) + uint64_t(s))) {
                            run();
                            drops.fetch_add(1);
                        }
                        run();
                        if (i + 1 < g.ops.size())
                            continue;
                        const Matrix &out =
                            slots[size_t(s)][size_t(op.out)];
                        for (size_t k = 0; k < sh.owned.size(); ++k)
                            std::memcpy(next.row(sh.owned[k]),
                                        out.row(int64_t(k)),
                                        size_t(out.cols()) * sizeof(float));
                    }
                },
                1);
        }
        cur = std::move(next);
        in = &cur;
    }
    if (fault_stats != nullptr) {
        fault_stats->haloDrops += drops.load();
        fault_stats->reexecutions += drops.load();
    }
    return cur;
}

} // namespace gcod::shard
