#include "shard/executor.hpp"

#include <atomic>

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
    std::atomic<uint64_t> drops{0};
    Matrix cur = x;
    for (size_t l = 0; l < m.layers.size(); ++l) {
        const LayerGraph &g = m.layers[l];
        std::vector<int64_t> widths = layerSlotWidths(m, l, cur.cols());
        std::vector<Matrix> slots(size_t(g.numSlots));
        auto at = [&](int sl) -> const Matrix & {
            return sl == 0 ? cur : slots[size_t(sl)];
        };
        for (const OpStep &op : g.ops) {
            const Matrix &in = at(op.in);
            const Matrix *aux = op.aux >= 0 ? &at(op.aux) : nullptr;
            Matrix &out = slots[size_t(op.out)];
            const bool agg = isAggregation(op.kind);
            if (!agg && op.kind != OpKind::GEMM) {
                // Row-local ops are row-pure: the whole slot at once is
                // every shard's stitch.
                runOp(m, q, op, in, aux, OpPack(), nullptr, out);
                continue;
            }
            OpPack pack;
            {
                // Global packing first: every shard codes its halo
                // inputs exactly as the monolithic pass would. At int8
                // the packed branch codes are what crosses chips, so the
                // SpMM pack IS the halo-exchange payload preparation.
                const bool wire = q != nullptr && op.kind == OpKind::SpMM;
                obs::ScopedSpan xspan(wire ? rec : nullptr,
                                      obs::kTraceKernels, "halo.exchange",
                                      "shard", trace_parent);
                if (xspan.active())
                    xspan.attr("layer", int64_t(l))
                        .attr("nodes", in.rows())
                        .attr("dense_bits", q->policy.denseBits)
                        .attr("sparse_bits", q->policy.sparseBits);
                packOp(q, op, in, pack);
            }
            out = Matrix(int64_t(plan.numNodes), widths[size_t(op.out)],
                         0.0f);
            // One shard per pool range = one chip per shard; the row
            // kernels run serially inside it, so shards progress
            // concurrently without perturbing any accumulation order.
            parallelFor(
                0, plan.numShards,
                [&](const Range &rg, size_t) {
                    for (int64_t s = rg.begin; s < rg.end; ++s) {
                        const Shard &sh = plan.shards[size_t(s)];
                        if (sh.owned.empty())
                            continue;
                        obs::ScopedSpan span(
                            rec, obs::kTraceKernels,
                            agg ? "shard.compute" : "shard.transform",
                            "shard", trace_parent);
                        if (span.active()) {
                            span.attr("layer", int64_t(l)).attr("shard", s);
                            if (agg)
                                span.attr("owned", int64_t(sh.ownedCount()))
                                    .attr("halo", int64_t(sh.haloCount()));
                        }
                        // Injected halo drop: the exchange delivered this
                        // shard's halo corrupted, keyed by (layer, shard)
                        // so the set is thread-schedule independent. The
                        // attempt is discarded and re-executed; the row
                        // kernels overwrite the owned rows, so
                        // re-execution is idempotent and the stitch stays
                        // bit-identical.
                        if (agg && faults != nullptr &&
                            faults->checkIndexed(
                                fault::FaultKind::HaloDrop,
                                q != nullptr ? "halo.quant" : "halo.fp32",
                                uint64_t(l) * uint64_t(plan.numShards) +
                                    uint64_t(s))) {
                            runOp(m, q, op, in, aux, pack, &sh.owned, out);
                            drops.fetch_add(1);
                        }
                        runOp(m, q, op, in, aux, pack, &sh.owned, out);
                    }
                },
                1);
        }
        cur = std::move(slots[size_t(g.ops.back().out)]);
    }
    if (fault_stats != nullptr) {
        fault_stats->haloDrops += drops.load();
        fault_stats->reexecutions += drops.load();
    }
    return cur;
}

} // namespace gcod::shard
