/**
 * @file
 * Sharded forward execution: the host-side numerics of the multi-chip
 * runtime, bit-identical to single-chip execution at both precisions.
 *
 * The executor interprets the model's op-graph ForwardRecipe
 * (nn/quant_exec.hpp) op by op, through the same per-op step as the
 * compact row-set passes (runRowSetOp). Each shard is a RowSetLevel: its
 * owned rows and their rows of the global aggregation operator, whose
 * columns stay node ids into the global layer input (the halo is read
 * in place). For each op the shards run in parallel, one per pool range:
 * an aggregation reads the global layer input — or, for GAT, the global
 * staging matrix every shard scattered its projection rows into — and
 * every other op reads the shard's compact slots; each layer output is
 * scattered into the next layer's global input. At int8 the SpMM input
 * is packed once over the whole matrix (the branch codes and scales the
 * monolithic pass uses: the halo payload), each shard aggregating with
 * its operator rows' codes, and a GEMM codes the shard's own rows with
 * their per-row scales, the codes the whole matrix has. Because every
 * row kernel keeps its batch kernel's per-element order (fp32) or sums
 * exact integers (int8), each owned output row is bit-identical to the
 * monolithic pass's, for any shard count, any chip mix, and any thread
 * count.
 *
 * Operator slices in the shard's local index space (plan.hpp's
 * extractLocalOperator) serve only the cost model (scheduler.hpp).
 *
 * Supported families: everything forwardRecipeFor lowers — GCN,
 * GraphSAGE (full-mean or sampled operators), GIN, GAT, ResGCN.
 */
#ifndef GCOD_SHARD_EXECUTOR_HPP
#define GCOD_SHARD_EXECUTOR_HPP

#include "fault/fault.hpp"
#include "nn/quant_exec.hpp"
#include "obs/trace.hpp"
#include "shard/plan.hpp"

namespace gcod::shard {

/**
 * Fault-recovery accounting of one sharded forward pass. Under an
 * injected halo drop (fault::FaultKind::HaloDrop), the affected shard's
 * aggregation attempt is discarded and re-executed against the
 * re-fetched halo on a healthy pool worker. Every output row is a pure
 * function of the global staging slots and re-execution overwrites
 * (never accumulates into) the shard's owned rows, so the recovered
 * stitch is bit-identical to the fault-free pass; recovery costs work,
 * never correctness.
 */
struct ShardExecStats
{
    /** Halo payloads dropped/corrupted by injection. */
    uint64_t haloDrops = 0;
    /** Shard-layer computations re-executed to recover. */
    uint64_t reexecutions = 0;
};

/**
 * Run one sharded forward pass of @p m; returns logits for every global
 * node. @p q selects the precision: null runs fp32 (memcmp-identical to
 * referenceForward), a pack runs its mixed-precision integer numerics
 * (memcmp-identical to quantizedForwardMixed; q->recipe must be @p m's
 * op graph). Shards execute concurrently on the shared kernel pool, one
 * shard per range, mirroring one chip per shard; a shard that owns no
 * rows does no work, emits no span and consults no fault.
 *
 * @p faults (optional) injects halo-exchange drops: each aggregation of
 * shard s at layer l consults the plan at site "halo.fp32" or
 * "halo.quant" and deterministic index l * numShards + s, so the
 * injected set is identical at any thread count. Dropped shards
 * re-execute (see ShardExecStats); @p fault_stats, when non-null,
 * reports the recovery counts.
 *
 * @p trace (optional) records, at obs::kTraceKernels under
 * trace->parent, one "shard.compute" span per shard per aggregation,
 * one "shard.transform" per shard per GEMM, and at int8 one
 * "halo.exchange" per SpMM pack (the packed branch codes are the wire
 * payload). Tracing reads timestamps and copies labels only — the
 * stitched logits stay byte-identical with tracing on or off.
 */
Matrix shardedForward(const ShardPlan &plan, const ForwardRecipe &m,
                      const Matrix &x, const QuantizedGnn *q = nullptr,
                      fault::FaultPlan *faults = nullptr,
                      ShardExecStats *fault_stats = nullptr,
                      const obs::TraceCtx *trace = nullptr);

} // namespace gcod::shard

#endif // GCOD_SHARD_EXECUTOR_HPP
