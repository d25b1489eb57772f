/**
 * @file
 * Seeded neighbor sampling for latency-friendly serving of Mean stacks
 * (GCN, GraphSAGE).
 *
 * Production GNN serving rarely aggregates full neighborhoods: it
 * samples a bounded fanout per node and layer, which caps per-request
 * work on power-law graphs. This module builds *deterministic* sampled
 * mean operators — per (seed, fanout, layer, node), independent of
 * iteration order or thread schedule — so the same request with the
 * same sample seed yields byte-identical logits. The sampled operators
 * are dropped into a clone of the model's op-graph ForwardRecipe (one
 * operator per layer replacing the family's shared operator), which
 * every interpreter (reference, quantized, sharded) then executes
 * unchanged. For GraphSAGE that shared operator is the same row mean
 * the sampler draws from; for GCN it is Â (self loop, symmetric
 * normalization), so a sampled GCN aggregates with a neighbor row mean
 * instead, even in rows the sampler keeps whole.
 *
 * A point query reads one row of those logits, so the row passes below
 * (sampledForwardRow, sampledQuantizedForwardRow) compute only the rows
 * that answer reads and return it memcmp-identical to the same row of
 * the full sampled pass.
 */
#ifndef GCOD_NN_NEIGHBOR_SAMPLER_HPP
#define GCOD_NN_NEIGHBOR_SAMPLER_HPP

#include "graph/graph.hpp"
#include "nn/quant_exec.hpp"

namespace gcod {

/**
 * True when @p spec can serve with sampled neighborhoods: every layer
 * aggregates with a Mean operator (GraphSAGE with or without self
 * concat, plain GCN stacks). Attention/Max/Add families aggregate over
 * the exact neighborhood structure and are not sampled.
 */
bool supportsSampledExecution(const ModelSpec &spec);

/**
 * Mean aggregation operator over a sampled neighborhood: row i averages
 * at most @p fanout neighbors of i, chosen by a partial Fisher-Yates
 * draw from an Rng seeded purely by (seed, fanout, layer, i). Nodes with
 * <= fanout neighbors keep their full neighborhood (weight 1/deg), the
 * same row for every seed and layer; isolated nodes get an all-zero
 * row, matching GraphContext::rowMean.
 */
CsrMatrix sampledMeanOperator(const Graph &g, int fanout, uint64_t seed,
                              int layer);

/**
 * Rows @p rows of sampledMeanOperator(g, fanout, seed, layer), in that
 * order: row k of the result (columns still node ids) is row rows[k] of
 * the full operator, without sampling any other row.
 */
CsrMatrix sampledMeanRows(const Graph &g, int fanout, uint64_t seed,
                          int layer, const std::vector<NodeId> &rows);

/**
 * Value params quantizeSampled gives every sampled operator at @p bits.
 * The largest value is 1 / min(min nonzero degree, fanout), whatever
 * the seed or layer, so one set of params serves every sample.
 */
QuantParams sampledOperatorParams(const Graph &g, int fanout, int bits);

/**
 * A recipe clone wired onto per-layer sampled operators. The operators
 * are owned here and the recipe points into them, so the struct must
 * outlive any forward pass over it; moves are safe (vector storage is
 * stable), copies are not.
 */
struct SampledExecution
{
    /** One sampled mean operator per layer (layer l uses ops[l]). */
    std::vector<CsrMatrix> ops;
    /** The base recipe with every SpMM rewired onto ops[layer]. */
    ForwardRecipe recipe;

    SampledExecution() = default;
    SampledExecution(SampledExecution &&) = default;
    SampledExecution &operator=(SampledExecution &&) = default;
    SampledExecution(const SampledExecution &) = delete;
    SampledExecution &operator=(const SampledExecution &) = delete;
};

/**
 * Clone @p base onto sampled operators for @p g. Fatal when the spec
 * does not support sampled execution (see supportsSampledExecution).
 */
SampledExecution buildSampledExecution(const ForwardRecipe &base,
                                       const Graph &g, int fanout,
                                       uint64_t seed);

/**
 * Requantize @p base's pack for a sampled execution: weight packs and
 * the branch split are reused as-is (global degree statistics do not
 * change per request), only the operator values are re-packed for the
 * sampled CSRs. The returned pack's recipe points into @p se.
 */
QuantizedGnn quantizeSampled(const SampledExecution &se,
                             const QuantizedGnn &base);

/**
 * Row @p target of referenceForward(buildSampledExecution(base, g,
 * fanout, seed).recipe, x), memcmp-identical, from the target's
 * receptive field alone: a RowSetPlan built top-down, where layer l
 * samples only the rows layer l+1 reads (each row plus its sampled
 * neighbors), and forwardRowSet runs each compact level over just those,
 * on serial row kernels (no parallel region). Self rows are gathered
 * only for a layer that reads its input outside the aggregation
 * (GraphSAGE's self concat). @p rows, when non-null, receives the number
 * of rows interpreted over all layers. Returns a 1 x classes matrix.
 */
Matrix sampledForwardRow(const ForwardRecipe &base, const Graph &g,
                         const Matrix &x, int fanout, uint64_t seed,
                         NodeId target, size_t *rows = nullptr);

/**
 * The seed-invariant part of sampled int8 row passes for one (pack,
 * fanout). Quantized SpMM packs its whole input with one scale per
 * branch, so layer 1's scales depend on every layer-0 row; but only the
 * hubs (degree > fanout) have seed-dependent layer-0 rows, so the rest
 * of layer 0 — and its per-branch peaks — is computed once here. Holds
 * pointers into the pack's branch split: it must not outlive the pack.
 */
struct SampledQuantMemo
{
    int fanout = 0;
    /** Sampled-operator value params (sampledOperatorParams). */
    QuantParams opParams;
    /** Layer 0's SpMM input, the features, packed per branch. */
    MixedQuantizedMatrix input;
    /** Sorted nodes whose sampled rows depend on the seed. */
    std::vector<NodeId> hubs;
    /** Layer-0 output of every node; hub rows are placeholders. */
    Matrix layer0;
    /** Per-branch max |v| over the non-hub rows of layer0. */
    float peak[2] = {0.0f, 0.0f};
};

/** Build the memo of @p base's sampled row passes at @p fanout. */
SampledQuantMemo buildSampledQuantMemo(const QuantizedGnn &base,
                                       const Graph &g, const Matrix &x,
                                       int fanout);

/**
 * Row @p target of quantizedForwardMixed(quantizeSampled(
 * buildSampledExecution(base.recipe, g, memo.fanout, seed), base), x),
 * memcmp-identical. Layer 0 computes only the hub rows; middle layers
 * of deeper stacks run over every node (their input scales depend on
 * the seed); the last layer computes the target row alone, its input
 * rows packed at the whole input's per-branch scales. @p memo must come
 * from buildSampledQuantMemo over the same @p base, @p g and @p x.
 * @p rows, when non-null, receives the rows interpreted over all layers.
 */
Matrix sampledQuantizedForwardRow(const QuantizedGnn &base,
                                  const SampledQuantMemo &memo,
                                  const Graph &g, const Matrix &x,
                                  uint64_t seed, NodeId target,
                                  size_t *rows = nullptr);

} // namespace gcod

#endif // GCOD_NN_NEIGHBOR_SAMPLER_HPP
