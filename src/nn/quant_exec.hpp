/**
 * @file
 * Op-graph GNN execution: one typed per-layer op graph, many interpreters.
 *
 * forwardRecipeFor() lowers each model family into a ForwardRecipe — per
 * layer, a short sequence of typed ops (SpMM, GEMM, AttentionScore,
 * Residual, ConcatSelf, MaxAgg, Activation, Readout) over explicit
 * tensor slots. Every fast path is then an *interpreter* of that graph
 * instead of a bespoke plain-Mean loop.
 *
 * Whole-matrix interpreters run every op through one executor, runOp(),
 * at the precision of the pack they hold: a `const QuantizedGnn *` that
 * is null for fp32. packOp() codes an op's input once, globally, before
 * its rows are split; runOp() then runs the batch kernels over all rows
 * or the serial row kernels over a row set.
 *
 *  - referenceForward(): stateless fp32 pass — what evaluation, serving
 *    and the quantization baseline read;
 *  - tapedForward(): the same pass, keeping every slot for training's
 *    backward (nn/backward.hpp, one rule per OpKind);
 *  - quantizeGnn() / quantizedForwardMixed(): the GCoD mixed-precision
 *    integer path (low-bit dense branch, degree-protected tail);
 *  - shard/executor.hpp: each op over every shard's owned rows into the
 *    global staging slot, bit-identical at any shard count.
 *
 * The fp32 row worker (runRowOps / layerRowInto) chains one row through
 * a layer instead:
 *
 *  - dyn/incremental_forward.hpp: per-op dirty-row recompute;
 *  - nn/neighbor_sampler.hpp: sampled point queries over the rows one
 *    node's answer reads.
 *
 * Supported families: GCN (plain Mean), GraphSAGE (Mean + self concat,
 * full or neighbor-sampled operators), GIN (Add + eps-residual + 2-layer
 * MLP), GAT (multi-head additive attention), ResGCN (Max aggregation +
 * residual blocks).
 *
 * Precision placement in the quantized interpreter follows GCoD's
 * polarized split: SpMM and GEMM ops run on packed integer operands
 * (dense low-bit branch, protected high-degree tail at higher bits);
 * attention scoring, Max aggregation, residual adds and activations run
 * in fp32 over the (already quantization-rounded) intermediate slots,
 * with attention vectors dequantized from their higher-width pack — the
 * attention accuracy cliff at low bits comes from the quantized
 * projection h = X W and the quantized attention vectors.
 *
 * Determinism: every interpreter computes each output row as a pure
 * function of its input rows, with a fixed per-element accumulation
 * order, so logits are bit-identical for any thread count; the sharded
 * and incremental interpreters reuse the same per-row math (and global
 * quantization scales) to extend that to any shard count and any delta
 * batching.
 */
#ifndef GCOD_NN_QUANT_EXEC_HPP
#define GCOD_NN_QUANT_EXEC_HPP

#include "nn/graph_context.hpp"
#include "nn/models.hpp"
#include "tensor/qops.hpp"

namespace gcod {

/** Precision placement knobs (defaults mirror GCoD (8-bit) + protection). */
struct MixedPrecisionPolicy
{
    /** Bits of the polarized dense branch (community nodes). */
    int denseBits = 8;
    /** Bits of the protected sparse branch (high-degree tail). */
    int sparseBits = 16;
    /** Bits of the aggregation operator's values. */
    int operatorBits = 16;
    /** Fraction of highest-degree nodes kept in the sparse branch. */
    double protectRatio = 0.1;
};

/** Typed ops of the per-layer execution graph. */
enum class OpKind : uint8_t {
    /** out = operators[opIndex] · in (sparse aggregation). */
    SpMM,
    /** out = in · weights[weight] (dense combination). */
    GEMM,
    /**
     * GAT attention aggregation over per-head projections @p in
     * (N x heads*headDim): additive scores from weights[aSrc]/[aDst],
     * LeakyReLU(0.2) + per-row softmax over operators[opIndex]'s entries
     * plus a trailing self loop, heads concatenated (concatHeads) or
     * averaged.
     */
    AttentionScore,
    /** out = in + scale * slot[aux] (residual stream). */
    Residual,
    /** out = [slot[aux] | in] (GraphSAGE self concat). */
    ConcatSelf,
    /** out[i] = elementwise max over {i} ∪ N(i) rows of in (ResGCN). */
    MaxAgg,
    /** out = act(in). */
    Activation,
    /** Identity marker: the final logits of the model. */
    Readout,
};

/** Activation functions an Activation op can apply. */
enum class ActKind : uint8_t { Relu, Elu };

const char *opKindName(OpKind k);

/** True for ops that read neighbor rows (SpMM/AttentionScore/MaxAgg). */
bool isAggregation(OpKind k);

/**
 * One op of a layer graph. Slot 0 is the layer input; each op writes a
 * fresh slot, and the last op's output slot is the layer output (which
 * becomes slot 0 of the next layer).
 */
struct OpStep
{
    OpKind kind = OpKind::Readout;
    /** Input slot. */
    int in = 0;
    /** Second input slot (Residual addend / ConcatSelf self); -1 unused. */
    int aux = -1;
    /** Output slot. */
    int out = 0;
    /** Index into ForwardRecipe::operators (SpMM/MaxAgg/AttentionScore). */
    int opIndex = -1;
    /** Index into ForwardRecipe::weights (GEMM). */
    int weight = -1;
    /** Attention vector weight indices (AttentionScore). */
    int aSrc = -1;
    int aDst = -1;
    /** Attention heads and per-head output width (AttentionScore). */
    int heads = 1;
    int headDim = 0;
    /** True: concatenate heads; false: average them (AttentionScore). */
    bool concatHeads = false;
    /** Activation function (Activation). */
    ActKind act = ActKind::Relu;
    /** Residual scale: out = in + scale * aux (GIN's 1+eps). */
    float scale = 1.0f;
};

/** The op graph of one layer. */
struct LayerGraph
{
    std::vector<OpStep> ops;
    /** Slot count including slot 0 (the layer input). */
    int numSlots = 1;

    /** Index into ops of the single aggregation op; -1 when none. */
    int aggOp() const;
};

/**
 * Stateless execution recipe: the per-layer op graphs plus every tensor
 * they reference, with no mutable caches — safe to run concurrently.
 * Pointees (spec, operators, weights) must outlive the recipe; they
 * normally belong to a GnnModel + GraphContext pair. `weights` is
 * exactly model.parameters() order (the store's Weights section depends
 * on that).
 */
struct ForwardRecipe
{
    const ModelSpec *spec = nullptr;
    /** Sparse aggregation operators the graphs index (opIndex). */
    std::vector<const CsrMatrix *> operators;
    /** Weight tensors the graphs index (weight/aSrc/aDst). */
    std::vector<const Matrix *> weights;
    /** One op graph per spec layer. */
    std::vector<LayerGraph> layers;
};

/** True when @p spec is a plain-Mean stack (GCN / unsampled GraphSAGE). */
bool supportsPlainMeanForward(const ModelSpec &spec);

/** True when @p spec lowers to an op-graph recipe (the whole zoo). */
bool supportsRecipeForward(const ModelSpec &spec);

/** Human-readable list of the families forwardRecipeFor accepts. */
const char *supportedRecipeFamilies();

/**
 * Shapes of the weights @p spec's recipe indexes, in recipe (and
 * GnnModel::parameters()) order — the one place a family's parameter
 * layout is spelled:
 *
 *  - Mean: W (in x out); with concatSelf (GraphSAGE) W is (2in x out);
 *  - Add (GIN): the MLP W1 (in x hidden), W2 (hidden x out), with
 *    hidden the first layer's width;
 *  - Attention (GAT): W (in x heads*out), then aSrc and aDst
 *    (heads x out);
 *  - Max (ResGCN): W (in x out).
 *
 * Fatal for a spec forwardRecipeFor does not lower.
 */
std::vector<std::pair<int64_t, int64_t>>
recipeWeightShapes(const ModelSpec &spec);

/**
 * Lower a trainable model into its op-graph recipe, driven by the
 * ModelSpec (aggregation kinds, heads, concatSelf), not name matching.
 * Fatal for unsupported families, naming the family and listing the
 * supported ones.
 */
ForwardRecipe forwardRecipeFor(const GnnModel &model,
                               const GraphContext &ctx);

/**
 * @p base with layer l's SpMM rewired onto ops[l] (one operator per
 * layer; @p ops must outlive the result). GraphSAGE's per-epoch
 * training sample and the sampled serving pass both swap operators
 * this way.
 */
ForwardRecipe onLayerOperators(const ForwardRecipe &base,
                               const std::vector<CsrMatrix> &ops);

/**
 * GraphSAGE's training sample: each node's row mean over at most @p k
 * neighbors, drawn without replacement by shuffling its neighbor list
 * with @p rng (node order). Isolated nodes get an empty row.
 */
CsrMatrix sampleMeanOperator(const Graph &g, int k, Rng &rng);

/** One stateless fp32 forward pass of @p m (the quantization baseline). */
Matrix referenceForward(const ForwardRecipe &m, const Matrix &x);

/**
 * Every slot of one fp32 forward pass, for backpropagation. slots[l][s]
 * is slot s of layer l; slot 0 is kept only by reference: it is the
 * previous layer's output, or `input` for layer 0.
 */
struct ForwardTape
{
    const Matrix *input = nullptr;
    std::vector<std::vector<Matrix>> slots;

    /** Slot @p s of layer @p l of @p m, resolving slot 0. */
    const Matrix &at(const ForwardRecipe &m, size_t l, int s) const;
};

/**
 * referenceForward that records @p tape (which then points at @p x and
 * must not outlive it). Same kernels, same bytes: the logits equal
 * referenceForward(m, x).
 */
Matrix tapedForward(const ForwardRecipe &m, const Matrix &x,
                    ForwardTape &tape);

/**
 * Interpret one layer of @p m in fp32 over the full node set.
 * @p agg_input, when non-null, receives the aggregation op's input slot
 * if that slot is produced inside the layer (GAT's h = X W); it is left
 * empty when the aggregation reads the layer input directly. Used by the
 * incremental path to cache per-layer aggregation inputs.
 */
Matrix referenceForwardLayer(const ForwardRecipe &m, size_t layer,
                             const Matrix &input,
                             Matrix *agg_input = nullptr);

/**
 * Column width of every slot of @p layer, given the layer input width
 * (slot 0). Interpreters allocate staging matrices from this — LayerSpec
 * outDim is the per-head width for multi-head GAT layers, so it must not
 * be used for allocation.
 */
std::vector<int64_t> layerSlotWidths(const ForwardRecipe &m, size_t layer,
                                     int64_t input_cols);

/**
 * fp32 evaluation of one row-local op (Residual / ConcatSelf /
 * Activation / Readout) over whole matrices. Shared by every interpreter
 * so their float sequences match; row-pure, so it may be applied to any
 * row subset (e.g. a shard's owned rows) with identical bits.
 */
Matrix evalRowLocalOp(const OpStep &op, const Matrix &in, const Matrix *aux);

// ---------------------------------------------------------------------
// Shared per-row op workers. Every interpreter (reference, sharded,
// incremental) funnels through these, with one fixed per-element order
// per op — the basis of the bit-identical-stitch invariants.
// ---------------------------------------------------------------------

/**
 * Row @p r's attention weights: its edges (@p adj's row entries in
 * order, then a self loop) into @p cols, and per edge e and head k the
 * pre-LeakyReLU score s_r + t_j into pre[e*heads+k] and the softmax
 * weight into alpha[e*heads+k]. Each array holds rowNnz(r)+1 edges.
 * attentionRowInto and the AttentionScore backward both read these.
 */
void attentionWeightsInto(const CsrMatrix &adj, const Matrix &h,
                          const Matrix &a_src, const Matrix &a_dst,
                          int heads, int head_dim, NodeId r, NodeId *cols,
                          float *pre, float *alpha);

/**
 * Row @p r of the GAT attention aggregation: additive scores over
 * @p adj's row entries plus a trailing self loop, LeakyReLU(0.2),
 * numerically-stable softmax, then per-edge aggregation of @p h.
 * Row/column indices of @p adj index rows of @p h; @p out_row must hold
 * concat ? heads*head_dim : head_dim floats.
 */
void attentionRowInto(const CsrMatrix &adj, const Matrix &h,
                      const Matrix &a_src, const Matrix &a_dst, int heads,
                      int head_dim, bool concat_heads, NodeId r,
                      float *out_row);

/** Row @p r of the Max aggregation: elementwise max over {r} ∪ N(r). */
void maxAggRowInto(const CsrMatrix &adj, const Matrix &x, NodeId r,
                   float *out_row);

/**
 * Whole-matrix wrappers over the per-row workers (row-parallel; each
 * output row is pure, so results are thread-count invariant).
 */
Matrix attentionForward(const CsrMatrix &adj, const Matrix &h,
                        const Matrix &a_src, const Matrix &a_dst, int heads,
                        int head_dim, bool concat_heads);
Matrix maxAggregate(const CsrMatrix &adj, const Matrix &x);

/** Per-slot row buffers of one layer for the fp32 row worker. */
using RowSlots = std::vector<std::vector<float>>;

/**
 * The fp32 row worker: run ops [begin, end) of @p layer for one row,
 * chaining through @p buf (one buffer per slot, reused across rows).
 * Slot 0 reads @p input_row, the row's layer input; every other slot
 * must have been filled by an earlier op or by the caller. Each op
 * keeps its batch kernel's per-element order, so the row is
 * bit-identical to the same row of referenceForwardLayer:
 *
 *  - GEMM: matmulRowInto, the row kernel matmul itself runs;
 *  - Residual / ConcatSelf / Activation / Readout: evalRowLocalOp's
 *    two-pass and per-element loops.
 *
 * Aggregation ops go through layerRowInto. The incremental pass
 * (dyn/incremental_forward) and the sampled row pass
 * (nn/neighbor_sampler) both run on this worker.
 */
void runRowOps(const ForwardRecipe &m, size_t layer, size_t begin,
               size_t end, const float *input_row, RowSlots &buf,
               const std::vector<int64_t> &widths);

/**
 * Row @p r of @p layer from its aggregation on, the layer output written
 * to @p out. The aggregation reads @p agg_src (rows indexed by its
 * operator's columns) in the batch kernel's order — SpMM in
 * operator-row entry order, += v * x[c][j] (spmmRowWise); attention and
 * Max through attentionRowInto / maxAggRowInto — then runRowOps runs
 * the ops after it. Ops before the aggregation (GAT's projection) are
 * the caller's; for Mean stacks the aggregation is the first op, so
 * this is the whole layer.
 */
void layerRowInto(const ForwardRecipe &m, size_t layer,
                  const Matrix &agg_src, NodeId r, const float *input_row,
                  RowSlots &buf, const std::vector<int64_t> &widths,
                  float *out);

/**
 * Branch assignment per node under @p protect_ratio: 1 for the protected
 * high-degree (higher-bit) branch, 0 for the dense low-bit branch — the
 * same threshold rule degreeAwareFakeQuantize applies.
 */
std::vector<uint8_t> protectedBranchOf(const std::vector<int32_t> &degrees,
                                       double protect_ratio);

/**
 * A model pre-quantized for integer execution: weight packs at both
 * branch widths for every recipe weight, quantized operator values for
 * every SpMM-consumed operator, and the node branch split. The recipe's
 * pointees (operators, weights, spec) must outlive this pack.
 */
struct QuantizedGnn
{
    /** The op graphs this pack executes (a value copy of the source). */
    ForwardRecipe recipe;
    MixedPrecisionPolicy policy;
    /** 1 = protected high-degree node (sparse branch, higher bits). */
    std::vector<uint8_t> branchOf;
    /** Node -> row within its branch's packed activation matrix. */
    std::vector<int32_t> localIndex;
    /**
     * Parallel to recipe.operators; only SpMM-consumed entries carry
     * quantized values (pattern == nullptr otherwise: that operator is
     * interpreted in fp32, e.g. attention / Max aggregation).
     */
    std::vector<QuantizedCsr> qops;
    /** Per recipe weight, packed at denseBits / sparseBits. */
    std::vector<QuantizedMatrix> wLo;
    std::vector<QuantizedMatrix> wHi;
    /**
     * Dequantized (sparseBits) copies of the weights fp32-interpreted
     * ops read — attention vectors; empty matrices elsewhere. Derived
     * state: rebuildDequantized() recomputes it from wHi.
     */
    std::vector<Matrix> wDeq;
    /** Protected node count (observability / tests). */
    int64_t protectedCount = 0;

    const ModelSpec &spec() const { return *recipe.spec; }

    /** Recompute wDeq from wHi for the recipe's fp32-interpreted ops. */
    void rebuildDequantized();

    /** Packed bytes of both weight packs plus quantized operator values. */
    double packedBytes() const;
};

/** Build the integer-execution pack for @p m over @p degrees. */
QuantizedGnn quantizeGnn(const ForwardRecipe &m,
                         const std::vector<int32_t> &degrees,
                         const MixedPrecisionPolicy &policy = {});

/**
 * The int8 operands of one op, packed once over the op's whole input
 * before its rows are split: SpMM codes its input per branch with the
 * whole matrix's scales, GEMM codes each row with its own scale. Every
 * row subset and every shard then reads the codes the whole-matrix pass
 * reads. Empty at fp32 and for the ops that run in fp32 at every
 * precision. Not copyable: `x` may point at `packed`.
 */
struct OpPack
{
    /** SpMM: the operator's integer values and the branch-coded input. */
    const QuantizedCsr *op = nullptr;
    const MixedQuantizedMatrix *x = nullptr;
    /** GEMM: the row-coded input. */
    RowQuantizedMatrix rows;
    /** Storage behind `x` when packOp coded the input. */
    MixedQuantizedMatrix packed;

    OpPack() = default;
    OpPack(const OpPack &) = delete;
    OpPack &operator=(const OpPack &) = delete;
};

/**
 * Pack @p op's input @p in into @p pack at @p q's precision; a no-op
 * when @p q is null (fp32). @p branch_of gives the branch of each row of
 * @p in; null means q's own split (@p in covers every node).
 */
void packOp(const QuantizedGnn *q, const OpStep &op, const Matrix &in,
            OpPack &pack, const std::vector<uint8_t> *branch_of = nullptr);

/**
 * The op executor every whole-matrix interpreter runs: @p op of @p m at
 * the precision of @p q (fp32 when null; then @p pack is unused), over
 *
 *  - every row (@p rows null): the batch kernels — spmm, matmul,
 *    qspmmMixed, qmatmulRowScaled, attentionForward, maxAggregate,
 *    evalRowLocalOp — assigned to @p out;
 *  - the rows in @p rows: the serial row kernels of the same math,
 *    written into those rows of @p out, which the caller sized. Only
 *    aggregations and GEMM have a row form.
 *
 * Each row's bytes are the same either way, so stitching the row sets
 * of a partition reproduces the whole-matrix op (shard/executor).
 */
void runOp(const ForwardRecipe &m, const QuantizedGnn *q, const OpStep &op,
           const Matrix &in, const Matrix *aux, const OpPack &pack,
           const std::vector<NodeId> *rows, Matrix &out);

/**
 * One mixed-precision integer forward pass: SpMM/GEMM ops run on
 * branch-packed integer operands, the remaining ops in fp32 over the
 * intermediate slots. Returns fp32 logits for every node.
 */
Matrix quantizedForwardMixed(const QuantizedGnn &q, const Matrix &x);

/**
 * One Mean-aggregation layer of @p q over a subset of its output rows.
 * @p self holds those rows' layer inputs (slot 0, read by row-local
 * ops) and @p branch_of their branches. The SpMM runs @p op — one row
 * per output row, columns indexing the rows of @p agg_in — over
 * @p agg_in, layer-input rows already packed at the full input's
 * per-branch scales. When @p op's rows and @p agg_in's codes equal the
 * full pass's, every output row is bit-identical to the same row of
 * that layer in quantizedForwardMixed: SpMM mixes rows only inside one row's integer
 * accumulators, and GEMM inputs carry per-row scales.
 */
Matrix quantizedForwardRows(const QuantizedGnn &q, size_t layer,
                            const Matrix &self,
                            const std::vector<uint8_t> &branch_of,
                            const QuantizedCsr &op,
                            const MixedQuantizedMatrix &agg_in);

} // namespace gcod

#endif // GCOD_NN_QUANT_EXEC_HPP
