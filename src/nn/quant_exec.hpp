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
 * Every interpreter runs every op through one executor, runOp(), at
 * the precision of the pack it holds: a `const QuantizedGnn *` that is
 * null for fp32. The caller packs the int8 operands (packOp()); runOp()
 * then runs the op over every row, or over the compact rows of one
 * RowSetLevel, slot row k being the level's k-th row. Each OpKind has
 * one row kernel; a row-local op's whole-matrix form is that kernel
 * over every row. Two layer loops drive it: forwardLayer() over every
 * row, and runRowSetOp(), the per-op step over one level, which
 * forwardRowSet() and the shard executor both call:
 *
 *  - referenceForward(): stateless fp32 pass — what evaluation, serving
 *    and the quantization baseline read;
 *  - tapedForward(): the same pass, keeping every slot for training's
 *    backward (nn/backward.hpp, one rule per OpKind);
 *  - quantizeGnn() / quantizedForwardMixed(): the GCoD mixed-precision
 *    integer path (low-bit dense branch, degree-protected tail);
 *  - shard/executor.hpp: each op over every shard's owned rows as a
 *    compact level, bit-identical at any shard count;
 *  - dyn/incremental_forward.hpp: each layer over its dirty rows, a
 *    plan built bottom-up from the changed rows;
 *  - nn/neighbor_sampler.hpp: sampled point queries, each layer over
 *    the rows one node's answer reads, a plan built top-down.
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

    /**
     * True when an op other than the aggregation reads slot 0, the layer
     * input (GraphSAGE's ConcatSelf, GIN's and ResGCN's Residual, GAT's
     * projection).
     */
    bool readsSelf() const;
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
 * Column width of every slot of @p layer, given the layer input width
 * (slot 0). Interpreters allocate staging matrices from this — LayerSpec
 * outDim is the per-head width for multi-head GAT layers, so it must not
 * be used for allocation.
 */
std::vector<int64_t> layerSlotWidths(const ForwardRecipe &m, size_t layer,
                                     int64_t input_cols);

// ---------------------------------------------------------------------
// Aggregation row kernels. runOp's both forms (the whole matrix is the
// kernel over every row) and the AttentionScore backward funnel through
// these, with one fixed per-element order per op — the basis of the
// bit-identical-stitch invariants.
// ---------------------------------------------------------------------

/**
 * Row @p r's attention weights: its edges (@p adj's row entries in
 * order, then a self loop to row @p self of @p h — @p r but over a
 * compact row set) into @p cols, and per edge e and head k the
 * pre-LeakyReLU score s_self + t_j into pre[e*heads+k] and the softmax
 * weight into alpha[e*heads+k]. Each array holds rowNnz(r)+1 edges.
 * attentionRowInto and the AttentionScore backward both read these.
 */
void attentionWeightsInto(const CsrMatrix &adj, const Matrix &h,
                          const Matrix &a_src, const Matrix &a_dst,
                          int heads, int head_dim, NodeId r, NodeId self,
                          NodeId *cols, float *pre, float *alpha);

/**
 * Row @p r of the GAT attention aggregation: additive scores over
 * @p adj's row entries plus a trailing self loop (row @p self of @p h),
 * LeakyReLU(0.2), numerically-stable softmax, then per-edge aggregation
 * of @p h. Column indices of @p adj index rows of @p h; @p out_row must
 * hold concat ? heads*head_dim : head_dim floats.
 */
void attentionRowInto(const CsrMatrix &adj, const Matrix &h,
                      const Matrix &a_src, const Matrix &a_dst, int heads,
                      int head_dim, bool concat_heads, NodeId r, NodeId self,
                      float *out_row);

/**
 * Row @p r of the Max aggregation: from row @p self of @p x (@p r but
 * over a compact row set), fold in each row @p adj's row @p r reads as
 * o = x > o ? x : o — a NaN or a ±0 tie keeps o; the loop is maxps.
 */
void maxAggRowInto(const CsrMatrix &adj, const Matrix &x, NodeId r,
                   NodeId self, float *out_row);

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
    /**
     * Per recipe weight, packed at denseBits / sparseBits, each with
     * the k-pair pack qmatmulRowScaled reads (packPairs).
     */
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
 * The int8 operands of one op. SpMM codes its whole input per branch
 * with the whole matrix's scales, once before its rows are split; GEMM
 * codes each row with its own scale, so a compact row set codes its rows
 * as the whole matrix does. Every row subset and every shard then reads
 * the codes the whole-matrix pass reads. Empty at fp32 and for the ops
 * that run in fp32 at every precision. Not copyable: `x` may point at
 * `packed`, `rows` at `branch`.
 */
struct OpPack
{
    /** SpMM: the operator's integer values and the branch-coded input. */
    const QuantizedCsr *op = nullptr;
    const MixedQuantizedMatrix *x = nullptr;
    /** GEMM: the row-coded input, and its rows' branches (row sets). */
    RowQuantizedMatrix rows;
    std::vector<uint8_t> branch;
    /** Storage behind `x` when packOp coded the input. */
    MixedQuantizedMatrix packed;

    OpPack() = default;
    OpPack(const QuantizedCsr *o, const MixedQuantizedMatrix *in)
        : op(o), x(in)
    {}
    OpPack(const OpPack &) = delete;
    OpPack &operator=(const OpPack &) = delete;
};

/**
 * Pack @p op's input @p in into @p pack at @p q's precision; a no-op
 * when @p q is null (fp32). @p rows gives the node of each row of @p in
 * (a GEMM over a compact row set); null means @p in covers every node.
 */
void packOp(const QuantizedGnn *q, const OpStep &op, const Matrix &in,
            OpPack &pack, const std::vector<NodeId> *rows = nullptr);

struct RowSetLevel;

/**
 * The op executor every interpreter runs: @p op of @p m at the precision
 * of @p q (fp32 when null; then @p pack is unused), from the operands
 * @p pack holds at int8 (qspmmMixed, qmatmulRowScaled), assigned to a
 * fresh @p out, over
 *
 *  - every row (@p level null): the batch kernels — spmm, matmul, and
 *    for AttentionScore, MaxAgg and the row-local ops (Residual /
 *    ConcatSelf / Activation / Readout) their row kernel over every row
 *    in parallel;
 *  - the compact rows of @p level: the serial kernels of the same
 *    math (spmm's entry order, matmulSerial over the level's rows,
 *    attentionRowInto, maxAggRowInto, the row-local kernel), row k of
 *    @p out and of a row-local input being row level->rows[k]; the
 *    aggregation reads level->op's row k, its own input row being
 *    level->self[k] (rows[k] when self is empty). No parallel region
 *    opens at fp32; the int8 kernels run inline inside a pool worker.
 *
 * Each row's bytes are the same either way, so stitching the levels of
 * a partition reproduces the whole-matrix op (shard/executor).
 * Residual stores the scaled aux before adding it, in two passes, so no
 * fused multiply-add contracts them.
 */
void runOp(const ForwardRecipe &m, const QuantizedGnn *q, const OpStep &op,
           const Matrix &in, const Matrix *aux, const OpPack &pack,
           Matrix &out, const RowSetLevel *level = nullptr);

/**
 * The whole-matrix layer loop: each op of @p layer through runOp over
 * every row at @p q's precision (fp32 when null), every slot into
 * @p slots (reassigned; slot 0 stays empty), slot 0 being @p input.
 * Returns the output slot.
 */
Matrix &forwardLayer(const ForwardRecipe &m, const QuantizedGnn *q,
                     size_t layer, const Matrix &input,
                     std::vector<Matrix> &slots);

/**
 * One mixed-precision integer forward pass: SpMM/GEMM ops run on
 * branch-packed integer operands, the remaining ops in fp32 over the
 * intermediate slots. Returns fp32 logits for every node.
 */
Matrix quantizedForwardMixed(const QuantizedGnn &q, const Matrix &x);

// ---------------------------------------------------------------------
// Row-set plans: per layer, the rows an answer reads or an update
// changes, and the aggregation restricted to them (GraphSAGE's minibatch
// receptive field, arXiv:1706.02216 Alg. 2).
// ---------------------------------------------------------------------

/** One layer of a RowSetPlan; slot row k of its execution is rows[k]. */
struct RowSetLevel
{
    /** Sorted ids of the layer-output rows to compute. */
    std::vector<NodeId> rows;
    /** The aggregation operator's rows `rows`; its columns index `in`. */
    CsrMatrix op;
    /**
     * Where a compact input holds each row's own row (slot 0 of the
     * non-aggregation ops, MaxAgg's seed, attention's self loop). Empty
     * when the input is indexed by node id, or when no op reads it.
     */
    std::vector<NodeId> self;
};

/** Per layer, the rows to compute (level l for layer l). */
using RowSetPlan = std::vector<RowSetLevel>;

/** Rows @p rows of @p op, in that order; columns unchanged. */
CsrMatrix operatorRows(const CsrMatrix &op, const std::vector<NodeId> &rows);

/**
 * The one-hop step of both plan builders: the sorted union of @p rows
 * and the columns of @p op, their operator rows (one index space).
 * Top-down, the rows a level reads; bottom-up, over a symmetric pattern,
 * the next layer's rows that read one of @p rows.
 */
std::vector<NodeId> closedInputRows(const std::vector<NodeId> &rows,
                                    const CsrMatrix &op);

/**
 * Op @p i of layer @p layer over the rows of @p lv at @p q's precision
 * (fp32 when null): the one per-op step of forwardRowSet and the shard
 * executor. @p slots holds the level's compact slots across the layer's
 * ops; op 0 resets them. Slot 0 is @p in, read in place when @p lv spans
 * it by node id, else the set's own rows of it, gathered by op 0 when an
 * op outside the aggregation reads them. The aggregation reads @p in, or
 * @p agg_in when its input is made inside the layer (GAT's projection),
 * through lv.op, its int8 operands packed by the caller in @p agg (lv.op's
 * codes over the source packed at the whole source's scales); every
 * other op reads the compact slots, a GEMM coding its rows at their
 * nodes' branches. The op that makes the aggregation input also writes
 * its rows into @p agg_in, indexed like @p in.
 */
void runRowSetOp(const ForwardRecipe &m, const QuantizedGnn *q, size_t layer,
                 size_t i, const RowSetLevel &lv, const Matrix &in,
                 const OpPack *agg, Matrix *agg_in,
                 std::vector<Matrix> &slots);

/**
 * Layer @p layer of @p m over the rows of @p lv, at @p q's precision
 * (fp32 when null), reading @p in (the whole layer input or a compact
 * level): runRowSetOp over each op. Returns the compact output, row k
 * being row lv.rows[k]. Each row runs forwardLayer's kernel over the
 * same entries in the same order, so it matches that row of the whole
 * pass.
 */
Matrix forwardRowSet(const ForwardRecipe &m, const QuantizedGnn *q,
                     size_t layer, const RowSetLevel &lv, const Matrix &in,
                     const OpPack *agg = nullptr, Matrix *agg_in = nullptr);

} // namespace gcod

#endif // GCOD_NN_QUANT_EXEC_HPP
