/**
 * @file
 * Byte-exactness of the fast host kernels against the scalar oracles in
 * kernel_oracles.hpp: the std::lround quantizers, the int64 integer
 * GEMM / SpMM, the i-k-j fp32 GEMM and the if-chain Max aggregation
 * (NaN, ±0, ±inf and denormal inputs). Every fast kernel must memcmp
 * its oracle across ragged shapes, empty and all-zero rows, every bit
 * width on both branches, rounding ties, clamped values, and the int32
 * accumulator bound and one term past it.
 */
#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstring>
#include <limits>

#include "graph/graph.hpp"
#include "nn/quant_exec.hpp"
#include "sim/parallel.hpp"
#include "tensor/ops.hpp"
#include "tensor/qops.hpp"

#include "kernel_oracles.hpp"

using namespace gcod;
using namespace gcod::oracle;

namespace {

// ------------------------------------------------------------ helpers

/**
 * Random activations with exact zeros (about a third, as after ReLU)
 * and an all-zero row 1.
 */
Matrix
activations(int64_t rows, int64_t cols, Rng &rng)
{
    Matrix m(rows, cols);
    for (auto &v : m.data())
        v = rng.bernoulli(0.33) ? 0.0f : float(rng.normal(0.0, 2.0));
    if (rows > 1)
        std::fill(m.row(1), m.row(1) + cols, 0.0f);
    return m;
}

std::vector<uint8_t>
alternatingBranches(int64_t rows)
{
    std::vector<uint8_t> b(static_cast<size_t>(rows));
    for (size_t i = 0; i < b.size(); ++i)
        b[i] = i % 3 == 2 ? 1 : 0;
    return b;
}

// ----------------------------------------------------------- rounding

TEST(FastQuantizeTest, RoundToCodeMatchesLroundOnTiesAndClamps)
{
    const float cases[] = {0.0f,        -0.0f,       0.5f,   -0.5f,
                           1.5f,        -1.5f,       2.5f,   -2.5f,
                           126.5f,      -126.5f,     0.49999997f,
                           -0.49999997f, 0.50000006f, 1.4999999f,
                           127.0f,      127.49f,     127.5f, -127.5f,
                           128.0f,      200.0f,      -1e6f,  1e9f,
                           32766.5f,    -32767.5f,   40000.0f};
    for (int bits = 2; bits <= 16; ++bits) {
        int32_t qmax = quantMax(bits);
        for (float v : cases)
            EXPECT_EQ(roundToCode(v, qmax), oracleCode(v, qmax))
                << "v=" << v << " bits=" << bits;
        // Every quarter step across the range and past both ends.
        for (float v = -float(qmax) - 3.0f; v <= float(qmax) + 3.0f;
             v += 0.25f)
            ASSERT_EQ(roundToCode(v, qmax), oracleCode(v, qmax))
                << "v=" << v << " bits=" << bits;
    }
    EXPECT_EQ(roundToCode(0.49999997f, 127), 0);
    EXPECT_EQ(roundToCode(-2.5f, 127), -3);
    EXPECT_EQ(roundToCode(std::nanf(""), 127), 0);
}

TEST(FastQuantizeTest, RoundToCodeMatchesLroundOnRandomValues)
{
    Rng rng(5);
    for (int i = 0; i < 200000; ++i) {
        int bits = int(rng.uniformInt(2, 16));
        int32_t qmax = quantMax(bits);
        float v = float(rng.normal(0.0, double(qmax)));
        ASSERT_EQ(roundToCode(v, qmax), oracleCode(v, qmax)) << v;
    }
}

TEST(FastQuantizeTest, PackMatchesLroundCodesAtEveryWidth)
{
    Rng rng(7);
    Matrix x = activations(37, 29, rng);
    x(0, 0) = 1e-9f;
    for (int bits = 2; bits <= 16; ++bits) {
        QuantizedMatrix q(x, bits);
        QuantParams qp = oracleParams(x, bits);
        EXPECT_EQ(q.params().scale, qp.scale);
        EXPECT_EQ(codesOf(q), oraclePack(x, qp)) << "bits=" << bits;
        // Shared-scale caller: values far past the peak clamp.
        QuantParams tight = qp;
        tight.scale = qp.scale * 0.01f;
        EXPECT_EQ(codesOf(QuantizedMatrix(x, tight)), oraclePack(x, tight));
    }
    // Large enough to run on the pool.
    Matrix big = activations(700, 301, rng);
    setThreads(4);
    QuantizedMatrix q(big, 8);
    setThreads(1);
    EXPECT_EQ(codesOf(q), codesOf(QuantizedMatrix(big, 8)));
    EXPECT_EQ(codesOf(q), oraclePack(big, q.params()));
    setThreads(0);
}

TEST(FastQuantizeTest, RowQuantizeMatchesOracleAtEveryWidth)
{
    Rng rng(9);
    for (int64_t cols : {int64_t(0), int64_t(1), int64_t(17), int64_t(64)}) {
        Matrix x = activations(23, cols, rng);
        if (cols > 3) {
            // Exact ties once divided by the row's scale (peak 127).
            x(0, 0) = 127.0f;
            x(0, 1) = 2.5f;
            x(0, 2) = -0.5f;
            x(0, 3) = 0.49999997f;
        }
        auto branch = alternatingBranches(x.rows());
        for (int lo = 2; lo <= 16; ++lo)
            for (int hi = 2; hi <= 16; hi += 7) {
                RowQuantizedMatrix got = rowQuantize(x, branch, lo, hi);
                RowQuantizedMatrix want = oracleRowQuantize(x, branch, lo, hi);
                ASSERT_EQ(got.codes, want.codes)
                    << "cols=" << cols << " bits " << lo << "/" << hi;
                ASSERT_EQ(got.rowScale, want.rowScale);
                EXPECT_EQ(got.qmax[0], quantMax(lo));
                EXPECT_EQ(got.qmax[1], quantMax(hi));
            }
    }
}

TEST(FastQuantizeTest, MixedQuantizePacksBranchRowsLikeASplitCopy)
{
    Rng rng(13);
    Matrix x = activations(41, 19, rng);
    auto branch = alternatingBranches(x.rows());
    auto local = branchLocalIndex(branch);
    for (int lo = 2; lo <= 16; lo += 3)
        for (int hi = lo; hi <= 16; hi += 4) {
            MixedQuantizedMatrix m = mixedQuantize(x, branch, local, lo, hi);
            // The oracle: copy each branch's rows, then pack the copy.
            int64_t nhi = 0;
            for (uint8_t b : branch)
                nhi += b != 0;
            Matrix xlo(x.rows() - nhi, x.cols()), xhi(nhi, x.cols());
            for (int64_t r = 0; r < x.rows(); ++r)
                std::copy(x.row(r), x.row(r) + x.cols(),
                          (branch[size_t(r)] ? xhi : xlo)
                              .row(local[size_t(r)]));
            QuantParams plo = oracleParams(xlo, lo);
            QuantParams phi = oracleParams(xhi, hi);
            EXPECT_EQ(m.lo.params().scale, plo.scale);
            EXPECT_EQ(m.hi.params().scale, phi.scale);
            EXPECT_EQ(codesOf(m.lo), oraclePack(xlo, plo));
            EXPECT_EQ(codesOf(m.hi), oraclePack(xhi, phi));
            MixedQuantizedMatrix shared =
                mixedQuantize(x, branch, local, plo, phi);
            EXPECT_EQ(codesOf(shared.lo), codesOf(m.lo));
            EXPECT_EQ(codesOf(shared.hi), codesOf(m.hi));
        }
}

// -------------------------------------------------------- integer GEMM

TEST(FastQuantKernelsTest, RowScaledGemmMatchesInt64OracleAcrossShapes)
{
    Rng rng(17);
    for (int64_t k : {int64_t(0), int64_t(1), int64_t(5), int64_t(64)})
        for (int64_t n : {int64_t(1), int64_t(7), int64_t(16), int64_t(17),
                          int64_t(33)}) {
            Matrix x = activations(11, k, rng);
            Matrix w = activations(k, n, rng);
            auto branch = alternatingBranches(x.rows());
            for (int lo = 2; lo <= 16; ++lo)
                for (int hi = 2; hi <= 16; hi += 2) {
                    RowQuantizedMatrix rx = rowQuantize(x, branch, lo, hi);
                    QuantizedMatrix wlo(w, lo), whi(w, hi);
                    Matrix want = oracleQmatmulRowScaled(rx, wlo, whi);
                    ASSERT_TRUE(
                        sameBytes(qmatmulRowScaled(rx, wlo, whi), want))
                        << "k=" << k << " n=" << n << " bits " << lo << "/"
                        << hi;
                }
        }
}

/**
 * x and w all at +qmax = 127: every product is 127², so the row sum
 * is K · 16129. At K = floor(INT32_MAX / 127²) that is the largest sum
 * int32 holds; one more term needs the int64 path. An int32
 * accumulator at K + 1 would wrap (and trap under UBSan).
 */
TEST(FastQuantKernelsTest, RowScaledGemmInt32BoundAndOnePast)
{
    const int64_t qmax = 127;
    const int64_t kmax = int64_t(INT32_MAX) / (qmax * qmax);
    ASSERT_EQ(kmax, 133144);
    for (int64_t k : {kmax, kmax + 1})
        for (int64_t n : {int64_t(16), int64_t(17)}) {
            Matrix x(2, k, 1.0f);
            Matrix w(k, n, 1.0f);
            std::vector<uint8_t> branch = {0, 1};
            RowQuantizedMatrix rx = rowQuantize(x, branch, 8, 8);
            QuantizedMatrix w8(w, 8);
            Matrix got = qmatmulRowScaled(rx, w8, w8);
            ASSERT_TRUE(sameBytes(got, oracleQmatmulRowScaled(rx, w8, w8)))
                << "k=" << k << " n=" << n;
            double exact = double(k) * double(qmax * qmax);
            float want = float(double(rx.rowScale[0]) *
                               double(w8.params().scale) * exact);
            EXPECT_EQ(got(0, 0), want);
            EXPECT_EQ(got(1, n - 1), want);
        }
}

// -------------------------------------------------------- integer SpMM

/** A random CSR with rows of 0..maxDeg entries and some zero values. */
CsrMatrix
randomCsr(NodeId rows, NodeId cols, int max_deg, Rng &rng)
{
    std::vector<EdgeOffset> indptr = {0};
    std::vector<NodeId> indices;
    std::vector<float> values;
    for (NodeId r = 0; r < rows; ++r) {
        int deg = int(rng.uniformInt(0, max_deg));
        for (int e = 0; e < deg; ++e) {
            indices.push_back(NodeId(rng.uniformInt(0, cols - 1)));
            values.push_back(rng.bernoulli(0.1) ? 0.0f
                                                : float(rng.normal(0.0, 1.0)));
        }
        indptr.push_back(EdgeOffset(indices.size()));
    }
    return CsrMatrix(rows, cols, indptr, indices, values);
}

TEST(FastQuantKernelsTest, MixedSpmmMatchesInt64OracleAcrossShapes)
{
    Rng rng(19);
    for (int64_t n : {int64_t(1), int64_t(15), int64_t(16), int64_t(40)}) {
        Matrix x = activations(29, n, rng);
        CsrMatrix a = randomCsr(31, 29, 6, rng);
        auto branch = alternatingBranches(x.rows());
        auto local = branchLocalIndex(branch);
        for (int opbits : {4, 8, 16})
            for (int lo = 2; lo <= 16; ++lo)
                for (int hi = 2; hi <= 16; hi += 3) {
                    QuantizedCsr qa = quantizeCsr(a, opbits);
                    MixedQuantizedMatrix mx =
                        mixedQuantize(x, branch, local, lo, hi);
                    Matrix want = oracleQspmmMixed(qa, mx);
                    ASSERT_TRUE(sameBytes(qspmmMixed(qa, mx), want))
                        << "n=" << n << " bits " << opbits << "/" << lo
                        << "/" << hi;
                }
    }
}

/**
 * One output row whose operator codes are all 32767 (16-bit, value 1)
 * over x codes all at qmax: m entries sum to m · 32767 · qmax. The
 * dense branch (qmax 127) stays int32 up to m = 516 entries; the
 * protected branch (qmax 32767) up to m = 2.
 */
TEST(FastQuantKernelsTest, MixedSpmmInt32RowBoundAndOnePast)
{
    for (int hi_row : {0, 1})
        for (int64_t m : {int64_t(2), int64_t(3), int64_t(516),
                          int64_t(517)}) {
            const NodeId nodes = NodeId(m);
            std::vector<EdgeOffset> indptr = {0, EdgeOffset(m)};
            std::vector<NodeId> indices;
            for (NodeId c = 0; c < nodes; ++c)
                indices.push_back(c);
            CsrMatrix a(1, nodes, indptr, indices,
                        std::vector<float>(size_t(m), 1.0f));
            Matrix x(nodes, 17, 1.0f);
            std::vector<uint8_t> branch(static_cast<size_t>(nodes),
                                        uint8_t(hi_row));
            auto local = branchLocalIndex(branch);
            QuantizedCsr qa = quantizeCsr(a, 16);
            MixedQuantizedMatrix mx = mixedQuantize(x, branch, local, 8, 16);
            Matrix got = qspmmMixed(qa, mx);
            ASSERT_TRUE(sameBytes(got, oracleQspmmMixed(qa, mx)))
                << "m=" << m << " protected=" << hi_row;
            const QuantizedMatrix &b = hi_row ? mx.hi : mx.lo;
            double exact = double(m) * 32767.0 *
                           double(quantMax(b.params().bits));
            EXPECT_EQ(got(0, 16), float(double(qa.qp.scale) *
                                        double(b.params().scale) * exact));
        }
}

// ------------------------------------------------------------ fp32 GEMM

TEST(FastMatmulTest, MatchesIkjOracleAcrossShapes)
{
    Rng rng(23);
    for (int64_t k : {int64_t(0), int64_t(1), int64_t(9), int64_t(130)})
        for (int64_t n : {int64_t(1), int64_t(5), int64_t(16), int64_t(17),
                          int64_t(48), int64_t(70), int64_t(150)}) {
            // n = 150: two column stripes, the second ending in a
            // ragged tile.
            Matrix a = activations(13, k, rng);
            Matrix b = activations(k, n, rng);
            Matrix want = oracleMatmul(a, b);
            for (int t : {1, 3}) {
                setThreads(t);
                ASSERT_TRUE(sameBytes(matmul(a, b), want))
                    << "k=" << k << " n=" << n << " threads=" << t;
            }
            std::vector<float> row(static_cast<size_t>(n));
            for (int64_t i = 0; i < a.rows(); ++i) {
                matmulRowInto(a.row(i), b, row.data());
                ASSERT_EQ(std::memcmp(row.data(), want.row(i),
                                      size_t(n) * sizeof(float)),
                          0);
            }
        }
    setThreads(0);
}

TEST(FastMaxAggTest, MatchesIfChainOracleOnSpecialValues)
{
    // Every pair of specials meets in some (row, neighbor, column), in
    // both orders, with plain normals between them.
    const float inf = std::numeric_limits<float>::infinity();
    const float den = std::numeric_limits<float>::denorm_min();
    const float special[] = {std::nanf(""), -std::nanf(""), 0.0f, -0.0f,
                             inf,           -inf,           den,  -den,
                             1.5f,          -2.0f};
    const int64_t ns = int64_t(sizeof(special) / sizeof(special[0]));
    Rng rng(29);
    const NodeId n = 300;
    const int64_t cols = 37; // a ragged tail past every vector width
    Matrix x(n, cols);
    for (NodeId r = 0; r < n; ++r)
        for (int64_t c = 0; c < cols; ++c)
            x(r, c) = rng.bernoulli(0.6)
                          ? special[(int64_t(r) * 7 + c) % ns]
                          : float(rng.normal(0.0, 1.0));
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (int i = 0; i < 900; ++i) {
        NodeId u = NodeId(rng.uniformInt(0, n - 1));
        NodeId v = NodeId(rng.uniformInt(0, n - 1));
        if (u != v && u > 4 && v > 4) // rows 0..4 stay isolated
            edges.push_back({u, v});
    }
    const Graph g(n, edges);
    const CsrMatrix &adj = g.adjacency();
    const Matrix want = oracleMaxAggregate(adj, x);
    ForwardRecipe m;
    m.operators = {&adj};
    OpStep maxAgg;
    maxAgg.kind = OpKind::MaxAgg;
    maxAgg.opIndex = 0;
    for (int t : {1, 4}) {
        setThreads(t);
        Matrix got;
        runOp(m, nullptr, maxAgg, x, nullptr, OpPack(), got);
        ASSERT_TRUE(sameBytes(got, want)) << "threads=" << t;
    }
    setThreads(0);
    // The row kernel over a compact operator row, its seed row given
    // apart: the same bytes.
    std::vector<float> row(static_cast<size_t>(cols));
    for (NodeId r = 0; r < n; ++r) {
        const CsrMatrix one = operatorRows(adj, {r});
        maxAggRowInto(one, x, 0, r, row.data());
        ASSERT_EQ(std::memcmp(row.data(), want.row(r),
                              size_t(cols) * sizeof(float)),
                  0)
            << "row " << r;
    }
}

} // namespace
