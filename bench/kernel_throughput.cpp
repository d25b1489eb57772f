/**
 * @file
 * Host kernel throughput: serial vs pool-parallel GEMM, SpMM, fused
 * pipelines, and the int8 serving kernels next to their fp32
 * counterparts, written to BENCH_kernels.json so the perf trajectory is
 * recorded machine-readably instead of eyeballed from stdout.
 *
 * Sweeps dense sizes and power-law sparse graphs (the nnz-balanced SpMM
 * partitioning is exactly where uniform row splits fall over), timing
 * each kernel at threads=1 and at the configured thread count, and
 * emits wall time, GFLOP/s, and speedup per entry. The quantized
 * entries run the quantize pack, rowQuantize, qmatmulRowScaled and
 * qspmmMixed at the GCN layer-0 shape (2708 x 1433 -> 16) and the
 * ResGCN block shape (N x 128 -> 128), beside fp32 matmul / spmm at the
 * same shapes; the ResGCN block also times its Max aggregation (runOp's
 * whole form). Those inputs are ReLU'd, about half zeros; the dense
 * entries time both GEMMs on dense input at ResGCN's layer-0 shape
 * (N x 1433 -> 128). The JSON meta names the GEMM body that ran
 * (gemm_isa: avx2 or baseline, tensor/gemm_isa.hpp).
 *
 *   ./bench_kernel_throughput threads=4
 *   ./bench_kernel_throughput quick=1 check=1 out=BENCH_kernels.json
 *
 * Keys: threads (pool size; default GCOD_THREADS/hardware), quick
 * (CI smoke sizes), reps (best-of repetitions), out (JSON path), check
 * (exit 1 unless every quantized-entry kernel and fp32 matmul equals
 * its scalar reference in tests/kernel_oracles.hpp byte for byte).
 */
#include "bench_common.hpp"

#include <chrono>
#include <cstdio>

#include "../tests/kernel_oracles.hpp"
#include "graph/generate.hpp"
#include "nn/quant_exec.hpp"
#include "sim/rng.hpp"
#include "tensor/fused.hpp"
#include "tensor/gemm_isa.hpp"
#include "tensor/ops.hpp"
#include "tensor/qops.hpp"

using namespace gcod;
using gcod::bench::JsonEmitter;

namespace {

Matrix
randomDense(int64_t r, int64_t c, Rng &rng)
{
    Matrix m(r, c);
    for (auto &v : m.data())
        v = float(rng.normal(0.0, 1.0));
    return m;
}

/** Best-of-@p reps wall time of fn(), in seconds. */
template <typename Fn>
double
timeBest(int reps, Fn &&fn)
{
    double best = 0.0;
    for (int i = 0; i < reps; ++i) {
        auto t0 = std::chrono::steady_clock::now();
        fn();
        double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
        if (i == 0 || s < best)
            best = s;
    }
    return best;
}

/**
 * Time @p fn serially and on @p threads pool threads, record one JSON
 * entry, and print a summary line. @p flops derives GFLOP/s.
 */
template <typename Fn>
void
compare(JsonEmitter &json, const std::string &name, const std::string &kind,
        int threads, int reps, double flops, Fn &&fn, JsonEmitter::Entry **out)
{
    setThreads(1);
    double serial = timeBest(reps, fn);
    setThreads(threads);
    double parallel = timeBest(reps, fn);
    double speedup = parallel > 0.0 ? serial / parallel : 0.0;
    JsonEmitter::Entry &e =
        json.add(name)
            .set("kind", kind)
            .set("threads", threads)
            .set("serial_seconds", serial)
            .set("parallel_seconds", parallel)
            .set("serial_gflops", flops / std::max(serial, 1e-12) / 1e9)
            .set("parallel_gflops", flops / std::max(parallel, 1e-12) / 1e9)
            .set("speedup", speedup);
    std::printf("%-28s %8.2f ms -> %8.2f ms  (%.2fx @ %d threads)\n",
                name.c_str(), serial * 1e3, parallel * 1e3, speedup,
                threads);
    if (out)
        *out = &e;
}

/**
 * The int8 serving kernels at one GEMM shape (rows x k -> n), over a
 * power-law graph of @p rows nodes, with fp32 matmul / spmm at the same
 * shapes, and with @p max_agg the Max aggregation over the same graph.
 * Protected rows follow the serving rule (top 10% by degree). Returns
 * the kernels whose output differs from its scalar reference.
 */
int
quantSweep(JsonEmitter &json, const std::string &tag, int64_t rows,
           int64_t k, int64_t n, int threads, int reps, Rng &rng,
           bool max_agg = false)
{
    Graph g = barabasiAlbert(NodeId(rows), 4, rng);
    const CsrMatrix &adj = g.adjacency();
    std::vector<int32_t> degrees(static_cast<size_t>(rows));
    for (NodeId r = 0; r < NodeId(rows); ++r)
        degrees[size_t(r)] = int32_t(adj.rowNnz(r));
    const std::vector<uint8_t> branch = protectedBranchOf(degrees, 0.1);
    const std::vector<int32_t> local = branchLocalIndex(branch);
    // Activations after ReLU: about half exact zeros.
    Matrix x = randomDense(rows, k, rng);
    x = relu(x);
    Matrix w = randomDense(k, n, rng);
    const std::string shape =
        std::to_string(rows) + "x" + std::to_string(k) + "x" +
        std::to_string(n);
    const double elems = double(rows) * double(k);
    const double gemmFlops = 2.0 * elems * double(n);
    const double spmmFlops = 2.0 * double(adj.nnz()) * double(k);
    auto entry = [&](const std::string &kernel, double flops, auto &&fn) {
        JsonEmitter::Entry *e = nullptr;
        compare(json, kernel + "_" + tag, kernel, threads, reps, flops, fn,
                &e);
        e->set("shape", shape).set("rows", rows).set("k", k).set("n", n);
    };

    QuantizedMatrix wlo(w, 8), whi(w, 16);
    wlo.packPairs();
    whi.packPairs();
    RowQuantizedMatrix rx = rowQuantize(x, branch, 8, 16);
    QuantizedCsr qa = quantizeCsr(adj, 16);
    MixedQuantizedMatrix mx = mixedQuantize(x, branch, local, 8, 16);
    entry("quantize_pack", elems,
          [&] { benchmark::DoNotOptimize(QuantizedMatrix(x, 8)); });
    entry("row_quantize", elems, [&] {
        benchmark::DoNotOptimize(rowQuantize(x, branch, 8, 16));
    });
    entry("qmatmul_row_scaled", gemmFlops, [&] {
        benchmark::DoNotOptimize(qmatmulRowScaled(rx, wlo, whi));
    });
    entry("gemm_fp32", gemmFlops,
          [&] { benchmark::DoNotOptimize(matmul(x, w)); });
    entry("qspmm_mixed", spmmFlops,
          [&] { benchmark::DoNotOptimize(qspmmMixed(qa, mx)); });
    entry("spmm_fp32", spmmFlops,
          [&] { benchmark::DoNotOptimize(spmmRowWise(adj, x)); });
    // ResGCN's aggregation through the op executor, as a layer runs it.
    ForwardRecipe maxRecipe;
    maxRecipe.operators = {&adj};
    OpStep maxOp;
    maxOp.kind = OpKind::MaxAgg;
    maxOp.opIndex = 0;
    auto maxAggregate = [&] {
        Matrix out;
        runOp(maxRecipe, nullptr, maxOp, x, nullptr, OpPack(), out);
        return out;
    };
    if (max_agg)
        entry("max_aggregate", double(adj.nnz()) * double(k),
              [&] { benchmark::DoNotOptimize(maxAggregate()); });

    int mismatches = 0;
    auto expect = [&](bool same, const char *kernel) {
        if (!same) {
            std::printf("MISMATCH %s_%s: output differs from its scalar "
                        "reference\n",
                        kernel, tag.c_str());
            ++mismatches;
        }
    };
    QuantizedMatrix packed(x, 8);
    expect(oracle::codesOf(packed) ==
               oracle::oraclePack(x, packed.params()),
           "quantize_pack");
    RowQuantizedMatrix want = oracle::oracleRowQuantize(x, branch, 8, 16);
    expect(rx.codes == want.codes && rx.rowScale == want.rowScale,
           "row_quantize");
    expect(oracle::sameBytes(qmatmulRowScaled(rx, wlo, whi),
                             oracle::oracleQmatmulRowScaled(rx, wlo, whi)),
           "qmatmul_row_scaled");
    expect(oracle::sameBytes(matmul(x, w), oracle::oracleMatmul(x, w)),
           "gemm_fp32");
    expect(oracle::sameBytes(qspmmMixed(qa, mx),
                             oracle::oracleQspmmMixed(qa, mx)),
           "qspmm_mixed");
    if (max_agg)
        expect(oracle::sameBytes(maxAggregate(),
                                 oracle::oracleMaxAggregate(adj, x)),
               "max_aggregate");
    return mismatches;
}

/**
 * fp32 matmul and qmatmulRowScaled on dense input (no zero activation)
 * at ResGCN's Cora layer-0 shape, rows x 1433 -> 128. The layer-0
 * features are dense, where quantSweep's ReLU'd input is about half
 * zeros, which the baseline bodies skip. Protected rows follow the
 * serving rule over a power-law graph, as in quantSweep. Returns the
 * kernels whose output differs from its scalar reference.
 */
int
denseGemmSweep(JsonEmitter &json, int64_t rows, int threads, int reps,
               Rng &rng)
{
    const int64_t k = 1433, n = 128;
    Graph g = barabasiAlbert(NodeId(rows), 4, rng);
    std::vector<int32_t> degrees(static_cast<size_t>(rows));
    for (NodeId r = 0; r < NodeId(rows); ++r)
        degrees[size_t(r)] = int32_t(g.adjacency().rowNnz(r));
    const std::vector<uint8_t> branch = protectedBranchOf(degrees, 0.1);
    Matrix x = randomDense(rows, k, rng);
    Matrix w = randomDense(k, n, rng);
    QuantizedMatrix wlo(w, 8), whi(w, 16);
    wlo.packPairs();
    whi.packPairs();
    RowQuantizedMatrix rx = rowQuantize(x, branch, 8, 16);
    const double flops = 2.0 * double(rows) * double(k) * double(n);
    const std::string shape = std::to_string(rows) + "x" +
                              std::to_string(k) + "x" + std::to_string(n);
    auto entry = [&](const std::string &kernel, auto &&fn) {
        JsonEmitter::Entry *e = nullptr;
        compare(json, kernel + "_dense_resgcn_l0", kernel, threads, reps,
                flops, fn, &e);
        e->set("shape", shape).set("rows", rows).set("k", k).set("n", n);
    };
    entry("qmatmul_row_scaled", [&] {
        benchmark::DoNotOptimize(qmatmulRowScaled(rx, wlo, whi));
    });
    entry("gemm_fp32", [&] { benchmark::DoNotOptimize(matmul(x, w)); });

    int mismatches = 0;
    auto expect = [&](bool same, const char *kernel) {
        if (!same) {
            std::printf("MISMATCH %s_dense_resgcn_l0: output differs from "
                        "its scalar reference\n",
                        kernel);
            ++mismatches;
        }
    };
    expect(oracle::sameBytes(qmatmulRowScaled(rx, wlo, whi),
                             oracle::oracleQmatmulRowScaled(rx, wlo, whi)),
           "qmatmul_row_scaled");
    expect(oracle::sameBytes(matmul(x, w), oracle::oracleMatmul(x, w)),
           "gemm_fp32");
    return mismatches;
}

int
runSweep(const Config &cfg)
{
    bool quick = cfg.getBool("quick", false);
    int threads = currentThreads();
    int reps = int(cfg.getInt("reps", quick ? 2 : 3));
    std::string out = cfg.getString("out", "BENCH_kernels.json");

    JsonEmitter json;
    json.meta()
        .set("bench", "kernel_throughput")
        .set("threads", threads)
        .set("hardware_threads", hardwareThreads())
        .set("quick", int64_t(quick))
        .set("gemm_isa", gemmIsaName(hostGemmIsa()));

    std::printf("kernel throughput: %d thread(s), %d hardware, reps=%d\n\n",
                threads, hardwareThreads(), reps);
    Rng rng(42);

    // ---------------------------------------------------------- dense GEMM
    std::vector<int64_t> sizes =
        quick ? std::vector<int64_t>{128, 256}
              : std::vector<int64_t>{256, 512, 1024};
    for (int64_t n : sizes) {
        Matrix a = randomDense(n, n, rng);
        Matrix b = randomDense(n, n, rng);
        JsonEmitter::Entry *e = nullptr;
        compare(
            json, "gemm_" + std::to_string(n), "gemm", threads, reps,
            2.0 * double(n) * double(n) * double(n),
            [&] { benchmark::DoNotOptimize(matmul(a, b)); }, &e);
        e->set("m", n).set("n", n).set("k", n);
    }
    // Backward-pass GEMM variants at one representative size.
    {
        int64_t n = quick ? 256 : 512;
        Matrix a = randomDense(n, n, rng);
        Matrix b = randomDense(n, n, rng);
        double flops = 2.0 * double(n) * double(n) * double(n);
        compare(json, "gemm_at_b_" + std::to_string(n), "gemm_transposed_a",
                threads, reps, flops,
                [&] { benchmark::DoNotOptimize(matmulTransposedA(a, b)); },
                nullptr);
        compare(json, "gemm_a_bt_" + std::to_string(n), "gemm_transposed_b",
                threads, reps, flops,
                [&] { benchmark::DoNotOptimize(matmulTransposedB(a, b)); },
                nullptr);
    }

    // -------------------------------------------------- power-law SpMM
    struct SpmmCase
    {
        NodeId nodes;
        NodeId attach;
        int64_t cols;
    };
    std::vector<SpmmCase> cases =
        quick ? std::vector<SpmmCase>{{4000, 4, 32}}
              : std::vector<SpmmCase>{{30000, 2, 64},
                                      {30000, 4, 64},
                                      {30000, 4, 128},
                                      {60000, 4, 64}};
    for (const SpmmCase &sc : cases) {
        Graph g = barabasiAlbert(sc.nodes, sc.attach, rng);
        const CsrMatrix &adj = g.adjacency();
        Matrix x = randomDense(sc.nodes, sc.cols, rng);
        JsonEmitter::Entry *e = nullptr;
        compare(
            json,
            "spmm_ba_n" + std::to_string(sc.nodes) + "_e" +
                std::to_string(adj.nnz()) + "_f" + std::to_string(sc.cols),
            "spmm", threads, reps, 2.0 * double(adj.nnz()) * double(sc.cols),
            [&] { benchmark::DoNotOptimize(spmmRowWise(adj, x)); }, &e);
        e->set("nodes", int64_t(sc.nodes))
            .set("edges", int64_t(adj.nnz()))
            .set("feature_cols", sc.cols)
            .set("sparsity", adj.sparsity());
    }

    // ----------------------------------------------------- fused pipelines
    {
        NodeId n = quick ? 1500 : 4000;
        Graph g = barabasiAlbert(n, 4, rng);
        CscMatrix csc = g.adjacency().toCsc();
        int64_t f = 64, h = 64;
        Matrix x = randomDense(n, f, rng);
        Matrix w = randomDense(f, h, rng);
        double flops = 2.0 * (double(n) * double(f) * double(h) +
                              double(g.adjacency().nnz()) * double(h));
        FusedStats st;
        compare(json, "fused_efficiency", "fused", threads, reps, flops,
                [&] {
                    benchmark::DoNotOptimize(
                        fusedEfficiencyAware(csc, x, w, &st));
                },
                nullptr);
        compare(json, "fused_resource", "fused", threads, reps, flops,
                [&] {
                    benchmark::DoNotOptimize(
                        fusedResourceAware(csc, x, w, &st));
                },
                nullptr);
    }

    // ------------------------------------- int8 serving kernels vs fp32
    int mismatches = 0;
    {
        int64_t rows = quick ? 600 : 2708;
        mismatches +=
            quantSweep(json, "gcn_l0", rows, 1433, 16, threads, reps, rng);
        mismatches += quantSweep(json, "resgcn_block", rows, 128, 128,
                                 threads, reps, rng, true);
        mismatches += denseGemmSweep(json, rows, threads, reps, rng);
    }
    json.meta().set("reference_mismatches", int64_t(mismatches));

    setThreads(threads);
    if (json.writeFile(out))
        std::printf("\nwrote %s\n", out.c_str());
    std::printf("scalar-reference check: %d mismatching kernel(s)\n",
                mismatches);
    return mismatches;
}

} // namespace

int
main(int argc, char **argv)
{
    int status = 0;
    int rc = gcod::bench::benchMain(argc, argv, [&](Config &cfg) {
        int mismatches = runSweep(cfg);
        if (cfg.getBool("check", false) && mismatches > 0)
            status = 1;
    });
    return rc != 0 ? rc : status;
}
