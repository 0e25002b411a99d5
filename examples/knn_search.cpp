/**
 * @file
 * k-nearest-neighbor search through the cycle-accurate RT-unit stack.
 *
 * The data-analytics workload that motivates the paper's Section V-A
 * case study: instead of reformulating nearest-neighbor search as ray
 * tracing (the RTNN / Arkade line of work), the *extended* datapath
 * computes exact Euclidean and cosine distances of arbitrary dimension
 * directly, streaming candidate vectors through the pipeline in
 * 16-wide (Euclidean) or 8-wide (cosine) beats with multi-beat
 * accumulation.
 *
 * This example builds a bvh::KnnIndex over a Gaussian-mixture point
 * cloud and answers k-NN queries three ways — the functional
 * best-first traversal, the cycle-accurate RT unit driving the
 * pipelined datapath (sim::Engine::runKnn), and the brute-force
 * single-precision golden scan (core::golden::knnScan) — verifying
 * that all three agree bit-for-bit on both metrics, then reports
 * cycles/query and the traversal's pruning effectiveness.
 *
 * Usage: knn_search [n_points] [dims] [k] [n_queries]
 */
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bvh/knn.hh"
#include "bvh/scene.hh"
#include "core/golden.hh"
#include "sim/engine.hh"

using namespace rayflex;

namespace
{

/** Golden neighbor lists for every query: the brute-force
 *  single-precision reference the engine is pinned against. */
std::vector<bvh::KnnResult>
goldenResults(const std::vector<bvh::DataPoint> &cloud,
              const std::vector<bvh::KnnQuery> &queries, unsigned dims)
{
    std::vector<core::golden::KnnCandidate> cands;
    cands.reserve(cloud.size());
    for (const bvh::DataPoint &p : cloud)
        cands.push_back({p.coords.data(), p.id});

    std::vector<bvh::KnnResult> out;
    out.reserve(queries.size());
    for (const bvh::KnnQuery &q : queries)
        out.push_back({core::golden::knnScan(
            q.point.data(), dims, cands, q.k,
            q.metric == bvh::KnnMetric::Cosine)});
    return out;
}

size_t
countMatches(const std::vector<bvh::KnnResult> &a,
             const std::vector<bvh::KnnResult> &b)
{
    size_t n = 0;
    for (size_t i = 0; i < a.size(); ++i)
        n += a[i] == b[i] ? 1 : 0;
    return n;
}

} // namespace

int
main(int argc, char **argv)
{
    const size_t n_points = argc > 1 ? size_t(atoll(argv[1])) : 2000;
    const unsigned dims = argc > 2 ? unsigned(atoi(argv[2])) : 48;
    const uint32_t k = argc > 3 ? uint32_t(atoll(argv[3])) : 5;
    const size_t n_queries = argc > 4 ? size_t(atoll(argv[4])) : 64;

    printf("k-NN on the extended RayFlex datapath\n");
    printf("=====================================\n");
    printf("%zu points, %u dimensions, k=%u, %zu queries\n\n", n_points,
           dims, k, n_queries);

    const std::vector<bvh::DataPoint> cloud =
        bvh::makePointCloud(n_points, dims, 12, 42);
    const std::vector<bvh::DataPoint> query_pts =
        bvh::makePointCloud(n_queries, dims, 12, 43);

    const bvh::KnnIndex index = bvh::buildKnnIndex(cloud);

    for (const bvh::KnnMetric metric :
         {bvh::KnnMetric::Euclidean, bvh::KnnMetric::Cosine}) {
        const bool cosine = metric == bvh::KnnMetric::Cosine;
        std::vector<bvh::KnnQuery> queries;
        queries.reserve(n_queries);
        for (const bvh::DataPoint &q : query_pts)
            queries.push_back({q.coords, k, metric});

        const std::vector<bvh::KnnResult> golden =
            goldenResults(cloud, queries, dims);

        // Functional best-first traversal.
        sim::EngineConfig fcfg;
        fcfg.model = sim::ExecutionModel::Functional;
        const sim::Engine functional(fcfg);
        const sim::KnnReport frep = functional.runKnn(index, queries);

        // Cycle-accurate RT unit over the extended pipelined datapath.
        sim::EngineConfig ccfg;
        ccfg.model = sim::ExecutionModel::CycleAccurate;
        ccfg.dp = core::kExtendedUnified;
        const sim::Engine cycle(ccfg);
        const sim::KnnReport crep = cycle.runKnn(index, queries);

        printf("%s k-NN\n", cosine ? "Cosine" : "Euclidean");
        printf("  functional vs golden scan: %zu/%zu exact\n",
               countMatches(frep.results, golden), n_queries);
        printf("  cycle-accurate vs golden scan: %zu/%zu exact\n",
               countMatches(crep.results, golden), n_queries);
        printf("  %.0f cycles/query; at 1 GHz: %.1f kqueries/s\n",
               double(crep.unit.cycles) / double(n_queries),
               1e6 * double(n_queries) / double(crep.unit.cycles));
        const bvh::KnnStats &ks = frep.unit.knn;
        printf("  traversal: %llu/%zu candidates scored, "
               "%llu subtrees pruned, frontier peak %llu\n\n",
               (unsigned long long)ks.candidates / n_queries, n_points,
               (unsigned long long)ks.pruned / n_queries,
               (unsigned long long)ks.frontier_peak);
    }

    printf("All three paths rank by single-precision (score, id): the\n"
           "pipelined datapath, the functional traversal and the golden\n"
           "scan agree bit-for-bit, ties included.\n");
    return 0;
}
