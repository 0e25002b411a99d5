/**
 * @file
 * Tests of the k-NN traversal engine: the golden brute-force pin
 * (functional traversal, cycle-accurate unit and the pipelined
 * datapath's beat packing all agree bit-for-bit with
 * core::golden::knnScan), the tie-ordering and k>n edge cases, the
 * engine's worker-count/chip determinism contract for the new query
 * kind, the KnnStats merge algebra, and the inactive-path pin (ray
 * workloads keep all-zero k-NN counters).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "bvh/knn.hh"
#include "bvh/scene.hh"
#include "core/datapath.hh"
#include "core/golden.hh"
#include "core/raygen.hh"
#include "pipeline/drivers.hh"
#include "sim/engine.hh"

using namespace rayflex;
using namespace rayflex::bvh;
using rayflex::fp::fromBits;
using rayflex::fp::toBits;

namespace
{

/** Queries taken from a second draw of the cloud generator. */
std::vector<KnnQuery>
makeQueries(size_t n, unsigned dims, uint32_t k, KnnMetric metric,
            uint64_t seed)
{
    std::vector<KnnQuery> qs;
    qs.reserve(n);
    for (DataPoint &p : makePointCloud(n, dims, 8, seed))
        qs.push_back({std::move(p.coords), k, metric});
    return qs;
}

/** Brute-force golden neighbor lists for every query. */
std::vector<KnnResult>
goldenAll(const std::vector<DataPoint> &cloud,
          const std::vector<KnnQuery> &queries, unsigned dims)
{
    std::vector<core::golden::KnnCandidate> cands;
    cands.reserve(cloud.size());
    for (const DataPoint &p : cloud)
        cands.push_back({p.coords.data(), p.id});
    std::vector<KnnResult> out;
    out.reserve(queries.size());
    for (const KnnQuery &q : queries)
        out.push_back({core::golden::knnScan(
            q.point.data(), dims, cands, q.k,
            q.metric == KnnMetric::Cosine)});
    return out;
}

/** Bit-level equality of two neighbor lists (float == would also
 *  accept -0.0f vs 0.0f; the contract is stronger). */
::testing::AssertionResult
bitIdentical(const KnnResult &a, const KnnResult &b)
{
    if (a.neighbors.size() != b.neighbors.size())
        return ::testing::AssertionFailure()
               << "neighbor counts differ: " << a.neighbors.size()
               << " vs " << b.neighbors.size();
    for (size_t i = 0; i < a.neighbors.size(); ++i)
        if (a.neighbors[i].id != b.neighbors[i].id ||
            toBits(a.neighbors[i].score) != toBits(b.neighbors[i].score))
            return ::testing::AssertionFailure()
                   << "neighbor " << i << " differs: {"
                   << a.neighbors[i].score << ", " << a.neighbors[i].id
                   << "} vs {" << b.neighbors[i].score << ", "
                   << b.neighbors[i].id << "}";
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
allBitIdentical(const std::vector<KnnResult> &a,
                const std::vector<KnnResult> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
               << "result counts differ: " << a.size() << " vs "
               << b.size();
    for (size_t i = 0; i < a.size(); ++i) {
        ::testing::AssertionResult r = bitIdentical(a[i], b[i]);
        if (!r)
            return r << " (query " << i << ")";
    }
    return ::testing::AssertionSuccess();
}

} // namespace

// ------------------------------------------------------------------
// Golden reference
// ------------------------------------------------------------------

// On integer-valued coordinates every FP32 operation below is exact,
// so the single-precision golden scan must agree with a from-scratch
// double-precision reference bit-for-bit — scores included. This pins
// knnScan itself before everything else is pinned against it.
TEST(KnnGolden, ScanMatchesDoubleReferenceOnExactInputs)
{
    const unsigned dims = 7;
    std::vector<DataPoint> cloud;
    for (uint32_t i = 0; i < 200; ++i) {
        DataPoint p;
        p.id = 1000 + i * 3; // sparse, non-dense ids
        for (unsigned d = 0; d < dims; ++d)
            p.coords.push_back(float(int((i * 37 + d * 11) % 17) - 8));
        cloud.push_back(std::move(p));
    }
    std::vector<core::golden::KnnCandidate> cands;
    for (const DataPoint &p : cloud)
        cands.push_back({p.coords.data(), p.id});

    std::vector<float> q(dims);
    for (unsigned d = 0; d < dims; ++d)
        q[d] = float(int(d) - 3);

    for (const bool cosine : {false, true}) {
        std::vector<core::golden::KnnNeighbor> ref;
        for (const DataPoint &p : cloud) {
            // Accumulate in exact double arithmetic; the cosine score
            // then applies the contract's FP32 finishing ops (sqrt,
            // divide, subtract are defined in single precision).
            float score;
            if (cosine) {
                double dot = 0, norm = 0;
                for (unsigned d = 0; d < dims; ++d) {
                    dot += double(q[d]) * double(p.coords[d]);
                    norm += double(p.coords[d]) * double(p.coords[d]);
                }
                score = norm > 0
                            ? 1.0f - float(dot) /
                                         std::sqrt(float(norm))
                            : 2.0f;
            } else {
                double s = 0;
                for (unsigned d = 0; d < dims; ++d) {
                    double diff = double(q[d]) - double(p.coords[d]);
                    s += diff * diff;
                }
                score = float(s);
            }
            ref.push_back({score, p.id});
        }
        std::sort(ref.begin(), ref.end(), core::golden::knnCloser);
        ref.resize(10);

        const std::vector<core::golden::KnnNeighbor> got =
            core::golden::knnScan(q.data(), dims, cands, 10, cosine);
        ASSERT_TRUE(bitIdentical(KnnResult{got}, KnnResult{ref}))
            << (cosine ? "cosine" : "euclidean");
    }
}

// ------------------------------------------------------------------
// Functional traversal vs golden (the randomized sweep)
// ------------------------------------------------------------------

TEST(KnnFunctional, RandomSweepMatchesGoldenBothMetrics)
{
    // >= 1k queries per metric over a Gaussian-mixture cloud: the
    // best-first traversal (with its pruning) must reproduce the
    // brute-force scan exactly, ties included.
    const unsigned dims = 12;
    const std::vector<DataPoint> cloud =
        makePointCloud(600, dims, 8, 42);
    const KnnIndex index = buildKnnIndex(cloud);

    sim::EngineConfig cfg;
    cfg.model = sim::ExecutionModel::Functional;
    cfg.threads = 1;
    const sim::Engine engine(cfg);

    for (const KnnMetric metric :
         {KnnMetric::Euclidean, KnnMetric::Cosine}) {
        const std::vector<KnnQuery> queries =
            makeQueries(1024, dims, 7, metric, 43);
        const sim::KnnReport rep = engine.runKnn(index, queries);
        ASSERT_TRUE(allBitIdentical(rep.results,
                                    goldenAll(cloud, queries, dims)));
        EXPECT_EQ(rep.unit.knn.queries, queries.size());
        if (metric == KnnMetric::Euclidean) {
            // The Euclidean walk prunes; the pruning must have skipped
            // real work, not just fired vacuously.
            EXPECT_GT(rep.unit.knn.pruned, 0u);
            EXPECT_LT(rep.unit.knn.candidates,
                      queries.size() * cloud.size());
        } else {
            // No valid 3-D bound for cosine: every candidate scored.
            EXPECT_EQ(rep.unit.knn.candidates,
                      queries.size() * cloud.size());
            EXPECT_EQ(rep.unit.knn.pruned, 0u);
        }
    }
}

TEST(KnnFunctional, TieOrderingAtEqualDistance)
{
    // Five coincident points (plus spread decoys): all tie at the same
    // score, so the result must order them ascending by id — and a
    // k = 3 cut must keep exactly the three smallest ids.
    std::vector<DataPoint> cloud;
    for (uint32_t i = 0; i < 5; ++i)
        cloud.push_back({{2.0f, 2.0f, 2.0f, 2.0f}, 900 - i * 100});
    for (uint32_t i = 0; i < 20; ++i)
        cloud.push_back(
            {{float(i + 10), 0.0f, 0.0f, 0.0f}, 10000 + i});
    const KnnIndex index = buildKnnIndex(cloud);

    KnnTraversal trav(index);
    for (const KnnMetric metric :
         {KnnMetric::Euclidean, KnnMetric::Cosine}) {
        const KnnResult full =
            trav.search({{2.0f, 2.0f, 2.0f, 2.0f}, 5, metric});
        ASSERT_EQ(full.neighbors.size(), 5u);
        for (size_t i = 0; i < 5; ++i) {
            EXPECT_EQ(full.neighbors[i].id, 500 + uint32_t(i) * 100);
            EXPECT_EQ(toBits(full.neighbors[i].score),
                      toBits(full.neighbors[0].score));
        }
        const KnnResult cut =
            trav.search({{2.0f, 2.0f, 2.0f, 2.0f}, 3, metric});
        ASSERT_EQ(cut.neighbors.size(), 3u);
        EXPECT_EQ(cut.neighbors[0].id, 500u);
        EXPECT_EQ(cut.neighbors[1].id, 600u);
        EXPECT_EQ(cut.neighbors[2].id, 700u);
    }
}

TEST(KnnFunctional, EdgeCases)
{
    const std::vector<DataPoint> cloud = makePointCloud(9, 6, 2, 7);
    const KnnIndex index = buildKnnIndex(cloud);
    KnnTraversal trav(index);

    // k > n: every point comes back, still sorted by (score, id).
    const std::vector<KnnQuery> big{
        {cloud[0].coords, 50, KnnMetric::Euclidean}};
    const KnnResult all = trav.search(big[0]);
    ASSERT_EQ(all.neighbors.size(), cloud.size());
    ASSERT_TRUE(
        bitIdentical(all, goldenAll(cloud, big, index.dims)[0]));
    EXPECT_EQ(all.neighbors[0].score, 0.0f); // the query is point 0

    // k == 0 answers empty.
    EXPECT_TRUE(
        trav.search({cloud[0].coords, 0, KnnMetric::Euclidean})
            .neighbors.empty());

    // Dimension mismatch throws.
    EXPECT_THROW(trav.search({{1.0f, 2.0f}, 1, KnnMetric::Euclidean}),
                 std::invalid_argument);

    // Empty index: every query answers empty, in both models.
    const KnnIndex empty = buildKnnIndex({});
    KnnTraversal etrav(empty);
    EXPECT_TRUE(etrav.search({{1.0f}, 3, KnnMetric::Cosine})
                    .neighbors.empty());
    sim::EngineConfig cfg;
    cfg.model = sim::ExecutionModel::CycleAccurate;
    cfg.dp = core::kExtendedUnified;
    const sim::Engine engine(cfg);
    const sim::KnnReport rep = engine.runKnn(
        empty, {{{1.0f, 2.0f}, 3, KnnMetric::Euclidean}});
    ASSERT_EQ(rep.results.size(), 1u);
    EXPECT_TRUE(rep.results[0].neighbors.empty());
    EXPECT_EQ(rep.unit.knn.queries, 1u);

    // Inconsistent build inputs throw.
    EXPECT_THROW(buildKnnIndex({{{1.0f, 2.0f}, 0}, {{1.0f}, 1}}),
                 std::invalid_argument);
    EXPECT_THROW(buildKnnIndex({{{}, 0}}), std::invalid_argument);
}

// ------------------------------------------------------------------
// Cycle-accurate unit vs golden
// ------------------------------------------------------------------

TEST(KnnCycle, MatchesGoldenBothMetrics)
{
    const unsigned dims = 20;
    const std::vector<DataPoint> cloud =
        makePointCloud(400, dims, 6, 11);
    const KnnIndex index = buildKnnIndex(cloud);

    sim::EngineConfig cfg;
    cfg.model = sim::ExecutionModel::CycleAccurate;
    cfg.dp = core::kExtendedUnified;
    cfg.threads = 1;
    const sim::Engine engine(cfg);

    for (const KnnMetric metric :
         {KnnMetric::Euclidean, KnnMetric::Cosine}) {
        const std::vector<KnnQuery> queries =
            makeQueries(96, dims, 5, metric, 12);
        const sim::KnnReport rep = engine.runKnn(index, queries);
        ASSERT_TRUE(allBitIdentical(rep.results,
                                    goldenAll(cloud, queries, dims)));
        EXPECT_EQ(rep.unit.knn.queries, queries.size());
        EXPECT_GT(rep.unit.cycles, 0u);
        // The unit issues exactly the beats the jobs pack.
        EXPECT_EQ(rep.unit.datapath_beats, rep.unit.knn.distance_beats);
        EXPECT_EQ(rep.unit.knn.distance_beats,
                  rep.unit.knn.candidates * knnBeatsPerJob(dims, metric));
    }
}

TEST(KnnCycle, WideUnitsMatchGoldenOnMultiBeatJobs)
{
    // At 20 dims every job spans several beats (2 Euclidean, 3
    // cosine), and a wide unit streams several jobs at once, one per
    // lane. Each lane's accumulators must see only its own job's
    // beats, or the scores drift from the golden scan.
    const unsigned dims = 20;
    const std::vector<DataPoint> cloud =
        makePointCloud(400, dims, 6, 11);
    const KnnIndex index = buildKnnIndex(cloud);

    for (const unsigned issue : {4u, 8u}) {
        sim::EngineConfig cfg;
        cfg.model = sim::ExecutionModel::CycleAccurate;
        cfg.dp = core::kExtendedUnified;
        cfg.threads = 1;
        cfg.rt.issue_width = issue;
        const sim::Engine engine(cfg);
        for (const KnnMetric metric :
             {KnnMetric::Euclidean, KnnMetric::Cosine}) {
            const std::vector<KnnQuery> queries =
                makeQueries(64, dims, 5, metric, 12);
            const sim::KnnReport rep = engine.runKnn(index, queries);
            ASSERT_TRUE(allBitIdentical(rep.results,
                                        goldenAll(cloud, queries, dims)))
                << "issue " << issue << " metric " << int(metric);
        }
    }
}

TEST(KnnCycle, RequiresExtendedDatapath)
{
    const KnnIndex index = buildKnnIndex(makePointCloud(8, 4, 2, 3));
    sim::EngineConfig cfg;
    cfg.model = sim::ExecutionModel::CycleAccurate;
    cfg.dp = core::kBaselineUnified;
    const sim::Engine engine(cfg);
    EXPECT_THROW(
        engine.runKnn(index,
                      makeQueries(1, 4, 1, KnnMetric::Euclidean, 4)),
        std::invalid_argument);
}

// ------------------------------------------------------------------
// Engine determinism contract for the new query kind
// ------------------------------------------------------------------

TEST(KnnEngine, WorkerCountInvarianceAcrossMemoryKnobs)
{
    const unsigned dims = 16;
    const std::vector<DataPoint> cloud =
        makePointCloud(300, dims, 6, 21);
    const KnnIndex index = buildKnnIndex(cloud);
    const std::vector<KnnQuery> queries =
        makeQueries(160, dims, 4, KnnMetric::Euclidean, 22);
    const std::vector<KnnResult> golden =
        goldenAll(cloud, queries, dims);

    struct Knobs
    {
        bool cached;
        unsigned mshrs;
        unsigned issue;
        unsigned packet;
    };
    // Packetization is inert for k-NN (accepted, ignored) — the last
    // row pins that a packetized config still runs and matches.
    const Knobs grid[] = {
        {false, 0, 1, 1}, {true, 0, 1, 1},  {false, 4, 1, 1},
        {true, 4, 4, 1},  {false, 0, 4, 1}, {true, 4, 1, 8},
    };

    for (const Knobs &kn : grid) {
        sim::KnnReport ref;
        for (const unsigned threads : {1u, 2u, 8u}) {
            sim::EngineConfig cfg;
            cfg.model = sim::ExecutionModel::CycleAccurate;
            cfg.dp = core::kExtendedUnified;
            cfg.threads = threads;
            cfg.batch_size = 32;
            cfg.rt.mem_backend = kn.cached ? MemBackend::NodeCache
                                           : MemBackend::FixedLatency;
            cfg.rt.cache = kProbeCache4KiB;
            cfg.rt.mshrs = kn.mshrs;
            cfg.rt.issue_width = kn.issue;
            cfg.rt.packet.width = kn.packet;
            const sim::Engine engine(cfg);
            const sim::KnnReport rep = engine.runKnn(index, queries);

            ASSERT_TRUE(allBitIdentical(rep.results, golden))
                << "cached=" << kn.cached << " mshrs=" << kn.mshrs
                << " issue=" << kn.issue << " threads=" << threads;
            if (threads == 1) {
                ref = rep;
                continue;
            }
            // Results AND merged statistics are bit-identical at
            // every worker count.
            EXPECT_EQ(rep.unit.knn, ref.unit.knn) << "threads=" << threads;
            EXPECT_EQ(rep.unit.cycles, ref.unit.cycles);
            EXPECT_EQ(rep.unit.datapath_beats,
                      ref.unit.datapath_beats);
            EXPECT_EQ(rep.unit.mem_requests, ref.unit.mem_requests);
            EXPECT_EQ(rep.unit.stallOnMemory(),
                      ref.unit.stallOnMemory());
            EXPECT_EQ(rep.unit.mem.hits, ref.unit.mem.hits);
            EXPECT_EQ(rep.unit.mem.misses, ref.unit.mem.misses);
            EXPECT_EQ(rep.unit.mshr.merges, ref.unit.mshr.merges);
        }
    }
}

TEST(KnnEngine, ChipModeMatchesAndMerges)
{
    const unsigned dims = 10;
    const std::vector<DataPoint> cloud =
        makePointCloud(250, dims, 5, 31);
    const KnnIndex index = buildKnnIndex(cloud);
    const std::vector<KnnQuery> queries =
        makeQueries(96, dims, 3, KnnMetric::Cosine, 32);
    const std::vector<KnnResult> golden =
        goldenAll(cloud, queries, dims);

    for (const unsigned units : {1u, 4u}) {
        for (const sim::L2Mode l2 :
             {sim::L2Mode::Shared, sim::L2Mode::Private}) {
            sim::EngineConfig cfg;
            cfg.model = sim::ExecutionModel::CycleAccurate;
            cfg.dp = core::kExtendedUnified;
            cfg.threads = 2;
            cfg.batch_size = 48;
            cfg.rt.mem_backend = MemBackend::NodeCache;
            cfg.rt.cache = kProbeCache4KiB;
            cfg.chip.units = units;
            cfg.chip.l2 = l2;
            cfg.chip.l2cfg = kProbeL2_128KiB;
            const sim::Engine engine(cfg);
            const sim::KnnReport rep = engine.runKnn(index, queries);

            ASSERT_TRUE(allBitIdentical(rep.results, golden))
                << "units=" << units << " l2=" << int(l2);
            EXPECT_EQ(rep.unit.knn.queries, queries.size());
            EXPECT_GT(rep.unit.chip_cycles, 0u);
            EXPECT_FALSE(rep.unit.l2_banks.empty());
        }
    }
}

TEST(KnnEngine, FunctionalAndCycleAgreeOnResults)
{
    // The two execution models may count different traversal work
    // (the radius shrinks later under pipeline latency) but must
    // return the same neighbors — both pinned to golden above; this
    // pins them to each other directly on a shared workload.
    const unsigned dims = 24;
    const std::vector<DataPoint> cloud =
        makePointCloud(200, dims, 4, 51);
    const KnnIndex index = buildKnnIndex(cloud);
    const std::vector<KnnQuery> queries =
        makeQueries(64, dims, 6, KnnMetric::Euclidean, 52);

    sim::EngineConfig fcfg;
    fcfg.model = sim::ExecutionModel::Functional;
    sim::EngineConfig ccfg;
    ccfg.model = sim::ExecutionModel::CycleAccurate;
    ccfg.dp = core::kExtendedUnified;
    const sim::KnnReport f = sim::Engine(fcfg).runKnn(index, queries);
    const sim::KnnReport c = sim::Engine(ccfg).runKnn(index, queries);
    ASSERT_TRUE(allBitIdentical(f.results, c.results));
}

// ------------------------------------------------------------------
// Beat packing pinned through the pipelined datapath
// ------------------------------------------------------------------

TEST(KnnBeats, JobBeatsThroughPipelineMatchGoldenScore)
{
    // knnJobBeats is the single source of truth for beat packing; feed
    // its beats through a REAL pipelined extended datapath and require
    // the accumulated score to equal golden::knnScore bit-for-bit, at
    // dimensions below / at / straddling / far above the beat widths.
    core::RayFlexDatapath dp(core::kExtendedUnified);
    pipeline::Simulator sim;
    pipeline::Source<core::DatapathInput> src("src", &dp.in());
    pipeline::Sink<core::DatapathOutput> sink("sink", &dp.out());
    dp.registerWith(sim);
    sim.add(&src);
    sim.add(&sink);

    uint64_t tag = 0;
    for (const unsigned dims : {5u, 16u, 20u, 48u}) {
        std::vector<float> q(dims), c(dims);
        for (unsigned d = 0; d < dims; ++d) {
            q[d] = 0.37f * float(d) - 1.25f;
            c[d] = -0.61f * float(d) + 2.5f;
        }
        for (const KnnMetric metric :
             {KnnMetric::Euclidean, KnnMetric::Cosine}) {
            const std::vector<core::DatapathInput> beats =
                knnJobBeats(q.data(), c.data(), dims, metric, ++tag);
            ASSERT_EQ(beats.size(), knnBeatsPerJob(dims, metric));
            for (size_t b = 0; b < beats.size(); ++b) {
                EXPECT_EQ(beats[b].tag, tag);
                EXPECT_EQ(beats[b].reset_accumulator,
                          b + 1 == beats.size());
            }

            const size_t before = sink.count();
            for (const core::DatapathInput &in : beats)
                src.push(in);
            while (sink.count() < before + beats.size())
                sim.tick();

            const core::DatapathOutput &out = sink.received().back();
            const bool cosine = metric == KnnMetric::Cosine;
            EXPECT_TRUE(cosine ? out.angular_reset
                               : out.euclidean_reset);
            const float hw =
                cosine ? core::golden::knnAngularScore(
                             fromBits(out.angular_dot_product),
                             fromBits(out.angular_norm))
                       : fromBits(out.euclidean_accumulator);
            EXPECT_EQ(toBits(hw),
                      toBits(core::golden::knnScore(
                          q.data(), c.data(), dims, cosine)))
                << "dims=" << dims << " cosine=" << cosine;
        }
    }
}

// ------------------------------------------------------------------
// Stats algebra and the inactive path
// ------------------------------------------------------------------

TEST(KnnStatsMerge, CommutesAndTakesFrontierMax)
{
    KnnStats a;
    a.queries = 3;
    a.candidates = 100;
    a.distance_beats = 400;
    a.nodes_visited = 40;
    a.leaves_visited = 25;
    a.pruned = 7;
    a.frontier_peak = 12;
    KnnStats b;
    b.queries = 5;
    b.candidates = 60;
    b.distance_beats = 120;
    b.nodes_visited = 10;
    b.leaves_visited = 8;
    b.pruned = 30;
    b.frontier_peak = 9;

    KnnStats ab = a;
    ab.merge(b);
    KnnStats ba = b;
    ba.merge(a);
    EXPECT_EQ(ab, ba);
    EXPECT_EQ(ab.queries, 8u);
    EXPECT_EQ(ab.candidates, 160u);
    EXPECT_EQ(ab.frontier_peak, 12u); // max, not sum
}

TEST(KnnInactive, RayWorkloadsKeepZeroKnnCounters)
{
    // The k-NN machinery must be invisible to ray workloads: a plain
    // ray run reports an all-zero KnnStats block.
    auto tris = makeSoup(120, 4.0f, 0.6f, 5, 0);
    const Bvh4 bvh = buildBvh4(std::move(tris));
    core::Pinhole cam;
    cam.eye = {0.0f, 0.5f, 8.0f};
    cam.width = 12;
    cam.height = 12;
    const std::vector<core::Ray> rays =
        core::RayGen::primaryRays(cam, 100.0f);

    sim::EngineConfig cfg;
    cfg.model = sim::ExecutionModel::CycleAccurate;
    const sim::Engine engine(cfg);
    const sim::EngineReport rep = engine.run(bvh, rays);
    EXPECT_GT(rep.unit.rays_completed, 0u);
    EXPECT_EQ(rep.unit.knn, KnnStats{});
}
