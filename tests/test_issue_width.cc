/**
 * @file
 * Tests of the multi-issue datapath (RtUnitConfig::issue_width), the
 * bounded MSHR file over the unit's shared L1 (RtUnitConfig::mshrs)
 * and occupancy-driven packet compaction (PacketConfig::compact_below):
 * the PR-4 timing pin (defaults reproduce the single-issue, unbounded,
 * compaction-off schedule bit-for-bit, counters hard-coded from that
 * tree), hit bit-equality against scalar for every new knob, the
 * throughput acceptance property (cycles fall monotonically with
 * issue_width on coherent packets, where the single-beat datapath was
 * flat), MSHR merge/back-pressure behavior, compaction recovering
 * retirement occupancy, scheduler-stat parity between the scalar path
 * and one-occupancy packets, and the 1/2/8-worker determinism sweep
 * with every new knob enabled at once.
 */
#include <gtest/gtest.h>

#include "bvh/builder.hh"
#include "bvh/scene.hh"
#include "core/raygen.hh"
#include "core/workloads.hh"
#include "sim/engine.hh"

using namespace rayflex;
using namespace rayflex::bvh;
using namespace rayflex::core;
using rayflex::fp::toBits;

namespace
{

/** Bit-level equality of two hit records (same helper contract as
 *  test_sim_engine: float == would accept -0.0f vs 0.0f). */
::testing::AssertionResult
bitIdentical(const HitRecord &a, const HitRecord &b)
{
    if (a.hit != b.hit || a.triangle_id != b.triangle_id ||
        toBits(a.t) != toBits(b.t) || toBits(a.u) != toBits(b.u) ||
        toBits(a.v) != toBits(b.v) || toBits(a.w) != toBits(b.w))
        return ::testing::AssertionFailure()
               << "hit records differ: {" << a.hit << ", " << a.t << ", "
               << a.triangle_id << "} vs {" << b.hit << ", " << b.t
               << ", " << b.triangle_id << "}";
    return ::testing::AssertionSuccess();
}

/** A mixed scene with both hits and misses well represented (the same
 *  scene test_packet and test_mem_model use, so the PR-4 pin numbers
 *  come from a workload other suites already exercise). */
Bvh4
testScene()
{
    auto tris = makeSphere({0, 0, 0}, 2.0f, 12, 16);
    uint32_t id = uint32_t(tris.size());
    auto soup = makeSoup(300, 6.0f, 0.8f, 17, id);
    tris.insert(tris.end(), soup.begin(), soup.end());
    return buildBvh4(std::move(tris));
}

/** Coherent camera rays plus random rays (some aimed away). */
std::vector<Ray>
testRays(const Bvh4 &bvh, size_t n_random)
{
    Camera cam;
    cam.look_at = bvh.root_bounds.centre();
    cam.eye = {0.5f, 1.0f, 9.0f};
    cam.width = 16;
    cam.height = 16;
    std::vector<Ray> rays;
    for (unsigned y = 0; y < cam.height; ++y)
        for (unsigned x = 0; x < cam.width; ++x)
            rays.push_back(cam.primaryRay(x, y, 100.0f));
    WorkloadGen gen(99);
    for (size_t i = 0; i < n_random; ++i)
        rays.push_back(gen.ray(8.0f));
    return rays;
}

/** Incoherent occlusion workload: AO fans from random scene points,
 *  the divergence generator the compaction tests need. */
std::vector<Ray>
fanRays(size_t n_points, unsigned samples)
{
    WorkloadGen wg(41);
    RayGen rg(7);
    std::vector<Ray> rays;
    for (size_t i = 0; i < n_points; ++i) {
        float x = wg.uniform(-5.0f, 5.0f);
        float z = wg.uniform(-5.0f, 5.0f);
        float y = wg.uniform(-1.0f, 3.0f);
        rg.appendAoFan(rays, {x, y, z}, {0, 1, 0}, samples, 1e-3f,
                       6.0f);
    }
    return rays;
}

} // namespace

TEST(MultiIssue, DefaultsReproducePr4TimingBitForBit)
{
    // The regression pin: issue_width == 1, mshrs == 0 (unbounded) and
    // compact_below == 0 must reproduce the pre-multi-issue unit's
    // schedule EXACTLY. The counters below were captured from the PR-4
    // tree on this workload; any drift means the refactor perturbed
    // the single-issue timing, which the whole bit-for-bit contract
    // forbids.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 48);

    sim::EngineConfig scalar;
    scalar.threads = 1;
    scalar.batch_size = 64;
    sim::EngineReport s = sim::Engine(scalar).run(bvh, rays);
    EXPECT_EQ(s.unit.cycles, 6211u);
    EXPECT_EQ(s.unit.datapath_beats, 4791u);
    EXPECT_EQ(s.unit.datapathIdle(), 1420u);
    EXPECT_EQ(s.unit.mem_requests, 3212u);
    EXPECT_EQ(s.unit.stallOnMemory(), 1129u);
    EXPECT_EQ(s.unit.rays_completed, rays.size());
    EXPECT_EQ(s.unit.mshr, MshrStats{});

    sim::EngineConfig packet8 = scalar;
    packet8.rt.packet.width = 8;
    sim::EngineReport p = sim::Engine(packet8).run(bvh, rays);
    EXPECT_EQ(p.unit.cycles, 10154u);
    EXPECT_EQ(p.unit.datapath_beats, 4793u);
    EXPECT_EQ(p.unit.datapathIdle(), 5361u);
    EXPECT_EQ(p.unit.mem_requests, 968u);
    EXPECT_EQ(p.unit.stallOnMemory(), 5027u);
    EXPECT_EQ(p.unit.packet.compactions, 0u);
    EXPECT_EQ(p.unit.mshr, MshrStats{});
}

TEST(MultiIssue, ScalarHitsMatchAndThroughputImproves)
{
    // Widening the issue datapath must never change a hit record, and
    // with several ready entries per cycle the same workload finishes
    // in fewer simulated cycles.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 48);

    sim::EngineConfig base;
    base.threads = 1;
    base.batch_size = 64;
    sim::EngineReport ref = sim::Engine(base).run(bvh, rays);

    for (unsigned issue : {2u, 4u, 8u}) {
        sim::EngineConfig cfg = base;
        cfg.rt.issue_width = issue;
        sim::EngineReport rep = sim::Engine(cfg).run(bvh, rays);
        for (size_t i = 0; i < rays.size(); ++i)
            ASSERT_TRUE(bitIdentical(rep.hits[i], ref.hits[i]))
                << "ray " << i << " at issue " << issue;
        EXPECT_LT(rep.unit.cycles, ref.unit.cycles) << issue;
        // Work is conserved: the same beats happen, just denser.
        EXPECT_EQ(rep.unit.datapath_beats, ref.unit.datapath_beats)
            << issue;
    }
}

TEST(MultiIssue, PacketHitsMatchScalarAcrossTheGrid)
{
    // The headline contract extended to the new knobs: for every
    // (issue_width, packet.width, mshrs, compact_below) combination —
    // closest- and any-hit — the per-ray records equal the scalar
    // single-issue reference bit for bit. Only timing and memory
    // counters may move.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 64);

    for (bool any_hit : {false, true}) {
        sim::EngineConfig scalar;
        scalar.threads = 1;
        scalar.batch_size = 64;
        sim::EngineReport ref =
            sim::Engine(scalar).run(bvh, rays, any_hit);

        struct Knobs
        {
            unsigned issue, width, mshrs, compact;
        };
        const Knobs grid[] = {
            {2, 1, 0, 0},  {8, 1, 2, 0},  {2, 8, 0, 0},
            {8, 8, 0, 4},  {4, 8, 2, 4},  {8, 16, 4, 8},
        };
        for (const Knobs &k : grid) {
            sim::EngineConfig cfg = scalar;
            cfg.rt.issue_width = k.issue;
            cfg.rt.packet.width = k.width;
            cfg.rt.mshrs = k.mshrs;
            cfg.rt.packet.compact_below = k.compact;
            cfg.rt.ray_buffer_entries = 32 * std::max(1u, k.width);
            sim::EngineReport rep =
                sim::Engine(cfg).run(bvh, rays, any_hit);
            ASSERT_EQ(rep.unit.rays_completed, rays.size());
            for (size_t i = 0; i < rays.size(); ++i)
                ASSERT_TRUE(bitIdentical(rep.hits[i], ref.hits[i]))
                    << "ray " << i << " any_hit " << any_hit
                    << " issue " << k.issue << " width " << k.width
                    << " mshrs " << k.mshrs << " compact "
                    << k.compact;
        }
    }
}

TEST(MultiIssue, ThroughputScalesWithIssueWidthOnCoherentPackets)
{
    // The acceptance property behind BM_IssueWidthSweep: on a coherent
    // camera batch traced by 8-wide packets against the probe cache
    // and a bounded MSHR file, cycles fall MONOTONICALLY as the issue
    // width grows — exactly where the single-beat datapath was flat,
    // because fetch sharing saved bandwidth the unit could not spend.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 0); // pure camera batch

    uint64_t prev_cycles = ~0ull;
    for (unsigned issue : {1u, 2u, 4u, 8u}) {
        sim::EngineConfig cfg;
        cfg.threads = 1;
        cfg.batch_size = 0;
        cfg.rt.packet.width = 8;
        cfg.rt.ray_buffer_entries = 32 * 8;
        cfg.rt.mem_backend = MemBackend::NodeCache;
        cfg.rt.cache = kProbeCache4KiB;
        cfg.rt.mshrs = 8;
        cfg.rt.issue_width = issue;
        sim::EngineReport rep = sim::Engine(cfg).run(bvh, rays);
        EXPECT_LT(rep.unit.cycles, prev_cycles)
            << "cycles did not fall at issue width " << issue;
        prev_cycles = rep.unit.cycles;
    }
}

TEST(MultiIssue, MshrFileMergesAndBackPressures)
{
    // A tightly bounded MSHR file must (a) merge duplicate in-flight
    // fetches (two slots walking the same subtree pay one miss), (b)
    // stall NeedFetch slots when full, and (c) conserve the fetch
    // work: every fetch either allocates or merges, and the per-ray
    // fetch sequences are schedule-independent, so allocations +
    // merges equals the unbounded run's request count.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 32);

    sim::EngineConfig unbounded;
    unbounded.threads = 1;
    unbounded.batch_size = 0;
    unbounded.rt.mem_backend = MemBackend::NodeCache;
    unbounded.rt.cache = kProbeCache4KiB;
    sim::EngineReport ref = sim::Engine(unbounded).run(bvh, rays);
    ASSERT_EQ(ref.unit.mshr, MshrStats{});

    sim::EngineConfig bounded = unbounded;
    bounded.rt.mshrs = 2;
    sim::EngineReport rep = sim::Engine(bounded).run(bvh, rays);

    for (size_t i = 0; i < rays.size(); ++i)
        ASSERT_TRUE(bitIdentical(rep.hits[i], ref.hits[i])) << i;
    EXPECT_GT(rep.unit.mshr.merges, 0u);
    EXPECT_GT(rep.unit.mshr.stalls_full, 0u);
    EXPECT_EQ(rep.unit.mem_requests, rep.unit.mshr.allocations);
    EXPECT_EQ(rep.unit.mshr.allocations + rep.unit.mshr.merges,
              ref.unit.mem_requests);
    // Merged fetches never touch the L1, so the bounded run reaches
    // memory strictly less often.
    EXPECT_LT(rep.unit.mem_requests, ref.unit.mem_requests);

    // The file also serves the packet scheduler: same invariants with
    // 8-wide packets (whose reference is their own unbounded run).
    sim::EngineConfig pu = unbounded;
    pu.rt.packet.width = 8;
    pu.rt.ray_buffer_entries = 32 * 8;
    sim::EngineReport pref = sim::Engine(pu).run(bvh, rays);
    sim::EngineConfig pb = pu;
    pb.rt.mshrs = 2;
    sim::EngineReport prep = sim::Engine(pb).run(bvh, rays);
    for (size_t i = 0; i < rays.size(); ++i)
        ASSERT_TRUE(bitIdentical(prep.hits[i], pref.hits[i])) << i;
    EXPECT_GT(prep.unit.mshr.merges, 0u);
    EXPECT_EQ(prep.unit.mshr.allocations + prep.unit.mshr.merges,
              pref.unit.mem_requests);
}

TEST(MultiIssue, CompactionRecoversOccupancyNeverHits)
{
    // Divergent AO fans thin 16-wide packets quickly. With
    // compact_below = 8, thinned packets must actually repack
    // (compactions and moved lanes counted), retirement occupancy
    // must improve (lanes finish in fuller packets), and the hit
    // records must stay bit-identical to both the scalar and the
    // compaction-off packet runs.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = fanRays(48, 8);

    sim::EngineConfig scalar;
    scalar.threads = 1;
    scalar.batch_size = 0;
    sim::EngineReport ref = sim::Engine(scalar).run(bvh, rays);

    sim::EngineConfig off;
    off.threads = 1;
    off.batch_size = 0;
    off.rt.packet.width = 16;
    off.rt.ray_buffer_entries = 16 * 16;
    sim::EngineReport plain = sim::Engine(off).run(bvh, rays);
    ASSERT_EQ(plain.unit.packet.compactions, 0u);

    sim::EngineConfig on = off;
    on.rt.packet.compact_below = 8;
    sim::EngineReport rep = sim::Engine(on).run(bvh, rays);

    for (size_t i = 0; i < rays.size(); ++i) {
        ASSERT_TRUE(bitIdentical(rep.hits[i], ref.hits[i])) << i;
        ASSERT_TRUE(bitIdentical(rep.hits[i], plain.hits[i])) << i;
    }
    EXPECT_GT(rep.unit.packet.compactions, 0u);
    EXPECT_GT(rep.unit.packet.lanes_repacked, 0u);
    EXPECT_GT(rep.unit.packet.avgOccupancyAtRetire(),
              plain.unit.packet.avgOccupancyAtRetire());
}

TEST(MultiIssue, SchedulerStatParityWithOneOccupancyPackets)
{
    // A packet holding a single ray must schedule exactly like a
    // scalar entry: same fetch decisions, same beats, same stall and
    // idle slots, cycle for cycle. One-triangle leaves make the
    // comparison exact (multi-triangle leaves legitimately differ:
    // the packet pipelines a leaf's beats back-to-back while a scalar
    // entry serializes on each result).
    std::vector<SceneTriangle> tris;
    for (uint32_t i = 0; i < 24; ++i) {
        float x = float(i % 6) * 10.0f;
        float z = float(i / 6) * 10.0f;
        tris.push_back(
            SceneTriangle{{x, 0, z}, {x + 1, 0, z}, {x, 1, z}, i});
    }
    BuildParams params;
    params.max_leaf_size = 1;
    Bvh4 bvh = buildBvh4(tris, params);
    for (const WideNode &n : bvh.nodes)
        for (const auto &c : n.child)
            if (c.kind == WideNode::Kind::Leaf) {
                ASSERT_EQ(c.count, 1u); // the parity precondition
            }

    const Ray probes[] = {
        makeRay(20.3f, 0.3f, 50.0f, 0, 0, -1, 0.0f, 100.0f), // hit
        makeRay(20.5f, 5.0f, 10.2f, 0.01f, -1.0f, 0.02f, 0.0f,
                100.0f),                                      // miss
    };
    for (const Ray &probe : probes) {
        std::vector<Ray> one{probe};
        sim::EngineConfig scalar;
        scalar.threads = 1;
        scalar.batch_size = 0;
        sim::EngineReport s = sim::Engine(scalar).run(bvh, one);

        sim::EngineConfig packet = scalar;
        packet.rt.packet.width = 8;
        sim::EngineReport p = sim::Engine(packet).run(bvh, one);

        ASSERT_TRUE(bitIdentical(p.hits[0], s.hits[0]));
        EXPECT_EQ(p.unit.stallOnMemory(), s.unit.stallOnMemory());
        EXPECT_EQ(p.unit.datapathIdle(), s.unit.datapathIdle());
        EXPECT_EQ(p.unit.cycles, s.unit.cycles);
        EXPECT_EQ(p.unit.datapath_beats, s.unit.datapath_beats);
        EXPECT_EQ(p.unit.mem_requests, s.unit.mem_requests);
    }
}

TEST(MultiIssue, DeterministicAcrossWorkerCountsWithAllKnobs)
{
    // Every new knob enabled at once — multi-issue, bounded MSHRs,
    // compaction, packets, node cache — still satisfies the engine
    // contract: per-ray hits and every merged counter (including
    // MshrStats and the compaction counters) are bit-identical at 1,
    // 2 and 8 workers.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 64);

    sim::EngineConfig cfg;
    cfg.threads = 1;
    cfg.batch_size = 48; // several batches, last one short
    cfg.rt.issue_width = 4;
    cfg.rt.mshrs = 4;
    cfg.rt.packet.width = 8;
    cfg.rt.packet.compact_below = 4;
    cfg.rt.ray_buffer_entries = 32 * 8;
    cfg.rt.mem_backend = MemBackend::NodeCache;
    cfg.rt.cache.sets = 16;
    cfg.rt.cache.ways = 2;
    sim::EngineReport ref = sim::Engine(cfg).run(bvh, rays);
    ASSERT_EQ(ref.unit.rays_completed, rays.size());
    ASSERT_GT(ref.unit.mshr.allocations, 0u);

    for (unsigned threads : {2u, 8u}) {
        cfg.threads = threads;
        sim::EngineReport rep = sim::Engine(cfg).run(bvh, rays);
        ASSERT_EQ(rep.hits.size(), ref.hits.size());
        for (size_t i = 0; i < rays.size(); ++i)
            ASSERT_TRUE(bitIdentical(rep.hits[i], ref.hits[i]))
                << "ray " << i << " at " << threads << " threads";
        EXPECT_EQ(rep.unit, ref.unit) << threads << " threads";
    }
}

TEST(MultiIssue, IssueWidthIsClampedToTheSupportedRange)
{
    // Out-of-range widths clamp instead of misbehaving: 0 runs as 1,
    // anything above kMaxIssueWidth runs as kMaxIssueWidth.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 0);

    sim::EngineConfig one;
    one.threads = 1;
    one.batch_size = 0;
    sim::EngineReport ref = sim::Engine(one).run(bvh, rays);

    sim::EngineConfig zero = one;
    zero.rt.issue_width = 0;
    sim::EngineReport z = sim::Engine(zero).run(bvh, rays);
    EXPECT_EQ(z.unit, ref.unit);

    sim::EngineConfig max = one;
    max.rt.issue_width = kMaxIssueWidth;
    sim::EngineReport m = sim::Engine(max).run(bvh, rays);
    sim::EngineConfig over = one;
    over.rt.issue_width = 99;
    sim::EngineReport o = sim::Engine(over).run(bvh, rays);
    EXPECT_EQ(o.unit, m.unit);
    for (size_t i = 0; i < rays.size(); ++i)
        ASSERT_TRUE(bitIdentical(o.hits[i], ref.hits[i])) << i;
}
