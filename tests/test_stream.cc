/**
 * @file
 * Tests of the streaming render service (job / scheduler / executor
 * tiers): the extended determinism contract (bit-identical hits,
 * per-job simulated latencies and merged stats at every worker count
 * for a fixed arrival schedule), cross-job packet
 * formation, head-of-line blocking vs packing, and the batch-API pins
 * that freeze Engine::run / renderPasses counters across the tier
 * refactor.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "bvh/scene.hh"
#include "core/workloads.hh"
#include "sim/engine.hh"
#include "sim/passes.hh"
#include "sim/stream.hh"

using namespace rayflex;
using namespace rayflex::core;
using namespace rayflex::bvh;
using rayflex::fp::toBits;

namespace
{

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

/** Same fixture as test_sim_engine.cc: sphere shell plus soup. */
Bvh4
testScene()
{
    auto tris = makeSphere({0, 0, 0}, 2.0f, 12, 16);
    uint32_t id = uint32_t(tris.size());
    auto soup = makeSoup(300, 6.0f, 0.8f, 17, id);
    tris.insert(tris.end(), soup.begin(), soup.end());
    return buildBvh4(std::move(tris));
}

std::vector<Ray>
cameraRays(const Bvh4 &bvh, unsigned w, unsigned h)
{
    Camera cam;
    cam.look_at = bvh.root_bounds.centre();
    cam.eye = {0.5f, 1.0f, 9.0f};
    cam.width = w;
    cam.height = h;
    std::vector<Ray> rays;
    for (unsigned y = 0; y < h; ++y)
        for (unsigned x = 0; x < w; ++x)
            rays.push_back(cam.primaryRay(x, y, 100.0f));
    return rays;
}

std::vector<Ray>
randomRays(uint64_t seed, size_t n)
{
    WorkloadGen gen(seed);
    std::vector<Ray> rays;
    for (size_t i = 0; i < n; ++i)
        rays.push_back(gen.ray(8.0f));
    return rays;
}

/** A mixed three-client schedule: a frame job (closest), an AO-probe
 *  job and a shadow job (both any-hit), staggered arrivals. */
std::vector<sim::RenderJob>
mixedSchedule(const Bvh4 &bvh)
{
    std::vector<sim::RenderJob> jobs;
    jobs.push_back({10, 0, false, cameraRays(bvh, 16, 12)});
    jobs.push_back({11, 400, true, randomRays(5, 150)});
    jobs.push_back({12, 900, true, cameraRays(bvh, 8, 8)});
    return jobs;
}

sim::EngineConfig
packetEngineConfig(unsigned threads)
{
    sim::EngineConfig cfg;
    cfg.threads = threads;
    cfg.rt.mem_backend = MemBackend::NodeCache;
    cfg.rt.cache = kProbeCache4KiB;
    cfg.rt.packet.width = 8;
    cfg.rt.packet.compact_below = 4;
    return cfg;
}

::testing::AssertionResult
jobReportsIdentical(const sim::JobReport &a, const sim::JobReport &b)
{
    if (a.id != b.id || a.arrival_tick != b.arrival_tick ||
        a.any_hit != b.any_hit)
        return ::testing::AssertionFailure() << "job identity differs";
    if (a.first_service_tick != b.first_service_tick ||
        a.completion_tick != b.completion_tick ||
        a.latency != b.latency || a.queue_wait != b.queue_wait ||
        a.p50_ray_latency != b.p50_ray_latency ||
        a.p99_ray_latency != b.p99_ray_latency ||
        a.batches != b.batches || a.shared_batches != b.shared_batches)
        return ::testing::AssertionFailure()
               << "job " << a.id << " timeline differs: latency "
               << a.latency << " vs " << b.latency;
    if (a.hits.size() != b.hits.size())
        return ::testing::AssertionFailure()
               << "job " << a.id << " hit counts differ";
    for (size_t i = 0; i < a.hits.size(); ++i) {
        auto r = bitIdentical(a.hits[i], b.hits[i]);
        if (!r)
            return r << " (job " << a.id << " ray " << i << ")";
    }
    return ::testing::AssertionSuccess();
}

} // namespace

// ---------------------------------------------------------------------
// Scheduler tier: plan shape and the service determinism contract.
// ---------------------------------------------------------------------

TEST(BatchScheduler, PlanIsPureAndRespectsModesAndArrivals)
{
    Bvh4 bvh = testScene();
    std::vector<sim::RenderJob> jobs = mixedSchedule(bvh);

    sim::StreamConfig cfg;
    cfg.batch_size = 64;
    sim::BatchScheduler sched(cfg);
    auto plans = sched.plan(jobs);
    auto plans2 = sched.plan(jobs);
    ASSERT_FALSE(plans.empty());
    ASSERT_EQ(plans.size(), plans2.size());

    size_t scheduled = 0;
    for (size_t p = 0; p < plans.size(); ++p) {
        EXPECT_EQ(plans[p].rays, plans2[p].rays); // pure function
        EXPECT_LE(plans[p].rays.size(), cfg.batch_size);
        scheduled += plans[p].rays.size();
        for (auto [j, r] : plans[p].rays) {
            // A batch never mixes traversal modes and never contains a
            // ray of a job that has not arrived by its ready tick.
            EXPECT_EQ(jobs[j].any_hit, plans[p].any_hit);
            EXPECT_LE(jobs[j].arrival_tick, plans[p].ready_tick);
            ASSERT_LT(size_t(r), jobs[j].rays.size());
        }
    }
    size_t total = 0;
    for (const auto &j : jobs)
        total += j.rays.size();
    EXPECT_EQ(scheduled, total); // every ray exactly once overall
}

TEST(StreamingService, DeterministicAcrossWorkerCounts)
{
    Bvh4 bvh = testScene();
    sim::StreamConfig scfg;
    scfg.batch_size = 64;

    sim::StreamReport ref = sim::StreamingService::run(
        sim::Engine(packetEngineConfig(1)), bvh, mixedSchedule(bvh),
        scfg);
    ASSERT_EQ(ref.jobs.size(), 3u);
    ASSERT_EQ(ref.total_rays, 192u + 150u + 64u);
    ASSERT_GT(ref.makespan_ticks, 0u);
    ASSERT_GT(ref.fairness, 0.0);

    for (unsigned threads : {2u, 8u}) {
        sim::StreamReport rep = sim::StreamingService::run(
            sim::Engine(packetEngineConfig(threads)), bvh,
            mixedSchedule(bvh), scfg);
        EXPECT_EQ(rep.threads_used,
                  std::min<unsigned>(threads, unsigned(rep.batches)));
        EXPECT_EQ(rep.unit, ref.unit) << threads << " threads";
        EXPECT_EQ(rep.batches, ref.batches);
        EXPECT_EQ(rep.makespan_ticks, ref.makespan_ticks);
        EXPECT_EQ(rep.p50_job_latency, ref.p50_job_latency);
        EXPECT_EQ(rep.p99_job_latency, ref.p99_job_latency);
        EXPECT_EQ(rep.fairness, ref.fairness);
        ASSERT_EQ(rep.jobs.size(), ref.jobs.size());
        for (size_t j = 0; j < ref.jobs.size(); ++j)
            EXPECT_TRUE(jobReportsIdentical(rep.jobs[j], ref.jobs[j]))
                << threads << " threads";
    }
}

TEST(StreamingService, JobOrderDoesNotChangeTheReport)
{
    Bvh4 bvh = testScene();
    std::vector<sim::RenderJob> jobs = mixedSchedule(bvh);
    sim::Engine engine(packetEngineConfig(2));

    sim::StreamReport ref =
        sim::StreamingService::run(engine, bvh, mixedSchedule(bvh), {});

    // The same schedule listed in reverse: the plan is a function of
    // the schedule, not of the order of the job vector.
    std::reverse(jobs.begin(), jobs.end());
    sim::StreamReport rep =
        sim::StreamingService::run(engine, bvh, std::move(jobs), {});

    EXPECT_EQ(rep.unit, ref.unit);
    ASSERT_EQ(rep.jobs.size(), ref.jobs.size());
    for (size_t j = 0; j < ref.jobs.size(); ++j)
        EXPECT_TRUE(jobReportsIdentical(rep.jobs[j], ref.jobs[j]));
}

TEST(StreamingService, HitsMatchStandaloneEngineRunsPerJob)
{
    Bvh4 bvh = testScene();
    std::vector<sim::RenderJob> jobs = mixedSchedule(bvh);
    sim::Engine engine(packetEngineConfig(1));

    sim::StreamReport rep =
        sim::StreamingService::run(engine, bvh, mixedSchedule(bvh), {});

    // Batch composition is a timing concern only: each job's hit
    // records are what a solo batch-synchronous run produces.
    for (const sim::RenderJob &job : jobs) {
        sim::EngineReport solo = engine.run(bvh, job.rays, job.any_hit);
        const sim::JobReport *jr = rep.job(job.id);
        ASSERT_NE(jr, nullptr);
        ASSERT_EQ(jr->hits.size(), solo.hits.size());
        for (size_t i = 0; i < solo.hits.size(); ++i)
            ASSERT_TRUE(bitIdentical(jr->hits[i], solo.hits[i]))
                << "job " << job.id << " ray " << i;
    }
}

TEST(StreamingService, ZeroRayAndEmptyRunsAreWellDefined)
{
    Bvh4 bvh = testScene();
    sim::Engine engine(packetEngineConfig(1));

    sim::StreamReport none =
        sim::StreamingService::run(engine, bvh, {}, {});
    EXPECT_TRUE(none.jobs.empty());
    EXPECT_EQ(none.total_rays, 0u);
    EXPECT_EQ(none.makespan_ticks, 0u);

    std::vector<sim::RenderJob> jobs;
    jobs.push_back({1, 5, false, {}});
    jobs.push_back({2, 0, false, cameraRays(bvh, 4, 4)});
    sim::StreamReport rep =
        sim::StreamingService::run(engine, bvh, std::move(jobs), {});
    const sim::JobReport *empty = rep.job(1);
    ASSERT_NE(empty, nullptr);
    EXPECT_EQ(empty->latency, 0u);
    EXPECT_EQ(empty->completion_tick, 5u);
    EXPECT_EQ(empty->batches, 0u);
    EXPECT_EQ(rep.total_rays, 16u);
}

TEST(StreamingService, ApiMisuseThrows)
{
    Bvh4 bvh = testScene();
    sim::Engine engine(packetEngineConfig(1));

    // Duplicate job ids.
    std::vector<sim::RenderJob> jobs;
    jobs.push_back({3, 0, false, cameraRays(bvh, 2, 2)});
    jobs.push_back({3, 10, false, cameraRays(bvh, 2, 2)});
    EXPECT_THROW(sim::StreamingService::run(engine, bvh, std::move(jobs)),
                 std::invalid_argument);
}

TEST(StreamingService, BatchErrorPropagatesFromWorkers)
{
    // A cycle budget no batch can meet: the std::runtime_error a batch
    // throws on a worker must surface from run() at every worker
    // count, without hanging the service or the engine's pool.
    Bvh4 bvh = testScene();
    sim::StreamConfig scfg;
    scfg.batch_size = 16; // ~26 batches: every worker drafts
    for (unsigned threads : {1u, 2u, 4u}) {
        sim::EngineConfig cfg = packetEngineConfig(threads);
        cfg.max_cycles_per_batch = 10;
        sim::Engine engine(cfg);
        try {
            sim::StreamingService::run(engine, bvh, mixedSchedule(bvh),
                                       scfg);
            ADD_FAILURE() << threads << " threads: run() returned";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("max_cycles_per_batch"),
                      std::string::npos)
                << threads << " threads: " << e.what();
        }
    }
}

// ---------------------------------------------------------------------
// Cross-job packet formation and head-of-line blocking.
// ---------------------------------------------------------------------

TEST(CrossJobPacking, SharedFetchesCrossJobBoundariesOnlyWhenPacked)
{
    Bvh4 bvh = testScene();
    // Two coherent same-mode jobs in flight together: round-robin
    // interleave makes adjacent pending rays come from different jobs,
    // so width-8 packets mix them.
    auto makeJobs = [&] {
        std::vector<sim::RenderJob> jobs;
        jobs.push_back({1, 0, false, cameraRays(bvh, 12, 12)});
        jobs.push_back({2, 0, false, cameraRays(bvh, 8, 8)});
        return jobs;
    };
    sim::Engine engine(packetEngineConfig(1));

    sim::StreamConfig on;
    on.batch_size = 64;
    on.cross_job_packing = true;
    sim::StreamReport packed =
        sim::StreamingService::run(engine, bvh, makeJobs(), on);
    EXPECT_GT(packed.unit.packet.cross_job_fetches_shared, 0u);
    EXPECT_GT(packed.crossJobShareRate(), 0.0);
    EXPECT_GT(packed.job(1)->shared_batches, 0u);

    sim::StreamConfig off = on;
    off.cross_job_packing = false;
    sim::StreamReport solo =
        sim::StreamingService::run(engine, bvh, makeJobs(), off);
    EXPECT_EQ(solo.unit.packet.cross_job_fetches_shared, 0u);
    EXPECT_EQ(solo.crossJobShareRate(), 0.0);
    EXPECT_EQ(solo.job(1)->shared_batches, 0u);
    EXPECT_EQ(solo.job(2)->shared_batches, 0u);

    // Tags never influence formation or traversal: identical hits
    // either way.
    for (uint64_t id : {1u, 2u}) {
        ASSERT_EQ(packed.job(id)->hits.size(), solo.job(id)->hits.size());
        for (size_t i = 0; i < packed.job(id)->hits.size(); ++i)
            ASSERT_TRUE(bitIdentical(packed.job(id)->hits[i],
                                     solo.job(id)->hits[i]));
    }
}

TEST(CrossJobPacking, PackingBeatsHeadOfLineBlockingForSmallJobs)
{
    Bvh4 bvh = testScene();
    // A large frame job monopolizes the machine; a small probe job
    // arrives shortly after. Without packing it waits for the frame to
    // drain (head-of-line blocking); with packing its rays ride shared
    // batches and it completes much earlier.
    auto makeJobs = [&] {
        std::vector<sim::RenderJob> jobs;
        jobs.push_back({1, 0, false, cameraRays(bvh, 24, 24)});
        jobs.push_back({2, 100, false, cameraRays(bvh, 4, 4)});
        return jobs;
    };
    sim::Engine engine(packetEngineConfig(1));
    sim::StreamConfig cfg;
    cfg.batch_size = 64;

    cfg.cross_job_packing = true;
    sim::StreamReport packed =
        sim::StreamingService::run(engine, bvh, makeJobs(), cfg);
    cfg.cross_job_packing = false;
    sim::StreamReport hol =
        sim::StreamingService::run(engine, bvh, makeJobs(), cfg);

    const sim::JobReport *ps = packed.job(2);
    const sim::JobReport *hs = hol.job(2);
    ASSERT_NE(ps, nullptr);
    ASSERT_NE(hs, nullptr);
    EXPECT_LT(ps->latency, hs->latency);
    EXPECT_LT(ps->queue_wait, hs->queue_wait);
    EXPECT_LT(ps->p99_ray_latency, hs->p99_ray_latency);
}

// ---------------------------------------------------------------------
// Batch-API pins: the refactor onto the executor tier reproduces the
// pre-refactor (PR 6) numbers bit for bit. Counters are hard-coded in
// the style of the PR 4/5 pin suites; any change here is a timing or
// results regression, not noise.
// ---------------------------------------------------------------------

namespace
{

std::vector<Ray>
pinRays(const Bvh4 &bvh)
{
    std::vector<Ray> rays = cameraRays(bvh, 16, 16);
    std::vector<Ray> rnd = randomRays(99, 48);
    rays.insert(rays.end(), rnd.begin(), rnd.end());
    return rays;
}

} // namespace

TEST(BatchApiPin, LoadedSingleUnitReproducesPr6BitForBit)
{
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = pinRays(bvh);

    sim::EngineConfig cfg = packetEngineConfig(1);
    cfg.batch_size = 64;
    cfg.rt.issue_width = 2;
    cfg.rt.mshrs = 8;
    sim::EngineReport rep = sim::Engine(cfg).run(bvh, rays);

    EXPECT_EQ(rep.batches, 5u);
    EXPECT_EQ(rep.unit.cycles, 13143u);
    EXPECT_EQ(rep.unit.rays_completed, 304u);
    EXPECT_EQ(rep.unit.datapath_beats, 4793u);
    EXPECT_EQ(rep.unit.datapathIdle(), 21493u);
    EXPECT_EQ(rep.unit.mem_requests, 793u);
    EXPECT_EQ(rep.unit.stallOnMemory(), 20499u);
    EXPECT_EQ(rep.unit.mem.hits, 609u);
    EXPECT_EQ(rep.unit.mem.misses, 1263u);
    EXPECT_EQ(rep.unit.mem.evictions, 943u);
    EXPECT_EQ(rep.unit.packet.packets_formed, 38u);
    EXPECT_EQ(rep.unit.packet.node_visits, 966u);
    EXPECT_EQ(rep.unit.packet.active_ray_visits, 3214u);
    EXPECT_EQ(rep.unit.packet.fetches_shared, 2248u);
    EXPECT_EQ(rep.unit.packet.cross_job_fetches_shared, 0u);
    EXPECT_EQ(rep.unit.packet.divergence_splits, 362u);
    EXPECT_EQ(rep.unit.packet.rays_retired, 304u);
    EXPECT_EQ(rep.unit.packet.occupancy_at_retire, 1452u);
    EXPECT_EQ(rep.unit.packet.compactions, 15u);
    EXPECT_EQ(rep.unit.packet.lanes_repacked, 34u);
    EXPECT_EQ(rep.unit.mshr.allocations, 793u);
    EXPECT_EQ(rep.unit.mshr.merges, 173u);
    EXPECT_EQ(rep.unit.mshr.stalls_full, 0u);
    size_t n_hits = 0;
    for (const auto &h : rep.hits)
        n_hits += h.hit;
    EXPECT_EQ(n_hits, 58u);
}

TEST(BatchApiPin, SharedL2ChipReproducesPr6BitForBit)
{
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = pinRays(bvh);

    sim::EngineConfig cfg = packetEngineConfig(1);
    cfg.batch_size = 64;
    cfg.chip.units = 4;
    cfg.chip.l2 = sim::L2Mode::Shared;
    cfg.chip.l2cfg = kProbeL2_128KiB;
    sim::EngineReport rep = sim::Engine(cfg).run(bvh, rays);

    EXPECT_EQ(rep.batches, 5u);
    EXPECT_EQ(rep.unit.cycles, 44940u);
    EXPECT_EQ(rep.unit.rays_completed, 304u);
    EXPECT_EQ(rep.unit.datapath_beats, 4792u);
    EXPECT_EQ(rep.unit.datapathIdle(), 40148u);
    EXPECT_EQ(rep.unit.mem_requests, 1352u);
    EXPECT_EQ(rep.unit.stallOnMemory(), 36666u);
    EXPECT_EQ(rep.unit.mem.hits, 949u);
    EXPECT_EQ(rep.unit.mem.misses, 2247u);
    EXPECT_EQ(rep.unit.mem.evictions, 1000u);
    EXPECT_EQ(rep.unit.packet.packets_formed, 40u);
    EXPECT_EQ(rep.unit.packet.node_visits, 1352u);
    EXPECT_EQ(rep.unit.packet.active_ray_visits, 3212u);
    EXPECT_EQ(rep.unit.packet.fetches_shared, 1860u);
    EXPECT_EQ(rep.unit.packet.divergence_splits, 435u);
    EXPECT_EQ(rep.unit.packet.rays_retired, 304u);
    EXPECT_EQ(rep.unit.packet.occupancy_at_retire, 1400u);
    EXPECT_EQ(rep.unit.packet.compactions, 14u);
    EXPECT_EQ(rep.unit.packet.lanes_repacked, 29u);
    EXPECT_EQ(rep.unit.chip_cycles, 11923u);
    const L2Stats l2 = rep.unit.l2Total();
    EXPECT_EQ(l2.hits, 731u);
    EXPECT_EQ(l2.misses, 837u);
    EXPECT_EQ(l2.merges, 679u);
    EXPECT_EQ(l2.cross_unit_merges, 679u);
    EXPECT_EQ(l2.queue_stalls, 129u);
    EXPECT_EQ(l2.hops, 4502u);
    size_t n_hits = 0;
    for (const auto &h : rep.hits)
        n_hits += h.hit;
    EXPECT_EQ(n_hits, 58u);
}

TEST(BatchApiPin, RenderPassesReproducesPr6BitForBit)
{
    Bvh4 bvh = testScene();

    sim::EngineConfig cfg = packetEngineConfig(1);
    cfg.batch_size = 64;
    sim::Engine engine(cfg);
    sim::PassConfig pc;
    pc.camera.eye = {0.5f, 1.0f, 9.0f};
    pc.camera.look_at = {0.0f, 0.0f, 0.0f};
    pc.camera.width = 16;
    pc.camera.height = 16;
    pc.ao_samples = 2;
    pc.bounce = true;
    pc.seed = 7;
    sim::PassesReport rep = sim::renderPasses(engine, bvh, pc);

    EXPECT_EQ(rep.total_rays, 488u);
    EXPECT_EQ(rep.unit.cycles, 22771u);
    EXPECT_EQ(rep.unit.datapath_beats, 7637u);
    EXPECT_EQ(rep.unit.datapathIdle(), 15134u);
    EXPECT_EQ(rep.unit.mem_requests, 1719u);
    EXPECT_EQ(rep.unit.stallOnMemory(), 14501u);
    EXPECT_EQ(rep.unit.mem.hits, 1718u);
    EXPECT_EQ(rep.unit.mem.misses, 2381u);
    EXPECT_EQ(rep.unit.mem.evictions, 1869u);
    EXPECT_EQ(rep.unit.packet.packets_formed, 63u);
    EXPECT_EQ(rep.unit.packet.node_visits, 1719u);
    EXPECT_EQ(rep.unit.packet.active_ray_visits, 5076u);
    EXPECT_EQ(rep.unit.packet.fetches_shared, 3357u);
    EXPECT_EQ(rep.unit.packet.divergence_splits, 595u);
    EXPECT_EQ(rep.unit.packet.rays_retired, 488u);
    EXPECT_EQ(rep.unit.packet.occupancy_at_retire, 2264u);
    EXPECT_EQ(rep.unit.packet.compactions, 21u);
    EXPECT_EQ(rep.unit.packet.lanes_repacked, 45u);
    EXPECT_EQ(rep.primary.unit.cycles, 9839u);
    EXPECT_EQ(rep.shadow.unit.cycles, 4241u);
    EXPECT_EQ(rep.ao.unit.cycles, 4227u);
    EXPECT_EQ(rep.bounce.unit.cycles, 4464u);

    double dsum = 0, asum = 0;
    size_t nlit = 0;
    for (float d : rep.diffuse)
        dsum += d;
    for (float a : rep.ao_open)
        asum += a;
    for (uint8_t l : rep.lit)
        nlit += l;
    EXPECT_NEAR(dsum, 19.862127, 1e-4);
    EXPECT_EQ(asum, 255.0);
    EXPECT_EQ(nlit, 235u);
}
