/**
 * @file
 * Streaming service implementation: plan, execute, simulated
 * timeline.
 *
 * run() is three deterministic phases. PLAN: the sorted job list
 * goes through BatchScheduler::plan, a pure function. EXECUTE: the
 * engine's batch loop (Engine::forEachBatch) gathers every planned
 * batch into executor refs and runs it on a freshly constructed unit
 * (sim::BatchExecutor); per-batch results land in a slot indexed by
 * plan order, so the worker count cannot influence any result.
 * TIMELINE: batches are charged sequentially in plan order
 * (start = max(previous end, ready tick), end = start + the batch's
 * simulated cycles) and per-job latencies read off that timeline.
 */
#include "sim/stream.hh"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <unordered_set>

#include "obs/histogram.hh"

namespace rayflex::sim
{

std::vector<PlannedBatch>
BatchScheduler::plan(const std::vector<RenderJob> &jobs) const
{
    std::vector<PlannedBatch> plans;
    const size_t n = jobs.size();
    const size_t bs = cfg_.batch_size ? cfg_.batch_size
                                      : std::numeric_limits<size_t>::max();

    std::vector<size_t> cursor(n, 0);
    size_t remaining = 0;
    for (const RenderJob &j : jobs)
        remaining += j.rays.size();
    if (remaining == 0)
        return plans;

    // The virtual formation clock: starts at the first arrival and
    // advances kPlanCyclesPerRay per scheduled ray.
    uint64_t v = jobs.front().arrival_tick;

    std::vector<uint32_t> eligible; // job indices, (arrival, id) order
    while (remaining > 0) {
        // In-flight jobs: arrived by `v`, rays left. The list is in
        // sorted order because the jobs are.
        eligible.clear();
        uint64_t next_arrival = 0;
        bool have_next = false;
        for (uint32_t j = 0; j < n; ++j) {
            if (cursor[j] >= jobs[j].rays.size())
                continue;
            if (jobs[j].arrival_tick <= v) {
                eligible.push_back(j);
            } else if (!have_next ||
                       jobs[j].arrival_tick < next_arrival) {
                next_arrival = jobs[j].arrival_tick;
                have_next = true;
            }
        }
        if (eligible.empty()) {
            // Idle gap: jump to the next arrival.
            v = next_arrival;
            continue;
        }

        // The earliest in-flight job sets the batch mode; only jobs of
        // that mode may share the batch (one traversal mode per unit
        // run). With packing off the earliest job IS the batch — the
        // head-of-line-blocking baseline.
        const bool mode = jobs[eligible.front()].any_hit;
        std::erase_if(eligible, [&](uint32_t j) {
            return jobs[j].any_hit != mode;
        });
        if (!cfg_.cross_job_packing)
            eligible.resize(1);

        PlannedBatch b;
        b.any_hit = mode;
        // Round-robin one ray per job per round: rays of different
        // jobs interleave, so adjacent refill-queue neighbours — the
        // rays packet formation groups — come from different jobs.
        bool progressed = true;
        while (b.rays.size() < bs && progressed) {
            progressed = false;
            for (uint32_t j : eligible) {
                if (cursor[j] >= jobs[j].rays.size() ||
                    b.rays.size() >= bs)
                    continue;
                b.rays.emplace_back(j, uint32_t(cursor[j]++));
                progressed = true;
            }
        }

        uint64_t ready = 0;
        uint32_t prev_job = ~0u;
        std::vector<uint32_t> seen;
        for (const auto &[j, ri] : b.rays) {
            (void)ri;
            if (j != prev_job &&
                std::find(seen.begin(), seen.end(), j) == seen.end())
                seen.push_back(j);
            prev_job = j;
            ready = std::max(ready, jobs[j].arrival_tick);
        }
        b.ready_tick = ready;
        b.n_jobs = seen.size();

        remaining -= b.rays.size();
        v += uint64_t(b.rays.size()) * kPlanCyclesPerRay;
        plans.push_back(std::move(b));
    }
    return plans;
}

StreamReport
StreamingService::run(const Engine &engine, const bvh::Bvh4 &bvh,
                      std::vector<RenderJob> jobs,
                      const StreamConfig &cfg)
{
    {
        std::unordered_set<uint64_t> ids;
        for (const RenderJob &j : jobs)
            if (!ids.insert(j.id).second)
                throw std::invalid_argument(
                    "StreamingService: duplicate job id");
    }

    // The canonical job order — and the only order anything below
    // depends on — is the schedule itself, not the order of `jobs`.
    std::stable_sort(jobs.begin(), jobs.end(),
                     [](const RenderJob &a, const RenderJob &b) {
                         return a.arrival_tick != b.arrival_tick
                                    ? a.arrival_tick < b.arrival_tick
                                    : a.id < b.id;
                     });

    const std::vector<PlannedBatch> plans = BatchScheduler(cfg).plan(jobs);

    StreamReport rep;
    rep.batches = plans.size();
    rep.jobs.resize(jobs.size());
    for (size_t j = 0; j < jobs.size(); ++j) {
        JobReport &jr = rep.jobs[j];
        jr.id = jobs[j].id;
        jr.arrival_tick = jobs[j].arrival_tick;
        jr.any_hit = jobs[j].any_hit;
        jr.first_service_tick = jobs[j].arrival_tick;
        jr.completion_tick = jobs[j].arrival_tick;
        jr.hits.resize(jobs[j].rays.size());
        rep.total_rays += jobs[j].rays.size();
    }

    // Each planned batch gathers its (job, ray) pairs into refs and
    // writes its result into its plan-order slot, so worker timing
    // cannot reach any reported number.
    const BatchExecutor exec(bvh, engine.executorConfig());
    std::vector<BatchResult> results(plans.size());
    const auto t0 = std::chrono::steady_clock::now();
    rep.threads_used = engine.forEachBatch(plans.size(), [&](size_t bi) {
        const PlannedBatch &b = plans[bi];
        std::vector<BatchRayRef> refs(b.rays.size());
        for (size_t k = 0; k < b.rays.size(); ++k) {
            const auto [j, ri] = b.rays[k];
            refs[k] = {&jobs[j].rays[ri], &rep.jobs[j].hits[ri], j};
        }
        results[bi] =
            exec.executeBatch(refs.data(), refs.size(), b.any_hit);
    });
    rep.elapsed_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();

    const bool tracing = engine.config().traced();
    if (tracing)
        for (size_t j = 0; j < jobs.size(); ++j)
            rep.trace.push_back({jobs[j].arrival_tick, 0,
                                 obs::TraceEvent::JobSubmit,
                                 jobs[j].id,
                                 uint64_t(jobs[j].rays.size())});

    // The simulated timeline: sequential-machine semantics. Batch bi
    // starts when the previous batch drained and its own contributors
    // have all arrived. Batch statistics merge in plan order, and each
    // batch's executor trace (batch-local clock) is rebased to its
    // timeline start, so the stream trace shares the tick axis with
    // every latency it reports.
    std::vector<obs::Histogram> raylat(jobs.size());
    std::vector<uint64_t> count(jobs.size(), 0);
    std::vector<uint32_t> touched;
    std::vector<bool> first_seen(jobs.size(), false);
    uint64_t prev_end = 0;
    for (size_t bi = 0; bi < plans.size(); ++bi) {
        const PlannedBatch &b = plans[bi];
        const uint64_t start = std::max(prev_end, b.ready_tick);
        const uint64_t end = start + results[bi].sim_cycles;
        prev_end = end;
        rep.unit.merge(results[bi].unit);
        rep.traversal.merge(results[bi].traversal);

        if (tracing)
            appendBatchTrace(rep.trace, bi, b.rays.size(), start,
                             results[bi]);

        touched.clear();
        for (const auto &[j, ri] : b.rays) {
            (void)ri;
            if (count[j]++ == 0)
                touched.push_back(j);
        }
        for (uint32_t j : touched) {
            JobReport &jr = rep.jobs[j];
            if (!first_seen[j]) {
                first_seen[j] = true;
                jr.first_service_tick = start;
            }
            jr.completion_tick = std::max(jr.completion_tick, end);
            ++jr.batches;
            if (b.n_jobs > 1)
                ++jr.shared_batches;
            raylat[j].add(end - jr.arrival_tick, count[j]);
            count[j] = 0;
        }
    }
    rep.makespan_ticks = prev_end;

    // Job- and ray-level percentiles both read off obs::Histogram; the
    // bucket-rounding contract is documented once, at
    // JobReport::p50_ray_latency.
    obs::Histogram job_lat;
    double x_sum = 0, x2_sum = 0;
    size_t x_n = 0;
    for (size_t j = 0; j < jobs.size(); ++j) {
        JobReport &jr = rep.jobs[j];
        jr.latency = jr.completion_tick - jr.arrival_tick;
        jr.queue_wait = jr.first_service_tick - jr.arrival_tick;
        jr.p50_ray_latency = raylat[j].quantile(0.50);
        jr.p99_ray_latency = raylat[j].quantile(0.99);
        jr.p999_ray_latency = raylat[j].quantile(0.999);
        if (!jr.hits.empty()) {
            job_lat.add(jr.latency);
            const double x = double(jr.hits.size()) /
                             double(std::max<uint64_t>(jr.latency, 1));
            x_sum += x;
            x2_sum += x * x;
            ++x_n;
        }
        if (tracing)
            rep.trace.push_back({jr.completion_tick, 0,
                                 obs::TraceEvent::JobComplete, jr.id,
                                 jr.latency});
    }
    rep.p50_job_latency = job_lat.quantile(0.50);
    rep.p99_job_latency = job_lat.quantile(0.99);
    rep.p999_job_latency = job_lat.quantile(0.999);
    rep.fairness = (x_n && x2_sum > 0)
                       ? (x_sum * x_sum) / (double(x_n) * x2_sum)
                       : 0.0;
    return rep;
}

} // namespace rayflex::sim
