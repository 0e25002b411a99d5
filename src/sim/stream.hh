/**
 * @file
 * Job and scheduler tiers of the streaming render service.
 *
 * The batch-synchronous sim::Engine answers "how long does THIS
 * workload take"; a service shared by many clients asks per-job
 * questions: how long did each client wait, in simulated cycles, and
 * how fairly was the machine shared. This module adds the two tiers
 * above the executor (sim/executor.hh) that make those questions
 * answerable:
 *
 *   * job tier — sim::RenderJob is one client request (rays + mode +
 *     arrival tick from a fixed, caller-supplied schedule); a run of
 *     the service takes the whole schedule as one job vector;
 *   * scheduler tier — sim::BatchScheduler packs rays from different
 *     in-flight jobs into shared batches (cross-job packet formation:
 *     one job's coherent rays fill another's divergence-thinned
 *     packets), and sim::StreamingService::run — the service's one
 *     entry point — runs the planned batches through the engine's
 *     batch loop while tracking per-job completion on a
 *     simulated-cycle timeline.
 *
 * Determinism contract, extended from the engine: the batch plan is a
 * PURE function of the job schedule (ids, arrival ticks, modes, rays,
 * StreamConfig) — never of worker count, wall-clock or the order of
 * the job vector — and each planned batch is executed by a freshly
 * constructed unit. A fixed arrival schedule therefore yields
 * bit-identical hits, per-job simulated latencies and merged
 * statistics at every worker count, in whatever order the jobs are
 * listed. The simulated timeline is sequential-machine semantics:
 * batches are charged in plan order (start = max(previous end, batch
 * ready tick)), so worker parallelism accelerates the host, not the
 * modeled chip.
 */
#ifndef RAYFLEX_SIM_STREAM_HH
#define RAYFLEX_SIM_STREAM_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/engine.hh"

namespace rayflex::sim
{

/** One client request: a batch of rays with a traversal mode and an
 *  arrival tick on the service's simulated clock. The schedule is
 *  caller-supplied and fixed — arrival ticks are simulation inputs,
 *  not measurements — which is what keeps streaming runs
 *  reproducible. */
struct RenderJob
{
    /** Caller-chosen identity; must be unique within a service run
     *  (StreamingService::run throws on duplicates). */
    uint64_t id = 0;

    /** Simulated cycle at which the job enters the system. Rays of a
     *  job are never scheduled into a batch that forms before this
     *  tick. */
    uint64_t arrival_tick = 0;

    /** Any-hit (occlusion) job; jobs of different modes never share a
     *  batch (a batch runs its unit in one traversal mode). */
    bool any_hit = false;

    std::vector<core::Ray> rays;
};

/** Simulated cycles per scheduled ray by which the scheduler's
 *  formation clock advances between batches: how far the simulated
 *  clock has moved, and hence which arrivals are in flight, when the
 *  next batch forms. A fixed model parameter, not a measurement, so
 *  the plan stays a pure function of the schedule. */
inline constexpr unsigned kPlanCyclesPerRay = 8;

/** Scheduler-tier configuration. */
struct StreamConfig
{
    /** Rays per scheduled batch; 0 means unbounded (one batch per
     *  formation round). */
    size_t batch_size = 1024;

    /** Pack rays of different in-flight same-mode jobs into shared
     *  batches (round-robin across jobs in arrival order). Off, the
     *  scheduler serves one job at a time to exhaustion — the
     *  head-of-line-blocking baseline BM_StreamingMixSweep compares
     *  packing against. Changes batch composition (and therefore
     *  timing and latency), never hit records. */
    bool cross_job_packing = true;
};

/** One scheduled batch: which (job, ray) pairs run together, in
 *  submission order per job, round-robin across jobs. */
struct PlannedBatch
{
    bool any_hit = false;

    /** Latest arrival tick among contributing jobs: the batch cannot
     *  start executing before every contributor has arrived. */
    uint64_t ready_tick = 0;

    /** Distinct jobs contributing rays (> 1 only with cross-job
     *  packing). */
    size_t n_jobs = 0;

    /** (job index into the sorted job list, ray index within job). */
    std::vector<std::pair<uint32_t, uint32_t>> rays;
};

/**
 * The scheduler tier: turns a sorted job list into a deterministic
 * batch plan. plan() is a pure function — no clocks, no threads — so
 * the service's determinism contract reduces to the executor's.
 *
 * Formation model: a virtual clock starts at the first arrival and
 * advances kPlanCyclesPerRay per scheduled ray. Each round, the
 * batch takes the traversal mode of the earliest in-flight job and
 * fills with that mode's in-flight jobs — round-robin one ray per job
 * in (arrival, id) order when cross-job packing is on, FIFO from the
 * earliest job alone when off — until batch_size rays or nothing
 * eligible remains. When no job is in flight the clock jumps to the
 * next arrival.
 */
class BatchScheduler
{
  public:
    explicit BatchScheduler(const StreamConfig &cfg) : cfg_(cfg) {}

    /** `jobs` must be sorted by (arrival_tick, id); empty-ray jobs
     *  are legal and simply appear in no batch. */
    std::vector<PlannedBatch>
    plan(const std::vector<RenderJob> &jobs) const;

  private:
    StreamConfig cfg_;
};

/** Per-job outcome on the simulated timeline. */
struct JobReport
{
    uint64_t id = 0;
    uint64_t arrival_tick = 0;
    bool any_hit = false;

    /** Hit records in the job's own ray order (the usual reduced
     *  any-hit record contract applies). */
    std::vector<bvh::HitRecord> hits;

    /** Simulated tick the first batch containing this job's rays
     *  started executing (= arrival_tick for zero-ray jobs). */
    uint64_t first_service_tick = 0;
    /** Simulated tick the last batch containing this job's rays
     *  drained (= arrival_tick for zero-ray jobs). */
    uint64_t completion_tick = 0;
    /** completion_tick - arrival_tick: the job's simulated latency. */
    uint64_t latency = 0;
    /** first_service_tick - arrival_tick: simulated cycles spent
     *  queued behind other work — the head-of-line-blocking metric. */
    uint64_t queue_wait = 0;

    /** Weighted nearest-rank percentiles of the job's PER-RAY
     *  latencies (each ray completes when its batch drains), so a job
     *  spread over many batches reports its internal spread.
     *
     *  Bucket-rounding contract (shared by every percentile in this
     *  file, job- and ray-level): percentiles are read from a mergeable
     *  log-linear obs::Histogram and reported as the selected bucket's
     *  lower bound — exact for latencies below 64 cycles, under 1.6%
     *  relative error above (see obs/histogram.hh). The histogram is
     *  what makes a p999 affordable and the quantiles mergeable across
     *  batches without retaining every sample. */
    uint64_t p50_ray_latency = 0;
    uint64_t p99_ray_latency = 0;
    uint64_t p999_ray_latency = 0;

    size_t batches = 0;        ///< batches containing this job's rays
    size_t shared_batches = 0; ///< of those, batches shared with other jobs
};

/** Aggregate outcome of a streaming run. */
struct StreamReport
{
    /** Per-job reports, sorted by (arrival_tick, id). */
    std::vector<JobReport> jobs;

    /** Merged unit counters across all batches (CycleAccurate), as
     *  EngineReport::unit. unit.packet.cross_job_fetches_shared is
     *  the cross-job packing evidence: node fetches shared between
     *  lanes of different jobs. */
    bvh::RtUnitStats unit;
    /** Merged traversal counters (Functional model). */
    bvh::TraversalStats traversal;

    uint64_t total_rays = 0;
    size_t batches = 0;
    unsigned threads_used = 0;

    /** Simulated tick at which the last batch drained (0 when no rays
     *  were submitted). Ticks are absolute on the arrival timeline. */
    uint64_t makespan_ticks = 0;

    /** Nearest-rank percentiles over the jobs' simulated latencies
     *  (zero-ray jobs excluded). Bucket-rounded like the per-ray
     *  percentiles — see JobReport::p50_ray_latency for the one
     *  statement of that contract. */
    uint64_t p50_job_latency = 0;
    uint64_t p99_job_latency = 0;
    uint64_t p999_job_latency = 0;

    /** Cycle-stamped events on the service's simulated timeline
     *  (EngineConfig::trace, CycleAccurate): JobSubmit at each arrival
     *  tick, per-batch unit/L2 events rebased to the batch's timeline
     *  start (start = max(previous end, ready tick)) and bracketed by
     *  BatchStart/BatchEnd, then JobComplete at each completion tick.
     *  Empty with tracing off; bit-identical at every worker count. */
    std::vector<obs::TraceRecord> trace;

    /** Jain fairness index over per-job simulated throughput
     *  (rays / latency): 1 = every job got identical service, 1/n =
     *  one job got everything. 0 when there are no jobs with rays. */
    double fairness = 0;

    /** Host wall-clock of the execute phase (not part of the
     *  determinism contract). */
    double elapsed_seconds = 0;

    /** Fraction of shared packet fetches that crossed a job boundary:
     *  how much of the packet win came from cross-job packing. */
    double
    crossJobShareRate() const
    {
        return unit.packet.fetches_shared
                   ? double(unit.packet.cross_job_fetches_shared) /
                         double(unit.packet.fetches_shared)
                   : 0.0;
    }

    /** The report of job `id`, or nullptr. */
    const JobReport *
    job(uint64_t id) const
    {
        for (const JobReport &j : jobs)
            if (j.id == id)
                return &j;
        return nullptr;
    }
};

/**
 * The streaming front-end over an existing Engine. run() takes a job
 * schedule, plans its batches, executes them through the engine's
 * batch loop and worker pool, and returns the per-job and aggregate
 * report. The engine's threads/model/rt/dp/chip/trace knobs apply;
 * EngineConfig::batch_size is ignored, superseded by
 * StreamConfig::batch_size, and each job carries its own mode.
 */
class StreamingService
{
  public:
    /** Schedule every job, execute, and report.
     *  @throws std::invalid_argument on duplicate job ids. */
    static StreamReport run(const Engine &engine, const bvh::Bvh4 &bvh,
                            std::vector<RenderJob> jobs,
                            const StreamConfig &cfg = {});
};

} // namespace rayflex::sim

#endif // RAYFLEX_SIM_STREAM_HH
