/**
 * @file
 * Batch simulation engine implementation (the batch-synchronous front
 * of the job/scheduler/executor stack).
 *
 * Work distribution is a single atomic batch counter: workers claim the
 * next unclaimed batch index until none remain. Batches are contiguous
 * ray ranges; each worker gathers its claimed range into executor ray
 * refs (ray pointer + hit-record pointer) and hands them to the shared
 * sim::BatchExecutor, which scatters hit records into disjoint slices
 * of the shared output vector — so no synchronization is needed on
 * results. Statistics are accumulated per worker and merged after the
 * join, which is safe because the merge operation is commutative and
 * associative.
 *
 * Workers live in a persistent pool (Engine::Pool): threads are spawned
 * once, then parked on a condition variable between runs. A run hands
 * the pool a job and a worker count; each drafted worker executes
 * job(worker_id) and reports back, and the dispatching thread blocks
 * until all drafted workers have returned. Single-worker runs bypass
 * the pool entirely and execute inline on the calling thread. The
 * streaming service (sim/stream.hh) dispatches onto the same pool
 * through Engine::dispatchWorkers.
 */
#include "sim/engine.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <stdexcept>
#include <thread>

namespace rayflex::sim
{

/** Persistent worker threads parked between dispatches. */
class Engine::Pool
{
  public:
    explicit Pool(unsigned workers)
    {
        threads_.reserve(workers);
        for (unsigned i = 0; i < workers; ++i)
            threads_.emplace_back([this, i] { loop(i); });
    }

    ~Pool()
    {
        {
            std::lock_guard<std::mutex> lk(m_);
            stop_ = true;
        }
        cv_work_.notify_all();
        for (std::thread &t : threads_)
            t.join();
    }

    /** Run job(0) .. job(n-1) on n pool workers; blocks until every
     *  drafted worker has returned. The job must not throw (workers
     *  capture exceptions themselves). */
    void
    dispatch(unsigned n, const std::function<void(unsigned)> &job)
    {
        std::unique_lock<std::mutex> lk(m_);
        job_ = &job;
        active_ = n;
        remaining_ = n;
        ++generation_;
        cv_work_.notify_all();
        cv_done_.wait(lk, [this] { return remaining_ == 0; });
        job_ = nullptr;
    }

  private:
    void
    loop(unsigned id)
    {
        uint64_t seen = 0;
        std::unique_lock<std::mutex> lk(m_);
        for (;;) {
            cv_work_.wait(lk, [&] {
                return stop_ || generation_ != seen;
            });
            if (stop_)
                return;
            seen = generation_;
            if (id >= active_)
                continue; // not drafted for this dispatch
            const std::function<void(unsigned)> *job = job_;
            lk.unlock();
            (*job)(id);
            lk.lock();
            if (--remaining_ == 0)
                cv_done_.notify_one();
        }
    }

    std::vector<std::thread> threads_;
    std::mutex m_;
    std::condition_variable cv_work_, cv_done_;
    const std::function<void(unsigned)> *job_ = nullptr;
    unsigned active_ = 0;    ///< workers drafted this generation
    unsigned remaining_ = 0; ///< drafted workers still running
    uint64_t generation_ = 0;
    bool stop_ = false;
};

Engine::Engine(const EngineConfig &cfg) : cfg_(cfg)
{
    resolved_threads_ = cfg.threads;
    if (resolved_threads_ == 0) {
        resolved_threads_ = std::thread::hardware_concurrency();
        if (resolved_threads_ == 0)
            resolved_threads_ = 1;
    }
}

Engine::~Engine() = default;

ExecutorConfig
Engine::executorConfig() const
{
    ExecutorConfig ec;
    ec.model = cfg_.model;
    ec.rt = cfg_.rt;
    ec.dp = cfg_.dp;
    ec.chip = cfg_.chip;
    ec.max_cycles_per_batch = cfg_.max_cycles_per_batch;
    ec.trace = cfg_.trace;
    return ec;
}

void
Engine::dispatchWorkers(unsigned n,
                        const std::function<void(unsigned)> &job) const
{
    if (n <= 1) {
        job(0);
        return;
    }
    // Concurrent run() calls from different threads serialize here;
    // results are unaffected (work distribution is the callers' atomic
    // batch counters), only wall-clock overlaps are lost.
    std::lock_guard<std::mutex> lk(pool_mutex_);
    if (!pool_)
        pool_ = std::make_unique<Pool>(resolved_threads_);
    pool_->dispatch(n, job);
}

template <class Ref, class Report, class MakeRef, class Exec>
BatchResult
Engine::shard(size_t n, Report &report, MakeRef ref, Exec exec) const
{
    const std::vector<core::BatchRange> batches =
        core::sliceBatches(n, cfg_.batch_size);
    report.batches = batches.size();
    const unsigned threads =
        unsigned(std::min<size_t>(resolved_threads_, batches.size()));
    report.threads_used = threads;

    std::atomic<size_t> next_batch{0};
    std::vector<BatchResult> tallies(threads);
    std::vector<std::exception_ptr> errors(threads);

    auto worker = [&](unsigned wid) {
        try {
            // Gather each claimed contiguous range into refs (reusing
            // one buffer per worker): the executor then sees the same
            // items with the same local ids in the same order as the
            // pre-refactor inline loops, so schedules are bit-for-bit
            // unchanged.
            std::vector<Ref> refs;
            for (size_t bi = next_batch.fetch_add(1);
                 bi < batches.size(); bi = next_batch.fetch_add(1)) {
                const core::BatchRange r = batches[bi];
                refs.resize(r.size());
                for (size_t i = r.begin; i < r.end; ++i)
                    refs[i - r.begin] = ref(i);
                const BatchResult br = exec(refs.data(), refs.size(), bi);
                tallies[wid].unit.merge(br.unit);
                tallies[wid].traversal.merge(br.traversal);
                tallies[wid].knn.merge(br.knn);
            }
        } catch (...) {
            errors[wid] = std::current_exception();
        }
    };

    if (threads > 0) {
        const auto t0 = std::chrono::steady_clock::now();
        dispatchWorkers(threads, worker);
        const auto t1 = std::chrono::steady_clock::now();
        report.elapsed_seconds =
            std::chrono::duration<double>(t1 - t0).count();
    }

    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);

    // Merge worker tallies in worker-id order. Any order would give the
    // same counters (sums and maxima commute); a fixed order just makes
    // that property obvious.
    BatchResult total;
    for (const BatchResult &t : tallies) {
        total.unit.merge(t.unit);
        total.traversal.merge(t.traversal);
        total.knn.merge(t.knn);
    }
    return total;
}

EngineReport
Engine::run(const bvh::Bvh4 &bvh,
            const std::vector<core::Ray> &rays) const
{
    return run(bvh, rays, cfg_.any_hit);
}

EngineReport
Engine::run(const bvh::Bvh4 &bvh, const std::vector<core::Ray> &rays,
            bool any_hit) const
{
    const BatchExecutor exec(bvh, executorConfig());
    EngineReport report;
    report.hits.resize(rays.size());

    // Tracing keeps per-batch results in batch-index slots (disjoint
    // writes, no synchronization) so the post-join concatenation can
    // rebuild the sequential simulated timeline in batch order no
    // matter which worker ran which batch.
    struct BatchTrace
    {
        size_t rays = 0;
        uint64_t cycles = 0;
        std::vector<obs::TraceRecord> records;
    };
    const bool tracing =
        cfg_.trace && cfg_.model == ExecutionModel::CycleAccurate;
    std::vector<BatchTrace> traces(
        tracing ? core::sliceBatches(rays.size(), cfg_.batch_size).size()
                : 0);

    const BatchResult total = shard<BatchRayRef>(
        rays.size(), report,
        [&](size_t i) {
            return BatchRayRef{&rays[i], &report.hits[i], 0};
        },
        [&](const BatchRayRef *refs, size_t n, size_t bi) {
            BatchResult br = exec.executeBatch(refs, n, any_hit);
            if (tracing)
                traces[bi] = {n, br.sim_cycles, std::move(br.trace)};
            return br;
        });
    report.unit = total.unit;
    report.traversal = total.traversal;

    // Concatenate per-batch traces in batch order onto one sequential
    // simulated timeline: batch k starts where batch k-1 ended. The
    // decomposition into batches and each batch's evolution are both
    // worker-independent, so the assembled trace is bit-identical at
    // every worker count.
    uint64_t offset = 0;
    for (size_t bi = 0; bi < traces.size(); ++bi) {
        const BatchTrace &t = traces[bi];
        report.trace.push_back({offset, 0, obs::TraceEvent::BatchStart,
                                uint64_t(bi), uint64_t(t.rays)});
        for (obs::TraceRecord rec : t.records) {
            rec.cycle += offset;
            report.trace.push_back(rec);
        }
        offset += t.cycles;
        report.trace.push_back({offset, 0, obs::TraceEvent::BatchEnd,
                                uint64_t(bi), uint64_t(t.rays)});
    }
    return report;
}

KnnReport
Engine::runKnn(const bvh::KnnIndex &index,
               const std::vector<bvh::KnnQuery> &queries) const
{
    if (cfg_.model == ExecutionModel::CycleAccurate &&
        !cfg_.dp.extended)
        throw std::invalid_argument(
            "Engine::runKnn: EngineConfig::dp must be an extended "
            "datapath config (e.g. core::kExtendedUnified)");
    // KnnReport carries no trace (see EngineConfig::trace): drop the
    // flag here rather than collect per-batch events only to discard
    // them after the join.
    ExecutorConfig ec = executorConfig();
    ec.trace = false;
    const BatchExecutor exec(index, ec);

    KnnReport report;
    report.results.resize(queries.size());
    const BatchResult total = shard<KnnBatchRef>(
        queries.size(), report,
        [&](size_t i) {
            return KnnBatchRef{&queries[i], &report.results[i]};
        },
        [&](const KnnBatchRef *refs, size_t n, size_t) {
            return exec.executeKnnBatch(refs, n);
        });
    report.unit = total.unit;
    // One traversal-counter field whatever the model: the cycle
    // model's counters live inside the unit stats.
    report.knn = cfg_.model == ExecutionModel::CycleAccurate
                     ? total.unit.knn
                     : total.knn;
    return report;
}

} // namespace rayflex::sim
