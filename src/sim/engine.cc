/**
 * @file
 * Batch simulation engine implementation (the batch-synchronous front
 * of the job/scheduler/executor stack).
 *
 * One batch loop, Engine::forEachBatch, serves run(), runKnn() and the
 * streaming service (sim/stream.hh): workers claim the next unclaimed
 * batch index off one atomic counter until none remain. Each batch
 * gathers its items into executor refs, hands them to the shared
 * sim::BatchExecutor (which scatters results into disjoint slices of
 * the shared output vector) and writes its BatchResult into its own
 * slot — so no synchronization is needed on results. The caller merges
 * the slots in batch order after the join.
 *
 * Workers live in a persistent pool (Engine::Pool): threads are spawned
 * once, then parked on a condition variable between runs. A run hands
 * the pool a job and a worker count; each drafted worker executes
 * job(worker_id) and reports back, and the dispatching thread blocks
 * until all drafted workers have returned. Single-worker runs bypass
 * the pool entirely and execute inline on the calling thread.
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

unsigned
Engine::forEachBatch(size_t n,
                     const std::function<void(size_t)> &fn) const
{
    const unsigned workers =
        unsigned(std::min<size_t>(resolved_threads_, n));
    if (workers <= 1) {
        for (size_t bi = 0; bi < n; ++bi)
            fn(bi);
        return workers;
    }

    std::atomic<size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr error;
    const std::function<void(unsigned)> worker = [&](unsigned) {
        try {
            for (size_t bi = next.fetch_add(1); bi < n;
                 bi = next.fetch_add(1))
                fn(bi);
        } catch (...) {
            next.store(n); // no worker claims another batch
            std::lock_guard<std::mutex> lk(error_mutex);
            if (!error)
                error = std::current_exception();
        }
    };
    {
        // Concurrent runs from different threads serialize here;
        // results are unaffected (each run has its own counter), only
        // wall-clock overlaps are lost.
        std::lock_guard<std::mutex> lk(pool_mutex_);
        if (!pool_)
            pool_ = std::make_unique<Pool>(resolved_threads_);
        pool_->dispatch(workers, worker);
    }
    if (error)
        std::rethrow_exception(error);
    return workers;
}

EngineReport
Engine::run(const bvh::Bvh4 &bvh, const std::vector<core::Ray> &rays,
            bool any_hit) const
{
    const BatchExecutor exec(bvh, cfg_);
    const std::vector<core::BatchRange> ranges =
        core::sliceBatches(rays.size(), cfg_.batch_size);
    EngineReport report;
    report.hits.resize(rays.size());
    report.batches = ranges.size();

    // Each batch gathers its contiguous range into refs (ray k as local
    // id k) and writes its result into its own slot, so no worker
    // touches another's data.
    std::vector<BatchResult> results(ranges.size());
    const auto t0 = std::chrono::steady_clock::now();
    report.threads_used = forEachBatch(ranges.size(), [&](size_t bi) {
        const core::BatchRange r = ranges[bi];
        std::vector<BatchRayRef> refs(r.size());
        for (size_t i = r.begin; i < r.end; ++i)
            refs[i - r.begin] = {&rays[i], &report.hits[i], 0};
        results[bi] = exec.executeBatch(refs.data(), refs.size(), any_hit);
    });
    report.elapsed_seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();

    // Merge in batch order and lay the batch traces end to end on one
    // sequential simulated timeline (batch k starts where batch k-1
    // ended): both depend only on the batch decomposition, never on
    // which worker ran which batch.
    const bool tracing = cfg_.traced();
    uint64_t start = 0;
    for (size_t bi = 0; bi < results.size(); ++bi) {
        const BatchResult &br = results[bi];
        report.unit.merge(br.unit);
        report.traversal.merge(br.traversal);
        if (tracing)
            appendBatchTrace(report.trace, bi, ranges[bi].size(), start,
                             br);
        start += br.sim_cycles;
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
    // them.
    ExecutorConfig ec = cfg_;
    ec.trace = false;
    const BatchExecutor exec(index, ec);
    const std::vector<core::BatchRange> ranges =
        core::sliceBatches(queries.size(), cfg_.batch_size);

    KnnReport report;
    report.results.resize(queries.size());
    report.batches = ranges.size();
    std::vector<BatchResult> results(ranges.size());
    const auto t0 = std::chrono::steady_clock::now();
    report.threads_used = forEachBatch(ranges.size(), [&](size_t bi) {
        const core::BatchRange r = ranges[bi];
        std::vector<KnnBatchRef> refs(r.size());
        for (size_t i = r.begin; i < r.end; ++i)
            refs[i - r.begin] = {&queries[i], &report.results[i]};
        results[bi] = exec.executeKnnBatch(refs.data(), refs.size());
    });
    report.elapsed_seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();

    for (const BatchResult &br : results)
        report.unit.merge(br.unit);
    return report;
}

} // namespace rayflex::sim
