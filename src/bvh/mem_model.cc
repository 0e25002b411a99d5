/**
 * @file
 * NodeCache and SharedL2 implementations.
 *
 * Line indexing uses plain division/modulo rather than bit shifts, so
 * line_bytes, sets and banks need not be powers of two; any positive
 * geometry is a valid cache and any zero dimension degenerates to a
 * cache that misses every access without ever holding a line.
 */
#include "bvh/mem_model.hh"

#include <algorithm>

namespace rayflex::bvh
{

namespace
{

/** Look `line` up in one `ways`-way set at LRU clock `tick`. A hit
 *  refreshes the way; a miss installs the line over the victim: the
 *  first invalid way, else the least recently used one, ties toward
 *  the lowest way index, so replacement is a pure function of the
 *  access sequence. @return true on a hit; on a miss, `*evicted` (when
 *  non-null) says whether a valid line was displaced. */
bool
lruTouch(LruLine *set, uint32_t ways, uint64_t line, uint64_t tick,
         bool *evicted)
{
    LruLine *victim = set;
    for (uint32_t w = 0; w < ways; ++w) {
        LruLine &l = set[w];
        if (l.valid && l.tag == line) {
            l.last_used = tick;
            return true;
        }
        if (!victim->valid)
            continue;
        if (!l.valid || l.last_used < victim->last_used)
            victim = &l;
    }
    if (evicted)
        *evicted = victim->valid;
    *victim = {line, tick, true};
    return false;
}

} // namespace

NodeCache::NodeCache(const NodeCacheConfig &cfg) : cfg_(cfg)
{
    lines_.resize(size_t(cfg_.sets) * cfg_.ways);
}

bool
NodeCache::touchLine(uint64_t line)
{
    bool evicted = false;
    if (lruTouch(lines_.data() + size_t(line % cfg_.sets) * cfg_.ways,
                 cfg_.ways, line, ++tick_, &evicted)) {
        ++stats_.hits;
        return true;
    }
    ++stats_.misses;
    if (evicted)
        ++stats_.evictions;
    return false;
}

unsigned
NodeCache::access(uint64_t addr, uint32_t bytes, uint64_t now,
                  AccessBreakdown *bd)
{
    // Per-missed-line charge: hit_latency for the access itself plus
    // one fill penalty per missed line, so the latency agrees with the
    // hit/miss counters on what an access is (a K-line fetch is K line
    // touches, not one). A non-positive penalty (miss <= hit) charges
    // a uniform hit_latency, preserving the FixedLatency-equivalence
    // configuration.
    const unsigned fill = cfg_.miss_latency > cfg_.hit_latency
                              ? cfg_.miss_latency - cfg_.hit_latency
                              : 0;
    if (bytes == 0)
        bytes = 1;
    if (cfg_.line_bytes == 0 || cfg_.sets == 0 || cfg_.ways == 0) {
        // Zero-capacity degenerate: nothing can be resident, but the
        // miss counter keeps its line-fill semantics — one miss per
        // touched line (one per access when lines are unaddressable).
        const uint64_t touched =
            cfg_.line_bytes ? (addr + bytes - 1) / cfg_.line_bytes -
                                  addr / cfg_.line_bytes + 1
                            : 1;
        stats_.misses += touched;
        if (next_) {
            // Everything misses here, so the whole range goes to the
            // L2 as one fill (it splits into its own lines and takes
            // the slowest).
            const unsigned below =
                next_->fill(addr, bytes, now, unit_, bd);
            if (bd)
                bd->l1 = cfg_.hit_latency;
            return cfg_.hit_latency + below;
        }
        const unsigned lat =
            cfg_.hit_latency + unsigned(touched) * fill;
        if (bd)
            bd->l1 = lat;
        return lat;
    }
    const uint64_t first = addr / cfg_.line_bytes;
    const uint64_t last = (addr + bytes - 1) / cfg_.line_bytes;
    if (next_) {
        // Chip mode: missed L1 lines fill in parallel through the L2's
        // banks, so the access costs the slowest fill, not the sum.
        // The breakdown is the slowest line's: that fill is the one
        // gating the access.
        unsigned worst = 0;
        AccessBreakdown worst_bd;
        for (uint64_t line = first; line <= last; ++line)
            if (!touchLine(line)) {
                AccessBreakdown line_bd;
                const unsigned lat = next_->fill(
                    line * uint64_t(cfg_.line_bytes), cfg_.line_bytes,
                    now, unit_, bd ? &line_bd : nullptr);
                if (lat > worst) {
                    worst = lat;
                    worst_bd = line_bd;
                }
            }
        if (bd) {
            *bd = worst_bd;
            bd->l1 = cfg_.hit_latency;
        }
        return cfg_.hit_latency + worst;
    }
    unsigned missed = 0;
    for (uint64_t line = first; line <= last; ++line)
        missed += touchLine(line) ? 0 : 1;
    const unsigned lat = cfg_.hit_latency + missed * fill;
    if (bd)
        bd->l1 = lat;
    return lat;
}

SharedL2::SharedL2(const L2Config &cfg) : cfg_(cfg)
{
    const size_t n_banks = cfg_.banks ? cfg_.banks : 1;
    banks_.resize(n_banks);
    for (Bank &b : banks_)
        b.lines.resize(size_t(cfg_.sets) * cfg_.ways);
    stats_.resize(n_banks);
}

unsigned
SharedL2::fillLine(uint64_t line, uint64_t arrival, unsigned unit,
                   unsigned *queue_out, unsigned *fill_out)
{
    const size_t bank_idx = size_t(line % banks_.size());
    Bank &bank = banks_[bank_idx];
    L2Stats &st = stats_[bank_idx];

    // Fills whose data has arrived by now are done: their line is in
    // the array (installed at miss time), so late lookups hit there.
    std::erase_if(bank.inflight, [arrival](const Inflight &e) {
        return e.done <= arrival;
    });

    // An outstanding fill of the same line absorbs this lookup: it
    // completes when the fill does (never before this request's own
    // arrival), pays no DRAM access and no bank occupancy. The whole
    // merged wait is "fill" for attribution: the requester is waiting
    // on the in-flight DRAM fill, not on the bank's queue.
    for (const Inflight &e : bank.inflight)
        if (e.line == line) {
            ++st.merges;
            if (e.unit != unit)
                ++st.cross_unit_merges;
            const unsigned lat =
                unsigned(std::max(e.done, arrival) - arrival);
            *queue_out = 0;
            *fill_out = lat;
            return lat;
        }

    // Single-server bank queue: service starts when the bank frees.
    const uint64_t start = std::max(arrival, bank.free_at);
    st.queue_stalls += start - arrival;
    bank.free_at = start + 1;
    *queue_out = unsigned(start - arrival);
    if (trace_) {
        trace_->record({arrival, uint32_t(bank_idx),
                        obs::TraceEvent::BankEnqueue, unit,
                        start - arrival});
        trace_->record({start, uint32_t(bank_idx),
                        obs::TraceEvent::BankDequeue, unit, 0});
        // Queue depth at this arrival: requests the bank has accepted
        // but not started by then (one request per cycle, so the
        // backlog is the lead of free_at over the clock).
        trace_->record({arrival, uint32_t(bank_idx),
                        obs::TraceEvent::BankQueueDepth,
                        bank.free_at - arrival, 0});
    }

    if (cfg_.sets == 0 || cfg_.ways == 0) {
        // Zero-capacity degenerate: every lookup is a DRAM fill and
        // nothing merges (no line is ever resident or tracked).
        ++st.misses;
        *fill_out = cfg_.miss_latency;
        return unsigned(start + cfg_.miss_latency - arrival);
    }

    if (lruTouch(bank.lines.data() + size_t(line % cfg_.sets) * cfg_.ways,
                 cfg_.ways, line, ++bank.tick, nullptr)) {
        ++st.hits;
        *fill_out = cfg_.hit_latency;
        return unsigned(start + cfg_.hit_latency - arrival);
    }

    ++st.misses;
    const uint64_t done = start + cfg_.miss_latency;
    bank.inflight.push_back({line, done, unit});
    *fill_out = cfg_.miss_latency;
    return unsigned(done - arrival);
}

unsigned
SharedL2::fill(uint64_t addr, uint32_t bytes, uint64_t now,
               unsigned unit, AccessBreakdown *bd)
{
    if (bytes == 0)
        bytes = 1;
    // Unaddressable lines: the whole range is one DRAM-class fill keyed
    // by its base address.
    const uint64_t first =
        cfg_.line_bytes ? addr / cfg_.line_bytes : addr;
    const uint64_t last =
        cfg_.line_bytes ? (addr + bytes - 1) / cfg_.line_bytes : addr;

    const size_t n_banks = banks_.size();
    const size_t stop = size_t(unit) % n_banks; ///< unit's ring stop
    unsigned worst = 0;
    AccessBreakdown worst_bd;
    for (uint64_t line = first; line <= last; ++line) {
        // Ring distance between the unit's stop and the line's bank,
        // one cycle per hop on the request AND response path.
        const size_t bank_idx = size_t(line % n_banks);
        const size_t d = stop > bank_idx ? stop - bank_idx
                                         : bank_idx - stop;
        const size_t hops = std::min(d, n_banks - d);
        stats_[bank_idx].hops += 2 * hops;
        const uint64_t ride = hops;
        const uint64_t arrival = now + ride;
        unsigned queue = 0, service = 0;
        const unsigned at_bank =
            fillLine(line, arrival, unit, &queue, &service);
        const unsigned total = unsigned(ride + at_bank + ride);
        if (total >= worst) {
            // >= so a zero-latency fill still yields a breakdown.
            worst = total;
            worst_bd = {0, unsigned(2 * ride), queue, service};
        }
    }
    if (bd)
        *bd = worst_bd;
    return worst;
}

std::unique_ptr<MemoryModel>
makeMemoryModel(MemBackend backend, unsigned fixed_latency,
                const NodeCacheConfig &cache)
{
    if (backend == MemBackend::NodeCache)
        return std::make_unique<NodeCache>(cache);
    return std::make_unique<FixedLatencyMemory>(fixed_latency);
}

} // namespace rayflex::bvh
