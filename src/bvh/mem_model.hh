/**
 * @file
 * Pluggable memory models for the RT unit's node-fetch path.
 *
 * The paper models only the intersection-test datapath and defers
 * memory scheduling to the enclosing RT unit; bvh::RtUnit stands in for
 * that unit and originally charged one flat latency for every BVH
 * fetch, which made its memory-stall counter insensitive to the
 * working-set size. This module is the seam that fixes that: the unit
 * asks a MemoryModel for the latency of each fetch, and two backends
 * are provided —
 *
 *   * FixedLatencyMemory reproduces the original flat-latency timing
 *     bit-for-bit (every access costs the same number of cycles), and
 *   * NodeCache models a small set-associative cache over the BVH
 *     address space (configurable line size, sets, ways and hit/miss
 *     latencies) with LRU replacement and per-run CacheStats.
 *
 * One MemoryModel instance is the unit's SHARED L1: every ray-buffer
 * slot (scalar entry or packet) of an RtUnit fetches through the same
 * model, so slots contend for the same lines. The MshrFile in this
 * header is the bounded outstanding-request file that fronts that L1
 * (RtUnitConfig::mshrs): duplicate in-flight fetches of the same
 * object merge onto one entry and a full file back-pressures
 * requesters, which is what makes the contention visible in the
 * timing instead of every slot enjoying a private stream.
 *
 * The memory path has a second tier. SharedL2 is the chip-level cache
 * BEHIND the per-unit L1s (sim::EngineConfig::chip): a banked,
 * set-associative LRU cache, address-interleaved by L2 line, with a
 * per-bank service queue, a ring hop-latency model between units and
 * banks, and an MSHR-style in-flight merge so two UNITS filling the
 * same line pay one DRAM miss — the cross-unit analogue of the
 * per-unit MshrFile merge. An L1 with an attached next level
 * (MemoryModel::attachNextLevel) routes every missed line through
 * SharedL2::fill instead of charging its flat miss penalty; with no
 * next level attached (the default), every backend terminates at its
 * own latency, bit-for-bit the pre-chip behavior.
 *
 * Addresses are synthetic but stable: nodes and triangles live at
 * fixed strides in a flat address space (see kNodeStrideBytes /
 * kTriStrideBytes and RtUnit's address map), so cache behavior depends
 * only on the traversal order and the BVH shape — never on host
 * pointers — and stays deterministic across runs and worker counts.
 *
 * CacheStats merges with commutative-associative sums exactly like
 * RtUnitStats, so sim::Engine's sharded workers can aggregate cache
 * counters batch-by-batch in any order and always produce the same
 * totals.
 */
#ifndef RAYFLEX_BVH_MEM_MODEL_HH
#define RAYFLEX_BVH_MEM_MODEL_HH

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "obs/trace.hh"

namespace rayflex::bvh
{

/** Where the cycles of one access went, phase by phase. The four
 *  fields always sum to the returned latency; backends without a
 *  chip-level tier report everything in `l1`. The RT unit turns these
 *  into absolute phase boundaries on each in-flight request, which is
 *  what the top-down stall attribution (obs::SlotAccounting)
 *  classifies against. Both interconnect directions fold into the one
 *  `ring` phase (charged up front), so the layout is an attribution of
 *  the latency, not a literal timeline. */
struct AccessBreakdown
{
    unsigned l1 = 0;    ///< L1 lookup / flat-memory fill
    unsigned ring = 0;  ///< interconnect hops, request + response
    unsigned queue = 0; ///< L2 bank-queue wait
    unsigned fill = 0;  ///< L2 service / DRAM fill / in-flight merge
};

/** Absolute timing of one fetch's fill: its completion cycle and the
 *  phase boundaries of its latency, from the AccessBreakdown at issue
 *  (issue <= l1_until <= ring_until <= queue_until <= done_cycle). A
 *  requester merged onto an in-flight fill copies the fill's timing,
 *  since it waits on the same fill through the same phases. */
struct FillTiming
{
    uint64_t done_cycle = 0;
    uint64_t l1_until = 0;    ///< end of the L1 phase
    uint64_t ring_until = 0;  ///< end of the interconnect phase
    uint64_t queue_until = 0; ///< end of the bank-queue phase
};

/** Byte stride of one WideNode in the synthetic BVH address space:
 *  four children of 32 bytes each (six bounds floats + index + count). */
inline constexpr uint32_t kNodeStrideBytes = 128;

/** Byte stride of one SceneTriangle: three 12-byte vertices plus the
 *  id, padded to a 16-byte boundary. */
inline constexpr uint32_t kTriStrideBytes = 48;

/** Per-run cache counters. All fields are sums of uint64 counts, so
 *  merging is commutative and associative like RtUnitStats: aggregates
 *  over many batches are identical no matter which worker ran which
 *  batch or in what order merges happen. */
struct CacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;    ///< line fills (compulsory + capacity/conflict)
    uint64_t evictions = 0; ///< valid lines displaced by a fill

    /** Fraction of line touches that hit; 0 when nothing was accessed
     *  (including every FixedLatencyMemory run). */
    double
    hitRate() const
    {
        const uint64_t total = hits + misses;
        return total ? double(hits) / double(total) : 0.0;
    }

    CacheStats &
    merge(const CacheStats &o)
    {
        hits += o.hits;
        misses += o.misses;
        evictions += o.evictions;
        return *this;
    }

    friend bool operator==(const CacheStats &,
                           const CacheStats &) = default;
};

/** Per-run MSHR-file counters (RtUnitConfig::mshrs). All fields are
 *  sums of uint64 counts, so merging is commutative and associative
 *  like the rest of the stats structs. All-zero when the file is
 *  disabled (mshrs == 0). */
struct MshrStats
{
    uint64_t allocations = 0; ///< fetches that went to memory
    uint64_t merges = 0;      ///< fetches folded onto an in-flight entry
    uint64_t stalls_full = 0; ///< issue attempts refused: file was full

    MshrStats &
    merge(const MshrStats &o)
    {
        allocations += o.allocations;
        merges += o.merges;
        stalls_full += o.stalls_full;
        return *this;
    }

    friend bool operator==(const MshrStats &,
                           const MshrStats &) = default;
};

/**
 * Bounded outstanding-request file fronting the unit's shared L1.
 *
 * Each entry tracks one in-flight fetch, keyed by its target address
 * (the synthetic address map gives every node and leaf a unique base
 * address, so the key identifies the object). A second requester for
 * the same address MERGES: it completes when the in-flight fill does,
 * without touching the L1 or consuming memory-issue bandwidth — two
 * packets fetching the same node pay one miss. When every entry is
 * busy, new allocations are refused and the requester must retry
 * (NeedFetch back-pressure in the RT unit).
 *
 * The file is a pure function of the (request, retire) call sequence —
 * no clocks of its own, no host pointers — so it inherits the
 * engine's bit-identical-across-worker-counts contract. Entry count 0
 * disables the file entirely (the legacy unbounded path: every fetch
 * goes straight to the MemoryModel).
 */
class MshrFile
{
  public:
    explicit MshrFile(unsigned entries) : entries_(entries) {}

    /** True when the file models anything (mshrs > 0). */
    bool enabled() const { return entries_ > 0; }

    /** The timing of the in-flight fill of `addr`, or nullptr: what a
     *  merged requester copies into its own request record. The
     *  pointer is invalidated by the next allocate/retire. */
    const FillTiming *
    lookup(uint64_t addr) const
    {
        for (const Entry &e : inflight_)
            if (e.addr == addr)
                return &e.fill;
        return nullptr;
    }

    /** True when no entry is free for a new allocation. */
    bool full() const { return inflight_.size() >= entries_; }

    /** Entries currently in flight (the MSHR residency counter). */
    size_t inflightCount() const { return inflight_.size(); }

    /** Track a new fill of `addr` with timing `fill`. The caller
     *  checks full() and lookup() first. */
    void
    allocate(uint64_t addr, const FillTiming &fill)
    {
        inflight_.push_back({addr, fill});
    }

    /** Release every entry whose fill has completed by `now` (same
     *  done_cycle <= now rule the RT unit's response queue uses, so an
     *  entry frees exactly when its requester is served). */
    void
    retire(uint64_t now)
    {
        std::erase_if(inflight_, [now](const Entry &e) {
            return e.fill.done_cycle <= now;
        });
    }

  private:
    /** One in-flight fill and its merge key. */
    struct Entry
    {
        uint64_t addr = 0;
        FillTiming fill;
    };

    unsigned entries_;
    std::vector<Entry> inflight_;
};

/** Per-run counters of one SharedL2 bank (or of a whole L2 when the
 *  per-bank vectors are summed). All fields are sums of uint64 counts,
 *  so merging is commutative and associative like the rest of the
 *  stats structs — chip batches aggregate bank-by-bank in any order. */
struct L2Stats
{
    uint64_t hits = 0;   ///< line lookups served from the L2 array
    uint64_t misses = 0; ///< line fills that went to DRAM
    uint64_t merges = 0; ///< lookups folded onto an in-flight fill
    /** Subset of `merges` where the requesting unit differs from the
     *  unit whose miss started the fill — two units walking the same
     *  subtree paying one DRAM miss. */
    uint64_t cross_unit_merges = 0;
    uint64_t queue_stalls = 0; ///< cycles requests waited on a busy bank
    uint64_t hops = 0;         ///< interconnect hops (request + response)

    /** Fraction of line lookups that avoided DRAM (array hits plus
     *  in-flight merges); 0 when nothing was accessed. */
    double
    hitRate() const
    {
        const uint64_t total = hits + misses + merges;
        return total ? double(hits + merges) / double(total) : 0.0;
    }

    L2Stats &
    merge(const L2Stats &o)
    {
        hits += o.hits;
        misses += o.misses;
        merges += o.merges;
        cross_unit_merges += o.cross_unit_merges;
        queue_stalls += o.queue_stalls;
        hops += o.hops;
        return *this;
    }

    friend bool operator==(const L2Stats &, const L2Stats &) = default;
};

/** Geometry and timing of the chip-level SharedL2 tier. */
struct L2Config
{
    uint32_t line_bytes = 64; ///< bytes per L2 line
    uint32_t banks = 4;       ///< address-interleaved banks (by line)
    uint32_t sets = 128;      ///< sets PER BANK
    uint32_t ways = 8;        ///< lines per set
    /** Cycles from bank service start to data for a resident line. */
    unsigned hit_latency = 8;
    /** Cycles from bank service start to data for a DRAM fill. */
    unsigned miss_latency = 80;

    /** Total capacity across all banks; 0 for any degenerate
     *  dimension (a zero-capacity L2 is legal: every fill misses). */
    uint64_t
    capacityBytes() const
    {
        return uint64_t(line_bytes) * banks * sets * ways;
    }

    /** This L2's capacity divided evenly across `units` PRIVATE
     *  copies: same line size, banks, ways and timings, sets / units
     *  sets per bank — so units private L2s of the returned geometry
     *  total exactly capacityBytes(). This is the iso-capacity
     *  L2Mode::Private baseline helper: callers used to divide
     *  l2cfg.sets by hand, silently truncating when it did not divide.
     *  @throws std::invalid_argument when units == 0 or sets is not a
     *          multiple of units (a truncated split would compare
     *          unequal capacities and call it an architecture win). */
    L2Config
    dividedAcross(unsigned units) const
    {
        if (units == 0)
            throw std::invalid_argument(
                "L2Config::dividedAcross: units must be >= 1");
        if (sets % units != 0)
            throw std::invalid_argument(
                "L2Config::dividedAcross: sets must divide evenly "
                "across units (an uneven split silently changes the "
                "total capacity under comparison)");
        L2Config per = *this;
        per.sets = sets / units;
        return per;
    }

    friend bool operator==(const L2Config &, const L2Config &) = default;
};

/** The canonical probe L2 shared by BM_UnitScalingSweep, the
 *  render_scene chip probe and the chip tests: 128 KiB as 4 banks x
 *  64 sets x 8 ways x 64-byte lines, default timings. Sized so the
 *  bench scene's working set thrashes a per-unit 4 KiB L1 but largely
 *  fits the L2 — the regime where sharing wins. */
inline constexpr L2Config kProbeL2_128KiB{
    /*line_bytes=*/64, /*banks=*/4, /*sets=*/64, /*ways=*/8};

/** One way of a set-associative LRU array (NodeCache, SharedL2). */
struct LruLine
{
    uint64_t tag = 0;       ///< full line index (addr / line_bytes)
    uint64_t last_used = 0; ///< LRU clock value of the last touch
    bool valid = false;
};

/**
 * Chip-level banked cache behind the per-unit L1s.
 *
 * Address-interleaved by L2 line across `banks` banks, each bank a
 * set-associative LRU array (same deterministic lowest-way tie-break
 * as NodeCache) with a single-server service queue that accepts one
 * request per cycle; later arrivals queue (L2Stats::queue_stalls
 * counts the waited cycles). Units and banks sit on a ring: a request
 * from unit u to bank b pays min(|u%B - b|, B - |u%B - b|) hops each
 * way at one cycle per hop. A fill that misses the array goes to DRAM
 * and is recorded in-flight; a second lookup of the same line while
 * the fill is outstanding MERGES onto it (completing no earlier than
 * the fill, paying no DRAM access and no bank occupancy) — when the
 * two requesters are different units that is a cross_unit_merge, the
 * chip-level analogue of the MshrFile merge.
 *
 * The model is a pure function of the (addr, bytes, now, unit) call
 * sequence — no clocks of its own, no host pointers — so a chip of
 * units stepping in deterministic lock-step over one SharedL2 inherits
 * the engine's bit-identical-across-worker-counts contract.
 */
class SharedL2
{
  public:
    explicit SharedL2(const L2Config &cfg);

    /** Latency in cycles, from `now`, of filling the `bytes`-byte range
     *  at `addr` on behalf of `unit`. Touched L2 lines fill in parallel
     *  across their banks; the returned latency is the slowest line's
     *  (max, not sum), each including both interconnect directions.
     *  When `bd` is non-null it receives the slowest line's phase
     *  breakdown (ring / queue / fill summing to the return value;
     *  `l1` stays 0 — that phase belongs to the caller). */
    unsigned fill(uint64_t addr, uint32_t bytes, uint64_t now,
                  unsigned unit, AccessBreakdown *bd = nullptr);

    /** Emit bank enqueue/dequeue events and queue-depth counter
     *  samples to `sink` (nullptr — the default — disables emission
     *  entirely; the seam idiom of obs/trace.hh). Borrowed, not
     *  owned; outlives the runs it observes. */
    void setTraceSink(obs::TraceSink *sink) { trace_ = sink; }

    /** Per-bank counters accumulated since construction. */
    const std::vector<L2Stats> &bankStats() const { return stats_; }

  private:
    /** One outstanding DRAM fill. */
    struct Inflight
    {
        uint64_t line = 0;
        uint64_t done = 0; ///< cycle the fill data arrives at the bank
        unsigned unit = 0; ///< unit whose miss started the fill
    };

    struct Bank
    {
        std::vector<LruLine> lines; ///< sets * ways, set-major
        std::vector<Inflight> inflight;
        uint64_t free_at = 0; ///< next cycle the bank can start service
        uint64_t tick = 0;    ///< LRU clock
    };

    /** Fill one line; @return cycles from `arrival` (at the bank) to
     *  data at the bank, excluding interconnect. `queue_out`/`fill_out`
     *  receive the queue-wait / service split of that latency. */
    unsigned fillLine(uint64_t line, uint64_t arrival, unsigned unit,
                      unsigned *queue_out, unsigned *fill_out);

    L2Config cfg_;
    std::vector<Bank> banks_;
    std::vector<L2Stats> stats_; ///< one entry per bank
    obs::TraceSink *trace_ = nullptr; ///< borrowed; null = disabled
};

/** Which MemoryModel backend an RT unit instantiates. */
enum class MemBackend : uint8_t {
    /** Flat per-fetch latency (RtUnitConfig::mem_latency); the
     *  original RT-unit timing, reproduced bit-for-bit. */
    FixedLatency,
    /** Set-associative node cache (NodeCacheConfig). */
    NodeCache,
};

/** Geometry and timing of the NodeCache backend. */
struct NodeCacheConfig
{
    uint32_t line_bytes = 64; ///< bytes per cache line
    uint32_t sets = 64;       ///< number of sets
    uint32_t ways = 4;        ///< lines per set
    unsigned hit_latency = 2; ///< cycles when every touched line hits
    /** Cycles of an access whose single touched line misses. An access
     *  spanning K lines is charged per missed line:
     *  hit_latency + misses * (miss_latency - hit_latency), so the
     *  latency agrees with what CacheStats counts (each touched line
     *  is one hit or one miss). miss_latency <= hit_latency degrades
     *  to a uniform hit_latency charge. */
    unsigned miss_latency = 20;

    /** Total capacity; 0 for any degenerate dimension (a zero-capacity
     *  cache is legal: every access misses, nothing is ever resident). */
    uint64_t
    capacityBytes() const
    {
        return uint64_t(line_bytes) * sets * ways;
    }

    friend bool operator==(const NodeCacheConfig &,
                           const NodeCacheConfig &) = default;
};

/** The canonical probe cache shared by the scene-size sweep
 *  (BM_NodeCacheSceneSweep), the render_scene memory probe and the
 *  monotonicity tests: 4 KiB as 16 sets x 4 ways x 64-byte lines,
 *  default hit/miss latencies. Small on purpose — real scenes outgrow
 *  it, which is the signal the sweep exists to show. */
inline constexpr NodeCacheConfig kProbeCache4KiB{
    /*line_bytes=*/64, /*sets=*/16, /*ways=*/4};

/**
 * The memory-path seam of the RT unit. One instance serves one unit;
 * implementations are deterministic functions of the access sequence,
 * which keeps the engine's bit-identical-across-thread-counts contract
 * intact (each worker's unit owns a private model).
 */
class MemoryModel
{
  public:
    virtual ~MemoryModel() = default;

    /** Latency in cycles of fetching the `bytes`-byte object at `addr`
     *  when the request is issued at cycle `now`. Called once per
     *  RT-unit fetch, in traversal order. Backends without an attached
     *  next level are pure functions of (addr, bytes) and ignore
     *  `now`; with a SharedL2 attached, `now` anchors bank queueing
     *  and in-flight merges on the chip clock. When `bd` is non-null
     *  it receives the phase breakdown of the returned latency (the
     *  four fields sum to it); filling it never changes the latency
     *  arithmetic — the breakdown is observation, not timing. */
    virtual unsigned access(uint64_t addr, uint32_t bytes, uint64_t now,
                            AccessBreakdown *bd) = 0;

    /** Convenience without a breakdown. */
    unsigned access(uint64_t addr, uint32_t bytes, uint64_t now)
    {
        return access(addr, bytes, now, nullptr);
    }

    /** Convenience for callers without a clock (tests, probes):
     *  equivalent to access(addr, bytes, 0). */
    unsigned access(uint64_t addr, uint32_t bytes)
    {
        return access(addr, bytes, 0, nullptr);
    }

    /** Route this L1's misses through a chip-level `l2` on behalf of
     *  `unit` (sim::Engine chip mode). Default: no second tier;
     *  backends that terminate at their own latency ignore the call.
     *  Pass nullptr to detach. The L2 is borrowed, not owned. */
    virtual void attachNextLevel(SharedL2 *l2, unsigned unit)
    {
        (void)l2;
        (void)unit;
    }

    /** Counters accumulated since construction. Backends without
     *  cache state report all-zero stats. */
    virtual CacheStats stats() const { return {}; }
};

/** The original flat-latency backend: every access costs the same.
 *  The flat latency stands in for the whole memory system, so an
 *  attached next level is ignored (attachNextLevel's default). */
class FixedLatencyMemory final : public MemoryModel
{
  public:
    explicit FixedLatencyMemory(unsigned latency) : latency_(latency) {}

    using MemoryModel::access;
    unsigned access(uint64_t, uint32_t, uint64_t,
                    AccessBreakdown *bd) override
    {
        if (bd)
            bd->l1 = latency_;
        return latency_;
    }

  private:
    unsigned latency_;
};

/**
 * Set-associative cache with LRU replacement over the synthetic BVH
 * address space. A fetch touches every line overlapping
 * [addr, addr + bytes); it costs hit_latency when all touched lines
 * are resident, plus (miss_latency - hit_latency) per line that must
 * be filled, so a K-line leaf fetch that misses everywhere costs
 * proportionally more than one that misses a single line — the latency
 * and the CacheStats counters agree on what an "access" is. Fills
 * happen as part of the access, so a revisit hits. Replacement is
 * least-recently-used with a deterministic tie-break (lowest way), so
 * the model is a pure function of the access sequence.
 *
 * With a SharedL2 attached (chip mode) the flat per-line fill penalty
 * is replaced by the L2's answer: the access costs hit_latency plus
 * the slowest missed line's SharedL2::fill latency (missed lines fill
 * in parallel through their banks). Hit/miss/eviction accounting is
 * unchanged, so CacheStats means the same thing in both modes.
 */
class NodeCache final : public MemoryModel
{
  public:
    explicit NodeCache(const NodeCacheConfig &cfg);

    using MemoryModel::access;
    unsigned access(uint64_t addr, uint32_t bytes, uint64_t now,
                    AccessBreakdown *bd) override;
    void attachNextLevel(SharedL2 *l2, unsigned unit) override
    {
        next_ = l2;
        unit_ = unit;
    }
    CacheStats stats() const override { return stats_; }

  private:
    /** Touch one line; fills on miss. @return true on hit. */
    bool touchLine(uint64_t line);

    NodeCacheConfig cfg_;
    std::vector<LruLine> lines_; ///< sets * ways, set-major
    uint64_t tick_ = 0;          ///< LRU clock
    CacheStats stats_;
    SharedL2 *next_ = nullptr; ///< borrowed chip-level tier, if any
    unsigned unit_ = 0;        ///< this L1's unit id on the ring
};

/** Instantiate the backend an RtUnitConfig selects. */
std::unique_ptr<MemoryModel>
makeMemoryModel(MemBackend backend, unsigned fixed_latency,
                const NodeCacheConfig &cache);

} // namespace rayflex::bvh

#endif // RAYFLEX_BVH_MEM_MODEL_HH
