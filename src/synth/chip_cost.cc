/**
 * @file
 * Chip cost model implementation.
 *
 * Sizing constants live here, next to the structures they describe.
 * They are model choices in the same spirit as synth/cells.hh: not the
 * paper's numbers (the paper synthesizes only the datapath), but
 * representative of the structures a 15 nm implementation would carry,
 * and — more importantly — pure functions of the config, so every
 * trend the design-space explorer reports is attributable to a knob.
 */
#include "synth/chip_cost.hh"

#include <algorithm>

#include "synth/sram.hh"

namespace rayflex::synth
{

namespace
{

/** Tag + valid + replacement state per cache line (L1 and L2 alike):
 *  a ~34-bit tag for the synthetic 48-bit node address space plus
 *  valid and LRU bits. */
constexpr uint64_t kTagStateBitsPerLine = 40;

/** One MSHR entry: the line-address CAM tag plus the phase/state
 *  timers the file keeps per outstanding fetch (bvh::MshrFile). */
constexpr uint64_t kMshrEntryBits = 96;

/** Worst-case shared-stack depth provisioned per wavefront slot (the
 *  scalar ray buffer's per-ray stacks are part of the seed datapath's
 *  synthesized area; only the packet scheduler's extra state is a new
 *  macro). */
constexpr uint64_t kPacketStackDepth = 64;

/** One shared-stack WorkItem: is_leaf + node/triangle index + count +
 *  entry distance (bvh::RtUnit::WorkItem). */
constexpr uint64_t kWorkItemBits = 81;

/** Per-lane stack-item extension: the lane's entry distance plus its
 *  divergence-mask bit (bvh::PacketTraversal). */
constexpr uint64_t kLaneEntryBits = 33;

/** Bits of one shared-stack item for a packet of `width` lanes. */
uint64_t
stackItemBits(unsigned width)
{
    return kWorkItemBits + uint64_t(width) * kLaneEntryBits;
}

} // namespace

uint64_t
nodeCacheBits(const bvh::NodeCacheConfig &c)
{
    const uint64_t lines = uint64_t(c.sets) * c.ways;
    return c.capacityBytes() * 8 + lines * kTagStateBitsPerLine;
}

uint64_t
mshrFileBits(unsigned mshrs)
{
    return uint64_t(mshrs) * kMshrEntryBits;
}

uint64_t
packetStateBits(const bvh::RtUnitConfig &rt)
{
    const unsigned width = rt.packet.width;
    if (width <= 1)
        return 0;
    return uint64_t(rt.packetSlots()) *
           (kPacketStackDepth * stackItemBits(width) + width);
}

uint64_t
l2Bits(const bvh::L2Config &c)
{
    const uint64_t lines = uint64_t(c.banks) * c.sets * c.ways;
    return c.capacityBytes() * 8 + lines * kTagStateBitsPerLine;
}

ChipAreaReport
ChipCostModel::area(const sim::ExecutorConfig &cfg, double clock_ghz) const
{
    ChipAreaReport r;
    const Netlist n = Netlist::build(cfg.dp);
    r.lane = AreaModel(lib_).estimate(n, clock_ghz);

    const unsigned units = cfg.chip.clampedUnits();
    const bvh::RtUnitConfig rt = cfg.rt.normalized();
    const SramLibrary &s = lib_.sram;

    // Datapath lanes: issue_width replicas per unit, units per chip.
    // The knobs-off anchor: a 1x1 chip multiplies by exactly 1.0, so
    // the component reproduces AreaModel::estimate bit-for-bit.
    {
        ComponentCost c;
        c.name = "datapath";
        c.area_um2 =
            r.lane.total() * (double(rt.issue_width) * double(units));
        r.components.push_back(std::move(c));
    }

    if (rt.mem_backend == bvh::MemBackend::NodeCache) {
        ComponentCost c;
        c.name = "node_cache";
        c.sram_bits = nodeCacheBits(rt.cache) * units;
        c.area_um2 = sramAreaUm2(c.sram_bits, s);
        r.components.push_back(std::move(c));
    }

    if (rt.mshrs > 0) {
        ComponentCost c;
        c.name = "mshr_file";
        c.sram_bits = mshrFileBits(rt.mshrs) * units;
        c.area_um2 = sramAreaUm2(c.sram_bits, s);
        r.components.push_back(std::move(c));
    }

    if (rt.packet.width > 1) {
        ComponentCost c;
        c.name = "packet_state";
        c.sram_bits = packetStateBits(rt) * units;
        c.area_um2 = sramAreaUm2(c.sram_bits, s);
        r.components.push_back(std::move(c));
    }

    if (cfg.chip.l2 != sim::L2Mode::Off) {
        ComponentCost c;
        c.name = "shared_l2";
        const uint64_t instances =
            cfg.chip.l2 == sim::L2Mode::Private ? units : 1;
        c.sram_bits = l2Bits(cfg.chip.l2cfg) * instances;
        c.area_um2 = sramAreaUm2(c.sram_bits, s);
        r.components.push_back(std::move(c));
    }

    return r;
}

ChipPowerReport
ChipCostModel::power(const sim::ExecutorConfig &cfg,
                     const bvh::RtUnitStats &stats,
                     double clock_ghz) const
{
    const EnergyLibrary &e = lib_.energy;
    const TechLibrary &t = lib_.tech;
    const SramLibrary &s = lib_.sram;

    const ChipAreaReport a = area(cfg, clock_ghz);
    const Netlist n = Netlist::build(cfg.dp);
    const bvh::RtUnitConfig rt = cfg.rt.normalized();

    // Wall-clock base: chip ticks when chip mode stepped the units in
    // lock-step, per-unit cycles otherwise. Zero observed time means
    // zero dynamic power (the scale stays 0.0); leakage is reported
    // regardless — a powered-on chip leaks while idle.
    const uint64_t wall =
        stats.chip_cycles ? stats.chip_cycles : stats.cycles;
    double scale = 0.0;
    if (wall != 0) {
        // Identical arithmetic to PowerModel::estimate, term order
        // included: pJ / cycles * f[GHz] * 1e-3 = W, derated above the
        // easy corner.
        const double over = std::max(0.0, clock_ghz - t.easy_corner_ghz);
        const double derate = 1.0 + t.energy_slope_per_ghz * over;
        scale = clock_ghz * 1e-3 / double(wall) * derate;
    }

    ChipPowerReport r;

    // Datapath: fu/route energy from the per-opcode beat counters
    // through the same kernel the legacy model uses; register energy
    // from per-unit cycles times the lane count (every lane's pipeline
    // registers clock every cycle of its unit, beats or not).
    {
        const BeatEnergyPj beat =
            datapathBeatEnergyPj(n, stats.beats_by_op, e);
        const double reg_pj = double(stats.cycles) *
                              double(rt.issue_width) *
                              double(n.totalSequentialBits()) *
                              e.flop_bit;
        r.datapath.fu_dynamic = beat.fu_pj * scale;
        r.datapath.route_dynamic = beat.route_pj * scale;
        r.datapath.reg_dynamic = reg_pj * scale;

        ComponentCost c = a.components.front();
        c.leakage_w = c.area_um2 * t.static_power_per_um2;
        r.datapath.static_power = c.leakage_w;
        c.dynamic_w = r.datapath.fu_dynamic + r.datapath.reg_dynamic +
                      r.datapath.route_dynamic;
        r.components.push_back(std::move(c));
    }

    // SRAM components: leakage from macro area, dynamic from the run's
    // access counters — an untouched structure draws leakage only.
    for (size_t i = 1; i < a.components.size(); ++i) {
        ComponentCost c = a.components[i];
        c.leakage_w = sramLeakageW(c.sram_bits, s);

        uint64_t accesses = 0;
        uint64_t row_bits = 0;
        if (c.name == "node_cache") {
            accesses = stats.mem.hits + stats.mem.misses;
            row_bits = uint64_t(rt.cache.line_bytes) * 8;
        } else if (c.name == "mshr_file") {
            // Every allocation or merge broadcasts the line address
            // across the CAM: the whole file is the accessed row.
            accesses = stats.mshr.allocations + stats.mshr.merges;
            row_bits = mshrFileBits(rt.mshrs);
        } else if (c.name == "packet_state") {
            // One pop plus (amortized) one push per shared node visit.
            accesses = 2 * stats.packet.node_visits;
            row_bits = stackItemBits(rt.packet.width);
        } else if (c.name == "shared_l2") {
            const bvh::L2Stats l2 = stats.l2Total();
            accesses = l2.hits + l2.misses;
            row_bits = uint64_t(cfg.chip.l2cfg.line_bytes) * 8;
        }

        c.dynamic_w = double(accesses) *
                      sramAccessPj(c.sram_bits, row_bits, s) * scale;
        r.components.push_back(std::move(c));
    }

    return r;
}

} // namespace rayflex::synth
