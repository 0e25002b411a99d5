/**
 * @file
 * Chip-level component cost model: any sim::ExecutorConfig (and so any
 * sim::EngineConfig) -> area and power, driven by the real simulator's
 * merged run statistics.
 *
 * The paper's synthesis results (Figs. 7-9) cover only the
 * intersection datapath; PRs 3-9 grew the performance model far past
 * it. This module closes that loop: a chip's cost is the SUM OF
 * COMPONENTS, each sized from the executor config's knobs and energized
 * from the counters the cycle model already produces.
 *
 * Components and their stimuli:
 *
 *  | component    | instantiated when          | area source        | dynamic stimulus                |
 *  |--------------|----------------------------|--------------------|---------------------------------|
 *  | datapath     | always (lanes = issue_width| AreaModel per lane | RtUnitStats::beats_by_op (fu/   |
 *  |              | x chip.units)              | x lane count       | route) + cycles x lanes (regs)  |
 *  | node_cache   | mem_backend == NodeCache   | SRAM: data + tags  | CacheStats hits + misses        |
 *  | mshr_file    | rt.mshrs > 0               | SRAM: entry CAM    | MshrStats allocations + merges  |
 *  | packet_state | packet.width > 1           | SRAM: stacks+masks | PacketStats node_visits (pop +  |
 *  |              |                            |                    | push per shared visit)          |
 *  | shared_l2    | chip.l2 != Off             | SRAM: banked array | L2Stats hits + misses (summed   |
 *  |              | (x units when Private)     | + tags             | over banks)                     |
 *
 * Idle and zero-gated components draw leakage only: every dynamic term
 * is an access count times a per-access energy, so a structure the run
 * never touched contributes 0.0 W of dynamic power, and a structure
 * the config never instantiated contributes nothing at all (the
 * component is absent from the report).
 *
 * The RT-unit knobs are priced as the simulator runs them:
 * bvh::RtUnitConfig::normalized() clamps issue_width and packet.width
 * for both, and rejects the configs no unit could run.
 *
 * Two invariants are regression-pinned (tests/test_synth.cc):
 *
 *  1. Knobs-off compatibility: with a default config (issue
 *     width 1, FixedLatency memory, no MSHRs, scalar traversal, chip
 *     mode off) the report contains exactly the datapath component and
 *     reproduces the legacy AreaModel/PowerModel numbers — today's
 *     bench_fig7_area / bench_fig8_power tables — BIT-FOR-BIT. This
 *     holds by construction: the datapath component calls the same
 *     AreaModel::estimate and the same datapathBeatEnergyPj kernel the
 *     legacy models use, scaled by a lane count of exactly 1.0.
 *
 *  2. Purity: a report is a pure function of (config, merged
 *     RtUnitStats, clock). The stats merge is commutative and
 *     associative, so reports are identical at every worker count.
 *
 * To add a component: size its bits from the config (see the helpers
 * in chip_cost.cc), append a ComponentCost to the area report gated on
 * its enabling knob, pick the counter that counts its accesses, and
 * add the access-energy term in power(); the zero-cost and knobs-off
 * pins in test_synth.cc then enforce the gating discipline for free.
 */
#ifndef RAYFLEX_SYNTH_CHIP_COST_HH
#define RAYFLEX_SYNTH_CHIP_COST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/executor.hh"
#include "synth/area.hh"
#include "synth/cells.hh"
#include "synth/netlist.hh"
#include "synth/power.hh"

namespace rayflex::synth
{

/** One costed hardware component of the chip. Area-only reports leave
 *  the power fields zero; power reports fill all of them. */
struct ComponentCost
{
    std::string name;     ///< "datapath", "node_cache", ...
    double area_um2 = 0;  ///< total across all instances
    uint64_t sram_bits = 0; ///< macro size; 0 for the logic datapath
    double dynamic_w = 0; ///< activity-driven switching power
    double leakage_w = 0; ///< always-on, area-proportional
};

/** Chip area decomposed by component. */
struct ChipAreaReport
{
    /** The legacy per-lane datapath decomposition (one pipeline
     *  instance, AreaModel::estimate verbatim) — the knobs-off
     *  compatibility anchor. */
    AreaReport lane;
    /** Every instantiated component, datapath first. */
    std::vector<ComponentCost> components;

    double
    total_um2() const
    {
        double t = 0;
        for (const ComponentCost &c : components)
            t += c.area_um2;
        return t;
    }

    double total_mm2() const { return total_um2() * 1e-6; }
};

/** Chip power decomposed by component. */
struct ChipPowerReport
{
    /** The legacy datapath decomposition (fu/reg/route dynamic plus
     *  the datapath component's leakage as static_power) — the
     *  knobs-off compatibility anchor. */
    PowerReport datapath;
    /** Every instantiated component, datapath first. */
    std::vector<ComponentCost> components;

    double
    dynamic_w() const
    {
        double t = 0;
        for (const ComponentCost &c : components)
            t += c.dynamic_w;
        return t;
    }

    double
    leakage_w() const
    {
        double t = 0;
        for (const ComponentCost &c : components)
            t += c.leakage_w;
        return t;
    }

    double total_w() const { return dynamic_w() + leakage_w(); }
};

/**
 * The component-based cost estimator. Stateless apart from the
 * borrowed cell library; every method is a pure function of its
 * arguments.
 */
class ChipCostModel
{
  public:
    explicit ChipCostModel(
        const CellLibrary &lib = CellLibrary::nangate15())
        : lib_(lib)
    {}

    /** Area of the chip a config describes, at a clock target.
     *  @throws std::invalid_argument when cfg.rt.normalized() does. */
    ChipAreaReport area(const sim::ExecutorConfig &cfg,
                        double clock_ghz) const;

    /**
     * Power of the chip a config describes, energized by a run's
     * merged statistics (sim::EngineReport::unit — identical at every
     * worker count, so the report is too).
     *
     * The wall-clock base is stats.chip_cycles when chip mode ticked
     * (one tick per chip step) and stats.cycles otherwise; with zero
     * observed cycles every dynamic term is 0.0 and the report carries
     * leakage only (a powered-on idle chip).
     */
    ChipPowerReport power(const sim::ExecutorConfig &cfg,
                          const bvh::RtUnitStats &stats,
                          double clock_ghz) const;

  private:
    const CellLibrary &lib_;
};

/** Bits of the NodeCache L1 macro (data + tag/state arrays). */
uint64_t nodeCacheBits(const bvh::NodeCacheConfig &c);

/** Bits of the MSHR file's CAM/state array (rt.mshrs entries). */
uint64_t mshrFileBits(unsigned mshrs);

/** Bits of one unit's packet-traversal state: per-wavefront-slot
 *  shared stacks (WorkItem + per-lane entry distances) plus the
 *  divergence masks. Zero when width <= 1 (scalar traversal keeps its
 *  per-ray state in the seed datapath's ray buffer, which the paper's
 *  synthesized area already covers). */
uint64_t packetStateBits(const bvh::RtUnitConfig &rt);

/** Bits of one SharedL2 instance (all banks, data + tags). */
uint64_t l2Bits(const bvh::L2Config &c);

} // namespace rayflex::synth

#endif // RAYFLEX_SYNTH_CHIP_COST_HH
