/**
 * @file
 * Tests of the synthesis model: netlist structural invariants, the
 * Fig. 4c / Fig. 6c asset tables, dead-node-elimination liveness, the
 * headline area/power relationships of the paper's evaluation
 * (checked as tolerance bands so the reproduction's shape is enforced
 * by CI), and the chip-level component cost model
 * (synth/chip_cost.hh): knobs-off bit-for-bit compatibility with the
 * legacy Fig. 7/8 numbers, component monotonicity and zero-cost
 * gating, activity conservation against obs::SlotAccounting, and
 * worker-count purity.
 */
#include <gtest/gtest.h>

#include "bvh/scene.hh"
#include "core/raygen.hh"
#include "core/workloads.hh"
#include "sim/engine.hh"
#include "synth/area.hh"
#include "synth/chip_cost.hh"
#include "synth/netlist.hh"
#include "synth/power.hh"
#include "synth/sram.hh"

using namespace rayflex::synth;
using namespace rayflex::core;

namespace
{

Netlist
net(const DatapathConfig &c)
{
    return Netlist::build(c);
}

double
areaAt(const DatapathConfig &c, double ghz = 1.0)
{
    return AreaModel().estimate(net(c), ghz).total();
}

double
powerOf(const DatapathConfig &c, Opcode op, double ghz = 1.0)
{
    return PowerModel().estimateFullThroughput(net(c), op, ghz).total();
}

} // namespace

// ----- asset tables match Fig. 4c / Fig. 6c -----

TEST(NetlistAssets, BaselineUnifiedMatchesFig4c)
{
    Netlist n = net(kBaselineUnified);
    // Stage indices are 0-based.
    EXPECT_EQ(n.stages[1].provisioned.adders, 24u);
    EXPECT_EQ(n.stages[2].provisioned.multipliers, 24u);
    EXPECT_EQ(n.stages[3].provisioned.comparators, 40u);
    EXPECT_EQ(n.stages[3].provisioned.adders, 6u);
    EXPECT_EQ(n.stages[4].provisioned.multipliers, 6u);
    EXPECT_EQ(n.stages[5].provisioned.adders, 3u);
    EXPECT_EQ(n.stages[6].provisioned.multipliers, 3u);
    EXPECT_EQ(n.stages[7].provisioned.adders, 2u);
    EXPECT_EQ(n.stages[8].provisioned.adders, 2u);
    EXPECT_EQ(n.stages[9].provisioned.sort_cmps, 10u); // 2 QuadSorts
    EXPECT_EQ(n.stages[9].provisioned.comparators, 5u);
    EXPECT_GT(n.stages[0].provisioned.converters, 0u);
    EXPECT_GT(n.stages[10].provisioned.converters, 0u);
}

TEST(NetlistAssets, ExtendedUnifiedAddsFig6cAssets)
{
    Netlist b = net(kBaselineUnified);
    Netlist e = net(kExtendedUnified);
    // "+2 Adders" at stage 4, "+1 Adder" at stage 6, "+1 Adder" at
    // stage 10, registers at stages 9/10.
    EXPECT_EQ(e.stages[3].provisioned.adders,
              b.stages[3].provisioned.adders + 2);
    EXPECT_EQ(e.stages[5].provisioned.adders,
              b.stages[5].provisioned.adders + 1);
    EXPECT_EQ(e.stages[9].provisioned.adders,
              b.stages[9].provisioned.adders + 1);
    EXPECT_EQ(e.stages[8].state_bits, 66u);
    EXPECT_EQ(e.stages[9].state_bits, 33u);
    EXPECT_EQ(b.stages[8].state_bits, 0u);
    // No multiplier/comparator additions.
    for (int s = 0; s < int(kNumStages); ++s) {
        EXPECT_EQ(e.stages[s].provisioned.multipliers,
                  b.stages[s].provisioned.multipliers)
            << "stage " << s;
    }
}

TEST(NetlistAssets, PeakOpsPerCycleIs125)
{
    // Section IV-B counts every adder, multiplier and comparator
    // (QuadSort = 5 comparators each) in the baseline-unified design as
    // one op/cycle, excluding format converters: 125 total.
    FuCounts fu = net(kBaselineUnified).totalFus();
    unsigned ops = fu.adders + fu.multipliers + fu.squarers +
                   fu.comparators + fu.sort_cmps;
    EXPECT_EQ(ops, 125u);
}

// ----- structural invariants -----

TEST(NetlistInvariants, DisjointProvisionsAtLeastUnified)
{
    for (bool ext : {false, true}) {
        Netlist u = net({ext, false, false});
        Netlist d = net({ext, true, false});
        for (int s = 0; s < int(kNumStages); ++s) {
            const auto &pu = u.stages[s].provisioned;
            const auto &pd = d.stages[s].provisioned;
            EXPECT_GE(pd.adders, pu.adders);
            EXPECT_GE(pd.multipliers + pd.squarers,
                      pu.multipliers + pu.squarers);
            EXPECT_GE(pd.comparators, pu.comparators);
            EXPECT_GE(pd.converters, pu.converters);
        }
    }
}

TEST(NetlistInvariants, ExtendedProvisionsAtLeastBaseline)
{
    for (bool dis : {false, true}) {
        Netlist b = net({false, dis, false});
        Netlist e = net({true, dis, false});
        for (int s = 0; s < int(kNumStages); ++s) {
            EXPECT_GE(e.stages[s].provisioned.adders,
                      b.stages[s].provisioned.adders);
            EXPECT_GE(e.stages[s].reg_bits, b.stages[s].reg_bits);
        }
        EXPECT_GE(e.totalSequentialBits(), b.totalSequentialBits());
    }
}

TEST(NetlistInvariants, SequentialBitsIndependentOfFuSharing)
{
    // RayFlex registers per-op fields disjointly regardless of the FU
    // strategy (Section VII-A).
    EXPECT_EQ(net(kBaselineUnified).totalSequentialBits(),
              net(kBaselineDisjoint).totalSequentialBits());
    EXPECT_EQ(net(kExtendedUnified).totalSequentialBits(),
              net(kExtendedDisjoint).totalSequentialBits());
}

TEST(NetlistInvariants, SquarersOnlyInDisjointExtended)
{
    EXPECT_EQ(net(kBaselineUnified).totalFus().squarers, 0u);
    EXPECT_EQ(net(kBaselineDisjoint).totalFus().squarers, 0u);
    EXPECT_EQ(net(kExtendedUnified).totalFus().squarers, 0u);
    EXPECT_EQ(net(kExtendedDisjoint).totalFus().squarers, 24u);
    // The perturbation ablation removes them.
    DatapathConfig pert = kExtendedDisjoint;
    pert.perturb_squarers = true;
    EXPECT_EQ(net(pert).totalFus().squarers, 0u);
}

TEST(NetlistInvariants, UsageNeverExceedsProvision)
{
    for (const auto &cfg : {kBaselineUnified, kBaselineDisjoint,
                            kExtendedUnified, kExtendedDisjoint}) {
        Netlist n = net(cfg);
        const size_t ops = cfg.extended ? kNumOpcodes : 2;
        for (int s = 0; s < int(kNumStages); ++s) {
            for (size_t o = 0; o < ops; ++o) {
                const auto &u = n.stages[s].used[o];
                const auto &p = n.stages[s].provisioned;
                EXPECT_LE(u.adders, p.adders);
                EXPECT_LE(u.multipliers + u.squarers,
                          p.multipliers + p.squarers);
                EXPECT_LE(u.comparators, p.comparators);
                EXPECT_LE(u.sort_cmps, p.sort_cmps);
                EXPECT_LE(u.converters, p.converters);
            }
        }
    }
}

TEST(NetlistInvariants, LivenessMonotoneDecreasingLate)
{
    // Once an op's dataflow has reduced (after stage 4), its live bits
    // never grow again - reductions only shrink state.
    for (Opcode op : {Opcode::RayBox, Opcode::Euclidean, Opcode::Cosine}) {
        for (unsigned s = 4; s + 2 < kNumStages; ++s) {
            EXPECT_LE(liveBits(op, s + 1), liveBits(op, s) + 8)
                << opcodeName(op) << " stage " << s;
        }
    }
}

// ----- the paper's headline area relationships (Fig. 7) -----

TEST(PaperArea, HeadlineRatiosAt1GHz)
{
    double bu = areaAt(kBaselineUnified);
    double bd = areaAt(kBaselineDisjoint);
    double eu = areaAt(kExtendedUnified);
    double ed = areaAt(kExtendedDisjoint);

    // disjoint: about +13%
    EXPECT_NEAR(bd / bu, 1.13, 0.04);
    // extended: about +36% (the component ratios the paper also reports
    // imply ~+30%; accept the band between them)
    EXPECT_NEAR(eu / bu, 1.33, 0.06);
    // both: about +92%
    EXPECT_NEAR(ed / bu, 1.92, 0.10);
    // extended-disjoint vs baseline-disjoint: about +70%
    EXPECT_NEAR(ed / bd, 1.70, 0.08);
}

TEST(PaperArea, ComponentRatios)
{
    AreaModel m;
    auto bu = m.estimate(net(kBaselineUnified), 1.0);
    auto bd = m.estimate(net(kBaselineDisjoint), 1.0);
    auto eu = m.estimate(net(kExtendedUnified), 1.0);
    auto ed = m.estimate(net(kExtendedDisjoint), 1.0);

    // Sequential area constant under FU-sharing changes...
    EXPECT_NEAR(bd.sequential / bu.sequential, 1.0, 0.01);
    EXPECT_NEAR(ed.sequential / eu.sequential, 1.0, 0.01);
    // ...and grows ~64% when ops are added, regardless of sharing.
    EXPECT_NEAR(eu.sequential / bu.sequential, 1.64, 0.08);
    EXPECT_NEAR(ed.sequential / bd.sequential, 1.64, 0.08);

    // Logic area: +18% / +74% going disjoint (baseline/extended).
    EXPECT_NEAR(bd.logic / bu.logic, 1.18, 0.05);
    EXPECT_NEAR(ed.logic / eu.logic, 1.74, 0.10);
    // Logic area: +17% / +72% adding ops (unified/disjoint).
    EXPECT_NEAR(eu.logic / bu.logic, 1.17, 0.05);
    EXPECT_NEAR(ed.logic / bd.logic, 1.72, 0.10);
}

TEST(PaperArea, InsensitiveToClockTarget)
{
    for (const auto &cfg : {kBaselineUnified, kExtendedDisjoint}) {
        double lo = areaAt(cfg, 0.5);
        double hi = areaAt(cfg, 1.5);
        EXPECT_LT(hi / lo, 1.10) << cfg.name();
        EXPECT_GE(hi, lo) << cfg.name();
    }
}

// ----- the paper's headline power relationships (Figs. 8 and 9) -----

TEST(PaperPower, AllModesInPlausibleRange)
{
    for (const auto &cfg : {kBaselineUnified, kBaselineDisjoint,
                            kExtendedUnified, kExtendedDisjoint}) {
        std::vector<Opcode> ops = {Opcode::RayBox, Opcode::RayTriangle};
        if (cfg.extended) {
            ops.push_back(Opcode::Euclidean);
            ops.push_back(Opcode::Cosine);
        }
        for (Opcode op : ops) {
            double w = powerOf(cfg, op);
            EXPECT_GT(w, 0.050) << cfg.name() << " " << opcodeName(op);
            EXPECT_LT(w, 0.095) << cfg.name() << " " << opcodeName(op);
        }
    }
}

TEST(PaperPower, ExtensionOverheadOnIntersectionOps)
{
    // Extended vs baseline (unified): +18% box, +20% triangle.
    double box = powerOf(kExtendedUnified, Opcode::RayBox) /
                 powerOf(kBaselineUnified, Opcode::RayBox);
    double tri = powerOf(kExtendedUnified, Opcode::RayTriangle) /
                 powerOf(kBaselineUnified, Opcode::RayTriangle);
    EXPECT_NEAR(box, 1.18, 0.05);
    EXPECT_NEAR(tri, 1.20, 0.05);
    // Triangle ops use fewer FUs, so the fixed register overhead weighs
    // more: the triangle ratio exceeds the box ratio.
    EXPECT_GT(tri, box);
}

TEST(PaperPower, DisjointBarelyChangesIntersectionPower)
{
    // Zero-gated private FUs: within +/-2.5% for box/triangle.
    for (bool ext : {false, true}) {
        DatapathConfig u{ext, false, false};
        DatapathConfig d{ext, true, false};
        for (Opcode op : {Opcode::RayBox, Opcode::RayTriangle}) {
            double r = powerOf(d, op) / powerOf(u, op);
            EXPECT_NEAR(r, 1.0, 0.025)
                << (ext ? "extended " : "baseline ") << opcodeName(op);
        }
    }
}

TEST(PaperPower, SquarerSpecializationSavesDistancePower)
{
    // Disjoint vs unified (extended): about -9% Euclidean, -3% cosine.
    double euc = powerOf(kExtendedDisjoint, Opcode::Euclidean) /
                 powerOf(kExtendedUnified, Opcode::Euclidean);
    double cos = powerOf(kExtendedDisjoint, Opcode::Cosine) /
                 powerOf(kExtendedUnified, Opcode::Cosine);
    EXPECT_NEAR(euc, 0.91, 0.03);
    EXPECT_NEAR(cos, 0.97, 0.03);
    // Euclidean (16 squarers) saves about twice as much as cosine (8).
    EXPECT_LT(euc, cos);
}

TEST(PaperPower, PerturbationRemovesTheSaving)
{
    // Section VII-B: perturbing stage-3 wiring so no multiplier sees
    // tied inputs makes disjoint Euclidean power slightly *higher* than
    // unified (+1.9% in the paper).
    DatapathConfig pert = kExtendedDisjoint;
    pert.perturb_squarers = true;
    double r = powerOf(pert, Opcode::Euclidean) /
               powerOf(kExtendedUnified, Opcode::Euclidean);
    EXPECT_GT(r, 1.0);
    EXPECT_NEAR(r, 1.019, 0.02);
}

TEST(PaperPower, NearlyLinearInFrequency)
{
    // Fig. 9: ray-triangle power is nearly linear over 0.5-1.5 GHz.
    for (const auto &cfg : {kBaselineUnified, kExtendedDisjoint}) {
        double p05 = powerOf(cfg, Opcode::RayTriangle, 0.5);
        double p10 = powerOf(cfg, Opcode::RayTriangle, 1.0);
        double p15 = powerOf(cfg, Opcode::RayTriangle, 1.5);
        EXPECT_GT(p10, p05);
        EXPECT_GT(p15, p10);
        // Midpoint within 10% of the linear interpolation.
        double lin = (p05 + p15) / 2.0;
        EXPECT_NEAR(p10 / lin, 1.0, 0.10) << cfg.name();
    }
}

TEST(PaperPower, FrequencySweepGapsMatchFig9)
{
    // Across the sweep: unified-vs-disjoint within +/-4%;
    // baseline-vs-extended between 14% and 22%.
    for (double f : {0.5, 0.75, 1.0, 1.25, 1.5}) {
        double u = powerOf(kBaselineUnified, Opcode::RayTriangle, f);
        double d = powerOf(kBaselineDisjoint, Opcode::RayTriangle, f);
        double e = powerOf(kExtendedUnified, Opcode::RayTriangle, f);
        EXPECT_NEAR(d / u, 1.0, 0.04) << f;
        EXPECT_GT(e / u, 1.13) << f;
        EXPECT_LT(e / u, 1.23) << f;
    }
}

TEST(PowerModel, ActivityScalesWithDutyCycle)
{
    // Half-duty traffic spends about half the FU energy but full
    // register clock power.
    Netlist n = net(kBaselineUnified);
    PowerModel m;
    rayflex::core::ActivityTrace full, half;
    full.cycles = 1000;
    full.beats[size_t(Opcode::RayBox)] = 1000;
    half.cycles = 1000;
    half.beats[size_t(Opcode::RayBox)] = 500;
    auto pf = m.estimate(n, full, 1.0);
    auto ph = m.estimate(n, half, 1.0);
    EXPECT_NEAR(ph.fu_dynamic / pf.fu_dynamic, 0.5, 1e-9);
    EXPECT_NEAR(ph.reg_dynamic / pf.reg_dynamic, 1.0, 1e-9);
    EXPECT_LT(ph.total(), pf.total());
}

TEST(PowerModel, StaticPowerIsOrderOfMagnitudeBelowDynamic)
{
    auto p = PowerModel().estimateFullThroughput(net(kBaselineUnified),
                                                 Opcode::RayBox, 1.0);
    double dynamic = p.fu_dynamic + p.reg_dynamic + p.route_dynamic;
    EXPECT_LT(p.static_power, dynamic / 5.0);
    EXPECT_GT(p.static_power, dynamic / 50.0);
}

// ----- the chip-level component cost model (synth/chip_cost.hh) -----

namespace
{

/** A tiny scene + primary batch for the cost-model engine runs. */
const rayflex::bvh::Bvh4 &
costScene()
{
    static rayflex::bvh::Bvh4 bvh = [] {
        auto tris = rayflex::bvh::makeTerrain(10.0f, 16, 0.5f, 7);
        return rayflex::bvh::buildBvh4(std::move(tris));
    }();
    return bvh;
}

std::vector<Ray>
costRays(unsigned side = 12)
{
    const auto &bvh = costScene();
    rayflex::bvh::Camera cam;
    auto c = bvh.root_bounds.centre();
    auto ext = bvh.root_bounds.hi - bvh.root_bounds.lo;
    cam.look_at = c;
    cam.eye = c + rayflex::bvh::Vec3{0.4f * ext.x, 0.6f * ext.y,
                                     1.2f * ext.z};
    cam.width = side;
    cam.height = side;
    std::vector<Ray> rays;
    for (unsigned y = 0; y < side; ++y)
        for (unsigned x = 0; x < side; ++x)
            rays.push_back(cam.primaryRay(x, y, 1000.0f));
    return rays;
}

/** A knob-on config exercising every costed component. */
rayflex::sim::EngineConfig
knobsOnConfig()
{
    rayflex::sim::EngineConfig cfg;
    cfg.threads = 1;
    cfg.batch_size = 0;
    cfg.rt.mem_backend = rayflex::bvh::MemBackend::NodeCache;
    cfg.rt.cache = rayflex::bvh::kProbeCache4KiB;
    cfg.rt.packet.width = 4;
    cfg.rt.ray_buffer_entries = 128;
    cfg.rt.issue_width = 2;
    cfg.rt.mshrs = 8;
    cfg.chip.units = 2;
    cfg.chip.l2 = rayflex::sim::L2Mode::Shared;
    cfg.chip.l2cfg = rayflex::bvh::kProbeL2_128KiB;
    return cfg;
}

} // namespace

TEST(ChipCost, KnobsOffAreaReproducesFig7BitForBit)
{
    // The knobs-off ChipCostModel must reproduce every number of the
    // bench_fig7_area table EXACTLY: same configs, same frequencies,
    // compared with EXPECT_EQ on doubles (bit-for-bit, not a band).
    const ChipCostModel cost;
    const AreaModel legacy;
    for (const auto &dp : {kBaselineUnified, kBaselineDisjoint,
                           kExtendedUnified, kExtendedDisjoint}) {
        for (double mhz : {500.0, 700.0, 900.0, 1000.0, 1100.0, 1300.0,
                           1500.0}) {
            rayflex::sim::EngineConfig cfg;
            cfg.dp = dp;
            const ChipAreaReport chip = cost.area(cfg, mhz / 1000.0);
            const AreaReport ref =
                legacy.estimate(Netlist::build(dp), mhz / 1000.0);
            ASSERT_EQ(chip.components.size(), 1u)
                << "knobs-off must cost exactly the datapath";
            EXPECT_EQ(chip.components[0].name, "datapath");
            EXPECT_EQ(chip.total_um2(), ref.total())
                << dp.name() << " @ " << mhz;
            EXPECT_EQ(chip.lane.sequential, ref.sequential);
            EXPECT_EQ(chip.lane.logic, ref.logic);
            EXPECT_EQ(chip.lane.buffer, ref.buffer);
            EXPECT_EQ(chip.lane.inverter, ref.inverter);
        }
    }
}

TEST(ChipCost, KnobsOffPowerReproducesFig8BitForBit)
{
    // Replicate bench_fig8_power's measure() stimulus (100 random
    // cases per mode through the pipelined model, full-throughput
    // accounting) and require the ChipCostModel's datapath component,
    // driven by the equivalent RtUnitStats, to reproduce the legacy
    // PowerModel report EXACTLY — every decomposed term and the total.
    const ChipCostModel cost;
    const PowerModel legacy;
    for (const auto &dp : {kBaselineUnified, kBaselineDisjoint,
                           kExtendedUnified, kExtendedDisjoint}) {
        for (size_t o = 0; o < kNumOpcodes; ++o) {
            const Opcode op = static_cast<Opcode>(o);
            if (!dp.extended &&
                (op == Opcode::Euclidean || op == Opcode::Cosine))
                continue;
            RayFlexDatapath pipe(dp);
            WorkloadGen gen(0xF18u ^ unsigned(op));
            auto stimulus = gen.batch(op, 100);
            pipe.resetActivity();
            runBatch(pipe, stimulus);
            ActivityTrace trace = pipe.activity();
            trace.cycles = trace.totalBeats();

            const PowerReport ref =
                legacy.estimate(Netlist::build(dp), trace, 1.0);

            rayflex::sim::EngineConfig cfg;
            cfg.dp = dp;
            rayflex::bvh::RtUnitStats stats;
            stats.cycles = trace.cycles;
            stats.beats_by_op = trace.beats;
            stats.datapath_beats = trace.totalBeats();
            const ChipPowerReport chip = cost.power(cfg, stats, 1.0);

            EXPECT_EQ(chip.datapath.fu_dynamic, ref.fu_dynamic)
                << dp.name() << " " << opcodeName(op);
            EXPECT_EQ(chip.datapath.reg_dynamic, ref.reg_dynamic);
            EXPECT_EQ(chip.datapath.route_dynamic, ref.route_dynamic);
            EXPECT_EQ(chip.datapath.static_power, ref.static_power);
            EXPECT_EQ(chip.total_w(), ref.total());
        }
    }
}

TEST(ChipCost, AreaAndLeakageMonotoneInEveryKnob)
{
    const ChipCostModel cost;
    const rayflex::bvh::RtUnitStats idle; // leakage only
    auto area = [&](const rayflex::sim::EngineConfig &c) {
        return cost.area(c, 1.0).total_um2();
    };
    auto leak = [&](const rayflex::sim::EngineConfig &c) {
        return cost.power(c, idle, 1.0).leakage_w();
    };

    // issue_width: each extra lane replicates the datapath.
    rayflex::sim::EngineConfig cfg;
    double prev_a = 0, prev_l = 0;
    for (unsigned iw : {1u, 2u, 4u, 8u}) {
        cfg.rt.issue_width = iw;
        EXPECT_GT(area(cfg), prev_a) << "issue " << iw;
        EXPECT_GT(leak(cfg), prev_l) << "issue " << iw;
        prev_a = area(cfg);
        prev_l = leak(cfg);
    }

    // mshrs: a bigger file is a bigger CAM.
    cfg = {};
    prev_a = area(cfg);
    prev_l = leak(cfg);
    for (unsigned ms : {4u, 8u, 16u}) {
        cfg.rt.mshrs = ms;
        EXPECT_GT(area(cfg), prev_a) << "mshrs " << ms;
        EXPECT_GT(leak(cfg), prev_l) << "mshrs " << ms;
        prev_a = area(cfg);
        prev_l = leak(cfg);
    }

    // cache bytes: growing sets grows the data and tag arrays.
    cfg = {};
    cfg.rt.mem_backend = rayflex::bvh::MemBackend::NodeCache;
    cfg.rt.cache = rayflex::bvh::kProbeCache4KiB;
    prev_a = 0;
    prev_l = 0;
    for (uint32_t sets : {16u, 64u, 256u}) {
        cfg.rt.cache.sets = sets;
        EXPECT_GT(area(cfg), prev_a) << "sets " << sets;
        EXPECT_GT(leak(cfg), prev_l) << "sets " << sets;
        prev_a = area(cfg);
        prev_l = leak(cfg);
    }

    // L2 banks: each bank carries its own sets*ways array.
    cfg = {};
    cfg.chip.l2 = rayflex::sim::L2Mode::Shared;
    cfg.chip.l2cfg = rayflex::bvh::kProbeL2_128KiB;
    prev_a = 0;
    prev_l = 0;
    for (uint32_t banks : {2u, 4u, 8u}) {
        cfg.chip.l2cfg.banks = banks;
        EXPECT_GT(area(cfg), prev_a) << "banks " << banks;
        EXPECT_GT(leak(cfg), prev_l) << "banks " << banks;
        prev_a = area(cfg);
        prev_l = leak(cfg);
    }
}

TEST(ChipCost, ZeroSizedStructuresCostExactlyZero)
{
    const auto &sram = CellLibrary::nangate15().sram;
    EXPECT_EQ(sramAreaUm2(0, sram), 0.0);
    EXPECT_EQ(sramLeakageW(0, sram), 0.0);
    EXPECT_EQ(sramAccessPj(0, 0, sram), 0.0);
    EXPECT_EQ(mshrFileBits(0), 0u);
    rayflex::bvh::RtUnitConfig rt;
    rt.packet.width = 1;
    EXPECT_EQ(packetStateBits(rt), 0u);

    // Un-instantiated structures leave no component in the report:
    // knobs-off means exactly one (the datapath), so nothing leaks
    // phantom area or leakage.
    const ChipCostModel cost;
    rayflex::sim::EngineConfig cfg;
    EXPECT_EQ(cost.area(cfg, 1.0).components.size(), 1u);
    EXPECT_EQ(cost.power(cfg, {}, 1.0).components.size(), 1u);

    // A zero-capacity cache costs tag bits only when lines exist; a
    // cache with zero sets has no lines and no bits at all.
    rayflex::bvh::NodeCacheConfig c;
    c.sets = 0;
    EXPECT_EQ(nodeCacheBits(c), 0u);
}

TEST(ChipCost, IdleComponentsDrawLeakageOnly)
{
    // Zero-activity stats: every component reports 0.0 dynamic watts
    // (not merely small), leakage untouched.
    const ChipCostModel cost;
    const auto cfg = knobsOnConfig();
    const ChipPowerReport p = cost.power(cfg, {}, 1.0);
    ASSERT_EQ(p.components.size(), 5u);
    for (const auto &c : p.components) {
        EXPECT_EQ(c.dynamic_w, 0.0) << c.name;
        EXPECT_GT(c.leakage_w, 0.0) << c.name;
    }
    EXPECT_EQ(p.dynamic_w(), 0.0);
    EXPECT_GT(p.leakage_w(), 0.0);
}

TEST(ChipCost, PricesTheWidthsTheUnitRuns)
{
    // The cost model prices RtUnitConfig::normalized(), the config the
    // simulator runs: issue width 0 runs one lane and 32 runs eight,
    // and a 64-wide packet runs as a 16-wide one.
    const ChipCostModel cost;
    rayflex::bvh::RtUnitStats stats; // activity on every width term
    stats.cycles = 1000;
    stats.beats_by_op[0] = 600;
    stats.packet.node_visits = 50;
    const auto expectSamePrice = [&](const rayflex::sim::EngineConfig &a,
                                     const rayflex::sim::EngineConfig &b) {
        EXPECT_EQ(cost.area(a, 1.0).total_um2(),
                  cost.area(b, 1.0).total_um2());
        const ChipPowerReport pa = cost.power(a, stats, 1.0);
        const ChipPowerReport pb = cost.power(b, stats, 1.0);
        EXPECT_EQ(pa.dynamic_w(), pb.dynamic_w());
        EXPECT_EQ(pa.leakage_w(), pb.leakage_w());
    };

    rayflex::sim::EngineConfig raw, clamped;
    raw.rt.issue_width = 0;
    clamped.rt.issue_width = 1;
    expectSamePrice(raw, clamped);
    raw.rt.issue_width = 32;
    clamped.rt.issue_width = rayflex::bvh::kMaxIssueWidth;
    expectSamePrice(raw, clamped);
    EXPECT_GT(cost.area(clamped, 1.0).total_um2(),
              cost.area({}, 1.0).total_um2());

    raw = {};
    clamped = {};
    raw.rt.ray_buffer_entries = clamped.rt.ray_buffer_entries = 256;
    raw.rt.packet.width = 64;
    clamped.rt.packet.width = rayflex::bvh::kMaxPacketWidth;
    expectSamePrice(raw, clamped);
}

TEST(ChipCost, BeatAttributionConservesAgainstSlotAccounting)
{
    // The dynamic-power stimulus must conserve: every issued slot is
    // one energized datapath beat of exactly one opcode, across the
    // knob grid (scalar / packet / multi-issue+MSHR / chip).
    const auto &bvh = costScene();
    const auto rays = costRays();
    std::vector<rayflex::sim::EngineConfig> grid;
    grid.emplace_back(); // scalar defaults
    {
        rayflex::sim::EngineConfig c;
        c.rt.packet.width = 8;
        c.rt.ray_buffer_entries = 256;
        grid.push_back(c);
    }
    {
        rayflex::sim::EngineConfig c;
        c.rt.issue_width = 4;
        c.rt.mshrs = 8;
        c.rt.mem_backend = rayflex::bvh::MemBackend::NodeCache;
        c.rt.cache = rayflex::bvh::kProbeCache4KiB;
        grid.push_back(c);
    }
    grid.push_back(knobsOnConfig());

    for (size_t i = 0; i < grid.size(); ++i) {
        auto rep = rayflex::sim::Engine(grid[i]).run(bvh, rays);
        const auto &u = rep.unit;
        uint64_t by_op = 0;
        for (uint64_t b : u.beats_by_op)
            by_op += b;
        EXPECT_EQ(by_op, u.datapath_beats) << "grid config " << i;
        EXPECT_EQ(by_op, u.slots[rayflex::obs::Slot::Issued])
            << "grid config " << i;
        EXPECT_GT(by_op, 0u) << "grid config " << i;
    }
}

TEST(ChipCost, ReportsIdenticalAtEveryWorkerCount)
{
    // Purity: cost reports are functions of (config, merged stats),
    // and merged stats are bit-identical at every worker count — so
    // the reports must be too, compared field-by-field with EXPECT_EQ.
    const auto &bvh = costScene();
    const auto rays = costRays();
    const ChipCostModel cost;

    auto cfg = knobsOnConfig();
    cfg.batch_size = 32; // several batches, so sharding matters
    cfg.threads = 1;
    const auto ref = rayflex::sim::Engine(cfg).run(bvh, rays);
    const ChipPowerReport refp = cost.power(cfg, ref.unit, 1.0);
    ASSERT_EQ(refp.components.size(), 5u);

    for (unsigned threads : {2u, 8u}) {
        auto c = cfg;
        c.threads = threads;
        const auto rep = rayflex::sim::Engine(c).run(bvh, rays);
        EXPECT_EQ(rep.unit, ref.unit) << threads << " workers";
        const ChipPowerReport p = cost.power(c, rep.unit, 1.0);
        ASSERT_EQ(p.components.size(), refp.components.size());
        for (size_t i = 0; i < p.components.size(); ++i) {
            EXPECT_EQ(p.components[i].name, refp.components[i].name);
            EXPECT_EQ(p.components[i].area_um2,
                      refp.components[i].area_um2);
            EXPECT_EQ(p.components[i].dynamic_w,
                      refp.components[i].dynamic_w);
            EXPECT_EQ(p.components[i].leakage_w,
                      refp.components[i].leakage_w);
        }
        EXPECT_EQ(p.total_w(), refp.total_w());
    }
}

TEST(ChipCost, ActiveRunChargesEveryInstantiatedComponent)
{
    // A real knobs-on run touches every structure: each component's
    // dynamic power is strictly positive and the decomposed datapath
    // terms agree with the component entry.
    const auto &bvh = costScene();
    const auto rays = costRays();
    const ChipCostModel cost;
    const auto cfg = knobsOnConfig();
    const auto rep = rayflex::sim::Engine(cfg).run(bvh, rays);
    const ChipPowerReport p = cost.power(cfg, rep.unit, 1.0);
    ASSERT_EQ(p.components.size(), 5u);
    for (const auto &c : p.components) {
        EXPECT_GT(c.dynamic_w, 0.0) << c.name;
        EXPECT_GT(c.leakage_w, 0.0) << c.name;
    }
    EXPECT_EQ(p.components[0].dynamic_w,
              p.datapath.fu_dynamic + p.datapath.reg_dynamic +
                  p.datapath.route_dynamic);
    // The SRAM components exist but stay far below the datapath on
    // this workload.
    EXPECT_GT(p.components[0].dynamic_w, p.components[1].dynamic_w);
}
