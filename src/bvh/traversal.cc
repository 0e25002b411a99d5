/**
 * @file
 * Datapath-driven BVH traversal implementation.
 */
#include "bvh/traversal.hh"

#include <optional>
#include <vector>

namespace rayflex::bvh
{

using namespace rayflex::core;
using fp::fromBits;
using fp::kPosInf;

core::Box
emptySlotBox()
{
    core::Box b;
    b.lo = {kPosInf, kPosInf, kPosInf};
    b.hi = {kPosInf, kPosInf, kPosInf};
    return b;
}

DatapathInput
boxBeat(const core::Ray &ray, const WideNode &node, uint64_t tag)
{
    DatapathInput in;
    in.op = Opcode::RayBox;
    in.ray = ray;
    in.tag = tag;
    for (int i = 0; i < 4; ++i)
        in.boxes[i] = node.child[i].kind == WideNode::Kind::Empty
                          ? emptySlotBox()
                          : node.child[i].bounds.toIoBox();
    return in;
}

DatapathInput
triangleBeat(const core::Ray &ray, const SceneTriangle &tri, uint64_t tag)
{
    DatapathInput in;
    in.op = Opcode::RayTriangle;
    in.ray = ray;
    in.tag = tag;
    in.tri = tri.toIoTriangle();
    return in;
}

bool
acceptTriangle(const core::DatapathOutput &out, uint32_t triangle_id,
               float t_beg, float t_max, HitRecord &best)
{
    if (!out.tri.hit)
        return false;
    // The datapath returns t as numerator/denominator; the division
    // happens here, GPU-side.
    const float den = fromBits(out.tri.t_den);
    if (den == 0.0f)
        return false;
    const float t = fromBits(out.tri.t_num) / den;
    // Positive form: a NaN t fails every comparison and is rejected.
    if (!(t >= t_beg && t <= t_max && (!best.hit || t < best.t)))
        return false;
    best.hit = true;
    best.t = t;
    best.triangle_id = triangle_id;
    best.u = fromBits(out.tri.uvw[0]) / den;
    best.v = fromBits(out.tri.uvw[1]) / den;
    best.w = fromBits(out.tri.uvw[2]) / den;
    return true;
}

namespace
{

/** The oracle's own distance resolution, kept independent of
 *  acceptTriangle so bruteForceClosest stays a separate check. */
std::optional<float>
triDistance(const DatapathOutput &out)
{
    if (!out.tri.hit)
        return std::nullopt;
    float num = fromBits(out.tri.t_num);
    float den = fromBits(out.tri.t_den);
    if (den == 0.0f)
        return std::nullopt;
    return num / den;
}

} // namespace

HitRecord
Traverser::closestHit(const core::Ray &ray)
{
    HitRecord best;
    const float t_min = fromBits(ray.t_beg);
    const float t_max = fromBits(ray.t_end);
    if (bvh_.tris.empty())
        return best;

    std::vector<uint32_t> stack;
    stack.push_back(0);
    while (!stack.empty()) {
        stats_.max_stack = std::max<uint64_t>(stats_.max_stack,
                                              stack.size());
        uint32_t idx = stack.back();
        stack.pop_back();
        const WideNode &node = bvh_.nodes[idx];
        ++stats_.nodes_visited;

        DatapathOutput out = functionalEval(boxBeat(ray, node), acc_);
        ++stats_.box_ops;

        // Children arrive sorted by entry distance; push in reverse so
        // the nearest is processed first (stack order).
        std::array<uint8_t, 4> hit_slots{};
        int n_hits = 0;
        for (int i = 0; i < 4; ++i) {
            uint8_t slot = out.box.order[i];
            if (!out.box.hit[slot])
                continue;
            // Prune children beyond the best hit found so far.
            if (best.hit &&
                fromBits(out.box.sorted_dist[i]) > best.t)
                continue;
            hit_slots[n_hits++] = slot;
        }
        for (int i = n_hits - 1; i >= 0; --i) {
            const auto &c = node.child[hit_slots[i]];
            if (c.kind == WideNode::Kind::Internal) {
                stack.push_back(c.index);
            } else {
                for (uint32_t t = c.index; t < c.index + c.count; ++t) {
                    const SceneTriangle &tri = bvh_.tris[t];
                    ++stats_.tri_ops;
                    acceptTriangle(
                        functionalEval(triangleBeat(ray, tri), acc_),
                        tri.id, t_min, t_max, best);
                }
            }
        }
    }
    return best;
}

bool
Traverser::anyHit(const core::Ray &ray)
{
    if (bvh_.tris.empty())
        return false;
    HitRecord best;
    const float t_min = fromBits(ray.t_beg);
    const float t_max = fromBits(ray.t_end);
    std::vector<uint32_t> stack;
    stack.push_back(0);
    while (!stack.empty()) {
        stats_.max_stack = std::max<uint64_t>(stats_.max_stack,
                                              stack.size());
        uint32_t idx = stack.back();
        stack.pop_back();
        const WideNode &node = bvh_.nodes[idx];
        ++stats_.nodes_visited;

        DatapathOutput out = functionalEval(boxBeat(ray, node), acc_);
        ++stats_.box_ops;
        for (int i = 0; i < 4; ++i) {
            if (!out.box.hit[i])
                continue;
            const auto &c = node.child[i];
            if (c.kind == WideNode::Kind::Internal) {
                stack.push_back(c.index);
            } else {
                for (uint32_t t = c.index; t < c.index + c.count; ++t) {
                    const SceneTriangle &tri = bvh_.tris[t];
                    ++stats_.tri_ops;
                    if (acceptTriangle(
                            functionalEval(triangleBeat(ray, tri), acc_),
                            tri.id, t_min, t_max, best))
                        return true;
                }
            }
        }
    }
    return false;
}

HitRecord
Traverser::bruteForceClosest(const core::Ray &ray) const
{
    HitRecord best;
    const float t_min = fromBits(ray.t_beg);
    const float t_max = fromBits(ray.t_end);
    core::DistanceAccumulators acc;
    for (const SceneTriangle &tri : bvh_.tris) {
        DatapathInput in;
        in.op = Opcode::RayTriangle;
        in.ray = ray;
        in.tri = tri.toIoTriangle();
        DatapathOutput out = functionalEval(in, acc);
        auto d = triDistance(out);
        if (d && *d >= t_min && *d <= t_max && (!best.hit || *d < best.t)) {
            best.hit = true;
            best.t = *d;
            best.triangle_id = tri.id;
        }
    }
    return best;
}

} // namespace rayflex::bvh
