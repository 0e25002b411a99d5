/**
 * @file
 * Binned-SAH binary build followed by collapse into 4-wide nodes.
 */
#include "bvh/builder.hh"

#include <algorithm>
#include <functional>
#include <numeric>
#include <string>

namespace rayflex::bvh
{

namespace
{

constexpr unsigned kSahBins = 16;      ///< binned-SAH bucket count
constexpr float kTraversalCost = 1.0f; ///< SAH node cost
constexpr float kIntersectCost = 1.5f; ///< SAH triangle cost

/** Temporary binary node used during the build. */
struct BinNode
{
    Aabb bounds;
    int left = -1, right = -1; ///< children when internal
    uint32_t first = 0, count = 0; ///< triangle range when leaf
    bool leaf = false;
};

struct Builder
{
    const BuildParams &params;
    std::vector<SceneTriangle> &tris;
    std::vector<BinNode> nodes;

    int
    build(uint32_t first, uint32_t count)
    {
        Aabb bounds, centroid_bounds;
        for (uint32_t i = first; i < first + count; ++i) {
            bounds.grow(tris[i].bounds());
            centroid_bounds.grow(tris[i].centroid());
        }

        int idx = int(nodes.size());
        nodes.push_back({});
        nodes[idx].bounds = bounds;

        if (count <= params.max_leaf_size) {
            makeLeaf(idx, first, count);
            return idx;
        }

        // Pick the split from binned SAH over the widest centroid axis.
        Vec3 ext = centroid_bounds.hi - centroid_bounds.lo;
        int axis = 0;
        if (ext.y > ext[axis])
            axis = 1;
        if (ext.z > ext[axis])
            axis = 2;
        float lo = centroid_bounds.lo[axis];
        float width = ext[axis];
        if (width <= 0.0f) {
            // Degenerate spread: median split by index.
            uint32_t half = count / 2;
            int l = build(first, half);
            int r = build(first + half, count - half);
            nodes[idx].left = l;
            nodes[idx].right = r;
            return idx;
        }

        std::vector<Aabb> bin_bounds(kSahBins);
        std::vector<uint32_t> bin_count(kSahBins, 0);
        auto bin_of = [&](const SceneTriangle &t) {
            float rel = (t.centroid()[axis] - lo) / width;
            int b = int(rel * float(kSahBins));
            return std::clamp(b, 0, int(kSahBins) - 1);
        };
        for (uint32_t i = first; i < first + count; ++i) {
            int b = bin_of(tris[i]);
            bin_bounds[b].grow(tris[i].bounds());
            ++bin_count[b];
        }

        // Sweep for the cheapest partition boundary.
        std::vector<float> right_area(kSahBins, 0.0f);
        std::vector<uint32_t> right_count(kSahBins, 0);
        Aabb acc;
        uint32_t cnt = 0;
        for (int b = int(kSahBins) - 1; b >= 1; --b) {
            acc.grow(bin_bounds[b]);
            cnt += bin_count[b];
            right_area[b] = acc.surfaceArea();
            right_count[b] = cnt;
        }
        float best_cost = std::numeric_limits<float>::infinity();
        int best_split = -1;
        acc = {};
        cnt = 0;
        const float parent_area = bounds.surfaceArea();
        for (unsigned b = 0; b + 1 < kSahBins; ++b) {
            acc.grow(bin_bounds[b]);
            cnt += bin_count[b];
            if (cnt == 0 || right_count[b + 1] == 0)
                continue;
            float cost =
                kTraversalCost +
                kIntersectCost *
                    (acc.surfaceArea() * float(cnt) +
                     right_area[b + 1] * float(right_count[b + 1])) /
                    std::max(parent_area, 1e-20f);
            if (cost < best_cost) {
                best_cost = cost;
                best_split = int(b);
            }
        }

        float leaf_cost = kIntersectCost * float(count);
        if (best_split < 0 ||
            (best_cost >= leaf_cost &&
             count <= 4 * params.max_leaf_size)) {
            makeLeaf(idx, first, count);
            return idx;
        }

        auto mid_it = std::partition(
            tris.begin() + first, tris.begin() + first + count,
            [&](const SceneTriangle &t) {
                return bin_of(t) <= best_split;
            });
        uint32_t mid = uint32_t(mid_it - tris.begin());
        if (mid == first || mid == first + count)
            mid = first + count / 2; // numeric corner case: force split

        int l = build(first, mid - first);
        int r = build(mid, first + count - mid);
        nodes[idx].left = l;
        nodes[idx].right = r;
        return idx;
    }

    void
    makeLeaf(int idx, uint32_t first, uint32_t count)
    {
        nodes[idx].leaf = true;
        nodes[idx].first = first;
        nodes[idx].count = count;
    }
};

/**
 * Collapse the binary tree into 4-wide nodes: each wide node adopts up
 * to four binary descendants found by repeatedly expanding the child
 * with the largest surface area (a standard widening heuristic).
 */
struct Collapser
{
    const std::vector<BinNode> &bin;
    Bvh4 &out;

    uint32_t
    collapse(int root)
    {
        uint32_t wide_idx = uint32_t(out.nodes.size());
        out.nodes.push_back({});

        // Gather up to 4 binary subtree roots under `root`.
        std::vector<int> slots;
        slots.push_back(bin[root].leaf ? root : bin[root].left);
        if (!bin[root].leaf)
            slots.push_back(bin[root].right);
        while (slots.size() < 4) {
            // Expand the internal slot with the largest surface area.
            int pick = -1;
            float best = -1.0f;
            for (size_t i = 0; i < slots.size(); ++i) {
                if (!bin[slots[i]].leaf &&
                    bin[slots[i]].bounds.surfaceArea() > best) {
                    best = bin[slots[i]].bounds.surfaceArea();
                    pick = int(i);
                }
            }
            if (pick < 0)
                break;
            int node = slots[pick];
            slots[pick] = bin[node].left;
            slots.push_back(bin[node].right);
        }

        WideNode wn;
        std::vector<int> pending_internal; // slot -> binary node
        for (size_t i = 0; i < slots.size() && i < 4; ++i) {
            const BinNode &b = bin[slots[i]];
            wn.child[i].bounds = b.bounds;
            if (b.leaf) {
                wn.child[i].kind = WideNode::Kind::Leaf;
                wn.child[i].index = b.first;
                wn.child[i].count = b.count;
            } else {
                wn.child[i].kind = WideNode::Kind::Internal;
                pending_internal.push_back(int(i));
            }
        }
        out.nodes[wide_idx] = wn;

        for (int slot : pending_internal) {
            uint32_t child_idx = collapse(slots[size_t(slot)]);
            out.nodes[wide_idx].child[slot].index = child_idx;
        }
        return wide_idx;
    }
};

} // namespace

size_t
Bvh4::childCount() const
{
    size_t n = 0;
    for (const auto &node : nodes)
        for (const auto &c : node.child)
            if (c.kind != WideNode::Kind::Empty)
                ++n;
    return n;
}

unsigned
Bvh4::depth() const
{
    if (nodes.empty())
        return 0;
    std::function<unsigned(uint32_t)> rec = [&](uint32_t idx) {
        unsigned d = 1;
        for (const auto &c : nodes[idx].child)
            if (c.kind == WideNode::Kind::Internal)
                d = std::max(d, 1 + rec(c.index));
        return d;
    };
    return rec(0);
}

Bvh4
buildBvh4(std::vector<SceneTriangle> tris, const BuildParams &params)
{
    Bvh4 out;
    if (tris.empty()) {
        out.nodes.push_back({});
        return out;
    }
    Builder b{params, tris, {}};
    int root = b.build(0, uint32_t(tris.size()));
    out.root_bounds = b.nodes[root].bounds;
    out.tris = std::move(tris);

    if (b.nodes[root].leaf) {
        // Single-leaf scene: wrap in one wide node.
        WideNode wn;
        wn.child[0].bounds = b.nodes[root].bounds;
        wn.child[0].kind = WideNode::Kind::Leaf;
        wn.child[0].index = b.nodes[root].first;
        wn.child[0].count = b.nodes[root].count;
        out.nodes.push_back(wn);
        return out;
    }

    Collapser c{b.nodes, out};
    c.collapse(root);
    return out;
}

std::string
validateBvh4(const Bvh4 &bvh)
{
    if (bvh.nodes.empty())
        return "no nodes";
    std::vector<unsigned> seen(bvh.tris.size(), 0);

    std::function<std::string(uint32_t, const Aabb *)> rec =
        [&](uint32_t idx, const Aabb *parent) -> std::string {
        if (idx >= bvh.nodes.size())
            return "child index out of range";
        const WideNode &n = bvh.nodes[idx];
        for (const auto &c : n.child) {
            if (c.kind == WideNode::Kind::Empty)
                continue;
            if (parent) {
                // Child boxes must be inside the parent slot's box.
                const float eps = 1e-4f;
                for (int d = 0; d < 3; ++d) {
                    if (c.bounds.lo[d] < parent->lo[d] - eps ||
                        c.bounds.hi[d] > parent->hi[d] + eps)
                        return "child box escapes parent box";
                }
            }
            if (c.kind == WideNode::Kind::Leaf) {
                if (c.index + c.count > bvh.tris.size())
                    return "leaf range out of bounds";
                for (uint32_t i = c.index; i < c.index + c.count; ++i) {
                    ++seen[i];
                    Aabb tb = bvh.tris[i].bounds();
                    const float eps = 1e-4f;
                    for (int d = 0; d < 3; ++d) {
                        if (tb.lo[d] < c.bounds.lo[d] - eps ||
                            tb.hi[d] > c.bounds.hi[d] + eps)
                            return "triangle escapes leaf box";
                    }
                }
            } else {
                if (c.index <= idx)
                    return "non-forward child index (cycle risk)";
                std::string err = rec(c.index, &c.bounds);
                if (!err.empty())
                    return err;
            }
        }
        return std::string();
    };

    std::string err = rec(0, nullptr);
    if (!err.empty())
        return err;
    for (size_t i = 0; i < seen.size(); ++i) {
        if (seen[i] != 1)
            return "triangle " + std::to_string(i) + " referenced " +
                   std::to_string(seen[i]) + " times";
    }
    return {};
}

} // namespace rayflex::bvh
