/**
 * @file
 * The calling-context tree both profilers intern into.
 *
 * The exact profiler (prof/cct.h) folds every step into the node of
 * its context; the sampler (prof/sampler.h) interns the shadow stack
 * at each sample. Both build the same tree: one node per distinct
 * path of frames (prof/frame_tracker.h) from the root, a child keyed
 * under its parent by its frame's key (kind + id), and a profiler's
 * counts riding in the node itself (ContextNode<Counts>), so the
 * per-step path touches one object. ContextTree owns everything but
 * the counts:
 *
 *  - frame identity and interning a child by key (a linear scan of
 *    the parent's children, which are few);
 *  - display naming (prof::frameName);
 *  - the output order: depth-first, children sorted by display name
 *    (then key), node ids remapped to that order so a document is
 *    deterministic across runs of the same stream;
 *  - folded-stack lines, given each node's value per phase, and the
 *    node skeleton of the JSON documents ("id", "parent", "name",
 *    "kind", "children"), given each node's own fields.
 *
 * Method nodes are named lazily, as the tracker's frames are: each
 * profiler keeps its own rule for setting a node's methodRow once
 * (the CCT from the tracker's frame on the first step the node owns,
 * the sampler from the frame the first sample through it sees), and
 * interning a known child adopts the frame's row when the node has
 * none yet.
 */
#ifndef JRS_PROF_CONTEXT_TREE_H
#define JRS_PROF_CONTEXT_TREE_H

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "isa/trace.h"
#include "obs/attribution.h"
#include "obs/json.h"
#include "obs/report.h"
#include "prof/frame_tracker.h"

namespace jrs::prof {

using obs::FoldedLine;

/**
 * Folded-stack leaf annotations, indexed by Phase: "_[i]" interpret,
 * "_[t]" translate, "_[j]" native/JIT, "_[r]" runtime, "_[gc]"
 * collector (flamegraph.pl renders _[x]-suffixed frames in their own
 * hue).
 */
inline constexpr const char *kFoldedPhaseSuffix[kNumPhases] = {
    "_[i]", "_[t]", "_[j]", "_[r]", "_[gc]",
};

/**
 * One calling context: a frame under its parent node, with one
 * profiler's counts for it right behind the frame (the per-step path
 * reads the frame's methodRow and writes the counts).
 */
template <class Counts>
struct ContextNode : Frame, Counts {
    int parent = -1;        ///< node index, -1 for the root
    std::vector<int> kids;  ///< child node indices
};

/** See file comment. */
template <class Counts>
class ContextTree {
  public:
    using Node = ContextNode<Counts>;

    /** Just the root. @p map must outlive the tree. */
    explicit ContextTree(const obs::MethodMap &map)
        : map_(&map), nodes_(1) {}

    /** All nodes; index 0 is the root. Parent/kids index into this. */
    const std::vector<Node> &nodes() const { return nodes_; }

    Node &operator[](int n) { return nodes_[static_cast<std::size_t>(n)]; }
    const Node &operator[](int n) const {
        return nodes_[static_cast<std::size_t>(n)];
    }

    /** The child of @p parent with @p f's key, interned on first sight. */
    int childOf(int parent, const Frame &f) {
        for (const int k : (*this)[parent].kids) {
            Node &n = (*this)[k];
            if (n.key == f.key) {
                if (n.methodRow < 0)
                    n.methodRow = f.methodRow;
                return k;
            }
        }
        const int id = static_cast<int>(nodes_.size());
        Node &n = nodes_.emplace_back();
        static_cast<Frame &>(n) = f;
        n.parent = parent;
        (*this)[parent].kids.push_back(id);
        return id;
    }

    /** Display name of @p n (prof::frameName). */
    std::string name(const Frame &n) const { return frameName(n, map_); }

    /**
     * Folded-stack lines in output order: one per node and phase whose
     * value(node, phase) is non-zero, the leaf frame suffixed with the
     * phase.
     */
    template <class ValueFn>
    std::vector<FoldedLine> foldedLines(ValueFn &&value) const {
        std::vector<FoldedLine> out;
        std::vector<int> path;
        walk(0, path, [&](int n, const std::vector<int> &p) {
            std::string prefix;
            for (std::size_t i = 0; i < p.size(); ++i) {
                if (i > 0)
                    prefix += ';';
                prefix += name((*this)[p[i]]);
            }
            for (std::size_t ph = 0; ph < kNumPhases; ++ph) {
                const std::uint64_t v = value((*this)[n], ph);
                if (v != 0)
                    out.push_back({prefix + kFoldedPhaseSuffix[ph], v});
            }
        });
        return out;
    }

    /**
     * The "nodes" member of a run object, in output order: each node
     * as {"id", "parent", "name", "kind", then what fields(os, node)
     * writes (from a leading ", " through its last line's "\n"), then
     * "children"}.
     */
    template <class FieldsFn>
    void writeNodes(std::ostream &os, FieldsFn &&fields) const {
        std::vector<int> order;
        std::vector<int> newId(nodes_.size(), -1);
        std::vector<int> path;
        walk(0, path, [&](int n, const std::vector<int> &) {
            newId[static_cast<std::size_t>(n)] =
                static_cast<int>(order.size());
            order.push_back(n);
        });
        os << "      \"nodes\": [\n";
        for (std::size_t i = 0; i < order.size(); ++i) {
            const Node &n = (*this)[order[i]];
            os << "        {\"id\": " << i << ", \"parent\": "
               << (n.parent < 0 ? -1
                                : newId[static_cast<std::size_t>(
                                      n.parent)])
               << ", \"name\": \"" << obs::jsonEscape(name(n))
               << "\", \"kind\": \"" << frameKindName(n.kind) << '"';
            fields(os, n);
            os << "         \"children\": [";
            const std::vector<int> kids = sortedKids(n);
            for (std::size_t k = 0; k < kids.size(); ++k) {
                if (k > 0)
                    os << ", ";
                os << newId[static_cast<std::size_t>(kids[k])];
            }
            os << "]}" << (i + 1 < order.size() ? ",\n" : "\n");
        }
        os << "      ]\n";
    }

  private:
    /** @p n's children sorted by display name, then key. */
    std::vector<int> sortedKids(const Node &n) const {
        std::vector<int> kids = n.kids;
        std::sort(kids.begin(), kids.end(), [this](int a, int b) {
            const std::string na = name((*this)[a]);
            const std::string nb = name((*this)[b]);
            if (na != nb)
                return na < nb;
            return (*this)[a].key < (*this)[b].key;
        });
        return kids;
    }

    /** Pre-order DFS in output order; fn(node, path root..node). */
    template <class Fn>
    void walk(int n, std::vector<int> &path, Fn &&fn) const {
        path.push_back(n);
        fn(n, path);
        for (const int k : sortedKids((*this)[n]))
            walk(k, path, fn);
        path.pop_back();
    }

    const obs::MethodMap *map_;
    std::vector<Node> nodes_;
};

} // namespace jrs::prof

#endif // JRS_PROF_CONTEXT_TREE_H
