// Run-length-compressed destination tables — and why label assignment is
// the whole game.
//
// A destination table is a function dest → port. If many consecutive
// destination ids share a port, run-length encoding shrinks the table;
// but "consecutive" depends on how nodes are *named*. With arbitrary ids
// the runs are short and RLE saves nothing. If the scheme designer may
// relabel nodes (the model's L_V is designer-chosen, as in interval
// routing), numbering destinations by a DFS of the preferred tree makes
// each port's destination set a handful of intervals — and for selective
// algebras routed over a spanning tree, the table collapses to
// O(deg·log n) bits. This scheme makes that ablation concrete:
// bench_ablation_tree compares identity vs DFS relabeling.
//
// The header carries the *relabeled* destination id (the label), so the
// scheme stays within the model: labels are designer-chosen names of
// c·log n bits.
#pragma once

#include "scheme/scheme.hpp"
#include "util/bitstream.hpp"

#include <vector>

namespace cpr {

class CompressedTableScheme {
 public:
  using Header = NodeId;  // the relabeled destination id

  // next_hop[t][u]: neighbor of u toward t (original ids), as for
  // DestinationTableScheme. `relabel` maps original id -> label; pass the
  // identity for the no-relabeling baseline.
  CompressedTableScheme(const Graph& g,
                        const std::vector<std::vector<NodeId>>& next_hop,
                        std::vector<NodeId> relabel);

  // DFS order of a rooted spanning tree given by parent pointers — the
  // relabeling that makes selective-algebra tables compress.
  static std::vector<NodeId> dfs_relabeling(const Graph& g,
                                            const std::vector<NodeId>& parent,
                                            NodeId root);

  Header make_header(NodeId target) const { return relabel_[target]; }
  Decision forward(NodeId u, Header& h) const;

  // Honest encoding: per node, the run-length encoded port sequence over
  // label space (gamma-coded run lengths + bounded port ids).
  std::size_t local_memory_bits(NodeId u) const;
  std::size_t label_bits(NodeId) const {
    return bits_for_universe(ports_by_label_.size());
  }

  std::size_t run_count(NodeId u) const;

 private:
  const Graph* graph_;
  std::vector<NodeId> relabel_;          // original -> label
  // ports_by_label_[u][label] = port at u toward the destination whose
  // label is `label` (kInvalidPort if unreachable or self).
  std::vector<std::vector<Port>> ports_by_label_;
};

static_assert(CompactRoutingScheme<CompressedTableScheme>);

}  // namespace cpr
