#include "fib/compile.hpp"

#include "bgp/bgp_schemes.hpp"
#include "scheme/interval_router.hpp"
#include "scheme/tree_router.hpp"

namespace cpr {

FlatFib compile_fib(const TreeRouter& router, const Graph& g) {
  const std::size_t n = g.node_count();
  FibBuilder b(FibKind::kTree, n);
  b.add_topology(g);

  std::vector<FibTreeNode> nodes(n + 1);
  std::vector<std::uint32_t> light_ports;
  for (NodeId u = 0; u < n; ++u) {
    FibTreeNode& r = nodes[u];
    r.dfs_in = router.dfs_in(u);
    r.dfs_out = router.dfs_out(u);
    const NodeId heavy = router.heavy_child(u);
    if (heavy != kInvalidNode) {
      r.heavy_in = router.dfs_in(heavy);
      r.heavy_out = router.dfs_out(heavy);
      r.heavy_port = router.port_down(heavy);
    }  // else keep the default empty interval [1, 0]
    r.port_up = router.port_up(u);
    r.light_depth = router.light_depth(u);
    r.light_off = fib_u32_offset(light_ports.size(), "tree light offsets");
    // Light-child descend ports in designed (decreasing-subtree) order:
    // the header's light index selects directly into this row.
    for (std::uint32_t i = 0; i < router.light_count(u); ++i) {
      light_ports.push_back(router.port_down(router.light_child(u, i)));
    }
  }
  nodes[n].light_off = fib_u32_offset(light_ports.size(), "tree light offsets");

  // Per-target light sequences (the header payload), flattened to CSR so
  // the engine resolves make_header with two array reads instead of a
  // parent-chain walk per query.
  std::vector<std::uint32_t> label_off(n + 1, 0);
  std::vector<std::uint32_t> label_seq;
  for (NodeId t = 0; t < n; ++t) {
    const TreeRouter::Header h = router.make_header(t);
    label_off[t + 1] = fib_u32_offset(
        std::uint64_t{label_off[t]} + h.light_sequence.size(),
        "tree label offsets");
    label_seq.insert(label_seq.end(), h.light_sequence.begin(),
                     h.light_sequence.end());
  }

  b.add_array(fib_section::kTreeNodes, std::move(nodes));
  b.add_array(fib_section::kTreeLightPorts, std::move(light_ports));
  b.add_array(fib_section::kTreeLabelOff, std::move(label_off));
  b.add_array(fib_section::kTreeLabelSeq, std::move(label_seq));
  return b.finish();
}

FlatFib compile_fib(const IntervalRouter& router, const Graph& g) {
  const std::size_t n = g.node_count();
  FibBuilder b(FibKind::kInterval, n);
  b.add_topology(g);

  std::vector<FibIntervalNode> nodes(n + 1);
  std::vector<std::uint32_t> child_in, child_port;
  for (NodeId u = 0; u < n; ++u) {
    FibIntervalNode& r = nodes[u];
    r.dfs_in = router.dfs_in(u);
    r.dfs_out = router.dfs_out(u);
    // The object path resolves port_to(u, parent) on every climb; the
    // arena carries the resolved port instead.
    r.parent_port =
        u == router.root() ? kInvalidPort : g.port_to(u, router.parent(u));
    r.child_off = fib_u32_offset(child_in.size(), "interval child offsets");
    for (NodeId c : router.children(u)) {  // dfs_in-sorted already
      child_in.push_back(router.dfs_in(c));
      child_port.push_back(g.port_to(u, c));
    }
  }
  nodes[n].child_off =
      fib_u32_offset(child_in.size(), "interval child offsets");

  b.add_array(fib_section::kIntervalNodes, std::move(nodes));
  b.add_array(fib_section::kIntervalChildIn, std::move(child_in));
  b.add_array(fib_section::kIntervalChildPort, std::move(child_port));
  return b.finish();
}

FlatFib compile_fib(const SvfcPeerMeshScheme& scheme, const Graph& shadow) {
  const std::size_t n = shadow.node_count();
  const std::size_t k = scheme.component_count();
  FibBuilder b(FibKind::kMesh, n);
  b.add_topology(shadow);

  const SvfcDecomposition& d = scheme.decomposition();

  // Resolve a local (component-subgraph) port of global node u into u's
  // port in the shadow graph — the object path does this on every hop
  // (sub.neighbor → global_id → shadow.port_to); the arena bakes it in.
  const auto resolve = [&](std::size_t comp, NodeId local_u, NodeId u,
                           Port local_port) -> std::uint32_t {
    const NodeId local_next =
        scheme.component_graph(comp).neighbor(local_u, local_port);
    return shadow.port_to(u, scheme.global_id(comp, local_next));
  };

  std::vector<std::uint32_t> comp(n);
  std::vector<FibTreeNode> nodes(n + 1);
  std::vector<std::uint32_t> light_ports;
  for (NodeId u = 0; u < n; ++u) {
    const std::size_t c = d.component[u];
    comp[u] = static_cast<std::uint32_t>(c);
    const TreeRouter& r = scheme.component_router(c);
    const NodeId lu = scheme.local_id(u);
    FibTreeNode& rec = nodes[u];
    rec.dfs_in = r.dfs_in(lu);
    rec.dfs_out = r.dfs_out(lu);
    const NodeId heavy = r.heavy_child(lu);
    if (heavy != kInvalidNode) {
      rec.heavy_in = r.dfs_in(heavy);
      rec.heavy_out = r.dfs_out(heavy);
      rec.heavy_port = resolve(c, lu, u, r.port_down(heavy));
    }  // else keep the default empty interval [1, 0]
    if (r.port_up(lu) != kInvalidPort) {
      rec.port_up = resolve(c, lu, u, r.port_up(lu));
    }
    rec.light_depth = r.light_depth(lu);
    rec.light_off = fib_u32_offset(light_ports.size(), "mesh light offsets");
    for (std::uint32_t i = 0; i < r.light_count(lu); ++i) {
      light_ports.push_back(resolve(c, lu, u, r.port_down(r.light_child(lu, i))));
    }
  }
  nodes[n].light_off = fib_u32_offset(light_ports.size(), "mesh light offsets");

  // Per-target light sequences from each target's own component router;
  // dfs numbers stay component-local (the walker compares, never indexes).
  std::vector<std::uint32_t> label_off(n + 1, 0);
  std::vector<std::uint32_t> label_seq;
  for (NodeId t = 0; t < n; ++t) {
    const std::size_t c = d.component[t];
    const TreeRouter::Header h =
        scheme.component_router(c).make_header(scheme.local_id(t));
    label_off[t + 1] = fib_u32_offset(
        std::uint64_t{label_off[t]} + h.light_sequence.size(),
        "mesh label offsets");
    label_seq.insert(label_seq.end(), h.light_sequence.begin(),
                     h.light_sequence.end());
  }

  // Root-to-root peering matrix (Theorem 7: roots are fully peered).
  std::vector<std::uint32_t> peer_port(k * k, kInvalidPort);
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t bb = 0; bb < k; ++bb) {
      if (a == bb) continue;
      peer_port[a * k + bb] =
          shadow.port_to(d.component_root[a], d.component_root[bb]);
    }
  }

  const std::vector<std::uint32_t> info{static_cast<std::uint32_t>(k)};
  b.add_array(fib_section::kMeshInfo, info);
  b.add_array(fib_section::kMeshComp, std::move(comp));
  b.add_array(fib_section::kMeshPeerPort, std::move(peer_port));
  b.add_array(fib_section::kMeshNodes, std::move(nodes));
  b.add_array(fib_section::kMeshLightPorts, std::move(light_ports));
  b.add_array(fib_section::kMeshLabelOff, std::move(label_off));
  b.add_array(fib_section::kMeshLabelSeq, std::move(label_seq));
  return b.finish();
}

}  // namespace cpr
