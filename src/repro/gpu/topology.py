"""GPU interconnect topology (Figure 3.3) and the ``dtlist`` rule.

The platform is a tree: GPUs are leaves, PCIe switches are internal nodes,
the host is the root.  Every tree edge is a full-duplex PCIe link, modelled
as two directed :class:`Link` objects (an *uplink* towards the root and a
*downlink* away from it).

Peer-to-peer traffic from GPU ``i`` to GPU ``j`` climbs uplinks to the
lowest common ancestor and descends downlinks to ``j``.  Host-mediated
traffic (the previous work's execution model, and primary I/O) routes all
the way through the root.

``dtlist(l)`` — the set of (source, destination) GPU pairs whose traffic
crosses directed link ``l`` — is what the ILP formulation (Eq. III.7) needs.
The paper gives the tree shortcut: *an uplink ``l`` carries traffic from
GPU ``i`` to GPU ``j`` iff ``i`` is in the subtree below ``l`` and ``j`` is
not* (mirrored for downlinks).  We implement both that rule and brute-force
route enumeration and cross-check them in the tests.

Beyond the paper's uniform-``BW``/``Lat`` model, every tree edge may carry
its *own* :class:`~repro.gpu.specs.LinkSpec` (``edge_specs``) and every GPU
leaf its own :class:`~repro.gpu.specs.GpuSpec` (``gpu_specs``) — the
hierarchically heterogeneous platforms of real multi-GPU boxes (fast
intra-island links, slow cross-island hops, mixed device generations).
The named platform catalog lives in :mod:`repro.gpu.platforms`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.gpu.specs import PCIE_GEN2_X16, GpuSpec, LinkSpec

#: Identifier of the host (tree root) in node name space.
HOST = "host"


@dataclass(frozen=True)
class Link:
    """A directed PCIe link along one tree edge.

    ``child``/``parent`` name the tree edge; ``up`` is True for the
    child->parent direction.
    """

    link_id: int
    child: str
    parent: str
    up: bool
    spec: LinkSpec

    @property
    def name(self) -> str:
        if self.up:
            return f"{self.child}->{self.parent}"
        return f"{self.parent}->{self.child}"


class GpuTopology:
    """A host-rooted tree of switches and GPUs.

    Parameters
    ----------
    edges:
        ``(child, parent)`` pairs; the transitive parent chain must lead
        to :data:`HOST`.  GPU leaves are named ``gpu0..gpuN-1``.
    num_gpus:
        Number of GPU leaves.
    link_spec:
        Default per-direction PCIe link parameters — every edge without
        an ``edge_specs`` override uses this (the paper's model, where
        one ``BW``/``Lat`` pair appears in Eq. III.3).
    edge_specs:
        Optional per-edge :class:`LinkSpec` overrides, keyed by the
        *child* endpoint of the tree edge (a tree edge is uniquely named
        by its child).  Both directed links of the edge get the spec.
    gpu_specs:
        Optional per-leaf :class:`GpuSpec` list (one per GPU, in GPU-id
        order) for heterogeneous machines; :meth:`gpu_slowdowns` derives
        relative compute-slowdown factors from it for the mapping
        problem's heterogeneous extension (Section 3.2.2).
    """

    def __init__(
        self,
        edges: Sequence[Tuple[str, str]],
        num_gpus: int,
        link_spec: LinkSpec = PCIE_GEN2_X16,
        edge_specs: Optional[Mapping[str, LinkSpec]] = None,
        gpu_specs: Optional[Sequence[GpuSpec]] = None,
    ) -> None:
        self.num_gpus = num_gpus
        self.link_spec = link_spec
        self.gpu_specs: Optional[Tuple[GpuSpec, ...]] = (
            tuple(gpu_specs) if gpu_specs is not None else None
        )
        if self.gpu_specs is not None and len(self.gpu_specs) != num_gpus:
            raise ValueError("one GpuSpec per GPU leaf required")
        edge_specs = dict(edge_specs) if edge_specs else {}
        self._parent: Dict[str, str] = {}
        self.links: List[Link] = []
        self._uplink: Dict[str, int] = {}
        self._downlink: Dict[str, int] = {}
        for child, parent in edges:
            if child in self._parent:
                raise ValueError(f"duplicate child {child!r}")
            self._parent[child] = parent
            spec = edge_specs.pop(child, link_spec)
            up = Link(len(self.links), child, parent, True, spec)
            self.links.append(up)
            self._uplink[child] = up.link_id
            down = Link(len(self.links), child, parent, False, spec)
            self.links.append(down)
            self._downlink[child] = down.link_id
        if edge_specs:
            raise ValueError(
                f"edge_specs name unknown edges: {sorted(edge_specs)}"
            )
        for gpu in range(num_gpus):
            name = gpu_name(gpu)
            if name not in self._parent:
                raise ValueError(f"{name} missing from topology edges")
        # sanity: every parent chain must terminate at the host
        for child in self._parent:
            self._ancestors(child)
        # memoized route tables: the topology is immutable after
        # construction, so every route is computed at most once and the
        # cached tuple is shared by all callers (returning tuples keeps
        # the memo safe without defensive copies)
        self._p2p_routes: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._via_host_routes: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._to_host_routes: Dict[int, Tuple[int, ...]] = {}
        self._from_host_routes: Dict[int, Tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def tree_edges(self) -> List[Tuple[str, str]]:
        """The (child, parent) tree edges, sorted — together with
        ``num_gpus``, the per-link specs, and ``gpu_specs`` this is the
        topology's complete identity (the sweep engine keys cached
        mappings on it; see :func:`topology_key_parts`)."""
        return sorted(self._parent.items())

    @property
    def num_links(self) -> int:
        return len(self.links)

    @property
    def uniform_links(self) -> bool:
        """Whether every link shares the default ``link_spec`` (the
        paper's model); heterogeneous platforms return False."""
        return all(link.spec == self.link_spec for link in self.links)

    def link_spec_of(self, link_id: int) -> LinkSpec:
        """The :class:`LinkSpec` governing directed link ``link_id``."""
        return self.links[link_id].spec

    def gpu_slowdowns(self) -> Optional[List[float]]:
        """Per-GPU compute-slowdown factors derived from ``gpu_specs``.

        The fastest device (largest ``peak_throughput_proxy``) is the
        1.0 reference; every other GPU pays a proportional slowdown —
        exactly the ``T_i * slowdown_j`` heterogeneous extension of the
        ILP (Section 3.2.2).  ``None`` when no per-leaf specs were
        given (homogeneous machine, the default).
        """
        if self.gpu_specs is None:
            return None
        best = max(spec.peak_throughput_proxy for spec in self.gpu_specs)
        return [best / spec.peak_throughput_proxy for spec in self.gpu_specs]

    def _ancestors(self, node: str) -> List[str]:
        """Chain of ancestors from ``node`` (exclusive) to the host."""
        chain = []
        cur = node
        seen = set()
        while cur != HOST:
            if cur in seen or cur not in self._parent:
                raise ValueError(f"node {cur!r} does not reach the host")
            seen.add(cur)
            cur = self._parent[cur]
            chain.append(cur)
        return chain

    def subtree_gpus(self, link: Link) -> List[int]:
        """GPU ids in the subtree below ``link``'s child endpoint."""
        out = []
        for gpu in range(self.num_gpus):
            name = gpu_name(gpu)
            if name == link.child or link.child in self._ancestors(name):
                out.append(gpu)
        return out

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route(self, src: int, dst: int) -> Tuple[int, ...]:
        """Directed link ids used by a peer-to-peer transfer src -> dst.

        Climbs to the lowest common ancestor, then descends; an intra-GPU
        "transfer" uses no links.  Memoized: the returned tuple is shared
        across calls, never re-walked.
        """
        if src == dst:
            return ()
        route = self._p2p_routes.get((src, dst))
        if route is None:
            route = tuple(self._route_names(gpu_name(src), gpu_name(dst)))
            self._p2p_routes[(src, dst)] = route
        return route

    def route_to_host(self, src: int) -> Tuple[int, ...]:
        """Uplink ids from GPU ``src`` to the host (device-to-host copy)."""
        route = self._to_host_routes.get(src)
        if route is None:
            route = tuple(self._route_names(gpu_name(src), HOST))
            self._to_host_routes[src] = route
        return route

    def route_from_host(self, dst: int) -> Tuple[int, ...]:
        """Downlink ids from the host to GPU ``dst`` (host-to-device copy)."""
        route = self._from_host_routes.get(dst)
        if route is None:
            route = tuple(self._route_names(HOST, gpu_name(dst)))
            self._from_host_routes[dst] = route
        return route

    def route_via_host(self, src: int, dst: int) -> Tuple[int, ...]:
        """Route for host-mediated (non-P2P) transfers, as in [7]."""
        if src == dst:
            return ()
        route = self._via_host_routes.get((src, dst))
        if route is None:
            route = self.route_to_host(src) + self.route_from_host(dst)
            self._via_host_routes[(src, dst)] = route
        return route

    def _route_names(self, src: str, dst: str) -> List[int]:
        src_chain = [src] + self._ancestors(src) if src != HOST else [HOST]
        dst_chain = [dst] + self._ancestors(dst) if dst != HOST else [HOST]
        dst_set = set(dst_chain)
        # climb from src until we hit a node on dst's chain (the LCA)
        lca = next(node for node in src_chain if node in dst_set)
        links: List[int] = []
        cur = src
        while cur != lca:
            links.append(self._uplink[cur])
            cur = self._parent[cur]
        down_path = []
        cur = dst
        while cur != lca:
            down_path.append(self._downlink[cur])
            cur = self._parent[cur]
        links.extend(reversed(down_path))
        return links

    # ------------------------------------------------------------------
    # dtlist
    # ------------------------------------------------------------------
    def dtlist(self, link_id: int) -> List[Tuple[int, int]]:
        """(src GPU, dst GPU) pairs whose P2P route crosses ``link_id``.

        Uses brute-force route enumeration; :meth:`dtlist_tree_rule` gives
        the paper's closed-form tree rule for cross-checking.
        """
        pairs = []
        for src in range(self.num_gpus):
            for dst in range(self.num_gpus):
                if src != dst and link_id in self.route(src, dst):
                    pairs.append((src, dst))
        return pairs

    def dtlist_tree_rule(self, link_id: int) -> List[Tuple[int, int]]:
        """The paper's rule: an uplink carries (i, j) iff ``i`` is below it
        and ``j`` is not; a downlink iff ``j`` is below it and ``i`` is
        not."""
        link = self.links[link_id]
        below = set(self.subtree_gpus(link))
        pairs = []
        for src in range(self.num_gpus):
            for dst in range(self.num_gpus):
                if src == dst:
                    continue
                if link.up and src in below and dst not in below:
                    pairs.append((src, dst))
                elif not link.up and dst in below and src not in below:
                    pairs.append((src, dst))
        return pairs

    def host_dtlist(self, link_id: int) -> Dict[str, List[int]]:
        """GPUs whose host-bound traffic crosses ``link_id``.

        Returns ``{"to_host": [...], "from_host": [...]}``; used to load
        links with primary I/O and with [7]-style host-mediated traffic.
        """
        to_host = [
            gpu for gpu in range(self.num_gpus) if link_id in self.route_to_host(gpu)
        ]
        from_host = [
            gpu for gpu in range(self.num_gpus) if link_id in self.route_from_host(gpu)
        ]
        return {"to_host": to_host, "from_host": from_host}

    def transfer_ns(self, nbytes: float, hops: int = 1) -> float:
        """Cost of one transfer crossing ``hops`` uniform-spec links.

        Uses the default ``link_spec``; for heterogeneous routes use
        :meth:`route_transfer_ns` with concrete link ids.
        """
        if hops <= 0:
            return 0.0
        # Store-and-forward pipelining across switch hops: pay the latency
        # once per hop but the bandwidth term once (links stream).
        return hops * self.link_spec.latency_ns + nbytes / self.link_spec.bandwidth_bytes_per_ns

    def route_transfer_ns(self, route: Sequence[int], nbytes: float) -> float:
        """Cost of one transfer along ``route`` with per-link specs.

        Latency is paid once per hop; the streamed bandwidth term is
        governed by the route's *bottleneck* link (the slowest link
        paces the whole store-and-forward pipeline).
        """
        if not route:
            return 0.0
        latency = sum(self.links[l].spec.latency_ns for l in route)
        bottleneck_bw = min(
            self.links[l].spec.bandwidth_bytes_per_ns for l in route
        )
        return latency + nbytes / bottleneck_bw

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GpuTopology(gpus={self.num_gpus}, links={self.num_links})"


def topology_key_parts(topology: GpuTopology) -> Dict[str, object]:
    """The interconnect-identity knobs mapping/execution depend on.

    Platform identity is *content-addressed*: the tree shape, every
    per-link spec, and any per-leaf GPU specs all enter the key, so two
    named platforms can never share a cached mapping unless they are
    byte-identical machines.  Uniform homogeneous topologies keep the
    original compact form (and hence their pre-existing cache entries).
    """
    parts: Dict[str, object] = {
        "parents": topology.tree_edges(),
        "num_gpus": topology.num_gpus,
        "link_spec": asdict(topology.link_spec),
    }
    if not topology.uniform_links:
        # only uplinks: both directions of an edge share one spec
        parts["edge_specs"] = {
            link.child: asdict(link.spec)
            for link in topology.links
            if link.up and link.spec != topology.link_spec
        }
    if topology.gpu_specs is not None:
        parts["gpu_specs"] = [asdict(spec) for spec in topology.gpu_specs]
    return parts


def gpu_name(gpu: int) -> str:
    """Canonical leaf name of GPU ``gpu``."""
    return f"gpu{gpu}"


def default_topology(
    num_gpus: int, link_spec: LinkSpec = PCIE_GEN2_X16
) -> GpuTopology:
    """The machine of Figure 3.3, trimmed to ``num_gpus`` leaves.

    * 1 GPU : host - sw1 - gpu0
    * 2 GPUs: host - sw1 - {gpu0, gpu1}
    * 3 GPUs: host - sw1 - {sw2 - {gpu0, gpu1}, sw3 - {gpu2}}
    * 4 GPUs: host - sw1 - {sw2 - {gpu0, gpu1}, sw3 - {gpu2, gpu3}}

    >>> topo = default_topology(4)
    >>> topo.num_gpus, topo.num_links
    (4, 14)
    >>> topo.route(0, 1) != topo.route(0, 2)  # siblings vs cross-switch
    True
    """
    if num_gpus < 1:
        raise ValueError("need at least one GPU")
    if num_gpus > 4:
        raise ValueError("the reference machine has at most 4 GPUs")
    edges: List[Tuple[str, str]] = [("sw1", HOST)]
    if num_gpus <= 2:
        for gpu in range(num_gpus):
            edges.append((gpu_name(gpu), "sw1"))
    else:
        edges.append(("sw2", "sw1"))
        edges.append(("sw3", "sw1"))
        for gpu in range(num_gpus):
            parent = "sw2" if gpu < 2 else "sw3"
            edges.append((gpu_name(gpu), parent))
    return GpuTopology(edges, num_gpus, link_spec)
