"""The 3-D torus interconnect.

Both machine families route point-to-point traffic over a 3-D torus
(BG/P: embedded routers, 425 MB/s links; XT: SeaStar/SeaStar2).  The
model is link-level: every directed nearest-neighbour link is a
:class:`~repro.simengine.resources.SerialLink`, messages follow
deterministic dimension-order (X then Y then Z) routes with shortest
wrap-around direction per dimension, and contention arises naturally
when two messages share a directed link.

For analytic (non-DES) estimates the class also provides hop counts,
average/max distances, and bisection bandwidth — the quantities behind
the PTRANS and HALO discussions in the paper — and a vectorized
link-load analysis of whole message sets on the fault-free torus
(:meth:`Torus3D.max_link_load`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..machines.specs import TorusSpec
from ..simengine import Engine, SerialLink

__all__ = ["Torus3D", "Coord", "LinkKey", "NoRouteError"]

Coord = Tuple[int, int, int]
#: A directed link: (from_node, to_node) coordinates.
LinkKey = Tuple[Coord, Coord]


class NoRouteError(RuntimeError):
    """No fault-free path exists between two nodes (partitioned torus)."""

    def __init__(self, src: Coord, dst: Coord, shape: Coord) -> None:
        super().__init__(
            f"no fault-free route {src} -> {dst} on torus {shape} "
            "(failed links/nodes partition the network)"
        )
        self.src = src
        self.dst = dst


@dataclass(frozen=True)
class _Shape:
    x: int
    y: int
    z: int

    def __iter__(self) -> Iterator[int]:
        yield self.x
        yield self.y
        yield self.z


class Torus3D:
    """A 3-D torus of nodes with directed, contended links.

    Parameters
    ----------
    shape:
        (X, Y, Z) node extents.  Extent 1 in a dimension means that
        dimension does not exist (no self-links are created).
    spec:
        Link bandwidth/latency parameters from the machine model.
    env:
        A simulation engine.  If omitted, the torus works in *analytic*
        mode only (routing and distance queries; no link objects).
    """

    def __init__(
        self,
        shape: Sequence[int],
        spec: TorusSpec,
        env: Optional[Engine] = None,
    ) -> None:
        if len(shape) != 3 or any(d < 1 for d in shape):
            raise ValueError(f"torus shape must be 3 positive extents, got {shape}")
        self.shape: Coord = (int(shape[0]), int(shape[1]), int(shape[2]))
        self.spec = spec
        self.env = env
        self.links: Dict[LinkKey, SerialLink] = {}
        #: directed links taken out of service (fault injection)
        self.failed_links: Set[LinkKey] = set()
        #: nodes taken out of service (all their links are failed too)
        self.failed_nodes: Set[Coord] = set()
        #: per-link bandwidth derating factor in (0, 1]; absent = 1.0
        self.derated: Dict[LinkKey, float] = {}
        #: count of messages that needed a fault detour (reroute stat)
        self.detours = 0
        if env is not None:
            self._build_links(env)

    # -- construction -----------------------------------------------------
    def _build_links(self, env: Engine) -> None:
        for node in self.nodes():
            for nbr in self.neighbors(node):
                key = (node, nbr)
                if key not in self.links:
                    self.links[key] = SerialLink(
                        env,
                        bandwidth=self.spec.link_bandwidth,
                        latency=self.spec.hop_latency,
                        name=f"{node}->{nbr}",
                    )

    # -- basic queries ------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        x, y, z = self.shape
        return x * y * z

    def nodes(self) -> Iterator[Coord]:
        X, Y, Z = self.shape
        for z in range(Z):
            for y in range(Y):
                for x in range(X):
                    yield (x, y, z)

    def contains(self, node: Coord) -> bool:
        return all(0 <= c < d for c, d in zip(node, self.shape))

    def neighbors(self, node: Coord) -> List[Coord]:
        """Nearest neighbours over torus wrap-around (up to 6)."""
        if not self.contains(node):
            raise ValueError(f"{node} outside torus {self.shape}")
        out: List[Coord] = []
        for dim in range(3):
            ext = self.shape[dim]
            if ext == 1:
                continue
            for step in (+1, -1):
                nbr = list(node)
                nbr[dim] = (nbr[dim] + step) % ext
                cand = tuple(nbr)
                if cand != node and cand not in out:
                    out.append(cand)  # type: ignore[arg-type]
        return out

    # -- fault state ---------------------------------------------------------
    def link_key(self, a: Coord, b: Coord) -> LinkKey:
        """Validated directed-link key between two neighbouring nodes."""
        if b not in self.neighbors(a):
            raise ValueError(f"{a} -> {b} is not a torus link on {self.shape}")
        return (a, b)

    def fail_link(self, key: LinkKey, both_directions: bool = True) -> None:
        """Take a directed link (default: both directions) out of service."""
        a, b = self.link_key(*key)
        self.failed_links.add((a, b))
        if both_directions:
            self.failed_links.add((b, a))

    def fail_node(self, node: Coord) -> None:
        """Take a node out of service: every incident link fails with it."""
        if not self.contains(node):
            raise ValueError(f"{node} outside torus {self.shape}")
        self.failed_nodes.add(node)
        for nbr in self.neighbors(node):
            self.failed_links.add((node, nbr))
            self.failed_links.add((nbr, node))

    def degrade_link(self, key: LinkKey, factor: float, both_directions: bool = True) -> None:
        """Derate a link's bandwidth to ``factor`` (in (0, 1]) of spec."""
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"derating factor must be in (0, 1], got {factor}")
        a, b = self.link_key(*key)
        for k in ((a, b), (b, a)) if both_directions else ((a, b),):
            self.derated[k] = factor
            link = self.links.get(k)
            if link is not None:
                link.bandwidth = self.spec.link_bandwidth * factor

    def restore_link(self, key: LinkKey, both_directions: bool = True) -> None:
        """Return a failed or degraded link to full service."""
        a, b = self.link_key(*key)
        for k in ((a, b), (b, a)) if both_directions else ((a, b),):
            self.failed_links.discard(k)
            self.derated.pop(k, None)
            link = self.links.get(k)
            if link is not None:
                link.bandwidth = self.spec.link_bandwidth

    def link_ok(self, key: LinkKey) -> bool:
        """Whether a directed link is in service."""
        return key not in self.failed_links

    @property
    def has_faults(self) -> bool:
        return bool(self.failed_links)

    def effective_bandwidth(self, key: LinkKey) -> float:
        """Current bytes/s of a directed link (0.0 when failed)."""
        if key in self.failed_links:
            return 0.0
        return self.spec.link_bandwidth * self.derated.get(key, 1.0)

    # -- distances ----------------------------------------------------------
    def hop_distance(self, a: Coord, b: Coord) -> int:
        """Minimal hops between two nodes (per-dimension shortest wrap)."""
        total = 0
        for dim in range(3):
            ext = self.shape[dim]
            d = abs(a[dim] - b[dim])
            total += min(d, ext - d)
        return total

    def average_distance(self) -> float:
        """Mean hop distance between distinct node pairs (closed form).

        For a ring of even extent k the mean one-dimension distance over
        all ordered pairs (including self) is k/4; for odd k it is
        (k*k - 1) / (4*k).  Dimensions are independent, so the torus
        mean is the sum over dimensions.
        """
        mean = 0.0
        for ext in self.shape:
            if ext == 1:
                continue
            if ext % 2 == 0:
                mean += ext / 4.0
            else:
                mean += (ext * ext - 1) / (4.0 * ext)
        return mean

    def max_distance(self) -> int:
        """Torus diameter in hops."""
        return sum(ext // 2 for ext in self.shape if ext > 1)

    def bisection_links(self) -> int:
        """Directed links crossing the worst-case bisection plane.

        Cutting the torus across its *largest* dimension severs
        ``2 * (other-dims product)`` bidirectional link bundles (the cut
        crosses the torus twice because of wrap-around), i.e. twice that
        many directed links per direction.
        """
        X, Y, Z = sorted(self.shape)
        # largest extent is Z after sorting; plane area = X*Y
        return 4 * X * Y  # 2 cuts x 2 directions x plane area

    def bisection_link_keys(self) -> List[LinkKey]:
        """The directed links crossing the worst-case bisection plane.

        Enumerates the links behind :meth:`bisection_links`: the torus is
        cut across its largest dimension, once through the middle and
        once through the wrap-around seam.
        """
        dim = max(range(3), key=lambda d: self.shape[d])
        ext = self.shape[dim]
        if ext == 1:
            return []
        keys: Set[LinkKey] = set()
        cuts = {(ext // 2 - 1, ext // 2), (ext - 1, 0)}
        for node in self.nodes():
            for lo, hi in cuts:
                if node[dim] != lo:
                    continue
                other = list(node)
                other[dim] = hi
                nbr: Coord = tuple(other)  # type: ignore[assignment]
                if nbr != node:
                    keys.add((node, nbr))
                    keys.add((nbr, node))
        return sorted(keys)

    def bisection_bandwidth(self) -> float:
        """Bytes/s crossing the bisection in one direction.

        With injected faults this reflects the *degraded* topology:
        failed links contribute nothing and derated links their reduced
        bandwidth.  (An extent-2 dimension folds the two cuts onto the
        same physical links, so the healthy closed form — which assumes
        distinct wrap links — is kept for the no-fault fast path.)
        """
        if not self.failed_links and not self.derated:
            return self.bisection_links() / 2 * self.spec.link_bandwidth
        return sum(self.effective_bandwidth(k) for k in self.bisection_link_keys()) / 2

    # -- routing --------------------------------------------------------------
    def route(
        self, src: Coord, dst: Coord, dim_order: Tuple[int, int, int] = (0, 1, 2)
    ) -> List[LinkKey]:
        """Dimension-order route with shortest wrap per dimension.

        ``dim_order`` selects the traversal order of the dimensions
        (default X, Y, Z — the deterministic route).
        """
        if not self.contains(src) or not self.contains(dst):
            raise ValueError(f"route endpoints outside torus {self.shape}")
        if sorted(dim_order) != [0, 1, 2]:
            raise ValueError(f"dim_order must permute (0, 1, 2), got {dim_order}")
        path = self._dimension_order_path(src, dst, dim_order)
        if self.failed_links and self._blocked(path):
            detour = self._route_around(src, dst)
            if detour is None:
                raise NoRouteError(src, dst, self.shape)
            self.detours += 1
            return detour
        return path

    def _dimension_order_path(
        self, src: Coord, dst: Coord, dim_order: Tuple[int, int, int]
    ) -> List[LinkKey]:
        path: List[LinkKey] = []
        cur = list(src)
        for dim in dim_order:
            ext = self.shape[dim]
            if ext == 1:
                continue
            delta = (dst[dim] - cur[dim]) % ext
            if delta == 0:
                continue
            # choose the shorter wrap direction; ties go +
            step = +1 if delta <= ext - delta else -1
            hops = delta if step == +1 else ext - delta
            for _ in range(hops):
                nxt = list(cur)
                nxt[dim] = (nxt[dim] + step) % ext
                path.append((tuple(cur), tuple(nxt)))  # type: ignore[arg-type]
                cur = nxt
        assert tuple(cur) == tuple(dst)
        return path

    def _blocked(self, path: List[LinkKey]) -> bool:
        """Whether a path crosses any currently-failed link."""
        failed = self.failed_links
        return any(key in failed for key in path)

    def _route_around(self, src: Coord, dst: Coord) -> Optional[List[LinkKey]]:
        """Shortest fault-free path by BFS (deterministic tie-break).

        Neighbour expansion follows :meth:`neighbors` order (X+, X-,
        Y+, Y-, Z+, Z-), so the chosen detour is identical across runs.
        Returns ``None`` when the faults disconnect ``src`` from ``dst``.
        """
        if src == dst:
            return []
        failed = self.failed_links
        prev: Dict[Coord, Coord] = {src: src}
        frontier = deque([src])
        while frontier:
            node = frontier.popleft()
            for nbr in self.neighbors(node):
                if nbr in prev or (node, nbr) in failed:
                    continue
                prev[nbr] = node
                if nbr == dst:
                    hops: List[LinkKey] = []
                    cur = dst
                    while cur != src:
                        hops.append((prev[cur], cur))
                        cur = prev[cur]
                    hops.reverse()
                    return hops
                frontier.append(nbr)
        return None

    def route_adaptive(self, src: Coord, dst: Coord, nbytes: float) -> List[LinkKey]:
        """Pick the less-congested of the XYZ and ZYX dimension orders.

        BG/P's torus supports adaptive routing; this coarse model
        chooses, per message, whichever of the two canonical dimension
        orders would deliver the head earliest given current link
        bookings.  Requires DES mode (link objects).

        With injected faults, dimension orders that cross a failed link
        are discarded; when both are blocked the message detours along
        the shortest fault-free path (counted in :attr:`detours`).
        """
        if self.env is None:
            raise RuntimeError("adaptive routing needs an engine (DES mode)")
        best_path: Optional[List[LinkKey]] = None
        best_finish = float("inf")
        for order in ((0, 1, 2), (2, 1, 0)):
            path = self._dimension_order_path(src, dst, order)
            if self.failed_links and self._blocked(path):
                continue
            head = self.env.now
            finish = head
            for key in path:
                link = self.links[key]
                start = max(head, link._free_at)
                finish = start + link.latency + nbytes / link.bandwidth
                head = start + link.latency
            if finish < best_finish:
                best_finish = finish
                best_path = path
        if best_path is None:
            best_path = self._route_around(src, dst)
            if best_path is None:
                raise NoRouteError(src, dst, self.shape)
            self.detours += 1
        return best_path

    def route_links(self, src: Coord, dst: Coord) -> List[SerialLink]:
        """The SerialLink objects along the route (DES mode only)."""
        if self.env is None:
            raise RuntimeError("torus was built without an engine (analytic mode)")
        return [self.links[k] for k in self.route(src, dst)]

    # -- vectorized routing (fault-free) -----------------------------------------
    def _endpoints(self, src, dst) -> Tuple[np.ndarray, np.ndarray]:
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.ndim != 2 or src.shape[1] != 3 or src.shape != dst.shape:
            raise ValueError("src and dst must be matching (n, 3) coordinate arrays")
        for ends in (src, dst):
            if ends.size and ((ends < 0).any() or (ends >= self.shape).any()):
                raise ValueError(f"route endpoints outside torus {self.shape}")
        return src, dst

    def _legs(self, src: np.ndarray, dst: np.ndarray, dim: int) -> Tuple[np.ndarray, np.ndarray]:
        """Direction (True = +) and hops of each route's leg along ``dim``,
        with :meth:`route`'s choice: the shorter wrap, ties going +."""
        ext = self.shape[dim]
        delta = (dst[:, dim] - src[:, dim]) % ext
        plus = delta <= ext - delta
        return plus, np.where(plus, delta, ext - delta)

    def route_lengths(self, src, dst) -> np.ndarray:
        """Hops of the dimension-order route ``src[i] -> dst[i]``, per row."""
        src, dst = self._endpoints(src, dst)
        return sum(self._legs(src, dst, dim)[1] for dim in range(3))

    def max_link_load(self, src, dst, weights) -> Tuple[float, int]:
        """``(busiest directed link's load, longest route in hops)``.

        Message ``i`` goes ``src[i] -> dst[i]`` along the route
        :meth:`route` takes on this torus and loads every link it
        crosses with ``weights[i]``; the result equals summing the
        per-hop routes, without walking them.  A route is one leg per
        dimension: a run of consecutive links on one ring (a *line*:
        the other two coordinates fixed) in one direction.  Per (line,
        direction) a leg adds its weight at its first link and removes
        it past its last, in a difference array two rings long so no leg
        wraps; the cumulative sum, with its second ring folded onto the
        first, is every link's load.

        Only for a fault-free torus: detours around failed links are not
        dimension-order routes, so a torus with ``failed_links`` raises
        ``ValueError`` and must be routed per message with :meth:`route`.
        """
        if self.failed_links:
            raise ValueError(
                "max_link_load needs a fault-free torus; route() handles failed links"
            )
        src, dst = self._endpoints(src, dst)
        weights = np.broadcast_to(np.asarray(weights), (len(src),))
        cur = src.copy()
        hops_total = np.zeros(len(src), dtype=np.int64)
        busiest = 0.0
        for dim in range(3):
            ext = self.shape[dim]
            plus, hops = self._legs(cur, dst, dim)
            hops_total += hops
            if ext > 1:
                a, b = (d for d in range(3) if d != dim)
                lines = self.num_nodes // ext
                line = cur[:, a] + self.shape[a] * cur[:, b] + lines * ~plus
                pos = cur[:, dim]
                # A - leg from pos crosses the links keyed pos, pos-1, ...
                first = np.where(plus, pos, (pos - hops + 1) % ext)
                start = line * (2 * ext) + first
                diff = np.zeros(4 * lines * ext, dtype=weights.dtype)
                np.add.at(diff, start, weights)
                np.add.at(diff, start + hops, -weights)
                ring = np.cumsum(diff.reshape(2 * lines, 2 * ext), axis=1)
                busiest = max(busiest, float((ring[:, :ext] + ring[:, ext:]).max()))
            cur[:, dim] = dst[:, dim]
        return busiest, int(hops_total.max()) if len(src) else 0

    # -- utilisation ------------------------------------------------------------
    def link_utilisation(self) -> Dict[LinkKey, float]:
        """Per-link utilisation fraction since simulation start.

        Failed links are excluded — they are no longer part of the
        topology; their historical traffic remains on the link objects.
        """
        failed = self.failed_links
        return {
            k: link.utilization()
            for k, link in self.links.items()
            if k not in failed
        }

    def hottest_links(self, n: int = 5) -> List[Tuple[LinkKey, float]]:
        """The ``n`` most-utilised links (contention diagnostics)."""
        u = self.link_utilisation()
        return sorted(u.items(), key=lambda kv: kv[1], reverse=True)[:n]
