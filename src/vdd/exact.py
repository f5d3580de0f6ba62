"""Exact engine: state vectors, energies, and analytic gradients.

A graph is compiled once into a topology (`_LevelTables`); its parameters
travel separately as θ of shape (N, 3), one row per node in ascending id
order, or as a stack of S of them, shape (S, N, 3), evaluated in one
`energy_and_grad` call.  `VddGraph` is the input/output form; the hot path
takes θ.

Every engine, here and in vdd.vmc and vdd.optimize, reads one per-edge
layout: `_chart`'s edge factors and slopes and `_LevelTables.child`, each
(..., N, 2) and indexed [row, bit], so that read flat they share the edge
index 2 * row + bit.

The state vector is filled by level-wise forward propagation: every
bit-string prefix of length l-1 sits at exactly one level-l node, so the
2^n amplitudes are built in n vectorized sweeps (O(n 2^n) total) instead
of 2^n independent path walks.  State vectors stop at n = STATEVECTOR_CAP.

Gradients use d<H>/dθ_j = 2 Re <∂_j ψ|H|ψ>, valid because the diagram is
normalized for every parameter value.  ∂_j ψ is ψ with node j's edge
factor on the path replaced by its θ_j-derivative.  `energy_and_grad`
gets the energy and every parameter's gradient together from one of two
engines, which agree to rounding:

* dense (`_dense`) — one forward pass (prefix amplitudes), one H|ψ> and
  one backward pass (suffix sums against H|ψ>): O(n 2^n), capped at
  n = STATEVECTOR_CAP.  It works on one state vector at a time, so it
  loops over a stack.
* contraction (`_contracted`) — the diagram is a matrix product state
  whose level tensors hold one edge factor per row, and H a matrix
  product operator of bond dimension D, so <ψ|H|ψ> and its derivatives are
  left and right environment sweeps over the levels (Schollwöck, Ann.
  Phys. 326, 96, 2011): O(n (W^2 D)^2) for a diagram at most W nodes
  wide, with no 2^n vector, so narrow diagrams have no cap.  One code
  path serves every S >= 1: each level's transfer matrices, for every θ of
  the stack, are sums of products of a node pair's conjugated and plain
  edge factors with the operator's nonzero entries, placed at the pair's
  children, and the gradient reads the same entries against the
  environments.  Those entries are compiled once per topology and operator
  into index tables (`_Basis`), and the buffers of T and of the
  environments, and their per-level views, once per stack size as well
  (`_Contraction`), so a call runs only θ-dependent work.  A stack is
  contracted in chunks of about _TRANSFER_BYTES of transfer matrices.

The cost rule (`_contracts`) picks contraction when
(W^2 D)^2 < 2^n + _LEVEL_COST: the accordion (W = 2) and the product
layout (W = 1) at every n for the open Heisenberg chain (D = 5), the
accordion from n = 5 on for the periodic one (D = 8), and the universal
layout (W = 2^(n-1)) never past n = 2.  Up to n = STATEVECTOR_CAP, where
the dense engine can run, it also keeps one θ's transfer matrices within
_CONTRACTION_BYTES, so that a width-14 diagram at n = 20 does not contract
with 300 MB of them.
`exact_energy` follows the same rule;
`to_state_vector` and `finite_difference`, the oracle for both engines,
stay dense.

Two parameter modes (charts for θ's magnitude slot, see `_chart`):

* "raw"  — θ row (r, omega, phi).  The right-edge magnitude sqrt(1-r^2)
           makes d/dr singular at r = 1; the factor is clamped and a
           SingularGradientWarning names the affected parameters when r
           sits exactly on {0, 1}.
* "trig" — θ row (u, omega, phi) with r = cos u, u signed and unfolded,
           so the magnitude derivative is bounded and an optimizer can keep
           u as its state through r in {0, 1}.  Used for training.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .graph import ParamTriple, VddGraph, validate
from .hamiltonian import _checked_energy
from .state import CapacityError, StateVector, _check_choice

__all__ = [
    "PARAM_MODES",
    "STATEVECTOR_CAP",
    "GradientVector",
    "SingularGradientWarning",
    "to_state_vector",
    "exact_energy",
    "exact_gradient",
    "finite_difference",
    "parameter_labels",
]

PARAM_MODES = ("raw", "trig")

STATEVECTOR_CAP = 20

# raw-mode margin from the box: `_chart` clamps r into [_CLAMP, 1 - _CLAMP]
# for d/dr, and `train` projects r into the same range, so that the clamped
# and the true derivative agree at every r it steps to
_CLAMP = 1e-9


class SingularGradientWarning(UserWarning):
    """Raw-mode gradient requested with some r exactly on {0, 1}."""


@dataclass
class GradientVector:
    """Flat gradient, ordered (r, omega, phi) per node in ascending node id.

    The entries and the node ids they belong to are all it holds; its
    labels ("r3", "omega3", "phi3") are derived from the ids, and lookups
    also accept negative ids counting nodes from the end, so "phi-1" is the
    phi entry of the last node.
    """

    entries: np.ndarray
    node_ids: tuple[int, ...]

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.float64)
        if self.entries.shape != (3 * len(self.node_ids),):
            raise ValueError(
                f"expected {3 * len(self.node_ids)} entries, got shape {self.entries.shape}"
            )
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("gradient entries must be finite")

    @property
    def labels(self) -> tuple[str, ...]:
        return _labels(self.node_ids)

    def index_of(self, label: str) -> int:
        return _label_index(self.node_ids, label)

    def entry(self, label: str) -> float:
        return float(self.entries[self.index_of(label)])

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))


def _labels(node_ids) -> tuple[str, ...]:
    return tuple(f"{kind}{node_id}" for node_id in node_ids for kind in ("r", "omega", "phi"))


def _label_index(node_ids: tuple[int, ...], label: str) -> int:
    """Flat index of a label among the entries of nodes ``node_ids``."""
    for kind, offset in (("omega", 1), ("phi", 2), ("r", 0)):
        if label.startswith(kind):
            suffix = label[len(kind):]
            break
    else:
        raise KeyError(f"bad gradient label {label!r}")
    try:
        ref = int(suffix)
    except ValueError:
        raise KeyError(f"bad gradient label {label!r}") from None
    if ref < 0:
        try:
            node_id = node_ids[ref]  # negative ids count from the last node
        except IndexError:
            raise KeyError(f"label {label!r} reaches past the first node") from None
    else:
        node_id = ref
    if node_id not in node_ids:
        raise KeyError(f"no node {node_id} behind label {label!r}")
    return 3 * node_ids.index(node_id) + offset


def parameter_labels(g: VddGraph) -> tuple[str, ...]:
    """Canonical flat parameter names, matching GradientVector ordering."""
    return _labels(g.sorted_ids())


# ---------------------------------------------------------------------------
# compiled topology, the chart, and the forward sweep


class _LevelTables:
    """Compiled topology of a validated graph: its structure, not its parameters.

    Nodes are numbered by row = index in ascending id order, the row order
    of θ and of GradientVector.  child[row, bit] (shape (N, 2)) is the row
    of the node's bit-child, -1 past the last level, in the layout of
    `_chart`'s tables; root is the row of the level-1 node.  Built once per
    graph shape and reused for every θ.

    The per-level tables every engine reads, levels counted from 0: level
    and slot give each row's level and its index among the nodes of that
    level, in row order; counts[l] is the number of nodes of level l and
    width the most on one level; row_of[l, i] (shape (n, width)) is the row
    of the node in slot i of level l, -1 for empty slots; and lone[l] is
    the row of level l's node when the level holds one node, -1 otherwise:
    every path passes that node, so the VMC sampler reads its p_zero as one
    scalar, and two paths that differ only above it meet there.  So
    rejoin[l] (l = 0..n) is the first level at or below l with a lone node,
    n if there is none, where the VMC local values end a flip group's walk.

    For the contraction engine, children[l, i, b] (shape (n, width, 2)) is
    the slot of the b-child of the level-l node in slot i, 0 past the last
    level and for empty slots.

    For the VMC gradient, which needs per edge the count of samples taking
    it and the sums of their centered local values: when every node of
    level l + 1 has in-degree 1, each edge of level l leads to a node of
    its own, and its sums are the sums of that node's two edges.  So only
    the other levels, the last one included, are scattered from the samples
    (merge_levels, ascending); the rest are filled bottom-up, one stage per
    step away from a scattered level: fills holds per stage the edges (dst)
    and the two edges of each one's child (left, right), whose sums it adds.

    What depends on an operator too is compiled by `compiled`, for one
    operator at a time.
    """

    def __init__(self, g: VddGraph):
        issues = validate(g)
        if issues:
            raise ValueError("invalid graph: " + "; ".join(issues))
        n = self.num_qubits = g.num_qubits
        self.global_phase = g.global_phase
        self.node_ids = tuple(g.sorted_ids())
        row = {node_id: k for k, node_id in enumerate(self.node_ids)}
        self.child = np.array(
            [(row.get(g.nodes[i].child0, -1), row.get(g.nodes[i].child1, -1))
             for i in self.node_ids], dtype=np.int64)
        self.root = row[g.root_child]

        level = np.array([g.nodes[i].level - 1 for i in self.node_ids])
        slot = np.empty(len(level), dtype=np.int64)
        counts = np.zeros(n, dtype=np.int64)
        for k, l in enumerate(level):
            slot[k] = counts[l]
            counts[l] += 1
        self.level, self.slot, self.counts = level, slot, counts
        self.width = int(counts.max())
        self.row_of = np.full((n, self.width), -1, dtype=np.int64)
        self.row_of[level, slot] = np.arange(len(level))
        self.lone = np.where(counts == 1, self.row_of[:, 0], -1)
        self.children = np.zeros((n, self.width, 2), dtype=np.int64)
        self.children[level, slot] = np.where(self.child < 0, 0, slot[self.child])
        rejoin = [n]
        for l in range(n - 1, -1, -1):
            rejoin.append(l if self.lone[l] >= 0 else rejoin[-1])
        self.rejoin = tuple(rejoin[::-1])

        # a level whose edges meet at a node below it is scattered
        in_degree = np.bincount(self.child[self.child >= 0], minlength=len(level))
        scattered = np.zeros(n, dtype=bool)
        scattered[level[in_degree > 1] - 1] = True
        scattered[n - 1] = True
        self.merge_levels = np.flatnonzero(scattered)
        stage = np.zeros(n, dtype=np.int64)  # steps up from the scattered level below
        for l in range(n - 2, -1, -1):
            if not scattered[l]:
                stage[l] = stage[l + 1] + 1
        edge_stage = np.repeat(stage[level], 2)  # per edge 2 * row + bit
        self.fills = []
        for s in range(1, int(stage.max()) + 1):
            dst = np.flatnonzero(edge_stage == s)
            left = 2 * self.child.ravel()[dst]
            self.fills.append((dst, left, left + 1))
        self._compiled, self._compiled_of = {}, None

    def compiled(self, h, kind, *size):
        """kind(self, h, *size), compiled on the first call with them and
        kept, with everything else compiled for operator h, until a call with
        another operator drops them all: the operator's `_Basis`, each stack
        size's `_Contraction` and each batch size's `_Segments` (vdd.vmc).
        The caller passes the class, so this module needs nothing of vdd.vmc."""
        if self._compiled_of is not h:
            self._compiled, self._compiled_of = {}, h
        key = (kind, *size)
        built = self._compiled.get(key)
        if built is None:
            built = self._compiled[key] = kind(self, h, *size)
        return built


def _chart(theta: np.ndarray, mode: str) -> np.ndarray:
    """(edge, slope): every node's edge factors and their derivatives with
    respect to its magnitude slot θ[..., 0], each of shape (..., N, 2) for θ
    of shape (N, 3) or a stack of them, (S, N, 3), returned as the two
    halves of one array of shape (2, ..., N, 2).  [..., row, bit] is the
    node's bit-edge, so read flat both are indexed by the edge 2 * row + bit.

    Rows of θ are (r, omega, phi) in "raw" mode and (u, omega, phi) in
    "trig" mode, u signed and unfolded.  Both modes evaluate the magnitudes
    as (cos u, sin u), raw with u = arccos r, so a graph yields the same
    edge factors whichever mode its gradient is asked in:

        edge  = (cos u e^{i omega}, sin u e^{i phi})
        raw:  slope = d/dr = (e^{i omega}, -r / sqrt(1 - r^2) e^{i phi}), r clamped below 1
        trig: slope = d/du = (-sin u e^{i omega}, cos u e^{i phi})
    """
    mag = theta[..., 0]
    u = mag if mode == "trig" else np.arccos(mag)
    magnitudes = np.empty((2,) + theta.shape[:-1] + (2,))  # of the edge and of the slope
    np.cos(u, out=magnitudes[0, ..., 0])
    np.sin(u, out=magnitudes[0, ..., 1])
    if mode == "trig":
        np.negative(magnitudes[0, ..., 1], out=magnitudes[1, ..., 0])
        magnitudes[1, ..., 1] = magnitudes[0, ..., 0]
    else:
        rc = np.clip(mag, _CLAMP, 1.0 - _CLAMP)
        magnitudes[1, ..., 0] = 1.0
        magnitudes[1, ..., 1] = -rc / np.sqrt(1.0 - rc * rc)
    return magnitudes * np.exp(1j * theta[..., 1:])


def _flatten(g: VddGraph, mode: str) -> np.ndarray:
    """θ of a graph, shape (N, 3) in ascending node id: (r | arccos r, omega, phi)."""
    theta = np.array(
        [(p.r, p.omega, p.phi) for p in (g.nodes[node_id].params for node_id in g.sorted_ids())],
        dtype=np.float64,
    )
    if mode == "trig":
        theta[:, 0] = np.arccos(theta[:, 0])
    return theta


def _materialize(g: VddGraph, theta: np.ndarray, mode: str) -> VddGraph:
    """A copy of ``g`` carrying θ (flat, or shape (N, 3)); inverse of _flatten.

    trig: r = |cos u|, and a negative cos u (sin u) shifts omega (phi) by
    pi, so the edge factors cos(u) e^{i omega}, sin(u) e^{i phi} are kept.
    """
    theta = np.array(np.reshape(theta, (-1, 3)), dtype=np.float64)
    if mode == "trig":
        c, s = np.cos(theta[:, 0]), np.sin(theta[:, 0])
        theta[:, 0] = np.abs(c)
        theta[:, 1] += np.where(c < 0, math.pi, 0.0)
        theta[:, 2] += np.where(s < 0, math.pi, 0.0)
    nodes = {
        node_id: replace(g.nodes[node_id], params=ParamTriple(*map(float, row)))
        for node_id, row in zip(g.sorted_ids(), theta)
    }
    return replace(g, nodes=nodes)


def _forward(topo: _LevelTables, edge: np.ndarray):
    """Prefix amplitudes F[l] (length 2^l) and taken edges E[l] per level,
    for one θ's edge table (N, 2).

    F[l][p] is the product of the first l edge factors of prefix p times
    the global phase, so F[n] is the state vector.  E[l][q] is the edge
    2 * row + bit that the length-(l+1) prefix q takes at level l+1, so
    F[l+1] = repeat(F[l], 2) * edge.flat[E[l]].  Every 2^n array of this
    module starts here, so this is where n > STATEVECTOR_CAP is refused.
    """
    n = topo.num_qubits
    if n > STATEVECTOR_CAP:
        raise CapacityError(f"state vectors are capped at n = {STATEVECTOR_CAP}, got n = {n}")
    factor, child = edge.ravel(), topo.child.ravel()
    amps = [np.array([np.exp(1j * topo.global_phase)], dtype=np.complex128)]
    taken = [2 * topo.root + np.arange(2)]
    for level in range(1, n + 1):
        amps.append(np.repeat(amps[-1], 2) * factor[taken[-1]])
        if level < n:
            edges = np.repeat(2 * child[taken[-1]], 2)
            edges[1::2] += 1
            taken.append(edges)
    return amps, taken


def _check_graph_and_operator(g: VddGraph, h) -> None:
    if h.num_qubits != g.num_qubits:
        raise ValueError(
            f"operator acts on {h.num_qubits} qubits but the graph has {g.num_qubits}"
        )


def _check_mode(mode: str) -> None:
    _check_choice("param_mode", mode, PARAM_MODES)


def _amplitudes(topo: _LevelTables, theta: np.ndarray, mode: str) -> np.ndarray:
    """The 2^n amplitudes at θ, from the forward sweep alone."""
    return _forward(topo, _chart(theta, mode)[0])[0][-1]


def to_state_vector(g: VddGraph) -> StateVector:
    """All 2^n amplitudes of the diagram, indexed with qubit 1 as the MSB."""
    amps = _amplitudes(_LevelTables(g), _flatten(g, "raw"), "raw")
    return StateVector(num_qubits=g.num_qubits, amps=amps)


def exact_energy(g: VddGraph, h) -> float:
    """<psi|H|psi>, by the engine `energy_and_grad` would use for this graph,
    without the gradient: past n = 20 for narrow diagrams."""
    from .hamiltonian import expectation

    _check_graph_and_operator(g, h)
    topo = _LevelTables(g)
    edge, _ = _chart(_flatten(g, "raw"), "raw")
    if _contracts(topo, h):
        norm2, value, _ = _contracted(topo, h, edge[None], gradient=False)
        return _checked_energy(norm2[0], value[0])
    return expectation(h, _forward(topo, edge)[0][-1])


# ---------------------------------------------------------------------------
# fused energy and analytic gradient: two engines


# How much more the dense engine's fixed cost per level is than the
# contraction's, counted in amplitudes: its sweeps run several numpy calls
# per level, the contraction's one small matmul.  Fitted to both engines'
# times at n = 2-12 (2 vCPU; product, accordion and universal layouts; open
# and periodic Heisenberg and TFIM): the rule then picks the faster engine
# in 94 of the 103 cases, against 70 with no fixed cost, and the 9 misses,
# all at n <= 6, cost 0.06 ms together.
_LEVEL_COST = 1000

# Transfer-matrix bytes one contraction may hold, n S (W^2 D)^2 16 for S
# stacked θ.  With k = ceil(S n (W^2 D)^2 16 / _TRANSFER_BYTES),
# `energy_and_grad` contracts a stack in turn in chunks of ceil(S / k)
# consecutive θ, the last chunk taking the rest.  So a chunk can exceed the
# bound by less than one θ's transfer matrices, and the chunks are equal
# only when their size divides S: 40 θ at n = 8 come as 14, 14 and 12, two
# stack sizes to compile.  A chunk's fixed cost (the per-level sweeps) is
# shared by its θ, while its buffers grow with the chunk: 768 KiB gives four
# chunks of 8 θ for a 32-seed variance scan of the accordion on the open
# Heisenberg chain at n = 13, 14 (88 KiB per θ at n = 14), which peaks at
# 1.1 MB allocated (tracemalloc).
_TRANSFER_BYTES = 768 * 1024


# Bytes one θ's transfer matrices, n (W^2 D)^2 complex numbers, may take
# where the dense engine can run instead (n <= STATEVECTOR_CAP).  A chunk
# holds about _TRANSFER_BYTES of them, or one θ's where that is more, so
# past this bound they are the largest array a contraction allocates.  The
# dense engine peaks at about 100 MiB at n = 20 whatever the width (26 MiB
# at n = 18, tracemalloc).  The accordion on the periodic Heisenberg chain
# (D = 8) takes 328 KB at n = 20.
_CONTRACTION_BYTES = 16 * 2**20


def _contracts(topo: _LevelTables, h) -> bool:
    """Whether contraction over levels is the cheaper engine.

    Per level it multiplies (W^2 D)^2 transfer matrices (W the width, D the
    operator's bond dimension); the dense engine handles 2^n amplitudes and
    pays _LEVEL_COST more in fixed cost.  Where the dense engine can run,
    a diagram whose transfer matrices for one θ would exceed
    _CONTRACTION_BYTES is left to it.
    """
    n = topo.num_qubits
    size = topo.width**2 * h._mpo.shape[1]
    if n <= STATEVECTOR_CAP and 16 * n * size * size > _CONTRACTION_BYTES:
        return False
    return size * size < 2**n + _LEVEL_COST


def _dense(topo: _LevelTables, h, edge: np.ndarray):
    """(<psi|psi>, <psi|H|psi>, g) for each θ of a stack of edge tables
    (S, N, 2), one state vector at a time: one forward sweep, one H|psi>
    and one backward sweep per θ.

    g[k, j, b] is d<psi|H|psi>/d conj(edge[k, j, b]), the derivative by
    node j's b-edge for θ k.  Forward gives the prefix amplitude F[p] in
    front of each node and the edges the prefixes take; backward propagates
    suffix sums B against H|psi>, so that g[k, j, b] is
    sum_{p at j} conj(F[p]) * B[2p + b], a scatter onto the taken edges.
    """
    from .hamiltonian import apply_to_vector

    norm2 = np.empty(edge.shape[0])
    value = np.empty(edge.shape[0], dtype=np.complex128)
    g = np.zeros(edge.shape, dtype=np.complex128)
    for k in range(edge.shape[0]):
        amps, taken = _forward(topo, edge[k])
        hv = apply_to_vector(h, amps[-1])
        norm2[k] = np.vdot(amps[-1], amps[-1]).real
        value[k] = np.vdot(amps[-1], hv)
        factor, gk = edge[k].ravel(), g[k].reshape(-1)
        back = hv
        for level in range(topo.num_qubits, 0, -1):
            edges = taken[level - 1]
            np.add.at(gk, edges, np.repeat(np.conj(amps[level - 1]), 2) * back)
            if level > 1:
                step = np.conj(factor[edges]) * back
                back = step[0::2] + step[1::2]
    return norm2, value, g


class _Basis:
    """The entries of one topology and operator that the transfer matrices
    of `_contracted` are built from.  Each is a nonzero entry
    W[l, a, a', s, s'] of the operator chain (`h._mpo`) taken at a pair of
    occupied slots (i, j) of level l: it links the edges (i, s) and (j, s')
    of level l to the entry (row, col) = ((i, j, a), (i', j', a')) of the
    transfer matrix T[l], i' being the s-child of slot i and j' the s'-child
    of slot j, and adds conj(f[l, i, s]) f[l, j, s'] W[l, a, a', s, s'] there.
    They are kept twice, as flat indices into one θ's edge table, transfer
    matrices and environments: sorted by their place in T, where the
    entries of one place are summed (`t_*`), and sorted by the edge (i, s),
    whose derivative they add up (`g_*`; every edge has entries, since the
    operator chain carries the identity on channels 0 and D-1 at every
    level).
    """

    def __init__(self, topo: _LevelTables, h):
        w, d = topo.width, h._mpo.shape[1]
        size = w * w * d
        level, a, a_next, s, t = np.nonzero(h._mpo)
        # each entry once per pair (i, j) of the occupied slots 0 .. counts[l] - 1
        pairs = topo.counts[level] ** 2
        entry = np.repeat(np.arange(level.size), pairs)
        i, j = np.divmod(np.arange(entry.size) - np.repeat(np.cumsum(pairs) - pairs, pairs),
                         topo.counts[level[entry]])
        level, a, a_next, s, t = level[entry], a[entry], a_next[entry], s[entry], t[entry]
        value = h._mpo[level, a, a_next, s, t]
        row = (i * w + j) * d + a
        col = (topo.children[level, i, s] * w + topo.children[level, j, t]) * d + a_next
        edge_i, edge_j = 2 * topo.row_of[level, i] + s, 2 * topo.row_of[level, j] + t

        place = (level * size + row) * size + col
        order = np.argsort(place, kind="stable")
        self.t_starts = np.flatnonzero(np.diff(place[order], prepend=-1))
        self.t_place = place[order][self.t_starts]
        self.t_i, self.t_j, self.t_value = edge_i[order], edge_j[order], value[order]

        order = np.argsort(edge_i, kind="stable")
        self.g_starts = np.flatnonzero(np.diff(edge_i[order], prepend=-1))
        self.g_j, self.g_value = edge_j[order], value[order]
        self.g_left = (level * size + row)[order]
        self.g_right = ((level + 1) * size + col)[order]


class _Contraction:
    """Everything of `_contracted` that depends on the topology, the operator
    and the stack size S alone, compiled once (`_LevelTables.compiled`),
    so that a call runs only θ-dependent work: the operator's `_Basis`,
    compiled once for every stack size, the buffers of the stack's transfer
    matrices (S, n, W^2 D, W^2 D) and environments (S, n + 1, ...), and
    per-level views of them.  The places of T that no entry reaches stay 0,
    and L[0] and R[n] keep their boundary vectors (R[0] is never read).  The
    sweeps are one product per level: the `dot` of 1-D and 2-D views for
    S = 1, `np.matmul` on the (S, ...) stacks otherwise.
    """

    def __init__(self, topo: _LevelTables, h, count: int):
        n, d = topo.num_qubits, h._mpo.shape[1]
        size = topo.width**2 * d
        self.basis = topo.compiled(h, _Basis)
        self.transfer = np.zeros((count, n, size, size), dtype=np.complex128)
        self.left = np.zeros((count, n + 1, 1, size), dtype=np.complex128)
        self.left[:, 0, 0, 0] = 1.0
        self.closed = self.left[:, n, 0, :d]  # (0, 0, a): <psi|psi> at a = 0, <psi|H|psi> at D-1
        self.right = np.zeros((count, n + 1, size, 1), dtype=np.complex128)
        self.right[:, n, d - 1, 0] = 1.0
        # flat views, one row per θ, for the gathers and the scatter
        self.transfer_rows = self.transfer.reshape(count, -1)
        self.left_rows = self.left.reshape(count, -1)
        self.right_rows = self.right.reshape(count, -1)
        if count == 1:  # vector-matrix products on 1-D and 2-D views
            self.left_steps = [(self.left[0, l, 0].dot, self.transfer[0, l], self.left[0, l + 1, 0])
                               for l in range(n)]
            self.right_steps = [(self.transfer[0, l].dot, self.right[0, l + 1, :, 0],
                                 self.right[0, l, :, 0]) for l in range(n - 1, 0, -1)]
        else:
            self.left_steps = [(partial(np.matmul, self.left[:, l]), self.transfer[:, l],
                                self.left[:, l + 1]) for l in range(n)]
            self.right_steps = [(partial(np.matmul, self.transfer[:, l]), self.right[:, l + 1],
                                 self.right[:, l]) for l in range(n - 1, 0, -1)]


def _contracted(topo: _LevelTables, h, edge: np.ndarray, gradient: bool = True):
    """(<psi|psi>, <psi|H|psi>, g) as _dense, for the whole stack of edge
    tables (S, N, 2) at once, by contraction over the levels: no 2^n vector.

    The diagram is a matrix product state: f[l, k, i, s] is the s-edge factor
    of the level-l node in slot i (see _LevelTables) for θ k, and H is
    the operator chain W[l] of `hamiltonian._build_mpo`.  The transfer
    matrix of level l,

        T[l, k, (i, j, a), (i', j', a')]
            = sum_{s, s'} conj(f[l, k, i, s]) f[l, k, j, s'] W[l, a, a', s, s'],

    summed over the s and s' that lead from slots i, j to i', j', has one
    term per nonzero entry of W and pair of occupied slots (`_Basis`): a
    product of the edge pair with the entry's value, gathered from the edge
    tables and summed into T.  A left sweep L[l+1] = L[l] T[l] from
    (0, 0, 0) ends with <psi|psi> in channel 0 and <psi|H|psi> in channel
    D-1; a right sweep R[l] = T[l] R[l+1] from (0, 0, D-1) down to R[1]
    closes the chain, and for every edge at once

        d<H>/d conj(f[l, k, i, s])
            = sum L[l, k, (i, j, a)] W[l, a, a', s, s'] R[l+1, k, (i', j', a')] f[l, k, j, s'],

    summed over j, s', a and a': again one product per entry of `_Basis`,
    summed per edge.  The entries, buffers and views
    (`topo.compiled(h, _Contraction, S)`) are compiled once per topology,
    operator and stack size; the arrays returned are fresh.

    The global phase cancels.  Cost O(n S (W^2 D)^2) for the sweeps, the
    engine of narrow diagrams (`_contracts`).
    """
    work = topo.compiled(h, _Contraction, edge.shape[0])
    basis, edges = work.basis, edge.reshape(edge.shape[0], -1)
    values = edges.take(basis.t_i, axis=1)
    np.conjugate(values, out=values)
    values *= edges.take(basis.t_j, axis=1)
    values *= basis.t_value
    work.transfer_rows[:, basis.t_place] = np.add.reduceat(values, basis.t_starts, axis=1)
    for product, operand, out in work.left_steps:  # L[l] T[l] into L[l + 1]
        product(operand, out=out)
    closed = work.closed.copy()
    norm2, value = closed[:, 0].real, closed[:, -1]
    if not gradient:
        return norm2, value, None

    for product, operand, out in work.right_steps:  # T[l] R[l + 1] into R[l]
        product(operand, out=out)
    values = edges.take(basis.g_j, axis=1)
    values *= basis.g_value
    values *= work.left_rows.take(basis.g_left, axis=1)
    values *= work.right_rows.take(basis.g_right, axis=1)
    return norm2, value, np.add.reduceat(values, basis.g_starts, axis=1).reshape(edge.shape)


def energy_and_grad(topo: _LevelTables, h, theta: np.ndarray, mode: str):
    """(<H>, d<H>/dθ of shape (N, 3)) at θ of shape (N, 3); at a stack of θ,
    shape (S, N, 3), the energies (S,) and gradients (S, N, 3) of each.

    The engine is `_contracted` when the cost estimate `_contracts` favours
    it and `_dense` otherwise; both give the derivatives g of <psi|H|psi>
    with respect to the conjugated edge factors, in the (..., N, 2) layout
    of `_chart`'s tables, and the entries are 2 Re <∂_j psi|H|psi> by the
    chain rule: the magnitude entry sums 2 Re(conj(slope) g) over a node's
    two edges, and the omega and phi entries are 2 Im(conj(edge) g) of its
    0- and 1-edge (d edge / d phase = i edge), both from one product of g
    with the conjugated chart.  A stack is contracted in consecutive chunks
    of about _TRANSFER_BYTES of transfer matrices, all of one size but the
    last, which takes the rest; each chunk size is compiled once
    (`_LevelTables.compiled`).  The engine choice and the chunk sizes are
    integer tests, made per call.  Errors and warnings about a θ of a stack
    name its index.  In raw mode an r outside [0, 1], NaN included, is
    rejected before the chart runs, naming its node and value.
    """
    stacked = theta.ndim == 3
    stack = theta if stacked else theta[None]
    count = stack.shape[0]
    where = "stack entry {}: " if stacked else ""
    if mode == "raw":
        r = stack[..., 0]
        outside = np.argwhere(~((r >= 0.0) & (r <= 1.0)))  # NaN too
        if outside.size:
            k, j = outside[0]
            raise ValueError(where.format(k)
                             + f"r{topo.node_ids[j]} = {float(r[k, j])!r} lies outside [0, 1]")
        singular = np.argwhere((r == 0.0) | (r == 1.0))
        if singular.size:
            warnings.warn(
                "raw-mode magnitude gradient is singular at r in {0, 1} for: "
                + ", ".join(f"r{topo.node_ids[j]}" + (f" of stack entry {k}" if stacked else "")
                            for k, j in singular),
                SingularGradientWarning,
                stacklevel=3,
            )
    chart = _chart(stack, mode)
    edge = chart[0]
    if _contracts(topo, h):
        size = topo.width**2 * h._mpo.shape[1]
        chunks = -(-count * topo.num_qubits * size * size * 16 // _TRANSFER_BYTES)
        step = -(-count // chunks)
        parts = [_contracted(topo, h, edge[k:k + step]) for k in range(0, count, step)]
        norm2, value, g = parts[0] if chunks == 1 else map(np.concatenate, zip(*parts))
    else:
        norm2, value, g = _dense(topo, h, edge)
    energy = np.empty(count)
    for k, (norm2_k, value_k) in enumerate(zip(norm2.tolist(), value.tolist())):
        try:
            energy[k] = _checked_energy(norm2_k, value_k)
        except ValueError as exc:
            raise ValueError(where.format(k) + str(exc)) from None

    terms = np.conj(chart)  # conj(edge) g and conj(slope) g, one multiply for both
    terms *= g
    grad = np.empty(stack.shape, dtype=np.float64)
    np.add(terms[1, ..., 0].real, terms[1, ..., 1].real, out=grad[..., 0])
    grad[..., 1:] = terms[0].imag  # Re(conj(i edge) g)
    grad *= 2.0
    return (energy, grad) if stacked else (float(energy[0]), grad[0])


def exact_gradient(g: VddGraph, h, mode: str = "raw") -> GradientVector:
    """d<H>/dθ for every parameter of a graph (see energy_and_grad)."""
    _check_mode(mode)
    _check_graph_and_operator(g, h)
    topo = _LevelTables(g)
    _, grad = energy_and_grad(topo, h, _flatten(g, mode), mode)
    return GradientVector(entries=grad.ravel(), node_ids=topo.node_ids)


# ---------------------------------------------------------------------------
# finite differences (verification oracle for the analytic gradient)


def finite_difference(g: VddGraph, h, step: float = 1e-6, mode: str = "raw") -> GradientVector:
    """Central-difference gradient of the energy, parameter by parameter.

    The graph is compiled once; each probe is a copy of θ with one entry
    moved by ± step, evaluated by the forward sweep and <H> alone, so the
    oracle shares no code with the backward sweep.  Magnitude probes: raw
    mode clips r into [0, 1] and divides by the realized interval
    (one-sided at the box edge); trig mode moves the signed u of r = cos u,
    so the difference is central at r in {0, 1} too.
    """
    from .hamiltonian import expectation

    if not (1e-8 <= step <= 1e-3):
        raise ValueError(f"step must lie in [1e-8, 1e-3], got {step!r}")
    _check_mode(mode)
    _check_graph_and_operator(g, h)
    topo = _LevelTables(g)
    theta = _flatten(g, mode).ravel()

    def energy_at(k: int, value: float) -> float:
        probe = theta.copy()
        probe[k] = value
        return expectation(h, _amplitudes(topo, probe.reshape(-1, 3), mode))

    entries = np.empty(theta.size, dtype=np.float64)
    for k, value in enumerate(theta):
        lo, hi = value - step, value + step
        if mode == "raw" and k % 3 == 0:
            lo, hi = max(0.0, lo), min(1.0, hi)
        entries[k] = (energy_at(k, hi) - energy_at(k, lo)) / (hi - lo)
    return GradientVector(entries=entries, node_ids=topo.node_ids)
