"""Exact engine: state vectors, energies, and analytic gradients.

A graph is compiled once into a topology (`_LevelTables`), as is a layout
straight from its arrays, with no graph (the variance scan); its parameters
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
engines, which agree to rounding and share one chain rule (`_chain_rule`):

* dense (`_dense`) — one forward pass (prefix amplitudes), one H|ψ> and
  one backward pass (suffix sums against H|ψ>): O(n 2^n), capped at
  n = STATEVECTOR_CAP.  It works on one state vector at a time, so it
  loops over a stack.
* contraction (`_Contraction`) — the diagram is a matrix product state
  whose level tensors hold one edge factor per row, and H a matrix
  product operator of bond dimension D, so <ψ|H|ψ> and its derivatives are
  left and right environment sweeps over the levels (Schollwöck, Ann.
  Phys. 326, 96, 2011): O(n (W^2 D)^2) for a diagram at most W nodes
  wide, with no 2^n vector, so narrow diagrams have no cap.  It is
  compiled once per topology, operator and stack size, with a buffer for
  every stage from the chart to the gradient, so a call on θ allocates
  nothing.  A stack is contracted in chunks of about _TRANSFER_BYTES of
  transfer matrices.

The cost rule (`_contracts`) picks contraction when
(W^2 D)^2 < 2^n + _LEVEL_COST: the accordion (W = 2) and the product
layout (W = 1) at every n for the open Heisenberg chain (D = 5), the
accordion from n = 5 on for the periodic one (D = 8), and the universal
layout (W = 2^(n-1)) never past n = 2.  Up to n = STATEVECTOR_CAP, where
the dense engine can run, it also keeps one θ's transfer matrices within
_CONTRACTION_BYTES, so that a width-14 diagram at n = 20 does not contract
with 300 MB of them.  `exact_energy` follows the same rule, without the
gradient; `to_state_vector` and `finite_difference`, the oracle for both
engines, stay dense.

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
from .hamiltonian import _checked_energy, expectation
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

_FLIP = np.array([-1.0, 1.0])  # (cos u, sin u)[::-1] * _FLIP = (-sin u, cos u), in `_chart`


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
    """Compiled topology of a validated graph, or of a layout's arrays with
    no graph (`ansatz._automaton`): its structure, not its parameters.

    Nodes are numbered by row = index in ascending id order (row + 1 for a
    layout), the row order of θ and of GradientVector.  child[row, bit]
    (shape (N, 2)) is the row of the node's bit-child, -1 past the last
    level, in the layout of `_chart`'s tables; root is the row of the
    level-1 node.  Built once per graph shape and reused for every θ.

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
    child_edge[e] (shape (2N,)) is the first edge 2 * child of the edge
    e = 2 * row + bit, -2 past the last level: the VMC sampler and walks
    step from an edge to the next level's by adding that level's bit to it.

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

    def __init__(self, g):  # a VddGraph, or a layout's (child, level) arrays
        if isinstance(g, VddGraph):
            issues = validate(g)
            if issues:
                raise ValueError("invalid graph: " + "; ".join(issues))
            self.global_phase, self.node_ids = g.global_phase, tuple(g.sorted_ids())
            row = {node_id: k for k, node_id in enumerate(self.node_ids)}
            nodes = [g.nodes[node_id] for node_id in self.node_ids]
            child = np.array([(row.get(v.child0, -1), row.get(v.child1, -1)) for v in nodes])
            level = np.array([v.level - 1 for v in nodes])
        else:
            child, level = g
            _check_layers(child, level)
            self.global_phase, self.node_ids = 0.0, tuple(range(1, len(level) + 1))
        n = self.num_qubits = int(level.max()) + 1
        self.child, self.level, self.root = child, level, int(np.argmin(level))
        counts = self.counts = np.bincount(level, minlength=n)
        slot = self.slot = np.empty(len(level), dtype=np.int64)
        slot[np.argsort(level, kind="stable")] = (np.arange(len(level))
                                                  - np.repeat(np.cumsum(counts) - counts, counts))
        self.width = int(counts.max())
        self.row_of = np.full((n, self.width), -1, dtype=np.int64)
        self.row_of[level, slot] = np.arange(len(level))
        self.children = np.zeros((n, self.width, 2), dtype=np.int64)
        self.children[level, slot] = np.where(child < 0, 0, slot[child])
        self.child_edge = 2 * child.ravel()
        self.lone = np.where(counts == 1, self.row_of[:, 0], -1)
        joins = np.append(np.flatnonzero(self.lone >= 0), n)
        self.rejoin = tuple(joins[np.searchsorted(joins, np.arange(n + 1))].tolist())

        # a level whose edges meet at a node below it is scattered, and the last
        in_degree = np.bincount(child.ravel() + 1, minlength=len(level) + 1)[1:]
        scattered = np.zeros(n, dtype=bool)
        scattered[level[in_degree > 1] - 1] = scattered[-1] = True
        merge = self.merge_levels = np.flatnonzero(scattered)
        stage = merge[np.searchsorted(merge, np.arange(n))] - np.arange(n)  # steps up from it
        edge_stage = np.repeat(stage[level], 2)  # per edge 2 * row + bit
        self.fills = []
        for s in range(1, int(stage.max()) + 1):
            dst = np.flatnonzero(edge_stage == s)
            self.fills.append((dst, self.child_edge[dst], self.child_edge[dst] + 1))
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


def _check_layers(child: np.ndarray, level: np.ndarray) -> None:
    """`validate`'s rules, vectorized for a layout: a ValueError unless each edge goes one level
    down (-1 from the last) and all nodes but one root at level 0 have a parent (are reachable)."""
    below = np.concatenate((level, [level.max() + 1]))  # [-1]: one level below the last
    if not (-1 <= child.min() and child.max() < len(level)
            and (below[child] == level[:, None] + 1).all()):
        raise ValueError("invalid layout: an edge that does not go one level down")
    orphans = np.bincount(child.ravel() + 1, minlength=len(level) + 1)[1:] == 0
    if level.min() != 0 or np.count_nonzero(orphans) != 1:
        raise ValueError("invalid layout: the nodes without a parent are not one root at level 0")


def _chart(theta: np.ndarray, mode: str, out=None) -> np.ndarray:
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

    The table is magnitudes times phase factors e^{i (omega, phi)}; all three
    go into `out` (`_chart_buffers`) if given, so a caller can reuse them.
    """
    table, magnitudes, phase, cos, sin, slope = _chart_buffers(theta.shape) if out is None else out
    mag = theta[..., 0]
    u = mag if mode == "trig" else np.arccos(mag)
    np.cos(u, out=cos)
    np.sin(u, out=sin)
    if mode == "trig":
        np.multiply(magnitudes[0, ..., ::-1], _FLIP, out=slope)  # (-sin u, cos u)
    else:
        rc = np.clip(mag, _CLAMP, 1.0 - _CLAMP)
        slope[..., 0] = 1.0
        slope[..., 1] = -rc / np.sqrt(1.0 - rc * rc)
    np.multiply(1j, theta[..., 1:], out=phase)
    np.exp(phase, out=phase)
    return np.multiply(magnitudes, phase, out=table)


def _chart_buffers(shape: tuple) -> tuple:
    """`_chart`'s table, magnitudes and phase factors for θ of `shape`, and views."""
    table = np.empty((2,) + shape[:-1] + (2,), dtype=np.complex128)
    magnitudes = np.empty(table.shape)
    return (table, magnitudes, np.empty(table.shape[1:], dtype=np.complex128),
            magnitudes[0, ..., 0], magnitudes[0, ..., 1], magnitudes[1])


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
    _check_graph_and_operator(g, h)
    topo, theta = _LevelTables(g), _flatten(g, "raw")
    if _contracts(topo, h):
        norm2, value = topo.compiled(h, _Contraction, 1).energy(theta[None], "raw")
        return _checked_energy(norm2.item(), value.item())
    return expectation(h, _amplitudes(topo, theta, "raw"))


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
# consecutive θ, all of one compiled size: a short last chunk is padded with
# θ of the first, evaluated and dropped (40 θ at n = 8 come as 14, 14 and
# 12 + 2).  A chunk can exceed the bound by less than one θ's transfer
# matrices.  Its fixed cost (the per-level sweeps) is shared by its θ, while
# its buffers grow: 768 KiB gives four chunks of 8 θ for a 32-seed
# variance scan of the accordion on the open Heisenberg chain at n = 13, 14
# (88 KiB per θ at n = 14), which peaks at 1.25 MB allocated (tracemalloc).
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


def _check_raw(topo: _LevelTables, stack: np.ndarray, stacked: bool, stacklevel: int) -> None:
    """Raw-mode checks of θ (S, N, 3): a ValueError names the first r outside
    [0, 1] (NaN too), a SingularGradientWarning (at `stacklevel`) each r on {0, 1}."""
    r = stack[..., 0]
    if 0.0 < r.min() and r.max() < 1.0:  # every r inside (0, 1); a NaN fails it too
        return
    outside = np.argwhere(~((r >= 0.0) & (r <= 1.0)))  # NaN too
    if outside.size:
        k, j = outside[0]
        raise ValueError(("stack entry {}: " if stacked else "").format(k)
                         + f"r{topo.node_ids[j]} = {float(r[k, j])!r} lies outside [0, 1]")
    singular = np.argwhere((r == 0.0) | (r == 1.0))
    if singular.size:
        names = (f"r{topo.node_ids[j]}" + (f" of stack entry {k}" if stacked else "")
                 for k, j in singular)
        warnings.warn("raw-mode magnitude gradient is singular at r in {0, 1} for: "
                      + ", ".join(names), SingularGradientWarning, stacklevel=stacklevel + 1)


def _chain_rule(chart: np.ndarray, g: np.ndarray, out=None) -> np.ndarray:
    """d<H>/dθ = 2 Re <∂_j psi|H|psi> (..., N, 3) from the chart and
    g = 2 d<psi|H|psi>/d conj(f) (..., N, 2), the gradient by the real and
    imaginary parts of the edge factors f: a magnitude entry is Re(conj(slope) g)
    summed over its node's two edges, the omega and phi entries Im(conj(edge) g)
    of the 0- and 1-edge.  Written into `out` (`_chain_buffers`) if given."""
    terms, grad, slope0, slope1, magnitude, edge, phases = (
        out or _chain_buffers(chart.shape, np.empty(chart.shape, dtype=np.complex128)))
    np.conjugate(chart, out=terms)
    terms *= g
    np.add(slope0, slope1, out=magnitude)
    phases[...] = edge  # Re(conj(i edge) g): d edge / d phase = i edge
    return grad


def _chain_buffers(shape: tuple, scratch: np.ndarray) -> tuple:
    """`_chain_rule`'s products, in the front of the complex buffer `scratch` (done
    with by then), and gradient for a chart of `shape`, and views."""
    terms = scratch.reshape(-1)[:math.prod(shape)].reshape(shape)
    grad = np.empty(shape[1:-1] + (3,))
    return (terms, grad, terms[1, ..., 0].real, terms[1, ..., 1].real, grad[..., 0],
            terms[0].imag, grad[..., 1:])


def _dense(topo: _LevelTables, h, theta: np.ndarray, mode: str):
    """(<psi|psi>, <psi|H|psi>, d<H>/dθ) for each θ of a stack (S, N, 3),
    one state vector at a time: one forward sweep, one H|psi> and one
    backward sweep per θ, all arrays fresh.

    g[k, j, b] is 2 d<psi|H|psi>/d conj(edge[k, j, b]), by node j's b-edge
    for θ k.  Forward gives the prefix amplitude F[p] in front of each node
    and the edges the prefixes take; backward propagates suffix sums B
    against 2 H|psi>, so that g[k, j, b] is
    sum_{p at j} conj(F[p]) * B[2p + b], a scatter onto the taken edges.
    The gradient is `_chain_rule`'s of g, as for `_Contraction`.
    """
    from .hamiltonian import apply_to_vector

    chart = _chart(theta, mode)
    edge, norm2, value = chart[0], np.empty(len(theta)), np.empty(len(theta), dtype=complex)
    g = np.zeros(edge.shape, dtype=np.complex128)
    for k in range(edge.shape[0]):
        amps, taken = _forward(topo, edge[k])
        hv = apply_to_vector(h, amps[-1])
        norm2[k] = np.vdot(amps[-1], amps[-1]).real
        value[k] = np.vdot(amps[-1], hv)
        factor, gk = edge[k].ravel(), g[k].reshape(-1)
        back = 2.0 * hv
        for level in range(topo.num_qubits, 0, -1):
            edges = taken[level - 1]
            np.add.at(gk, edges, np.repeat(np.conj(amps[level - 1]), 2) * back)
            if level > 1:
                step = np.conj(factor[edges]) * back
                back = step[0::2] + step[1::2]
    return norm2, value, _chain_rule(chart, g)


class _Basis:
    """The entries of one topology and operator that the transfer matrices
    of `_Contraction` are built from.  Each is a nonzero entry
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
        w, d, mpo = topo.width, h._mpo.shape[1], h._mpo
        size = w * w * d
        # each entry once per pair (i, j) of the occupied slots 0 .. counts[l] - 1
        nonzero = np.flatnonzero(mpo)
        pairs = topo.counts[nonzero // mpo[0].size] ** 2
        entry = np.repeat(nonzero, pairs)
        level, a, a_next, s, t = np.unravel_index(entry, mpo.shape)
        i, j = np.divmod(np.arange(entry.size) - np.repeat(np.cumsum(pairs) - pairs, pairs),
                         topo.counts[level])
        value = mpo.take(entry)
        row = (i * w + j) * d + a
        col = (topo.children[level, i, s] * w + topo.children[level, j, t]) * d + a_next
        edge_i, edge_j = 2 * topo.row_of[level, i] + s, 2 * topo.row_of[level, j] + t

        place = (level * size + row) * size + col
        order = np.argsort(place, kind="stable")
        self.t_starts = _run_starts(place[order])
        self.t_place = place[order[self.t_starts]]
        self.t_i, self.t_j, self.t_value = edge_i[order], edge_j[order], value[order]

        order = np.argsort(edge_i, kind="stable")
        self.g_starts = _run_starts(edge_i[order])
        self.g_j, self.g_value = edge_j[order], 2.0 * value[order]  # g of `_chain_rule`
        self.g_left = (level * size + row)[order]
        self.g_right = ((level + 1) * size + col)[order]


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal entries of the sorted ``keys`` starts."""
    return np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))


class _Contraction:
    """What `_dense` returns, at a stack of S θ (S, N, 3), by contraction over
    the levels with no 2^n vector; compiled once per topology, operator and
    S (`_LevelTables.compiled`).

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

        g[l, k, i, s] = 2 d<H>/d conj(f[l, k, i, s])
            = sum 2 W[l, a, a', s, s'] L[l, k, (i, j, a)] R[l+1, k, (i', j', a')] f[l, k, j, s'],

    summed over j, s', a and a': again one product per entry of `_Basis`,
    summed per edge, and `_chain_rule` turns g into d<H>/dθ.  The
    global phase cancels.  Cost O(n S (W^2 D)^2) for the sweeps, the engine
    of narrow diagrams (`_contracts`).

    Compiled with the operator's `_Basis`: a buffer for each stage of a call,
    from the chart through T (S, n, W^2 D, W^2 D) and the environments
    (S, n + 1, ...) to d<H>/dθ, with the views the stages use, so a call
    allocates nothing.  Places of T that no entry reaches stay 0, and L[0] and
    R[n] keep their boundary vectors.  The sweeps are one product per level:
    the `dot` of 1-D and 2-D views for S = 1, else `np.matmul` on the stacks.
    """

    def __init__(self, topo: _LevelTables, h, count: int):
        n, d = topo.num_qubits, h._mpo.shape[1]
        size = topo.width**2 * d
        basis = self.basis = topo.compiled(h, _Basis)
        self.chart = _chart_buffers((count, len(topo.node_ids), 3))
        self.edges = self.chart[0][0].reshape(count, -1)  # one row of edge factors per θ
        self.transfer = np.zeros((count, n, size, size), dtype=np.complex128)
        self.left = np.zeros((count, n + 1, 1, size), dtype=np.complex128)
        self.right = np.zeros((count, n + 1, size, 1), dtype=np.complex128)
        self.left[:, 0, 0, 0] = self.right[:, n, d - 1, 0] = 1.0
        self.norm2, self.value = self.left[:, n, 0, 0].real, self.left[:, n, 0, d - 1]
        # flat views and indices, one row per θ, for the gathers and the scatter
        self.transfer_flat = self.transfer.reshape(-1)
        self.left_rows, self.right_rows = self.left.reshape(count, -1), self.right.reshape(count, -1)
        self.t_places = basis.t_place + n * size * size * np.arange(count)[:, None]
        self.t_sums = np.empty((count, basis.t_starts.size), dtype=np.complex128)
        scratch = np.empty((2, count * max(basis.t_value.size, basis.g_j.size)), dtype=complex)
        self.t_terms = tuple(scratch[:, :count * basis.t_value.size].reshape(2, count, -1))
        self.g_terms = tuple(scratch[:, :count * basis.g_j.size].reshape(2, count, -1))
        self.g = np.empty_like(self.chart[2])
        self.g_rows = self.g.reshape(count, -1)
        self.chain = _chain_buffers(self.chart[0].shape, scratch)
        # one view per level: list() of a buffer is faster than slicing it n times
        if count == 1:  # vector-matrix products on 1-D and 2-D views
            left, transfer = list(self.left[0, :, 0]), list(self.transfer[0])
            right = list(self.right[0, ..., 0])
            self.left_steps = [(left[l].dot, transfer[l], left[l + 1]) for l in range(n)]
            self.right_steps = [(transfer[l].dot, right[l + 1], right[l]) for l in range(n - 1, 0, -1)]
        else:
            left, transfer, right = (list(buffer.swapaxes(0, 1))
                                     for buffer in (self.left, self.transfer, self.right))
            self.left_steps = [(partial(np.matmul, left[l]), transfer[l], left[l + 1])
                               for l in range(n)]
            self.right_steps = [(partial(np.matmul, transfer[l]), right[l + 1], right[l])
                                for l in range(n - 1, 0, -1)]

    def energy(self, theta: np.ndarray, mode: str):
        """(<psi|psi>, <psi|H|psi>), shapes (S,), at a stack of S θ, by the chart,
        T and the left sweep alone: views of buffers that the next call overwrites."""
        basis, edges = self.basis, self.edges
        _chart(theta, mode, self.chart)
        terms, other = self.t_terms  # conj(f_i) f_j W, then f_j
        edges.take(basis.t_i, axis=1, out=terms, mode="clip")  # clip: `out` unbuffered
        edges.take(basis.t_j, axis=1, out=other, mode="clip")
        np.conjugate(terms, out=terms)
        terms *= other
        terms *= basis.t_value
        np.add.reduceat(terms, basis.t_starts, axis=1, out=self.t_sums)
        self.transfer_flat[self.t_places] = self.t_sums
        for product, operand, out in self.left_steps:  # L[l] T[l] into L[l + 1]
            product(operand, out=out)
        return self.norm2, self.value

    def __call__(self, theta: np.ndarray, mode: str):
        """`energy`, then d<H>/dθ (S, N, 3), a view too: right sweep, g, chain rule."""
        basis, edges = self.basis, self.edges
        self.energy(theta, mode)
        for product, operand, out in self.right_steps:  # T[l] R[l + 1] into R[l]
            product(operand, out=out)
        terms, other = self.g_terms  # f_j W L R, then L and R
        edges.take(basis.g_j, axis=1, out=terms, mode="clip")
        terms *= basis.g_value
        self.left_rows.take(basis.g_left, axis=1, out=other, mode="clip")
        terms *= other
        self.right_rows.take(basis.g_right, axis=1, out=other, mode="clip")
        terms *= other
        np.add.reduceat(terms, basis.g_starts, axis=1, out=self.g_rows)
        return self.norm2, self.value, _chain_rule(self.chart[0], self.g, self.chain)


def _evaluator(topo: _LevelTables, h, count: int):
    """(evaluate, step): the engine `_contracts` picks for `count` θ, called as
    evaluate(stack of `step` θ, mode) -> (<psi|psi>, <psi|H|psi>, d<H>/dθ): the
    `_Contraction` of about _TRANSFER_BYTES of T, whose results are views that
    its next call overwrites, or `_dense` of all θ, whose results are fresh."""
    if not _contracts(topo, h):
        return partial(_dense, topo, h), count
    size = topo.width**2 * h._mpo.shape[1]
    chunks = -(-count * topo.num_qubits * size * size * 16 // _TRANSFER_BYTES)
    step = -(-count // chunks)
    return topo.compiled(h, _Contraction, step), step


def energy_and_grad(topo: _LevelTables, h, theta: np.ndarray, mode: str):
    """(<H>, d<H>/dθ of shape (N, 3)) at θ of shape (N, 3); at a stack of θ,
    shape (S, N, 3), the energies (S,) and gradients (S, N, 3) of each, in
    fresh arrays.

    The engine is `_Contraction` when the cost estimate `_contracts` favours
    it and `_dense` otherwise (`_evaluator`, per call here and once per run in
    `train`).  A stack is contracted in chunks of one size, compiled once
    (`_LevelTables.compiled`), the last padded to it with θ of the first.
    Errors and warnings about a θ of a stack name its index.  In raw mode an
    r outside [0, 1], NaN included, is rejected before the chart runs,
    naming its node and value (`_check_raw`).
    """
    stacked = theta.ndim == 3
    stack = theta if stacked else theta[None]
    count = stack.shape[0]
    if mode == "raw":
        _check_raw(topo, stack, stacked, stacklevel=3)
    evaluate, step = _evaluator(topo, h, count)
    stack = np.concatenate((stack, stack[:-count % step])) if count % step else stack
    norm2, value, grad = np.empty(len(stack)), np.empty(len(stack), complex), np.empty(stack.shape)
    for start in range(0, len(stack), step):
        chunk = slice(start, start + step)
        norm2[chunk], value[chunk], grad[chunk] = evaluate(stack[chunk], mode)
    energy = np.empty(count)
    for k, (norm2_k, value_k) in enumerate(zip(norm2[:count].tolist(), value[:count].tolist())):
        try:
            energy[k] = _checked_energy(norm2_k, value_k)
        except ValueError as exc:
            raise ValueError(("stack entry {}: " if stacked else "").format(k) + str(exc)) from None
    return (energy, grad[:count]) if stacked else (float(energy[0]), grad[0])


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
