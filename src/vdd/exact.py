"""Exact engine: dense state vectors, energies, and analytic gradients.

A graph is compiled once into a topology (`_LevelTables`); its parameters
travel separately as θ of shape (N, 3), one row per node in ascending id
order.  `VddGraph` is the input/output form; the hot path takes θ.

The state vector is filled by level-wise forward propagation: every
bit-string prefix of length l-1 sits at exactly one level-l node, so the
2^n amplitudes are built in n vectorized sweeps (O(n 2^n) total) instead
of 2^n independent path walks.

Gradients use d<H>/dθ_j = 2 Re <∂_j ψ|H|ψ>, valid because the diagram is
normalized for every parameter value.  ∂_j ψ is ψ with node j's edge
factor on the path replaced by its θ_j-derivative, so one forward pass
(prefix amplitudes), one H|ψ> and one backward pass (suffix sums against
H|ψ>) yield the energy and every parameter's gradient together
(`energy_and_grad`).

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

import numpy as np

from .graph import ParamTriple, VddGraph, validate
from .state import CapacityError, StateVector

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
    of θ and of GradientVector.  child0/child1 hold each node's child rows
    (-1 past the last level); root is the row of the level-1 node.  Built
    once per graph shape and reused for every θ.
    """

    def __init__(self, g: VddGraph):
        issues = validate(g)
        if issues:
            raise ValueError("invalid graph: " + "; ".join(issues))
        self.num_qubits = g.num_qubits
        self.global_phase = g.global_phase
        self.node_ids = tuple(g.sorted_ids())
        row = {node_id: k for k, node_id in enumerate(self.node_ids)}
        self.child0 = np.array([row.get(g.nodes[i].child0, -1) for i in self.node_ids])
        self.child1 = np.array([row.get(g.nodes[i].child1, -1) for i in self.node_ids])
        self.root = row[g.root_child]


def _chart(theta: np.ndarray, mode: str):
    """(left, right, dleft, dright): every node's edge factors and their
    derivatives with respect to its magnitude slot θ[:, 0].

    Rows of θ are (r, omega, phi) in "raw" mode and (u, omega, phi) in
    "trig" mode, u signed and unfolded.  Both modes evaluate the magnitudes
    as (cos u, sin u), raw with u = arccos r, so a graph yields the same
    edge factors whichever mode its gradient is asked in:

        left = cos u e^{i omega},  right = sin u e^{i phi}
        raw:  d/dr = (e^{i omega}, -r / sqrt(1 - r^2) e^{i phi}), r clamped below 1
        trig: d/du = (-sin u e^{i omega}, cos u e^{i phi})
    """
    mag = theta[:, 0]
    u = mag if mode == "trig" else np.arccos(mag)
    cos_u, sin_u = np.cos(u), np.sin(u)
    eiw = np.exp(1j * theta[:, 1])
    eip = np.exp(1j * theta[:, 2])
    if mode == "trig":
        dleft, dright = -sin_u, cos_u
    else:
        rc = np.clip(mag, _CLAMP, 1.0 - _CLAMP)
        dleft, dright = 1.0, -rc / np.sqrt(1.0 - rc * rc)
    return cos_u * eiw, sin_u * eip, dleft * eiw, dright * eip


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


def _forward(topo: _LevelTables, left: np.ndarray, right: np.ndarray):
    """Prefix amplitudes F[l] (length 2^l) and node rows P[l] per level.

    P[l][p] is the row of the level-(l+1) node reached by the length-l
    prefix p; F[l][p] is the product of the first l edge factors times the
    global phase, so F[n] is the state vector.
    """
    n = topo.num_qubits
    amps = [np.array([np.exp(1j * topo.global_phase)], dtype=np.complex128)]
    rows = [np.array([topo.root], dtype=np.int64)]
    for level in range(1, n + 1):
        cur, cur_amp = rows[-1], amps[-1]
        new_amp = np.empty(2 * cur_amp.shape[0], dtype=np.complex128)
        new_amp[0::2] = cur_amp * left[cur]
        new_amp[1::2] = cur_amp * right[cur]
        amps.append(new_amp)
        if level < n:
            new_rows = np.empty(2 * cur.shape[0], dtype=np.int64)
            new_rows[0::2] = topo.child0[cur]
            new_rows[1::2] = topo.child1[cur]
            rows.append(new_rows)
    return amps, rows


def _check_graph_and_operator(g: VddGraph, h) -> None:
    if h.num_qubits != g.num_qubits:
        raise ValueError(
            f"operator acts on {h.num_qubits} qubits but the graph has {g.num_qubits}"
        )


def _check_mode(mode: str) -> None:
    if mode not in PARAM_MODES:
        raise ValueError(f"unknown parameter mode {mode!r}, expected one of {PARAM_MODES}")


def _amplitudes(topo: _LevelTables, theta: np.ndarray, mode: str) -> np.ndarray:
    """The 2^n amplitudes at θ, from the forward sweep alone."""
    if topo.num_qubits > STATEVECTOR_CAP:
        raise CapacityError(
            f"state vectors are capped at n = {STATEVECTOR_CAP}, got n = {topo.num_qubits}"
        )
    left, right, _, _ = _chart(theta, mode)
    return _forward(topo, left, right)[0][-1]


def to_state_vector(g: VddGraph) -> StateVector:
    """All 2^n amplitudes of the diagram, indexed with qubit 1 as the MSB."""
    amps = _amplitudes(_LevelTables(g), _flatten(g, "raw"), "raw")
    return StateVector(num_qubits=g.num_qubits, amps=amps)


def exact_energy(g: VddGraph, h) -> float:
    """<psi|H|psi> from the dense state vector."""
    from .hamiltonian import expectation

    _check_graph_and_operator(g, h)
    return expectation(h, to_state_vector(g))


# ---------------------------------------------------------------------------
# fused energy and analytic gradient


def energy_and_grad(topo: _LevelTables, h, theta: np.ndarray, mode: str):
    """(<H>, d<H>/dθ of shape (N, 3)) from one forward sweep, one H|psi> and
    one backward sweep.

    Forward gives the prefix amplitude F[p] in front of each node; backward
    propagates suffix sums B against H|psi>, so that the derivative of
    <psi|H|psi> w.r.t. node j's edge factors is read off from
    sum_{p at j} conj(F[p]) * B[child prefixes].  Entries are
    2 Re <∂_j psi|H|psi>.
    """
    from .hamiltonian import _energy_of, apply_to_vector

    if mode == "raw":
        singular = np.flatnonzero((theta[:, 0] == 0.0) | (theta[:, 0] == 1.0))
        if singular.size:
            warnings.warn(
                "raw-mode magnitude gradient is singular at r in {0, 1} for: "
                + ", ".join(f"r{topo.node_ids[k]}" for k in singular),
                SingularGradientWarning,
                stacklevel=3,
            )
    left, right, dleft, dright = _chart(theta, mode)
    amps, prefix_rows = _forward(topo, left, right)
    hv = apply_to_vector(h, amps[-1])
    energy = _energy_of(amps[-1], hv)

    g0 = np.zeros(theta.shape[0], dtype=np.complex128)  # conj(F) * B at the 0-child
    g1 = np.zeros(theta.shape[0], dtype=np.complex128)
    back = hv
    for level in range(topo.num_qubits, 0, -1):
        rows = prefix_rows[level - 1]
        prefix = np.conj(amps[level - 1])
        b0 = back[0::2]
        b1 = back[1::2]
        np.add.at(g0, rows, prefix * b0)
        np.add.at(g1, rows, prefix * b1)
        if level > 1:
            back = np.conj(left[rows]) * b0 + np.conj(right[rows]) * b1

    grad = np.empty(theta.shape, dtype=np.float64)
    grad[:, 0] = 2.0 * (np.conj(dleft) * g0 + np.conj(dright) * g1).real
    grad[:, 1] = 2.0 * (np.conj(1j * left) * g0).real
    grad[:, 2] = 2.0 * (np.conj(1j * right) * g1).real
    return energy, grad


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
