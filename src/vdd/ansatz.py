"""Diagram layouts as automata, parameter initialization, and encoding of
arbitrary states onto the universal layout.

A layout is a deterministic automaton over the bits: each node is a state,
and ``step(l, state, bit)`` names the state that the edge taken on ``bit``
leads to one level down (levels counted from 0).  ``_automaton`` turns a
step into the arrays ``exact._LevelTables`` compiles, with no graph, and
``build_automaton`` those into a graph; each layout below is one step.

* product   — ``step = 0``: one node per level; any state it represents is a
              product of single-qubit states.  3n parameters.
* accordion — ``step = bit`` on even levels, else 0: alternating one- and
              two-node levels; represents exactly the products of two-qubit
              (dimer) states on pairs (1,2), (3,4), ...  floor(3n/2) nodes,
              3*floor(3n/2) parameters.
* universal — ``step = 2*state + bit``: level l holds 2^(l-1) nodes, one per
              bit-string prefix; can represent any n-qubit state.  2^n - 1
              nodes.

``build_ansatz(kind, n)`` builds a layout by name.  Its graphs carry
balanced parameters (r = 1/sqrt2, phases 0) only because a node needs
some: ``init_params`` and ``encode_state`` compute θ, one (r, omega, phi)
row per node in ascending id, and put it on the graph through
``exact._materialize``, the one writer of parameters outside
``deserialize``.  Node ids run level by level, in ascending state order,
starting at 1.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .exact import STATEVECTOR_CAP, _materialize
from .graph import TERMINAL, Node, ParamTriple, VddGraph, validate
from .state import CapacityError, ConfigError, _check_choice, _check_count, as_amplitudes

__all__ = [
    "ANSATZ_KINDS",
    "InitScheme",
    "build_automaton",
    "build_ansatz",
    "init_params",
    "parse_init_scheme",
    "encode_state",
]

_BALANCED = ParamTriple(r=1.0 / math.sqrt(2.0), omega=0.0, phi=0.0)


def _automaton(n: int, step: Callable[[int, int, int], int]) -> tuple[np.ndarray, np.ndarray]:
    """The n-level diagram of the automaton that starts in state 0 and moves
    on ``bit`` from ``state`` at level l (counted from 0) to
    ``step(l, state, bit)``, as arrays: child[row, bit] (shape (N, 2)), the
    row of the node's bit-child, -1 past the last level, and level[row].

    Level l + 1 holds the sorted set of states that level l's edges reach,
    and rows run level by level in ascending state order.  ``step`` is
    called once per edge between levels.
    """
    n = _check_count("n", n, 1)
    child, counts, states = [], [], [0]
    for level in range(n - 1):
        edges = [(step(level, state, 0), step(level, state, 1)) for state in states]
        reached = sorted({target for pair in edges for target in pair})
        first = len(child) + len(states)  # the row of the next level's first node
        rows = dict(zip(reached, range(first, first + len(reached))))
        child += [(rows[c0], rows[c1]) for c0, c1 in edges]
        counts.append(len(states))
        states = reached
    child += [(-1, -1)] * len(states)
    counts.append(len(states))
    return np.array(child, dtype=np.int64), np.repeat(np.arange(n), counts)


def build_automaton(n: int, step: Callable[[int, int, int], int]) -> VddGraph:
    """`_automaton`'s diagram as a graph: node id = row + 1, and the last
    level's edges point to TERMINAL."""
    child, level = _automaton(n, step)
    nodes = {nid: Node(nid, l + 1, _BALANCED, c0 or TERMINAL, c1 or TERMINAL)
             for nid, (l, (c0, c1)) in enumerate(zip(level.tolist(), (child + 1).tolist()), 1)}
    return VddGraph(num_qubits=int(level[-1]) + 1, global_phase=0.0, root_child=1, nodes=nodes)


_STEPS = {
    "product": lambda level, state, bit: 0,
    "accordion": lambda level, state, bit: bit if level % 2 == 0 else 0,
    "universal": lambda level, state, bit: 2 * state + bit,
}

ANSATZ_KINDS = tuple(_STEPS)


def _layout_step(kind: str, n: int) -> Callable[[int, int, int], int]:
    """The step of the layout ``kind``; a ConfigError names a bad ``kind``, a
    CapacityError the universal layout past n = STATEVECTOR_CAP (20), where
    the dense engine stops."""
    _check_choice("ansatz", kind, ANSATZ_KINDS)
    if kind == "universal" and _check_count("n", n, 1) > STATEVECTOR_CAP:
        raise CapacityError(
            f"universal layout is capped at n = {STATEVECTOR_CAP} (2^n - 1 nodes), got n = {n}"
        )
    return _STEPS[kind]


def build_ansatz(kind: str, n: int) -> VddGraph:
    """Dispatch on the layout name ("product" | "accordion" | "universal")."""
    return build_automaton(n, _layout_step(kind, n))


@dataclass(frozen=True)
class InitScheme:
    """Parameter-initialization recipe.

    kind "uniform":  r ~ U[0,1], omega, phi ~ U[0, 2*pi), independent per
                     node, drawn in node-id order (r, omega, phi each) from
                     numpy's seeded default generator (PCG64), so runs are
                     bit-reproducible across platforms.
    kind "balanced": r = 1/sqrt2, phases 0.
    kind "basis":    r in {0,1} along the path of ``bits`` so that
                     psi(bits) = 1; off-path nodes get r = 1, phases 0.
    """

    kind: str
    seed: int = 0
    bits: tuple[int, ...] | None = None

    def __post_init__(self):
        _check_choice("init kind", self.kind, ("uniform", "balanced", "basis"))
        object.__setattr__(self, "seed", _check_count("seed", self.seed, 0))
        if self.kind == "basis":
            if self.bits is None:
                raise ConfigError("basis init requires a bit string")
            object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))
            if any(b not in (0, 1) for b in self.bits):
                raise ConfigError(f"bits must be 0/1, got {self.bits}")


def parse_init_scheme(text: str, seed: int = 0) -> InitScheme:
    """Parse the CLI form: "uniform" | "balanced" | "basis:<bitstring>"."""
    if text == "uniform":
        return InitScheme("uniform", seed=seed)
    if text == "balanced":
        return InitScheme("balanced")
    if text.startswith("basis:"):
        bits = text[len("basis:"):]
        if not bits or set(bits) - {"0", "1"}:
            raise ConfigError(f"basis init needs a 0/1 string, got {bits!r}")
        return InitScheme("basis", bits=tuple(int(c) for c in bits))
    raise ConfigError(
        f'unknown init scheme {text!r}, expected "uniform", "balanced" or "basis:<bits>"'
    )


def _uniform_params(num_nodes: int, seeds) -> np.ndarray:
    """The "uniform" scheme's (r, omega, phi) rows in ascending node id, one
    block per seed, shape (len(seeds), num_nodes, 3): one PCG64 stream per
    seed, r ~ U[0,1) then omega, phi ~ U[0, 2*pi), drawn in place."""
    draws = np.empty((len(seeds), num_nodes, 3))
    for seed, block in zip(seeds, draws):
        np.random.default_rng(seed).random(out=block)
    draws[..., 1:] *= 2.0 * math.pi
    return draws


def init_params(g: VddGraph, scheme: InitScheme) -> VddGraph:
    """Return a copy of ``g`` with freshly initialized parameters.

    The scheme's θ rows, in ascending node id, go onto the graph through
    `exact._materialize`.  Deterministic given the scheme's seed; the global
    phase is reset to 0 (it is not a trainable parameter).
    """
    ids = g.sorted_ids()
    if scheme.kind == "uniform":
        theta = _uniform_params(len(ids), [scheme.seed])[0]
    elif scheme.kind == "balanced":
        theta = np.tile([_BALANCED.r, 0.0, 0.0], (len(ids), 1))
    else:
        bits = scheme.bits
        if bits is None or len(bits) != g.num_qubits:
            raise ConfigError(
                f"basis init needs {g.num_qubits} bits, got {len(bits) if bits else 0}"
            )
        theta = np.tile([1.0, 0.0, 0.0], (len(ids), 1))
        row = dict(zip(ids, range(len(ids))))
        current = g.root_child
        for bit in bits:  # r = 0 where the path of `bits` takes the 1-edge
            node = g.nodes[current]
            if bit:
                theta[row[current], 0] = 0.0
            current = node.child1 if bit else node.child0
    return replace(_materialize(g, theta, "raw"), global_phase=0.0)


def encode_state(v) -> VddGraph:
    """Encode an arbitrary normalized state onto the universal layout.

    Works by the autoregressive split: the node for prefix p carries
    r = sqrt(M(p0)/M(p)) where M(q) is the probability mass of all bit
    strings starting with q, and the leaf-level phases carry arg(<b|v>).
    The branch factors then telescope to reproduce every amplitude of the
    input exactly (well inside the 1e-10 contract).  Branches with zero
    mass get r in {0, 1} exactly and zero phases; unreachable subtrees
    keep (r=1, 0, 0).

    Accepts a StateVector or a plain complex array of length 2^n, n <= 12.
    """
    amps = as_amplitudes(v)
    size = amps.shape[0]
    n = int(size).bit_length() - 1
    if size < 2 or size != 2**n:
        raise ValueError(f"amplitude count must be a power of two >= 2, got {size}")
    if n > 12:
        raise CapacityError(f"encode_state is capped at n = 12, got n = {n}")
    total = float(np.sum(np.abs(amps) ** 2))
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"state not normalized: sum |amp|^2 = {total!r}")

    # masses[l][p] = probability mass of prefixes of length l
    probs = np.abs(amps) ** 2
    masses = [probs]
    while masses[0].shape[0] > 1:
        masses.insert(0, masses[0].reshape(-1, 2).sum(axis=1))

    # θ's row k is node id k + 1: the k-th prefix p of length < n, level by
    # level, whose r splits M(p) into M(p0) and M(p1).  The last size / 2
    # rows are the leaves, one per pair of amplitudes.
    mass = np.concatenate(masses[:-1])
    split = np.concatenate([m[0::2] for m in masses[1:]])
    live = mass > 0.0
    theta = np.zeros((mass.shape[0], 3))
    theta[:, 0] = 1.0
    theta[live, 0] = np.sqrt(np.clip(split[live] / mass[live], 0.0, 1.0))
    leaves, live = theta[-(size // 2):], live[-(size // 2):]
    # cmath.phase, not np.angle: the two differ in the last ulp
    leaves[live, 1:] = [[cmath.phase(a) for a in pair]
                        for pair in amps.reshape(-1, 2)[live].tolist()]
    out = _materialize(build_ansatz("universal", n), theta, "raw")
    assert not validate(out)
    return out
