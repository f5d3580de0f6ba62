"""Diagram layouts as automata, parameter initialization, and encoding of
arbitrary states onto the universal layout.

A layout is a deterministic automaton over the bits: each node is a state,
and ``step(l, state, bit)`` names the state that the edge taken on ``bit``
leads to one level down (levels counted from 0).  ``build_automaton`` turns
a step into a graph; each layout below is one step.

* product   — ``step = 0``: one node per level; any state it represents is a
              product of single-qubit states.  3n parameters.
* accordion — ``step = bit`` on even levels, else 0: alternating one- and
              two-node levels; represents exactly the products of two-qubit
              (dimer) states on pairs (1,2), (3,4), ...  floor(3n/2) nodes,
              3*floor(3n/2) parameters.
* universal — ``step = 2*state + bit``: level l holds 2^(l-1) nodes, one per
              bit-string prefix; can represent any n-qubit state.  2^n - 1
              nodes.

Builders return graphs with balanced parameters (r = 1/sqrt2, phases 0);
apply ``init_params`` to overwrite them.  Node ids run level by level, in
ascending state order, starting at 1.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .graph import TERMINAL, Node, ParamTriple, VddGraph, validate
from .state import CapacityError, ConfigError, _check_choice, _check_count, as_amplitudes

__all__ = [
    "ANSATZ_KINDS",
    "InitScheme",
    "build_automaton",
    "build_product",
    "build_accordion",
    "build_universal",
    "build_ansatz",
    "init_params",
    "parse_init_scheme",
    "encode_state",
]

_BALANCED = ParamTriple(r=1.0 / math.sqrt(2.0), omega=0.0, phi=0.0)


def build_automaton(n: int, step: Callable[[int, int, int], int]) -> VddGraph:
    """The n-level diagram of the automaton that starts in state 0 and moves
    on ``bit`` from ``state`` at level l (counted from 0) to
    ``step(l, state, bit)``.

    Level l + 1 holds the sorted set of states that level l's edges reach;
    ids run level by level in ascending state order from 1, and the last
    level's edges point to TERMINAL.  ``step`` is called once per edge
    between levels.
    """
    n = _check_count("n", n, 1)
    nodes = {}
    states, first = [0], 1
    for level in range(1, n):
        edges = [(step(level - 1, state, 0), step(level - 1, state, 1)) for state in states]
        reached = sorted({target for pair in edges for target in pair})
        after = first + len(states)
        ids = dict(zip(reached, range(after, after + len(reached))))
        for nid, (c0, c1) in enumerate(edges, start=first):
            nodes[nid] = Node(nid, level, _BALANCED, ids[c0], ids[c1])
        states, first = reached, after
    for nid in range(first, first + len(states)):
        nodes[nid] = Node(nid, n, _BALANCED, TERMINAL, TERMINAL)
    return VddGraph(num_qubits=n, global_phase=0.0, root_child=1, nodes=nodes)


def build_product(n: int) -> VddGraph:
    """One node per level; both edges of level l target the level-(l+1) node."""
    return build_automaton(n, lambda level, state, bit: 0)


def build_accordion(n: int) -> VddGraph:
    """Alternating one- and two-node levels: the states it represents are
    dimer products over qubit pairs (1,2), (3,4), ... with a single leftover
    qubit factor when n is odd."""
    return build_automaton(n, lambda level, state, bit: bit if level % 2 == 0 else 0)


def build_universal(n: int) -> VddGraph:
    """Complete binary layout: node k at level l has children 2k and 2k+1.

    Level l holds the 2^(l-1) nodes indexed by the bit-string prefixes of
    length l-1, so any n-qubit state can be represented (see encode_state).
    Capped at n = 20 since the layout has 2^n - 1 nodes.
    """
    if _check_count("n", n, 1) > 20:
        raise CapacityError(f"universal layout is capped at n = 20 (2^n - 1 nodes), got n = {n}")
    return build_automaton(n, lambda level, state, bit: 2 * state + bit)


_LAYOUTS = {"product": build_product, "accordion": build_accordion, "universal": build_universal}

ANSATZ_KINDS = tuple(_LAYOUTS)


def build_ansatz(kind: str, n: int) -> VddGraph:
    """Dispatch on the layout name ("product" | "accordion" | "universal")."""
    _check_choice("ansatz", kind, ANSATZ_KINDS)
    return _LAYOUTS[kind](n)


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


def _uniform_params(num_nodes: int, seed: int) -> np.ndarray:
    """The "uniform" scheme's (r, omega, phi) rows in ascending node id, shape
    (num_nodes, 3): one PCG64 stream, r ~ U[0,1) then omega, phi ~ U[0, 2*pi)."""
    draws = np.random.default_rng(seed).random((num_nodes, 3))
    draws[:, 1:] *= 2.0 * math.pi
    return draws


def init_params(g: VddGraph, scheme: InitScheme) -> VddGraph:
    """Return a copy of ``g`` with freshly initialized parameters.

    Deterministic given the scheme's seed; the global phase is reset to 0
    (it is not a trainable parameter).
    """
    new_nodes: dict[int, Node] = {}
    if scheme.kind == "uniform":
        draws = _uniform_params(len(g.nodes), scheme.seed)
        for nid, (r, omega, phi) in zip(sorted(g.nodes), draws.tolist()):
            new_nodes[nid] = replace(g.nodes[nid], params=ParamTriple(r, omega, phi))
    elif scheme.kind == "balanced":
        for nid, node in g.nodes.items():
            new_nodes[nid] = replace(node, params=_BALANCED)
    else:
        bits = scheme.bits
        if bits is None or len(bits) != g.num_qubits:
            raise ConfigError(
                f"basis init needs {g.num_qubits} bits, got {len(bits) if bits else 0}"
            )
        on_path: dict[int, int] = {}
        current = g.root_child
        for bit in bits:
            on_path[current] = bit
            node = g.nodes[current]
            current = node.child1 if bit else node.child0
        for nid, node in g.nodes.items():
            r = 0.0 if on_path.get(nid, 0) else 1.0
            new_nodes[nid] = replace(node, params=ParamTriple(r, 0.0, 0.0))
    return VddGraph(
        num_qubits=g.num_qubits, global_phase=0.0, root_child=g.root_child, nodes=new_nodes
    )


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

    g = build_universal(n)
    new_nodes: dict[int, Node] = {}
    for nid, node in g.nodes.items():
        level = node.level
        p = nid - 2 ** (level - 1)
        mass = masses[level - 1][p]
        if mass <= 0.0:
            params = ParamTriple(1.0, 0.0, 0.0)
        else:
            ratio = float(masses[level][2 * p] / mass)
            r = math.sqrt(min(1.0, max(0.0, ratio)))
            if level == n:
                omega = cmath.phase(amps[2 * p])
                phi = cmath.phase(amps[2 * p + 1])
            else:
                omega = phi = 0.0
            params = ParamTriple(r, omega, phi)
        new_nodes[nid] = replace(node, params=params)
    out = VddGraph(num_qubits=n, global_phase=0.0, root_child=1, nodes=new_nodes)
    assert not validate(out)
    return out
