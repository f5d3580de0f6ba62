"""Leveled decision-diagram representation of an n-qubit wavefunction.

A graph is a binary directed acyclic multigraph arranged in levels 1..n.
Each node carries three real parameters (r, omega, phi) that define the
complex amplitudes of its two outward edges:

    left  edge (bit 0): r * exp(i*omega)
    right edge (bit 1): sqrt(1 - r^2) * exp(i*phi)

so |left|^2 + |right|^2 = 1 holds by construction.  The amplitude of a
basis state b = (b_1, ..., b_n) is the product of the branch amplitudes
along the unique path selected by the bits (b_1 chooses at the level-1
node, b_2 at level 2, and so on), times a unit-modulus global phase
attached to the root edge.  States built this way are normalized for
every parameter value.

"Multigraph" because a node's two edges may share a target; TERMINAL is
the sentinel target for edges leaving the last level.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

from .state import ConfigError

__all__ = [
    "TERMINAL",
    "ParamTriple",
    "Node",
    "VddGraph",
    "ParseError",
    "edge_amplitudes",
    "amplitude",
    "validate",
    "serialize",
    "deserialize",
]


class ParseError(ConfigError):
    """Raised when a serialized graph document is malformed."""


class _Terminal:
    """Sentinel for edges that leave the last level; carries no parameters."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "TERMINAL"

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


TERMINAL = _Terminal()


@dataclass(frozen=True)
class ParamTriple:
    """Parameters (r, omega, phi) defining one node's pair of edge amplitudes.

    r is the left-edge modulus and must lie in [0, 1]; omega and phi are
    the left/right edge phases in radians (unconstrained).
    """

    r: float
    omega: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and math.isfinite(self.omega) and math.isfinite(self.phi)):
            raise ValueError(f"parameters must be finite, got ({self.r}, {self.omega}, {self.phi})")
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"r must lie in [0, 1], got {self.r}")


@dataclass
class Node:
    """One branching node: two outward edges to the next level (or TERMINAL)."""

    id: int
    level: int
    params: ParamTriple
    child0: int | _Terminal
    child1: int | _Terminal


@dataclass
class VddGraph:
    """A leveled decision diagram for an n-qubit state.

    The root is implicit: it has a single outward edge of amplitude
    exp(i*global_phase) pointing at the level-1 node ``root_child``.
    Nodes are stored by id; ids are arbitrary positive integers, assigned
    level-by-level left-to-right (starting at 1) by the ansatz builders.
    Graphs are treated as immutable after construction; parameter updates
    go through explicit copy operations.
    """

    num_qubits: int
    global_phase: float
    root_child: int
    nodes: dict[int, Node]

    def sorted_ids(self) -> list[int]:
        return sorted(self.nodes)


def edge_amplitudes(params: ParamTriple) -> tuple[complex, complex]:
    """Complex amplitudes (left, right) of a node's two edges.

    left = r*exp(i*omega), right = sqrt(1-r^2)*exp(i*phi), which makes
    |left|^2 + |right|^2 = 1 up to rounding.
    """
    r = params.r
    left = r * cmath.exp(1j * params.omega)
    right = math.sqrt(max(0.0, 1.0 - r * r)) * cmath.exp(1j * params.phi)
    return left, right


def amplitude(g: VddGraph, b) -> complex:
    """Amplitude <b|psi> of one basis state.

    Walks the path selected by the bits of ``b`` (b_1 first, at the
    level-1 node) and multiplies the chosen branch amplitudes together
    with the global phase.  Cost O(n).
    """
    bits = tuple(b)
    if len(bits) != g.num_qubits:
        raise ValueError(f"bit string has length {len(bits)}, expected {g.num_qubits}")
    amp = cmath.exp(1j * g.global_phase)
    current: int | _Terminal = g.root_child
    for bit in bits:
        if bit not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {bit!r}")
        node = g.nodes[current]
        left, right = edge_amplitudes(node.params)
        if bit:
            amp *= right
            current = node.child1
        else:
            amp *= left
            current = node.child0
    return amp


def validate(g: VddGraph) -> list[str]:
    """Structural diagnostics; an empty list means the graph is well formed.

    Checks the leveled-multigraph invariants: the root edge targets a
    level-1 node, every edge goes down exactly one level (so all paths
    reach TERMINAL in n steps and the graph is acyclic), and every node is
    reachable from the root.  Each diagnostic names the violated rule and
    the offending node id.  A node's parameters are not checked here:
    ParamTriple refuses non-finite values and r outside [0, 1] when it is
    built.
    """
    problems: list[str] = []
    n = g.num_qubits
    if n < 1:
        problems.append(f"num_qubits must be >= 1, got {n}")
        return problems
    if not math.isfinite(g.global_phase):
        problems.append(f"global_phase must be finite, got {g.global_phase}")

    if g.root_child not in g.nodes:
        problems.append(f"dangling child at root: {g.root_child!r}")
    elif g.nodes[g.root_child].level != 1:
        problems.append(
            f"root must target level 1, node {g.root_child} sits at level {g.nodes[g.root_child].level}"
        )

    for nid in sorted(g.nodes):
        node = g.nodes[nid]
        if node.id != nid:
            problems.append(f"node id mismatch: key {nid} holds node {node.id}")
        if nid < 1:
            problems.append(f"node ids must be >= 1, got {nid}")
        if not 1 <= node.level <= n:
            problems.append(f"level out of range at node {nid}: {node.level}")
            continue
        for side, child in (("child0", node.child0), ("child1", node.child1)):
            if node.level == n:
                if child is not TERMINAL:
                    problems.append(f"non-terminal leaf at node {nid}: {side} -> {child!r}")
            elif child is TERMINAL:
                problems.append(f"premature terminal at node {nid}: {side}")
            elif child not in g.nodes:
                problems.append(f"dangling child at node {nid}: {side} -> {child!r}")
            elif g.nodes[child].level != node.level + 1:
                problems.append(
                    f"level skip at node {nid}: {side} targets level {g.nodes[child].level}, "
                    f"expected {node.level + 1}"
                )

    if not problems:
        seen: set[int] = set()
        stack = [g.root_child]
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            node = g.nodes[nid]
            for child in (node.child0, node.child1):
                if child is not TERMINAL:
                    stack.append(child)
        for nid in sorted(set(g.nodes) - seen):
            problems.append(f"unreachable node {nid}")

    return problems


_GRAPH_KEYS = {"version", "num_qubits", "global_phase", "root_child", "nodes"}
_NODE_KEYS = {"id", "level", "r", "omega", "phi", "child0", "child1"}


def _expect_int(obj: dict, key: str, where: str) -> int:
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{key} must be an integer {where}, got {value!r}")
    return value


def _expect_real(obj: dict, key: str, where: str) -> float:
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{key} must be a number {where}, got {value!r}")
    return float(value)


def _expect_child(obj: dict, key: str, where: str) -> int | _Terminal:
    value = obj.get(key)
    if value == "terminal":
        return TERMINAL
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f'{key} must be an integer id or "terminal" {where}, got {value!r}')
    return value


def serialize(g: VddGraph) -> str:
    """Write a graph as a text document (see ``deserialize`` for the schema).

    Numbers are written with Python's shortest round-trip representation,
    so deserialize(serialize(g)) reproduces every field exactly.
    """
    problems = validate(g)
    if problems:
        raise ValueError("cannot serialize an invalid graph: " + "; ".join(problems))
    doc = {
        "version": 1,
        "num_qubits": g.num_qubits,
        "global_phase": g.global_phase,
        "root_child": g.root_child,
        "nodes": [
            {
                "id": node.id,
                "level": node.level,
                "r": node.params.r,
                "omega": node.params.omega,
                "phi": node.params.phi,
                "child0": "terminal" if node.child0 is TERMINAL else node.child0,
                "child1": "terminal" if node.child1 is TERMINAL else node.child1,
            }
            for node in (g.nodes[nid] for nid in sorted(g.nodes))
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def deserialize(text: str, validate_graph: bool = True) -> VddGraph:
    """Parse a graph document.

    Schema (structured object notation): top-level keys ``version`` (=1),
    ``num_qubits``, ``global_phase``, ``root_child``, ``nodes``; each node
    is an object with keys id, level, r, omega, phi, child0, child1 where
    children are integer ids or the string "terminal".  Unknown keys are
    rejected, and the parsed graph must satisfy all structural invariants
    (pass ``validate_graph=False`` to inspect a structurally broken graph
    with ``validate`` instead).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed document: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"top level must be an object, got {type(doc).__name__}")
    for key in sorted(set(doc) - _GRAPH_KEYS):
        raise ParseError(f"unknown key {key!r}")
    for key in sorted(_GRAPH_KEYS - set(doc)):
        raise ParseError(f"missing key {key!r}")

    version = _expect_int(doc, "version", "at top level")
    if version != 1:
        raise ParseError(f"unknown version {version}")
    num_qubits = _expect_int(doc, "num_qubits", "at top level")
    global_phase = _expect_real(doc, "global_phase", "at top level")
    root_child = _expect_child(doc, "root_child", "at top level")
    if root_child is TERMINAL:
        raise ParseError('root_child must be an integer id, got "terminal"')
    if not isinstance(doc["nodes"], list):
        raise ParseError(f"nodes must be an array, got {type(doc['nodes']).__name__}")

    nodes: dict[int, Node] = {}
    for entry in doc["nodes"]:
        if not isinstance(entry, dict):
            raise ParseError(f"node entries must be objects, got {type(entry).__name__}")
        for key in sorted(set(entry) - _NODE_KEYS):
            raise ParseError(f"unknown key {key!r} in node entry")
        for key in sorted(_NODE_KEYS - set(entry)):
            raise ParseError(f"missing key {key!r} in node entry")
        nid = _expect_int(entry, "id", "in node entry")
        where = f"at node {nid}"
        if nid in nodes:
            raise ParseError(f"duplicate node id {nid}")
        level = _expect_int(entry, "level", where)
        r = _expect_real(entry, "r", where)
        omega = _expect_real(entry, "omega", where)
        phi = _expect_real(entry, "phi", where)
        try:
            params = ParamTriple(r, omega, phi)
        except ValueError as exc:
            raise ParseError(f"{exc} at node {nid}") from None
        child0 = _expect_child(entry, "child0", where)
        child1 = _expect_child(entry, "child1", where)
        nodes[nid] = Node(nid, level, params, child0, child1)

    g = VddGraph(num_qubits=num_qubits, global_phase=global_phase, root_child=root_child, nodes=nodes)
    if validate_graph:
        problems = validate(g)
        if problems:
            raise ParseError("; ".join(problems))
    return g
