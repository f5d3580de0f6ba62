"""Graph structure, amplitudes, validation and the serialized format."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from vdd.ansatz import build_ansatz
from vdd.graph import (
    TERMINAL,
    Node,
    ParamTriple,
    ParseError,
    VddGraph,
    amplitude,
    deserialize,
    edge_amplitudes,
    serialize,
    validate,
)


def with_params(g: VddGraph, triples: dict[int, tuple]) -> VddGraph:
    nodes = dict(g.nodes)
    for nid, (r, w, p) in triples.items():
        nodes[nid] = dataclasses.replace(nodes[nid], params=ParamTriple(r, w, p))
    return dataclasses.replace(g, nodes=nodes)


def test_edge_amplitudes_moduli():
    left, right = edge_amplitudes(ParamTriple(0.6, 0.3, -1.1))
    assert left == pytest.approx(0.6 * cmath.exp(0.3j), abs=1e-15)
    assert right == pytest.approx(math.sqrt(1 - 0.36) * cmath.exp(-1.1j), abs=1e-15)
    assert abs(left) ** 2 + abs(right) ** 2 == pytest.approx(1.0, abs=1e-15)


def test_param_triple_rejects_bad_r():
    with pytest.raises(ValueError):
        ParamTriple(1.2, 0.0, 0.0)
    with pytest.raises(ValueError):
        ParamTriple(float("nan"), 0.0, 0.0)


def test_terminal_is_a_singleton():
    import copy

    assert copy.deepcopy(TERMINAL) is TERMINAL
    assert repr(TERMINAL) == "TERMINAL"


def test_worked_three_qubit_amplitude():
    # accordion(3), params set per the hand-computed path product for b=(0,0,1)
    g = with_params(
        build_ansatz("accordion", 3),
        {1: (0.6, 0.3, 0.5), 2: (0.8, -0.2, 1.1), 3: (0.7, 0.9, 0.0), 4: (0.5, 0.4, 1.3)},
    )
    a = amplitude(g, (0, 0, 1))
    expected = 0.6 * 0.8 * math.sqrt(1 - 0.25) * cmath.exp(1.4j)
    assert a == pytest.approx(expected, abs=1e-14)
    assert abs(a) == pytest.approx(0.41569219381653044, abs=1e-14)
    assert cmath.phase(a) == pytest.approx(1.4, abs=1e-13)


def test_worked_amplitude_formula_random_draws():
    rng = np.random.default_rng(11)
    base = build_ansatz("accordion", 3)
    worst = 0.0
    for _ in range(10):
        r = rng.uniform(0.05, 0.95, size=4)
        w = rng.uniform(-math.pi, math.pi, size=4)
        p = rng.uniform(-math.pi, math.pi, size=4)
        g = with_params(base, {k: (r[k - 1], w[k - 1], p[k - 1]) for k in range(1, 5)})
        expected = r[0] * r[1] * math.sqrt(1 - r[3] ** 2) * cmath.exp(1j * (w[0] + w[1] + p[3]))
        worst = max(worst, abs(amplitude(g, (0, 0, 1)) - expected))
    assert worst <= 1e-14


def test_balanced_graph_is_uniform():
    for kind, n in (("product", 5), ("accordion", 4), ("universal", 3)):
        g = build_ansatz(kind, n)
        for idx in range(2**n):
            bits = tuple((idx >> (n - 1 - i)) & 1 for i in range(n))
            assert amplitude(g, bits) == pytest.approx(2 ** (-n / 2), abs=1e-14)


def test_global_phase_multiplies_every_amplitude():
    g = build_ansatz("product", 3)
    shifted = dataclasses.replace(g, global_phase=0.9)
    for bits in [(0, 0, 0), (1, 0, 1)]:
        assert shifted.nodes is g.nodes  # same parameters, only the root edge changed
        assert amplitude(shifted, bits) == pytest.approx(
            amplitude(g, bits) * cmath.exp(0.9j), abs=1e-15
        )


def test_amplitude_checks_bit_string():
    g = build_ansatz("product", 3)
    with pytest.raises(ValueError):
        amplitude(g, (0, 1))
    with pytest.raises(ValueError):
        amplitude(g, (0, 2, 0))


def test_validate_accepts_builders():
    for g in (build_ansatz("product", 6), build_ansatz("accordion", 7), build_ansatz("universal", 4)):
        assert validate(g) == []


def test_validate_reports_level_and_reference_problems():
    g = build_ansatz("product", 3)

    # child skipping a level
    nodes = dict(g.nodes)
    nodes[1] = dataclasses.replace(nodes[1], child1=3)
    bad = dataclasses.replace(g, nodes=nodes)
    assert any("level" in msg for msg in validate(bad))

    # dangling child reference
    nodes = dict(g.nodes)
    nodes[2] = dataclasses.replace(nodes[2], child0=99)
    assert any("99" in msg for msg in validate(dataclasses.replace(g, nodes=nodes)))

    # terminal edge before the last level
    nodes = dict(g.nodes)
    nodes[1] = dataclasses.replace(nodes[1], child0=TERMINAL)
    assert validate(dataclasses.replace(g, nodes=nodes))

    # unreachable extra node
    nodes = dict(g.nodes)
    nodes[9] = Node(id=9, level=2, params=ParamTriple(0.5, 0.0, 0.0), child0=3, child1=3)
    assert any("unreachable" in msg or "9" in msg for msg in validate(dataclasses.replace(g, nodes=nodes)))


def test_validate_rejects_missing_root():
    g = dataclasses.replace(build_ansatz("product", 2), root_child=5)
    assert validate(g)


def test_serialize_roundtrip_identity():
    rng = np.random.default_rng(3)
    for kind, n in (("product", 6), ("accordion", 5), ("universal", 4)):
        g = build_ansatz(kind, n)
        triples = {
            nid: (rng.uniform(0, 1), rng.uniform(-4, 4), rng.uniform(-4, 4))
            for nid in g.nodes
        }
        g = dataclasses.replace(with_params(g, triples), global_phase=rng.uniform(-3, 3))
        h = deserialize(serialize(g))
        assert h.num_qubits == g.num_qubits
        assert h.global_phase == g.global_phase
        assert h.root_child == g.root_child
        assert set(h.nodes) == set(g.nodes)
        for nid in g.nodes:
            a, b = g.nodes[nid], h.nodes[nid]
            assert (a.level, a.child0, a.child1) == (b.level, b.child0, b.child1)
            assert a.params == b.params
        # and textual round trip is exact
        assert serialize(h) == serialize(g)


def test_deserialize_rejects_malformed_documents():
    good = serialize(build_ansatz("product", 2))
    for breaker in (
        lambda s: s.replace('"r"', '"rr"', 1),
        lambda s: s[:-5],
        lambda s: s.replace('"num_qubits": 2', '"num_qubits": "two"'),
        lambda s: s.replace('"num_qubits": 2', '"num_qubits": 2, "extra": 1'),
    ):
        with pytest.raises(ParseError):
            deserialize(breaker(good))
    # parameters are checked by ParamTriple; the error still names the node
    r_line = '"r": 0.7071067811865475'
    for bad_r in ("1.5", "NaN"):
        with pytest.raises(ParseError, match="node 1"):
            deserialize(good.replace(r_line, f'"r": {bad_r}', 1))


def test_deserialize_validates_by_default():
    doc = serialize(build_ansatz("product", 3)).replace('"child0": 3', '"child0": 7', 1)
    with pytest.raises(ParseError):
        deserialize(doc)
    g = deserialize(doc, validate_graph=False)  # diagnostics mode still parses
    assert validate(g)
