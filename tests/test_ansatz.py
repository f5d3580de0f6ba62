"""Layout builders, parameter initialization and state encoding."""

import hashlib
import math

import numpy as np
import pytest

from vdd.ansatz import (
    ANSATZ_KINDS,
    InitScheme,
    build_ansatz,
    build_automaton,
    encode_state,
    init_params,
    parse_init_scheme,
)
from vdd.exact import to_state_vector
from vdd.graph import TERMINAL, amplitude, serialize, validate
from vdd.state import CapacityError, ConfigError


def test_product_layout():
    g = build_ansatz("product", 5)
    assert len(g.nodes) == 5
    assert g.num_parameters == 15
    assert validate(g) == []
    assert g.nodes[5].child0 is TERMINAL and g.nodes[5].child1 is TERMINAL


@pytest.mark.parametrize("n", range(1, 21))
def test_accordion_parameter_count(n):
    g = build_ansatz("accordion", n)
    assert g.num_parameters == 3 * (3 * n // 2)
    levels = [node.level for node in g.nodes.values()]
    widths = [levels.count(level) for level in range(1, n + 1)]
    assert widths == [1 if level % 2 else 2 for level in range(1, n + 1)]


def test_universal_layout_widths_and_cap():
    g = build_ansatz("universal", 5)
    assert len(g.nodes) == 2**5 - 1
    for level in range(1, 6):
        assert sum(1 for nd in g.nodes.values() if nd.level == level) == 2 ** (level - 1)
    with pytest.raises(CapacityError):
        build_ansatz("universal", 21)


def test_build_ansatz_dispatch():
    assert ANSATZ_KINDS == ("product", "accordion", "universal")
    assert len(build_ansatz("product", 4).nodes) == 4
    assert len(build_ansatz("accordion", 4).nodes) == 6
    assert len(build_ansatz("universal", 4).nodes) == 15
    with pytest.raises(ValueError):
        build_ansatz("ring", 4)


@pytest.mark.parametrize("n", [0, -1, True, 2.5, None, "3"])
def test_builders_reject_n_that_is_not_a_positive_integer(n):
    with pytest.raises(ConfigError, match="n must be an integer >= 1"):
        build_automaton(n, lambda level, state, bit: 0)
    for kind in ANSATZ_KINDS:
        with pytest.raises(ConfigError, match="n must be an integer >= 1"):
            build_ansatz(kind, n)


def test_automaton_calls_its_step_once_per_edge_between_levels():
    calls = []

    def step(level, state, bit):
        calls.append((level, state, bit))
        return 2 * state + bit

    build_automaton(5, step)
    assert sorted(calls) == [(l, s, b) for l in range(4) for s in range(2**l) for b in (0, 1)]


# sha256 of serialize(build_ansatz(kind, n)) concatenated over n = 1..12:
# ids, levels, children and parameters of every builder, pinned
BUILDER_DIGESTS = {
    "product": "6ceef0a81f7ba4746205f98e6764a9a2ce3dc7a49445deb5a2aab1df239dbfbc",
    "accordion": "fe9b4267772065dfacedbc023792774b0018e33aa23edadb9ea9e8a1bfd64083",
    "universal": "890ed37cf6872c182eb5ca61d23ef61f1fb1d4820731951fd8d7c41f037b7e88",
}


@pytest.mark.parametrize("kind", sorted(BUILDER_DIGESTS))
def test_builders_are_pinned_by_their_serialized_graphs(kind):
    text = "".join(serialize(build_ansatz(kind, n)) for n in range(1, 13))
    assert hashlib.sha256(text.encode()).hexdigest() == BUILDER_DIGESTS[kind]


def test_uniform_init_is_seeded_and_in_range():
    g = build_ansatz("accordion", 6)
    a = init_params(g, InitScheme("uniform", seed=9))
    b = init_params(g, InitScheme("uniform", seed=9))
    c = init_params(g, InitScheme("uniform", seed=10))
    for nid in a.nodes:
        pa = a.nodes[nid].params
        assert pa == b.nodes[nid].params
        assert 0.0 <= pa.r <= 1.0
        assert 0.0 <= pa.omega < 2 * math.pi
        assert 0.0 <= pa.phi < 2 * math.pi
    assert any(a.nodes[k].params != c.nodes[k].params for k in a.nodes)
    # normalization holds for any draw
    sv = to_state_vector(a)
    assert np.sum(np.abs(sv.amps) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_balanced_init():
    g = init_params(build_ansatz("product", 4), InitScheme("balanced"))
    for node in g.nodes.values():
        assert node.params.r == pytest.approx(2**-0.5)
        assert node.params.omega == 0.0 and node.params.phi == 0.0


def test_basis_init_concentrates_all_mass():
    bits = (1, 0, 1, 1)
    for kind in ("product", "accordion", "universal"):
        g = init_params(build_ansatz(kind, 4), InitScheme("basis", bits=bits))
        assert amplitude(g, bits) == pytest.approx(1.0, abs=1e-15)
        sv = to_state_vector(g)
        idx = int("".join(map(str, bits)), 2)
        amps = np.zeros(16, dtype=complex)
        amps[idx] = 1.0
        np.testing.assert_allclose(sv.amps, amps, atol=1e-15)


def test_parse_init_scheme_forms():
    assert parse_init_scheme("uniform", seed=3).seed == 3
    assert parse_init_scheme("balanced").kind == "balanced"
    assert parse_init_scheme("basis:011").bits == (0, 1, 1)
    for bad in ("basis:", "basis:012", "gaussian"):
        with pytest.raises(ValueError):
            parse_init_scheme(bad)


def test_basis_init_length_mismatch():
    with pytest.raises(ValueError):
        init_params(build_ansatz("product", 3), InitScheme("basis", bits=(0, 1)))


def test_encode_state_roundtrip():
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 5):
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        v /= np.linalg.norm(v)
        g = encode_state(v)
        assert validate(g) == []
        np.testing.assert_allclose(to_state_vector(g).amps, v, atol=1e-12)


def test_encode_state_with_zero_branches():
    v = np.zeros(8, dtype=complex)
    v[1] = 0.6
    v[6] = 0.8j
    g = encode_state(v)
    np.testing.assert_allclose(to_state_vector(g).amps, v, atol=1e-14)


def test_encode_state_cap_and_shape_checks():
    with pytest.raises(CapacityError):
        encode_state(np.ones(2**13) / 2**6.5)
    with pytest.raises(ValueError):
        encode_state(np.ones(3) / math.sqrt(3))


def test_accordion_even_cut_schmidt_rank_one():
    g = init_params(build_ansatz("accordion", 6), InitScheme("uniform", seed=2))
    amps = to_state_vector(g).amps
    for cut in (2, 4):
        m = amps.reshape(2**cut, 2 ** (6 - cut))
        s = np.linalg.svd(m, compute_uv=False)
        assert s[1] < 1e-12  # a single dimer-product factor across the cut
