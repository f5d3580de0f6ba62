"""Graphs the tests build: an ansatz layout with seeded uniform
parameters, a graph with one node's parameters replaced, and a layered
graph of bounded width made by `build_automaton`."""

import dataclasses

from vdd.ansatz import InitScheme, build_ansatz, build_automaton, init_params
from vdd.graph import ParamTriple, VddGraph


def random_graph(kind: str, n: int, seed: int):
    return init_params(build_ansatz(kind, n), InitScheme("uniform", seed=seed))


def set_node(g, nid, r, w, p):
    nodes = dict(g.nodes)
    nodes[nid] = dataclasses.replace(nodes[nid], params=ParamTriple(r, w, p))
    return dataclasses.replace(g, nodes=nodes)


def layered_graph(n: int, width: int) -> VddGraph:
    """Level l holds min(2^(l-1), width) nodes; node k's children are 2k and
    2k + 1 of the next level, modulo its width.  Every node has r = 0.6."""
    g = build_automaton(n, lambda level, state, bit: (2 * state + bit) % width)
    params = ParamTriple(0.6, 0.0, 0.0)
    nodes = {nid: dataclasses.replace(node, params=params) for nid, node in g.nodes.items()}
    return dataclasses.replace(g, nodes=nodes)
