"""Per-bit-string references for the VMC kernels, and the dense gradient
statistics built from them.

`local_estimator` and `log_derivatives` walk the graph itself, one bit
string at a time, and share nothing with the batch kernels they check.
`dense_statistics` stacks the per-string `log_derivatives` of a batch's
samples into the (batch, 3N) matrix O and applies the textbook formulas to
it: the gradient 2 Re mean(conj(O) (A~ - mean A~)) and its leave-one-out
jackknife, each replicate dropping one sample from the three batch sums the
estimator reads.  The package computes both as scatters onto the sampled
edges.  `index_of_bits` and `bits_of_index` convert between a bit string
and its state-vector index, qubit 1 most significant.
"""

import math

import numpy as np

from vdd.exact import _check_mode
from vdd.graph import amplitude
from vdd.hamiltonian import apply_string


def index_of_bits(bits) -> int:
    idx = 0
    for b in bits:
        idx = (idx << 1) | int(b)
    return idx


def bits_of_index(index: int, n: int) -> tuple[int, ...]:
    return tuple((index >> (n - l)) & 1 for l in range(1, n + 1))


def local_estimator(g, h, b) -> complex:
    """A~(b) for one bit string; O(#terms * n) via single-path walks."""
    bits = tuple(int(x) for x in b)
    psi_b = amplitude(g, bits)
    if psi_b == 0:
        raise ValueError(f"local estimator undefined at psi{bits} = 0")
    total = 0j
    for term in h.terms:
        b_prime, phase = apply_string(term, bits)
        total += term.coeff * np.conj(phase) * amplitude(g, b_prime) / psi_b
    return complex(total)


def _magnitude_log_deriv(r: float, bit: int, mode: str) -> float:
    """O for the magnitude slot on a taken edge; raises where the edge has
    zero amplitude (probability-0 under Born sampling).

    raw:  1/r (left) or -r/(1-r^2) (right); trig with r = cos u:
    -tan u (left) or cot u (right).
    """
    if bit == 0:
        if r == 0.0:
            raise ValueError("left edge taken with r = 0: log-derivative is singular")
        return -math.sqrt(1.0 - r * r) / r if mode == "trig" else 1.0 / r
    if r == 1.0:
        raise ValueError("right edge taken with r = 1: log-derivative is singular")
    return r / math.sqrt(1.0 - r * r) if mode == "trig" else -r / (1.0 - r * r)


def log_derivatives(g, b, mode: str = "raw") -> np.ndarray:
    """O_j(b) = d log psi(b)/d theta_j as a flat complex array (3 per node)."""
    _check_mode(mode)
    bits = tuple(int(x) for x in b)
    if len(bits) != g.num_qubits or any(x not in (0, 1) for x in bits):
        raise ValueError(f"need {g.num_qubits} bits of 0/1, got {b!r}")
    node_ids = g.sorted_ids()
    slot = {node_id: k for k, node_id in enumerate(node_ids)}
    out = np.zeros(3 * len(node_ids), dtype=np.complex128)
    current = g.root_child
    for bit in bits:
        node = g.nodes[current]
        k = slot[node.id]
        out[3 * k] = _magnitude_log_deriv(node.params.r, bit, mode)
        if bit == 0:
            out[3 * k + 1] = 1j
            current = node.child0
        else:
            out[3 * k + 2] = 1j
            current = node.child1
    return out


def dense_statistics(g, batch):
    """(gradient entries, jackknife standard errors) of a `sample_batch` of g."""
    unique, inverse = np.unique(batch.samples, axis=0, return_inverse=True)
    o = np.stack([log_derivatives(g, bits, mode=batch.mode) for bits in unique])
    oconj = np.conj(o)[inverse.ravel()]
    a = batch.local_values
    count, m = batch.batch_size, batch.batch_size - 1
    gradient = 2.0 * np.real(oconj.T @ (a - a.mean())) / count
    loo_oa = (oconj.T @ a)[None, :] - oconj * a[:, None]
    loo_o = oconj.sum(axis=0)[None, :] - oconj
    loo_a = (a.sum() - a)[:, None]
    replicates = 2.0 * np.real((loo_oa - loo_o * loo_a / m) / m)
    spread = replicates - replicates.mean(axis=0, keepdims=True)
    return gradient, np.sqrt((m / count) * np.sum(spread**2, axis=0))
