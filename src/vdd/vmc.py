"""Stochastic (VMC) engine: exact autoregressive sampling and estimators.

Sampling walks the diagram root-to-leaves, emitting bit 0 with probability
r^2 at each visited node, so draws come from |psi(b)|^2 exactly — i.i.d.,
no Markov chain, no burn-in.

Per-sample quantities:

* local value     A~(b) = sum_f <b|H_f|b xor f> * psi(b xor f) / psi(b)
                  over the Hamiltonian's flip masks f, H_f being the sum
                  of its terms with flip mask f (one connected
                  configuration per flip mask).  The ratio is a product of
                  edge ratios over the diverging segment only: from f's
                  first flipped level until b xor f's path is back on b's
                  node, read off the node rows the sampler recorded.  So a
                  flip group costs the levels its paths diverge over, not
                  n: from its first flipped level to at most one level
                  past its last on the accordion and product layouts, to
                  the last level on the universal one.  No bit string is
                  packed into an integer, so any n works.
* log-derivative  O_j(b) = d log psi(b) / d theta_j, nonzero only for the
                  n nodes on b's path:
                      left edge:  O_r = 1/r,            O_omega = i
                      right edge: O_r = -r/(1 - r^2),   O_phi   = i
                  ("trig" mode differentiates w.r.t. the signed, unfolded u
                  of r = cos u, giving -tan u on left edges and cot u on
                  right edges)

and the stochastic gradient 2 Re E[conj(O_j) (A~ - E[A~])] with in-batch
centering.  Since conj(O_j) is mag on a taken edge's magnitude slot and
-i on its phase slot, training's gradient (`_batch_gradient`) is a scatter
of the centered local values onto the edges the samples took, Re for the
magnitudes (times mag) and Im for the phases; it never forms O.  The dense
(batch, 3N) O matrix exists only in `VmcBatch`, whose per-sample entries
`vmc_gradient` and the jackknife `vmc_gradient_stderr` read.

The batch kernels run on the compiled topology and the edge factors of a
parameter array θ (see vdd.exact), so training draws batches without
rebuilding a graph; `sample` and `sample_batch` take a `VddGraph` and
compile it per call.  The per-bit-string operations walk the graph itself
and are the reference implementations the kernels are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact import GradientVector, _chart, _check_graph_and_operator, _check_mode, _flatten
from .exact import _LevelTables, parameter_labels
from .graph import VddGraph, amplitude
from .hamiltonian import PauliHamiltonian, _bit_elements

__all__ = [
    "VmcBatch",
    "sample",
    "local_estimator",
    "log_derivatives",
    "sample_batch",
    "vmc_energy",
    "vmc_gradient",
    "vmc_gradient_stderr",
    "batch_to_csv",
]


@dataclass
class VmcBatch:
    """Samples plus everything the stochastic gradient needs.

    samples is a (batch, n) 0/1 array (row = bit string, qubit 1 first);
    log_derivs is (batch, 3 * node count) complex, columns ordered like
    GradientVector entries; mode records which magnitude derivative the
    O columns hold ("raw" or "trig").
    """

    samples: np.ndarray
    local_values: np.ndarray
    log_derivs: np.ndarray
    energy_mean: float
    energy_stderr: float
    labels: tuple[str, ...]
    node_ids: tuple[int, ...]
    mode: str

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        self.local_values = np.asarray(self.local_values, dtype=np.complex128)
        self.log_derivs = np.asarray(self.log_derivs, dtype=np.complex128)
        b = self.samples.shape[0]
        if self.local_values.shape != (b,) or self.log_derivs.shape[0] != b:
            raise ValueError("samples, local_values and log_derivs must have equal length")

    @property
    def batch_size(self) -> int:
        return int(self.samples.shape[0])


def _energy_stats(local_values: np.ndarray) -> tuple[float, float]:
    re = np.real(local_values)
    mean = float(np.mean(re))
    if re.shape[0] < 2:
        return mean, 0.0
    return mean, float(np.std(re, ddof=1) / math.sqrt(re.shape[0]))


def _sample(
    topo: _LevelTables, left: np.ndarray, count: int, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Level-major Born draws: one uniform per (sample, level), level by level.

    Returns the (count, n) bits and the (count, n) node rows their paths
    visit, level 1 first; the batch kernels read the paths from the rows.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    n = topo.num_qubits
    p_zero = np.abs(left) ** 2
    bits = np.empty((count, n), dtype=np.uint8)
    rows = np.empty((count, n), dtype=np.int64)
    pos = np.full(count, topo.root, dtype=np.int64)
    for level in range(n):
        rows[:, level] = pos
        b = (rng.random(count) >= p_zero[pos]).astype(np.uint8)
        bits[:, level] = b
        if level < n - 1:
            pos = np.where(b == 0, topo.child0[pos], topo.child1[pos])
    return bits, rows


def sample(g: VddGraph, count: int, seed: int = 0, rng=None) -> np.ndarray:
    """(count, n) array of i.i.d. Born-distribution bit strings.

    Level-major: one uniform draw per (sample, level), consumed level by
    level, so results are reproducible for a given seed.
    """
    topo = _LevelTables(g)
    left = _chart(_flatten(g, "raw"), "raw")[0]
    return _sample(topo, left, count, np.random.default_rng(seed) if rng is None else rng)[0]


def _batch_local_values(
    topo: _LevelTables, h: PauliHamiltonian, bits: np.ndarray, rows: np.ndarray, edges
) -> np.ndarray:
    """A~(b) for every sampled row, from the node rows its path visits.

    psi(b ^ f) / psi(b) is a product of edge ratios over the levels where
    the two paths differ: they share every node above f's first flipped
    level, and once b ^ f's path is back on b's node after f's last one,
    the remaining edges are b's own.  Each flip group walks from its first
    flipped level until every sample's flipped path has rejoined, or to the
    last level.
    """
    left, right = edges[:2]
    count, n = bits.shape
    # level-major copies, and flat tables indexed by edge = 2 * node row + bit
    bits_t, rows_t = bits.T.copy(), rows.T.copy()
    factor = np.stack((left, right), axis=1).ravel()
    child = np.stack((topo.child0, topo.child1), axis=1).ravel()
    path = factor[2 * rows_t + bits_t]  # (n, count) edge factors of b
    if not np.all(path):
        raise ValueError("local estimator undefined where psi(b) = 0")
    out = np.zeros(count, dtype=np.complex128)
    for flip, terms in h._bit_groups:
        # <b|H_flip|b ^ flip> = conj(<b ^ flip|H_flip|b>), H being Hermitian
        elements = np.conj(_bit_elements(terms, bits_t))
        if flip.size == 0:
            out += elements
            continue
        flipped = np.zeros(n, dtype=np.uint8)
        flipped[flip] = 1
        pos = rows_t[flip[0]]
        num = np.ones(count, dtype=np.complex128)
        den = np.ones(count, dtype=np.complex128)
        for level in range(flip[0], n):
            edge = 2 * pos + (bits_t[level] ^ flipped[level])
            num *= factor[edge]
            den *= path[level]
            if level == n - 1:
                break
            pos = child[edge]
            if level >= flip[-1] and np.array_equal(pos, rows_t[level + 1]):
                break
        out += elements * (num / den)
    return out


def local_estimator(g: VddGraph, h: PauliHamiltonian, b) -> complex:
    """A~(b) for one bit string; O(#terms * n) via single-path walks."""
    from .hamiltonian import apply_string

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


def log_derivatives(g: VddGraph, b, mode: str = "raw") -> np.ndarray:
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


def _batch_log_derivs(bits: np.ndarray, rows: np.ndarray, edges) -> np.ndarray:
    left, right, dleft, dright = edges
    # magnitude log-derivative of each node's edges: raw 1/r, -r/(1-r^2);
    # trig -tan u, cot u.  Sampled paths never take a zero-amplitude edge.
    with np.errstate(divide="ignore", invalid="ignore"):
        mag0 = (dleft / left).real
        mag1 = (dright / right).real
    count, n = bits.shape
    samples = np.arange(count)
    out = np.zeros((count, 3 * left.shape[0]), dtype=np.complex128)
    for level in range(n):
        pos = rows[:, level]
        zero = bits[:, level] == 0
        mag = np.where(zero, mag0[pos], mag1[pos])
        if not np.all(np.isfinite(mag)):
            raise ValueError("log-derivatives hit a zero-amplitude edge")
        out[samples, 3 * pos] = mag
        out[samples, 3 * pos + np.where(zero, 1, 2)] = 1j  # the omega or the phi entry
    return out


def _batch_gradient(bits: np.ndarray, rows: np.ndarray, edges, local: np.ndarray) -> np.ndarray:
    """2 Re mean(conj(O_j) (A~ - mean A~)) from the node rows the paths visit.

    O_j(b) is nonzero only on the edges b takes: a real magnitude entry
    mag = Re(d edge / edge) and an i on that edge's phase slot.  So with
    c = A~ - mean A~ each parameter's entry is a sum over the samples that
    take its edges, of mag * Re c (magnitude) or Im c (phase): two
    scatter-adds of c onto the taken edges, and no (batch, 3N) O matrix.
    """
    left, right, dleft, dright = edges
    count, n = bits.shape
    size = 2 * left.shape[0]
    edge = (2 * rows + bits).ravel()  # edge = 2 * node row + bit, sample-major
    centered = local - np.mean(local)
    s_re = np.bincount(edge, np.repeat(centered.real, n), size)
    s_im = np.bincount(edge, np.repeat(centered.imag, n), size)
    # read mag on taken edges only: an untaken zero-amplitude edge (r = 1)
    # has an infinite mag and a zero sum, and inf * 0 is NaN
    taken = np.bincount(edge, minlength=size) > 0
    mag = np.zeros(size)
    mag[taken] = (np.stack((dleft, dright), axis=1).ravel()[taken]
                  / np.stack((left, right), axis=1).ravel()[taken]).real
    if not np.all(np.isfinite(mag)):
        raise ValueError("log-derivatives hit a zero-amplitude edge")
    grad = np.empty((left.shape[0], 3))
    grad[:, 0] = (mag * s_re).reshape(-1, 2).sum(axis=1)
    grad[:, 1:] = s_im.reshape(-1, 2)  # omega on the left edge, phi on the right
    return grad.ravel() * (2.0 / count)


def sample_batch(
    g: VddGraph,
    h: PauliHamiltonian,
    count: int,
    seed: int = 0,
    rng=None,
    mode: str = "raw",
) -> VmcBatch:
    """Draw a batch and evaluate local values, log-derivatives and stats."""
    _check_mode(mode)
    _check_graph_and_operator(g, h)
    topo = _LevelTables(g)
    rng = np.random.default_rng(seed) if rng is None else rng
    edges = _chart(_flatten(g, mode), mode)
    bits, rows = _sample(topo, edges[0], count, rng)
    local = _batch_local_values(topo, h, bits, rows, edges)
    mean, stderr = _energy_stats(local)
    return VmcBatch(
        samples=bits,
        local_values=local,
        log_derivs=_batch_log_derivs(bits, rows, edges),
        energy_mean=mean,
        energy_stderr=stderr,
        labels=parameter_labels(g),
        node_ids=topo.node_ids,
        mode=mode,
    )


def vmc_energy(batch: VmcBatch) -> tuple[float, float]:
    """(mean, standard error) of Re A~ over the batch."""
    if batch.batch_size < 1:
        raise ValueError("empty batch")
    return _energy_stats(batch.local_values)


def vmc_gradient(batch: VmcBatch) -> GradientVector:
    """2 Re mean(conj(O_j) (A~ - batch mean A~)) per parameter."""
    if batch.batch_size < 2:
        raise ValueError(f"gradient needs at least 2 samples, got {batch.batch_size}")
    centered = batch.local_values - np.mean(batch.local_values)
    entries = 2.0 * np.real(np.conj(batch.log_derivs).T @ centered) / batch.batch_size
    return GradientVector(entries=entries, labels=batch.labels, node_ids=batch.node_ids)


def vmc_gradient_stderr(batch: VmcBatch) -> np.ndarray:
    """Leave-one-out jackknife standard error of every gradient entry.

    The estimator is a smooth function of three batch sums, so each
    leave-one-out replicate is available in closed form and the whole
    jackknife is a few broadcast operations.
    """
    if batch.batch_size < 2:
        raise ValueError(f"jackknife needs at least 2 samples, got {batch.batch_size}")
    count = batch.batch_size
    oconj = np.conj(batch.log_derivs)  # (B, P)
    a = batch.local_values  # (B,)
    s_oa = oconj.T @ a  # (P,)
    s_o = oconj.sum(axis=0)  # (P,)
    s_a = a.sum()
    m = count - 1
    loo_oa = s_oa[None, :] - oconj * a[:, None]
    loo_o = s_o[None, :] - oconj
    loo_a = (s_a - a)[:, None]
    replicates = 2.0 * np.real((loo_oa - loo_o * loo_a / m) / m)  # (B, P)
    spread = replicates - replicates.mean(axis=0, keepdims=True)
    return np.sqrt((m / count) * np.sum(spread**2, axis=0))


def batch_to_csv(batch: VmcBatch, path) -> None:
    """Write `sample_index, bitstring, local_value_re, local_value_im` rows."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_index", "bitstring", "local_value_re", "local_value_im"])
        for i in range(batch.batch_size):
            bitstring = "".join(str(int(x)) for x in batch.samples[i])
            writer.writerow(
                [i, bitstring, repr(float(batch.local_values[i].real)),
                 repr(float(batch.local_values[i].imag))]
            )
