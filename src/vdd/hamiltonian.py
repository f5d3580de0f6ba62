"""Pauli-string Hamiltonians on n qubits with matrix-free basis action.

A Hamiltonian is a real-weighted sum of Pauli strings.  Each string maps
a basis state to exactly one basis state with a phase in {1, -1, i, -i}:

    Z keeps the bit,  phase (-1)^b
    X flips the bit,  phase 1
    Y flips the bit,  phase i*(-1)^b     (Y|0> = i|1>, Y|1> = -i|0>)

so a string is a flip mask plus the phase coeff * i^{#Y} * (-1)^{popcount(b & zy)},
zy being the mask of its Z and Y qubits.  This module is the only place that
knows this convention.  A Hamiltonian is compiled once per object, on first
use: its terms are grouped by flip mask (Heisenberg's XX and YY on a bond
share one), each group naming its flipped and Z/Y qubits as bit-array
columns, and for state vectors the flip-0 group becomes one diagonal
while every other group becomes an axis flip of the reshaped vector times a
small coefficient table.  H|v> then costs O(#flip masks * 2^n) without
index arrays or the matrix.  Matrix elements are read in one place
(`_bit_elements`), from bit-array rows, so sampled bit strings of any n,
the diagonal, the coefficient tables and the dense matrix share one
parity kernel.

The third compiled form is a matrix product operator (`_build_mpo`), one
(D, D, 2, 2) tensor per qubit, for the exact engine's contraction over the
levels of a diagram, filled for all terms at once from one array of their
op codes; it never forms a 2^n object.

Qubit 1 is the most significant bit of the state-vector index throughout.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .state import CapacityError, ConfigError, StateVector, _check_choice, _check_count
from .state import as_amplitudes

__all__ = [
    "CapacityError",
    "PauliString",
    "PauliHamiltonian",
    "ModelSpec",
    "build_model",
    "apply_string",
    "apply_to_vector",
    "expectation",
    "dense_matrix",
    "ground_energy",
    "tfim_ground_energy",
    "xx_ground_energy",
]

MODELS = ("z1z2", "tfim", "heisenberg")
BOUNDARIES = ("open", "periodic")

DENSE_CAP = 12


@dataclass(frozen=True)
class PauliString:
    """One term: coeff times a tensor product of I/X/Y/Z over all qubits."""

    coeff: float
    ops: str

    def __post_init__(self):
        if not math.isfinite(self.coeff):
            raise ValueError(f"coefficient must be finite, got {self.coeff}")
        bad = set(self.ops) - set("IXYZ")
        if bad:
            raise ValueError(f"operators must be I/X/Y/Z, got {sorted(bad)}")


@dataclass(frozen=True)
class PauliHamiltonian:
    """Hermitian operator: a list of real-coefficient Pauli strings."""

    num_qubits: int
    terms: tuple[PauliString, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            if len(t.ops) != self.num_qubits:
                raise ValueError(
                    f"term {t.ops!r} has length {len(t.ops)}, expected {self.num_qubits}"
                )

    # compiled forms, built on first use and kept on the (frozen) instance

    @functools.cached_property
    def _action(self):
        return _vector_action(self)

    @functools.cached_property
    def _bit_groups(self):
        return _column_groups(self)

    @functools.cached_property
    def _mpo(self):
        return _build_mpo(self)


@dataclass(frozen=True)
class ModelSpec:
    """Named spin-chain model: "z1z2" | "tfim" | "heisenberg".

    z1z2:       Z_1 Z_2 embedded in n qubits (identities elsewhere).
    tfim:       sum_<ij> Z_i Z_j + g * sum_i X_i on a 1D chain.
    heisenberg: sum_<ij> (jx X_i X_j + jy Y_i Y_j + jz Z_i Z_j).

    boundary "open" gives n-1 bonds, "periodic" gives n bonds.
    """

    model: str
    n: int
    g: float = 0.0
    jx: float = 1.0
    jy: float = 1.0
    jz: float = 1.0
    boundary: str = "open"

    def __post_init__(self):
        _check_choice("model", self.model, MODELS)
        _check_choice("boundary", self.boundary, BOUNDARIES)
        # every model couples qubits 1 and 2
        object.__setattr__(self, "n", _check_count("n", self.n, 2))
        for name in ("g", "jx", "jy", "jz"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"coupling {name} must be finite")


def _string_on(n: int, placed: dict[int, str]) -> str:
    """Ops string with the given {qubit (1-based): op} placements."""
    ops = ["I"] * n
    for q, op in placed.items():
        ops[q - 1] = op
    return "".join(ops)


def _bonds(n: int, boundary: str) -> list[tuple[int, int]]:
    bonds = [(i, i + 1) for i in range(1, n)]
    if boundary == "periodic":
        bonds.append((n, 1))
    return bonds


def build_model(spec: ModelSpec) -> PauliHamiltonian:
    """Assemble the Pauli terms for a model spec (zero-coefficient terms dropped)."""
    n = spec.n
    terms: list[PauliString] = []
    if spec.model == "z1z2":
        terms.append(PauliString(1.0, _string_on(n, {1: "Z", 2: "Z"})))
    elif spec.model == "tfim":
        for i, j in _bonds(n, spec.boundary):
            terms.append(PauliString(1.0, _string_on(n, {i: "Z", j: "Z"})))
        if spec.g != 0.0:
            for i in range(1, n + 1):
                terms.append(PauliString(spec.g, _string_on(n, {i: "X"})))
    else:
        for i, j in _bonds(n, spec.boundary):
            for coeff, op in ((spec.jx, "X"), (spec.jy, "Y"), (spec.jz, "Z")):
                if coeff != 0.0:
                    terms.append(PauliString(coeff, _string_on(n, {i: op, j: op})))
    return PauliHamiltonian(num_qubits=n, terms=tuple(terms))


def apply_string(s: PauliString, b) -> tuple[tuple[int, ...], complex]:
    """Action on one basis state: returns (b', phase) with <b'|s|b> = coeff*phase."""
    bits = tuple(int(x) for x in b)
    if len(bits) != len(s.ops):
        raise ValueError(f"bit string has length {len(bits)}, expected {len(s.ops)}")
    out = list(bits)
    phase = 1 + 0j
    for i, (op, bit) in enumerate(zip(s.ops, bits)):
        if op == "Z":
            phase *= 1 - 2 * bit
        elif op == "X":
            out[i] = 1 - bit
        elif op == "Y":
            out[i] = 1 - bit
            phase *= 1j * (1 - 2 * bit)
    return tuple(out), phase


def _column_groups(h: PauliHamiltonian):
    """Terms grouped by flip mask, in order of first appearance.

    Each group is (flipped qubits, ((coeff * i^{#Y}, zy qubits), ...)), the
    qubits as ascending 0-based positions in a bit string (qubit 1 =
    column 0), zy being a term's Z and Y qubits; a term sends |b> to
    coeff * i^{#Y} * (-1)^{sum of b over zy} |b ^ flip>.  No bit string is
    packed into an integer, so any n works.
    """
    groups: dict[tuple[int, ...], list] = {}
    for t in h.terms:
        flip = tuple(q for q, op in enumerate(t.ops) if op in "XY")
        zy = np.array([q for q, op in enumerate(t.ops) if op in "ZY"], dtype=np.intp)
        groups.setdefault(flip, []).append((t.coeff * 1j ** (t.ops.count("Y") % 4), zy))
    return tuple((np.array(flip, dtype=np.intp), tuple(terms)) for flip, terms in groups.items())


def _index_bits(num_bits: int) -> np.ndarray:
    """(num_bits, 2^num_bits) uint8 bit rows of every index below 2^num_bits,
    the most significant bit first, filled one row at a time."""
    out = np.zeros((num_bits, 2**num_bits), dtype=np.uint8)
    for q in range(num_bits):
        out[q].reshape(2**q, 2, -1)[:, 1] = 1
    return out


def _bit_elements(terms, bits_t: np.ndarray) -> np.ndarray:
    """<b ^ flip|H_flip|b> for every column b of an (n, count) 0/1 array,
    terms being one group of `_column_groups`: sampled bit strings, or the
    bit rows of basis indices.

    The terms without Z or Y factors add one constant.  Every other term's
    parity is its Z/Y rows XOR-ed into one buffer, and maps to +-weight by
    a two-entry lookup.  The result is float64 when every weight in the
    group is real, complex otherwise.
    """
    real = not any(weight.imag for weight, _ in terms)
    dtype = np.float64 if real else np.complex128
    terms = [(weight.real if real else weight, zy) for weight, zy in terms]
    count = bits_t.shape[1]
    out = np.full(count, sum(weight for weight, zy in terms if zy.size == 0), dtype=dtype)
    odd = np.empty(count, dtype=np.uint8)
    term = np.empty(count, dtype=dtype)
    for weight, zy in terms:
        if zy.size == 0:
            continue
        np.copyto(odd, bits_t[zy[0]])
        for q in zy[1:]:
            np.bitwise_xor(odd, bits_t[q], out=odd)
        np.take(np.array([weight, -weight], dtype=dtype), odd, out=term, mode="clip")
        out += term
    return out


def _vector_action(h: PauliHamiltonian):
    """(diagonal, ((shape, reversal, coefficient table), ...)) for H|v>.

    The flip-0 group is summed into one vector of 2^n diagonal elements
    (0.0 when there is none).  Any other group with flip mask f acts as
    out[b] += E(b ^ f) v[b ^ f], E being its matrix elements.  With v
    reshaped so that every qubit of the group's support (its flipped, Z and
    Y qubits) is an axis of length 2, v[b ^ f] is the view of v with the
    flipped axes reversed (the reversal's slices), and E(b ^ f) depends on
    the support bits only: a 2^|support| table that broadcasts over the
    other axes.
    """
    n = h.num_qubits
    diag = 0.0
    flips = []
    for flip, terms in h._bit_groups:
        if flip.size == 0:
            diag = _bit_elements(terms, _index_bits(n))
            continue
        support = sorted(set(flip).union(*(zy for _, zy in terms)))
        shape, table_shape, reversal = [], [], []
        for q in range(n):
            if q not in support and table_shape and table_shape[-1] == 1:
                shape[-1] *= 2  # merge runs of qubits outside the support
                continue
            reversal.append(slice(None, None, -1) if q in flip else slice(None))
            shape.append(2)
            table_shape.append(2 if q in support else 1)
        # bits of b ^ flip for every assignment of the support, the first
        # support qubit most significant
        bits = np.zeros((n, 2 ** len(support)), dtype=np.uint8)
        bits[support] = _index_bits(len(support))
        bits[flip] ^= 1
        table = _bit_elements(terms, bits).reshape(table_shape)
        flips.append((tuple(shape), tuple(reversal), table))
    return diag, tuple(flips)


def _single_site(op: str) -> np.ndarray:
    """<s|op|s'> as a 2 x 2 matrix, read off `apply_string` on one qubit."""
    m = np.zeros((2, 2), dtype=np.complex128)
    for bit in (0, 1):
        (out,), phase = apply_string(PauliString(1.0, op), (bit,))
        m[out, bit] = phase
    return m


_PAULI = np.stack([_single_site(op) for op in "IXYZ"])  # I, X, Y, Z, as `_build_mpo` codes them


def _build_mpo(h: PauliHamiltonian) -> np.ndarray:
    """H as a matrix product operator: W[l, a, a', s, s'] of shape (n, D, D, 2, 2).

    Channel 0 is "not started" and channel D-1 "done", each carrying the
    identity, so a product of the W's over all levels, taken from channel 0
    to channel D-1, sums the terms.  A term acting on one qubit sits on the
    0 -> D-1 entry of its level, and an identity-only term on that entry of
    level 1.  A term acting on several qubits gets a channel c of its own
    from its first to its last qubit: 0 -> c there, c -> c (its op, or I)
    in between and c -> D-1 at the last.  Channels are shared by terms
    whose ranges cross no common bond (greedy interval colouring, lowest
    free channel first), so D = 2 + the most terms crossing one bond: 5 for
    the open Heisenberg chain, 8 with the periodic wrap bond.  All but the
    colouring runs on every term at once, from one array of op codes.
    """
    n, count, pauli = h.num_qubits, len(h.terms), _PAULI
    codes = np.frombuffer("".join(t.ops for t in h.terms).encode(), dtype=np.uint8)
    ops = np.searchsorted(np.frombuffer(b"IXYZ", dtype=np.uint8), codes).reshape(count, n)
    acts = ops > 0
    acts[:, 0] |= ~acts.any(axis=1)  # an identity-only term sits on qubit 1
    first, last = acts.argmax(axis=1), n - 1 - acts[:, ::-1].argmax(axis=1)
    order = np.argsort(first, kind="stable")  # terms in order of first qubit
    first, last, ops = first[order], last[order], ops[order]
    coeff = np.array([t.coeff for t in h.terms], dtype=np.float64)[order]
    ends: list[int] = []  # per middle channel, the last qubit of its latest term
    channels = []  # per term, 0 for a one-qubit term
    for lo, hi in zip(first.tolist(), last.tolist()):
        if lo == hi:
            channels.append(0)
            continue
        c = 0  # the lowest free channel: its latest term ends by lo
        while c < len(ends) and ends[c] > lo:
            c += 1
        ends[c:c + 1] = [hi]  # a new channel when none is free
        channels.append(c + 1)
    channel = np.array(channels, dtype=np.intp)
    d = len(ends) + 2
    w = np.zeros((n, d, d, 2, 2), dtype=np.complex128)
    w[:, 0, 0] = w[:, d - 1, d - 1] = pauli[0]
    one = channel == 0  # one-qubit terms on one qubit share its 0 -> D-1 entry
    np.add.at(w, (first[one], 0, d - 1), coeff[one, None, None] * pauli[ops[one, first[one]]])
    k = np.flatnonzero(~one)
    start, stop, c = first[k], last[k], channel[k]
    w[start, 0, c] = coeff[k, None, None] * pauli[ops[k, start]]
    inner, q = np.nonzero((start[:, None] < np.arange(n)) & (np.arange(n) < stop[:, None]))
    w[q, c[inner], c[inner]] = pauli[ops[k[inner], q]]
    w[stop, c, d - 1] = pauli[ops[k, stop]]
    return w


def _state_amplitudes(h: PauliHamiltonian, v) -> np.ndarray:
    amps = as_amplitudes(v)
    if amps.shape != (2**h.num_qubits,):
        raise ValueError(
            f"expected a state vector of shape ({2**h.num_qubits},) for "
            f"n = {h.num_qubits}, got shape {amps.shape}"
        )
    return amps


def apply_to_vector(h: PauliHamiltonian, v) -> np.ndarray:
    """H @ v, matrix-free, for a vector v of shape (2^n,).

    Runs the compiled action: the diagonal times v, plus per flip mask a
    coefficient table times v with the flipped axes reversed, so the cost
    is O(#flip masks * 2^n) and no index array is built.
    """
    amps = _state_amplitudes(h, v)
    diag, flips = h._action
    out = diag * amps
    term = np.empty_like(out)  # one buffer for all groups: fresh 2^n temporaries page-fault
    for shape, reversal, table in flips:
        np.multiply(table, amps.reshape(shape)[reversal], out=term.reshape(shape))
        out += term
    return out


def expectation(h: PauliHamiltonian, v) -> float:
    """<v|H|v> for a normalized state; the imaginary residue is checked and dropped."""
    amps = _state_amplitudes(h, v)
    return _checked_energy(np.vdot(amps, amps), np.vdot(amps, apply_to_vector(h, amps)))


def _checked_energy(norm2, value) -> float:
    """Re <v|H|v> from <v|v> and <v|H|v>, however they were computed:
    <v|v> must be 1 and <v|H|v> real, each to 1e-10, and both finite."""
    norm2 = float(norm2.real)
    if not abs(norm2 - 1.0) <= 1e-10:  # NaN fails every comparison
        raise ValueError(f"state not normalized: sum |amp|^2 = {norm2!r}")
    value = complex(value)
    if not cmath.isfinite(value):
        raise ValueError(f"expectation is not finite: {value!r}")
    if abs(value.imag) > 1e-10:
        raise ValueError(f"expectation has a non-real residue: {value!r}")
    return value.real


def dense_matrix(h: PauliHamiltonian) -> np.ndarray:
    """Materialize the 2^n x 2^n matrix (small n only; oracle/cross-check use)."""
    n = h.num_qubits
    if n > DENSE_CAP:
        raise CapacityError(f"dense matrix is capped at n = {DENSE_CAP}, got n = {n}")
    dim = 2**n
    idx = np.arange(dim, dtype=np.int64)
    bits = _index_bits(n)
    m = np.zeros((dim, dim), dtype=np.complex128)
    for flip, terms in h._bit_groups:
        mask = sum(1 << (n - 1 - int(q)) for q in flip)  # qubit 1 = MSB of the index
        m[idx ^ mask, idx] = _bit_elements(terms, bits)
    return m


# Krylov budget of the n = 10..12 ground solve.  The chains, fields and
# couplings tried converge in 2 to 75 steps; a solve that has not converged
# by the budget fails the residual check and goes to the dense fallback.
_KRYLOV_STEPS = 300


def _lanczos(h: PauliHamiltonian, start: np.ndarray) -> tuple[float, np.ndarray]:
    """Lowest Ritz pair of H on the Krylov space of a unit `start` vector.

    Each step applies H to the newest basis vector, takes off its two
    neighbours (the three-term recurrence) and then its projection on each
    basis vector in turn (full reorthogonalization), repeated once when that
    pass cancels more than 1 - 1/sqrt(2) of the norm.  The iteration stops
    when the Ritz residual |beta_k s_k| (s_k the last entry of the lowest
    eigenvector of the tridiagonal T_k) is at most 1e-10, which includes a
    breakdown, beta = 0, where the basis spans an invariant subspace; or
    else after _KRYLOV_STEPS steps.

    The basis is a list of 2^n-long vectors rather than one array sized for
    the budget: glibc raises its mmap threshold to the size of a freed
    mmap-ed block, so freeing a (steps, 2^n) array (4.9 MB at n = 10) would
    move every later allocation below that size onto the heap for the rest
    of the process, and with it the cost of the caller's large temporaries.
    """
    basis = [start]
    alpha: list[float] = []
    beta: list[float] = []
    while True:
        q = basis[-1]
        w = apply_to_vector(h, q)
        if beta:
            w -= beta[-1] * basis[-2]
        alpha.append(np.vdot(q, w).real)
        w -= alpha[-1] * q
        for _ in range(2):
            before = np.linalg.norm(w)
            for v in basis:
                w -= np.vdot(v, w) * v
            norm = np.linalg.norm(w)
            if norm > before / math.sqrt(2):
                break
        t = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
        vals, vecs = np.linalg.eigh(t)
        if norm * abs(vecs[-1, 0]) <= 1e-10 or len(alpha) == _KRYLOV_STEPS:
            ritz = np.zeros(start.size, dtype=np.complex128)
            for s, v in zip(vecs[:, 0], basis):
                ritz += s * v
            return float(vals[0]), ritz
        beta.append(norm)
        basis.append(w / norm)


def ground_energy(h: PauliHamiltonian) -> tuple[float, StateVector]:
    """Smallest eigenvalue and a unit ground vector, residual <= 1e-8.

    Up to n = 9, a dense Hermitian eigensolve.  For n = 10..12, a Lanczos
    iteration with full reorthogonalization over the matrix-free H action
    (`_lanczos`), from the fixed start vector 1 + 0.1 cos(index), so two
    calls give bit-identical results.  It stops once the Ritz residual
    estimate is at most 1e-10 (or the basis spans an invariant subspace)
    or after a budget of _KRYLOV_STEPS steps, and returns the Ritz vector.
    If that vector's residual ||H v - E v|| exceeds 1e-8, the dense
    eigensolve is used instead.  Beyond n = 12 raises CapacityError: use
    the sampling (VMC) engine at that scale.
    """
    n = h.num_qubits
    if n > DENSE_CAP:
        raise CapacityError(
            f"exact diagonalization is capped at n = {DENSE_CAP} (got n = {n}); "
            "use the VMC engine for larger systems"
        )

    def _dense() -> tuple[float, np.ndarray]:
        vals, vecs = np.linalg.eigh(dense_matrix(h))
        return float(vals[0]), vecs[:, 0]

    if n <= 9:
        e0, v0 = _dense()
    else:
        start = 1.0 + 0.1 * np.cos(np.arange(2**n))
        e0, v0 = _lanczos(h, start / np.linalg.norm(start))
        if np.linalg.norm(apply_to_vector(h, v0) - e0 * v0) > 1e-8:
            e0, v0 = _dense()

    v0 = v0 / np.linalg.norm(v0)
    residual = float(np.linalg.norm(apply_to_vector(h, v0) - e0 * v0))
    if residual > 1e-8:
        raise RuntimeError(f"eigensolver residual {residual} exceeds 1e-8")
    return e0, StateVector(num_qubits=n, amps=v0)


def tfim_ground_energy(spec: ModelSpec) -> float:
    """Ground energy of the open transverse-field Ising chain, any n, in O(n^3).

    The Jordan-Wigner transformation makes sum Z_i Z_{i+1} + g sum X_i a
    quadratic form (i/4) sum M_ab c_a c_b in 2n Majorana operators c_a
    (Pfeuty, Ann. Phys. 57, 79, 1970): the field couples the two Majoranas
    of a site and each bond the second Majorana of a site to the first of
    the next, both with weight 2 (times g for the field).  The eigenvalues of
    the Hermitian 2n x 2n BdG matrix iM come in pairs +-e_k, and
    E0 = -(1/2) sum_k e_k.  Signs of the couplings do not change the spectrum.
    """
    if spec.model != "tfim" or spec.boundary != "open":
        raise ValueError(f"free fermions give E0 of the open tfim chain only, got {spec}")
    m = np.zeros((2 * spec.n, 2 * spec.n))
    k = np.arange(2 * spec.n - 1)
    m[k, k + 1] = np.where(k % 2 == 0, 2.0 * spec.g, 2.0)
    m -= m.T
    return -0.25 * float(np.abs(np.linalg.eigvalsh(1j * m)).sum())


def xx_ground_energy(spec: ModelSpec) -> float:
    """Ground energy of the open XX chain, J sum (X_i X_{i+1} + Y_i Y_{i+1}), any n.

    The Jordan-Wigner transformation makes it free fermions hopping with
    amplitude 2J along the chain (Lieb, Schultz and Mattis, Ann. Phys. 16,
    407, 1961), whose modes have energies 4J cos(k pi / (n + 1)), k = 1..n;
    the ground state fills every negative one.  The mode energies come in
    pairs +-e, so the sign of J does not matter:
    E0 = |J| sum_k min(0, 4 cos(k pi / (n + 1))).
    """
    if (spec.model != "heisenberg" or spec.boundary != "open"
            or spec.jx != spec.jy or spec.jz != 0.0):
        raise ValueError(f"free fermions give E0 of the open XX chain only, got {spec}")
    modes = 4.0 * np.cos(np.arange(1, spec.n + 1) * math.pi / (spec.n + 1))
    return abs(spec.jx) * float(np.minimum(modes, 0.0).sum())
