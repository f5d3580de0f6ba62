"""Stochastic (VMC) engine: exact autoregressive sampling and estimators.

Sampling walks the diagram root-to-leaves, emitting bit 0 with probability
r^2 at each visited node, so draws come from |psi(b)|^2 exactly — i.i.d.,
no Markov chain, no burn-in.  At a level that holds one node every sample
compares its uniform against that node's r^2; elsewhere each sample reads
its node's r^2 and its next edge through the edge it took one level up,
from a per-draw table of each edge's child's r^2 and the topology's child
edges (`_LevelTables.child_edge`), so no node is stored.

Per-sample quantities:

* local value     A~(b) = sum_f <b|H_f|b xor f> * psi(b xor f) / psi(b)
                  over the Hamiltonian's flip masks f, H_f being the sum
                  of its terms with flip mask f (one connected
                  configuration per flip mask).  The ratio is a product of
                  edge ratios over the diverging segment only: from f's
                  first flipped level to the topology's rejoin level, the
                  first single-node level past f's last one, where every
                  path meets b's (`_LevelTables.rejoin`).  A segment ends
                  at most one level past f's last on the accordion and
                  product layouts, and at the last level on the universal
                  one.  f's term depends on b only through b's path over
                  the segment, which b's edges at the segment's merge
                  levels and its last one fix, so a short segment is
                  tabulated over those keys once per draw and each sample
                  reads its term by the key its recorded edges make
                  (`_Segments`); a segment with more keys times levels
                  than the batch has samples (a long one on a wide
                  layout), or one with Z or Y qubits of f's terms outside
                  it, is walked on the edges the sampler recorded
                  instead.  A diagonal term whose Z qubits lie in a
                  tabulated segment is read from that segment's table too;
                  only the others are evaluated per sample.  No bit string
                  is packed into an integer, so any n works.
* log-derivative  O_j(b) = d log psi(b) / d theta_j, nonzero only for the
                  n nodes on b's path:
                      left edge:  O_r = 1/r,            O_omega = i
                      right edge: O_r = -r/(1 - r^2),   O_phi   = i
                  ("trig" mode differentiates w.r.t. the signed, unfolded u
                  of r = cos u, giving -tan u on left edges and cot u on
                  right edges)

and the stochastic gradient 2 Re E[conj(O_j) (A~ - E[A~])] with in-batch
centering.  Since conj(O_j) is mag on a taken edge's magnitude slot and
-i on its phase slot, the gradient (`_batch_gradient`) is a scatter of the
centered local values onto the edges the samples took, Re for the
magnitudes (times mag) and Im for the phases, and its leave-one-out
jackknife (`vmc_gradient_stderr`) a quadratic form in a few more such
scatters.  Neither forms O: a `VmcBatch` keeps the edges the samples
took and the chart's edge factors.  Only the levels where paths merge are
scattered from the samples, one complex `np.add.at` per level straight
from its row of the recorded edges; an edge whose child no other edge
enters sums the child's two edges (`_LevelTables.merge_levels` and
`fills`).

A `VmcBatch` is allocated once from the compiled topology and a sample
count: the batch's level-major arrays and the kernels' scratch, with no
per-sample node rows and no copy of the merge levels' edges.
One private kernel (`_draw`) draws into it at a parameter array θ (see
vdd.exact): the chart's edge factors, the Born draws, the local values
and their energy statistics.  The local-value tables are compiled on the
topology, once per operator and batch size (`_LevelTables.compiled`), as
the exact engine's contraction is.  Training allocates one batch per run
and draws every epoch into it, without rebuilding a graph, recompiling
the tables or allocating a batch-sized array; `sample` and `sample_batch`
take a `VddGraph`, compile it and allocate a batch per call, so their
results own their arrays.

The kernels are tested against per-bit-string references that walk the
graph itself, the local value and the log-derivatives of one string, and
against the dense gradient statistics stacked from them; those live with
the tests, in tests/vmc_reference.py.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from .exact import GradientVector, _chart, _check_graph_and_operator, _check_mode, _flatten
from .exact import _LevelTables
from .graph import VddGraph
from .hamiltonian import PauliHamiltonian, _bit_elements
from .state import _check_count, _write_csv

__all__ = [
    "VmcBatch",
    "sample",
    "sample_batch",
    "vmc_gradient",
    "vmc_gradient_stderr",
    "batch_to_csv",
]


class VmcBatch:
    """One batch of `count` Born draws on a compiled topology `topo`, and
    every array it is drawn into (`_draw`).

    Level-major (n, count): the uniforms, the bits and edge, the edges the
    samples take (2 * node row + bit, which also indexes
    `_LevelTables.child_edge`), which the gradient scatters from at the
    levels where paths merge (`_LevelTables.merge_levels`) with no copy.
    Per sample: local_values and the scratch of the sampler (p_zero), of
    the flip-group walks (ratio, step, flipped_edge) and of the table keys
    (key).  A draw also sets edges, the chart's (edge, slope) tables (see
    vdd.exact) in mode ("raw" or "trig"), and energy_mean and
    energy_stderr.

    samples is the (count, n) 0/1 array (row = bit string, qubit 1 first),
    a view of the bits, and rows the (count, n) node rows its paths visit,
    level 1 first, in the row order of GradientVector, read off edge;
    node_ids labels those rows.  The gradient and its jackknife are
    scatters of the local values onto the taken edges, so no per-sample
    log-derivative is stored.

    `train` allocates one per run and every epoch's draw overwrites it;
    `sample` and `sample_batch` allocate one per call, so the batch they
    return owns its arrays.  The arrays are views of one block.  Freed at
    the end of a run, a block that size raises glibc's mmap threshold
    above it, so the next run's block comes from heap pages that are
    already mapped instead of being faulted in again page by page: 1 minor
    fault per 40-epoch train-vmc run, against about 390 with the arrays
    allocated one by one.
    """

    def __init__(self, topo: _LevelTables, count: int):
        count = _check_count("count", count, 1)
        n = topo.num_qubits
        layout = (  # widest items first, so that every view is aligned
            ("local_values", (count,), np.complex128),
            ("ratio", (count,), np.complex128),
            ("step", (count,), np.complex128),
            ("uniform", (n, count), np.float64),
            ("edge", (n, count), np.int64),
            ("p_zero", (count,), np.float64),
            ("flipped_edge", (count,), np.int64),
            ("key", (count,), np.int64),
            ("bits", (n, count), np.uint8),
        )
        sizes = [np.dtype(dtype).itemsize * math.prod(shape) for _, shape, dtype in layout]
        block = np.empty(sum(sizes), dtype=np.uint8)
        offset = 0
        for (name, shape, dtype), size in zip(layout, sizes):
            setattr(self, name, block[offset:offset + size].view(dtype).reshape(shape))
            offset += size
        self.topo = topo
        self.mode = self.edges = None
        self.energy_mean = self.energy_stderr = math.nan

    @property
    def samples(self) -> np.ndarray:
        return self.bits.T

    @property
    def rows(self) -> np.ndarray:
        return (self.edge >> 1).T

    @property
    def node_ids(self) -> tuple[int, ...]:
        return self.topo.node_ids

    @property
    def batch_size(self) -> int:
        return int(self.local_values.size)


def _energy_stats(local_values: np.ndarray) -> tuple[float, float]:
    """(mean, standard error) of Re A~: one sum, then one pass of deviations."""
    re = np.real(local_values)
    count = re.shape[0]
    mean = float(re.sum()) / count
    if count < 2:
        return mean, 0.0
    deviation = re - mean
    return mean, math.sqrt(float(deviation @ deviation) / (count - 1) / count)


def _sample(batch: VmcBatch, rng) -> None:
    """Level-major Born draws into `batch` from the chart's edge factors
    batch.edges[0] (N, 2): one uniform per (sample, level), all drawn at
    once in level-major order, consumed level by level.

    Fills the bits and the edges they take, from which the batch kernels
    read the paths.  A sample's node is never stored: per draw, each edge
    gets the p_zero of its child, so at a level with several nodes a sample
    reads its p_zero through the edge it took one level up, and its edge is
    that edge's `_LevelTables.child_edge` plus its bit.  At a level with a
    lone node (`_LevelTables.lone`, level 1's root among them) every sample
    is on it, so its p_zero is read as one scalar.  The per-edge tables
    hold placeholders past the last level, which no draw reads; the kernels
    gather with mode="clip" because `take` buffers `out` in its default
    mode.
    """
    topo = batch.topo
    n, lone = topo.num_qubits, topo.lone.tolist()
    p_zero = np.abs(batch.edges[0][:, 0]) ** 2
    child_p_zero = p_zero.take(topo.child, mode="clip").ravel()  # per edge
    rng.random(out=batch.uniform)
    edge, bits = batch.edge, batch.bits
    for level in range(n):
        row = lone[level]
        if row < 0:  # level > 0: the root's level is lone
            child_p_zero.take(edge[level - 1], out=batch.p_zero, mode="clip")
            np.greater_equal(batch.uniform[level], batch.p_zero, out=bits[level])
            topo.child_edge.take(edge[level - 1], out=edge[level], mode="clip")
            edge[level] += bits[level]
        else:  # every sample is on one node
            np.greater_equal(batch.uniform[level], p_zero[row], out=bits[level])
            np.add(bits[level], 2 * row, out=edge[level], dtype=np.int64)


def sample(g: VddGraph, count: int, seed: int = 0) -> np.ndarray:
    """(count, n) array of i.i.d. Born-distribution bit strings.

    Level-major: one uniform draw per (sample, level), consumed level by
    level, so results are reproducible for a given seed.
    """
    batch = VmcBatch(_LevelTables(g), count)
    batch.edges = _chart(_flatten(g, "raw"), "raw")
    _sample(batch, np.random.default_rng(_check_count("seed", seed, 0)))
    return batch.samples.copy()  # a view would keep the whole batch alive


def _tabulates(keys: int, length: int, count: int) -> bool:
    """Whether a flip group's local values are cheaper read from a table
    than walked: the table gathers `length` edges for each of its `keys`
    per draw, the walk `length` edges for each of `count` samples."""
    return keys * length <= count


def _elements(terms, bits_t: np.ndarray) -> np.ndarray:
    """<b|H_f|b ^ f> for every column b of an (n, count) 0/1 array, terms
    being one group of `h._bit_groups`: conj(<b ^ f|H_f|b>), H being
    Hermitian, from `_bit_elements`."""
    elements = _bit_elements(terms, bits_t)
    if elements.dtype == np.complex128:
        np.conj(elements, out=elements)
    return elements


class _Segments:
    """Compiled local-value tables of a topology and an operator for a
    batch of `count` samples.

    A flip group's term psi(b ^ f) / psi(b) * <b|H_f|b ^ f> depends on b
    only through b's path over the group's segment [first, rejoin[last +
    1]), the L levels `_batch_local_values` walks, which b's node at level
    first and its L bits fix.  So it has W 2^L keys, W being the node count
    of level first (`_LevelTables.counts`), and every key fixes the edges of
    both paths over the segment: b ^ f's takes f's bits flipped.  A group
    for which `_tabulates` holds and whose terms have every Z and Y qubit
    in the segment, so that its matrix elements too are fixed by the key,
    gets columns [start, stop), one per key, of the (depth, columns) edge
    arrays bra (b's path) and ket (b ^ f's), shorter segments padded with
    the edge 2N, whose factor is 1, and of elements, its matrix elements,
    which `_elements` evaluates on the bits of each key's b.  The columns
    of all groups are compiled together, one level at a time.

    A sample's key is read off its recorded edges.  Above a level not in
    `_LevelTables.merge_levels` every node has one parent edge, so b's
    edges at the segment's merge levels and its last level fix its path:
    key = sum of (edge - the level's lowest edge) * stride, the stride 1 at
    the last level and the product of the edge spans below elsewhere.
    Where the spans multiply to W 2^L, as on every builder, the key is
    one-to-one, the group's columns are in key order and terms holds its
    (level, stride) pairs; otherwise terms is None and the key is b's
    node's slot times 2^L plus its L bits, the first level's most
    significant (first_key maps an edge 2 * row + bit to 2 * slot + bit).
    base folds the group's lowest key into where it indexes a draw's table
    of `size` entries, columns last.

    A diagonal term is fixed by the key too when its Z qubits all lie in a
    tabulated group's segment: the first such group's columns of diagonal
    hold it, a per-key value added to the group's table after the ratio
    times the elements.  A term without Z qubits lies in every segment.
    leftover holds the diagonal terms no segment covers, which
    `_bit_elements` evaluates per sample: the wrap bond of a periodic
    chain, a TFIM bond that straddles two segments, or all of them when no
    group is tabulated.

    groups holds, per group of `h._bit_groups`, None (diagonal or walked)
    or (first, end, start, stop, base, terms).
    """

    def __init__(self, topo: _LevelTables, h: PauliHamiltonian, count: int):
        pad = topo.child.size
        self.first_key = (2 * topo.slot[:, None] + np.arange(2)).ravel()

        def inside(zy, first, end):
            return all(first <= q < end for q in zy.tolist())

        groups = []
        tabulated = []  # per tabulated group: first, L, keys, f's bits in the key
        diagonal, columns = (), 0
        for flip, terms in h._bit_groups:
            if not flip.size:
                diagonal = terms
                groups.append(None)
                continue
            first, end = int(flip[0]), topo.rejoin[flip[-1] + 1]
            keys = int(topo.counts[first]) << (end - first)
            # a group whose Z or Y qubits leave its segment is walked
            if not (_tabulates(keys, end - first, count)
                    and all(inside(zy, first, end) for _, zy in terms)):
                groups.append(None)
                continue
            groups.append((first, end, columns, columns + keys))
            columns += keys
            tabulated.append((first, end - first, keys,
                              sum(1 << (end - 1 - q) for q in flip.tolist())))
        folded, leftover = {}, []  # per tabulated group its diagonal terms; the rest
        for weight, zy in diagonal:
            group = next((g for g in groups if g and inside(zy, g[0], g[1])), None)
            if group is None:
                leftover.append((weight, zy))
            else:
                folded.setdefault(group, []).append((weight, zy))
        self.leftover = tuple(leftover)

        # per column: its group's first level, L and flip bits, and its key
        first, length, keys, flip = np.array(tabulated, dtype=np.int64).reshape(-1, 4).T
        key = np.arange(columns) - np.repeat(np.cumsum(keys) - keys, keys)
        first, length, flip = (np.repeat(a, keys) for a in (first, length, flip))
        child = topo.child.ravel()
        depth = int(length.max(initial=0))

        def path(key):
            """(depth, columns) edges taken by the keys' bits from their slot."""
            edges = np.full((depth, columns), pad, dtype=np.int64)
            row = topo.row_of[first, key >> length]
            for j in range(depth):
                edge = 2 * row + ((key >> np.maximum(length - 1 - j, 0)) & 1)
                edges[j, j < length] = edge[j < length]
                row = child.take(edge, mode="clip")  # past a segment's end: unread
            return edges

        bra, ket = path(key), path(key ^ flip)
        # each column's b: the bits of its bra edges, in the rows of their levels
        bits = np.zeros((topo.num_qubits, columns), dtype=np.uint8)
        j, column = np.nonzero(np.arange(depth)[:, None] < length)
        bits[first[column] + j, column] = bra[j, column] & 1
        elements = np.zeros(columns, dtype=np.complex128)
        diagonal = np.zeros(columns, dtype=np.complex128)
        for (_, terms), group in zip(h._bit_groups, groups):
            if group is not None:
                at = slice(*group[2:])
                elements[at] = _elements(terms, bits[:, at])
                if group in folded:
                    diagonal[at] = _elements(folded[group], bits[:, at])

        # each group's edge key, where it is one-to-one: its columns in key order
        rows = [topo.row_of[level, :width] for level, width in enumerate(topo.counts)]
        low = np.array([2 * r.min() for r in rows])  # per level its lowest edge and span
        span = np.array([2 * (r.max() - r.min() + 1) for r in rows])
        merge = set(topo.merge_levels.tolist())
        order = np.arange(columns)
        for index, group in enumerate(groups):
            if group is None:
                continue
            first, end, start, stop = group
            levels = [level for level in range(first, end - 1) if level in merge] + [end - 1]
            stride = np.cumprod(np.append(1, span[levels[:0:-1]]))[::-1]
            terms, lowest = None, 0
            if span[levels].prod() == stop - start:
                terms, lowest = tuple(zip(levels, stride.tolist())), int(low[levels] @ stride)
                edge = bra[np.subtract(levels, first), start:stop]
                order[start - lowest + stride @ edge] = np.arange(start, stop)
            groups[index] = group + (start - lowest, terms)
        front = -min([0] + [g[4] for g in groups if g])  # so that every base is >= 0
        self.size = front + columns
        self.groups = [None if g is None else (*g[:4], g[4] + front, g[5]) for g in groups]
        # take keeps C order: through an F-ordered gather the per-draw
        # products over levels would round differently
        self.bra, self.ket = bra.take(order, axis=1), ket.take(order, axis=1)
        self.elements, self.diagonal = elements[order], diagonal[order]


def _batch_local_values(batch: VmcBatch, h: PauliHamiltonian) -> np.ndarray:
    """A~(b) for every sample drawn into `batch`, from the edges its path takes.

    psi(b ^ f) / psi(b) is a product of edge ratios over the levels where
    the two paths differ: they share every node above f's first flipped
    level, and once past f's last one they meet at the topology's next
    single-node level (`_LevelTables.rejoin`), below which the edges are
    b's own.  So a flip group's ratio is a product over its segment, from
    its first flipped level to that rejoin level, or to the last level.

    Short segments are tabulated (`_Segments`, compiled on the topology): one
    gather-and-product over the compiled edge arrays gives every tabulated
    group's value per key, the diagonal terms its segment covers included,
    and each sample then reads its group values by key, one gather per
    group, the key costing one multiply-add per recorded edge past the
    first (see `_Segments`).  A group
    whose key count times its length exceeds the batch size
    (`_tabulates`), such as a long segment on a wide layout, or whose Z or
    Y qubits leave its segment, walks its segment instead: the chart's edge
    factors, batch.edges[0], by edge index, and b's through a table of
    their inverses.  Paths that meet earlier only multiply in matching
    factors.  The diagonal terms no tabulated segment covers are evaluated
    per sample.  Returns `batch.local_values`.
    """
    topo = batch.topo
    segments = topo.compiled(h, _Segments, batch.batch_size)
    factor = batch.edges[0].ravel()  # per edge 2 * node row + bit
    # an edge of factor 0 has an infinite inverse; the keys whose b path
    # takes one are never read
    table = np.empty(segments.size, dtype=np.complex128)
    columns = table[table.size - segments.elements.size:]
    with np.errstate(divide="ignore", invalid="ignore"):
        inverse = 1.0 / factor
        np.prod(np.append(factor, 1.0)[segments.ket], axis=0, out=columns)
        columns *= np.append(inverse, 1.0)[segments.bra].prod(axis=0)
        columns *= segments.elements
        columns += segments.diagonal
    bits, edge = batch.bits, batch.edge
    # only an edge of factor 0 has a non-finite inverse: gather b's only then
    if not np.all(np.isfinite(inverse)) and not np.all(np.isfinite(inverse[edge])):
        raise ValueError("local estimator undefined where psi(b) = 0")
    local, ratio, step = batch.local_values, batch.ratio, batch.step
    flipped_edge, key = batch.flipped_edge, batch.key
    local.fill(0.0)
    for (flip, terms), segment in zip(h._bit_groups, segments.groups):
        if segment is not None:
            first, end, _, _, base, key_terms = segment
            at = key
            if key_terms is None:  # b's slot at level first, then its bits
                segments.first_key.take(edge[first], out=key, mode="clip")
                for level in range(first + 1, end):
                    np.left_shift(key, 1, out=key)
                    key += bits[level]
            elif len(key_terms) == 1:  # of stride 1: the edge itself
                at = edge[key_terms[0][0]]
            else:
                (level, stride), *middle, (last, _) = key_terms
                np.multiply(edge[level], stride, out=key)
                for level, stride in middle:
                    np.multiply(edge[level], stride, out=flipped_edge)
                    key += flipped_edge
                key += edge[last]
            table[base:].take(at, out=ratio, mode="clip")
            local += ratio
            continue
        if flip.size == 0:
            terms = segments.leftover
            if not terms:
                continue
        elements = _elements(terms, bits)
        if flip.size == 0:
            local += elements
            continue
        first = int(flip[0])
        # b ^ flip's path sits on b's node at the first flipped level
        np.bitwise_xor(edge[first], 1, out=flipped_edge)
        factor.take(flipped_edge, out=ratio, mode="clip")
        inverse.take(edge[first], out=step, mode="clip")
        ratio *= step
        flipped = set(flip.tolist())
        for level in range(first + 1, topo.rejoin[flip[-1] + 1]):
            topo.child_edge.take(flipped_edge, out=key, mode="clip")
            np.add(key, bits[level], out=flipped_edge)
            if level in flipped:
                np.bitwise_xor(flipped_edge, 1, out=flipped_edge)
            factor.take(flipped_edge, out=step, mode="clip")
            ratio *= step
            inverse.take(edge[level], out=step, mode="clip")
            ratio *= step
        ratio *= elements
        local += ratio
    return local


def _filled(topo: _LevelTables, sums: np.ndarray) -> np.ndarray:
    """`sums`, per edge 2 * node row + bit, with the edges of the levels
    that are not scattered set to the sum of their child's two edges,
    stage by stage up from a scattered level (`_LevelTables.fills`)."""
    for dst, left, right in topo.fills:
        sums[dst] = sums[left] + sums[right]
    return sums


def _edge_sums(batch: VmcBatch, centered: np.ndarray) -> np.ndarray:
    """Per edge 2 * node row + bit, the sum of c = `centered` over the
    samples that take it: complex, shape (2N,), Re c's sum in the real part
    and Im c's in the imaginary one.

    One complex `np.add.at` of c per level the topology scatters
    (`_LevelTables.merge_levels`), indexed by that level's row of edge, so
    no edge is copied and no weight written; the other levels' sums are
    filled in from the level below (`_filled`).  An edge belongs to one
    level, so each edge adds its samples in sample order, as one scatter
    over all levels would.  Index and values are 1-D of one shape: numpy
    2.4.6 crashes in `ufunc.at` when it broadcasts them.
    """
    sums = np.zeros(batch.edges[0].size, dtype=np.complex128)
    for level in batch.topo.merge_levels.tolist():
        np.add.at(sums, batch.edge[level], centered)
    return _filled(batch.topo, sums)


def _magnitudes(batch: VmcBatch) -> np.ndarray:
    """Re(d edge / edge) per edge 2 * node row + bit, O's magnitude slot,
    and 0 where the edge factor is exactly 0 (the right edge at r = 1),
    which no Born draw takes: elsewhere it is finite, so an untaken edge's
    zero sums need no count to stay 0."""
    factor, slope = (table.ravel() for table in batch.edges)
    mag = np.divide(slope, factor, out=np.zeros_like(factor), where=factor != 0).real
    if not np.all(np.isfinite(mag)):
        raise ValueError("log-derivatives hit a zero-amplitude edge")
    return mag


def _taken_edges(batch: VmcBatch, centered: np.ndarray):
    """(counts, sums, mag): per edge the count of samples that take it
    (float, one bincount per scattered level, filled as the sums are),
    `_edge_sums` of `centered` and `_magnitudes`."""
    size = batch.edges[0].size
    counts = np.zeros(size)
    for level in batch.topo.merge_levels.tolist():
        counts += np.bincount(batch.edge[level], minlength=size)
    return _filled(batch.topo, counts), _edge_sums(batch, centered), _magnitudes(batch)


def _batch_gradient(batch: VmcBatch) -> np.ndarray:
    """2 Re mean(conj(O_j) (A~ - mean A~)) from the edges the paths take.

    With c = A~ - mean A~, each entry sums mag * Re c (magnitude slot) or
    Im c (omega or phi slot) over the samples that take its node's edges:
    the edge sums of `_edge_sums`, which scatters c only at the levels where
    paths merge.
    """
    local = batch.local_values
    sums, mag = _edge_sums(batch, local - np.mean(local)), _magnitudes(batch)
    grad = np.empty((mag.size // 2, 3))
    grad[:, 0] = (mag * sums.real).reshape(-1, 2).sum(axis=1)
    grad[:, 1:] = sums.imag.reshape(-1, 2)  # omega on the left edge, phi on the right
    return grad.ravel() * (2.0 / batch.batch_size)


def sample_batch(
    g: VddGraph,
    h: PauliHamiltonian,
    count: int,
    seed: int = 0,
    mode: str = "raw",
) -> VmcBatch:
    """Draw a batch and evaluate its local values and energy statistics."""
    _check_mode(mode)
    _check_graph_and_operator(g, h)
    rng = np.random.default_rng(_check_count("seed", seed, 0))
    return _draw(VmcBatch(_LevelTables(g), count), h, _flatten(g, mode), mode, rng)


def _draw(batch: VmcBatch, h: PauliHamiltonian, theta: np.ndarray, mode: str,
          rng) -> VmcBatch:
    """Born draws at θ (shape (N, 3), in mode) into `batch`, with their
    local values and energy statistics; returns `batch`."""
    batch.mode, batch.edges = mode, _chart(theta, mode)
    _sample(batch, rng)
    batch.energy_mean, batch.energy_stderr = _energy_stats(_batch_local_values(batch, h))
    return batch


def vmc_gradient(batch: VmcBatch) -> GradientVector:
    """2 Re mean(conj(O_j) (A~ - batch mean A~)) per parameter."""
    if batch.batch_size < 2:
        raise ValueError(f"gradient needs at least 2 samples, got {batch.batch_size}")
    return GradientVector(entries=_batch_gradient(batch), node_ids=batch.node_ids)


def vmc_gradient_stderr(batch: VmcBatch) -> np.ndarray:
    """Leave-one-out jackknife standard error of every gradient entry.

    With c = A~ - mean A~, m = B - 1 and k = conj(O_j) on each edge (mag on
    the magnitude slot, -i on the edge's omega or phi slot), replicate i of
    entry j minus the replicates' mean is (2 / m^2) (Re[w c_i] + K_j).  Here
    K_j = B g_j / 2, g being the gradient, and w = S_j - B k_e if sample i
    takes edge e of j's node, w = S_j if its path misses the node, S_j
    being the sum of k over the edges the samples take.  So the sum of
    squares adds up, over three groups of samples per node (its two edges
    and the rest), quadratic forms in each group's size, mean of c and
    second moments of c about that mean: bincounts over the taken edges,
    and no (B, 3N) array.  Moments about each edge's own mean keep a term
    that vanishes (c constant on an edge) from becoming a difference of
    large sums.
    """
    count, n = batch.samples.shape
    if count < 2:
        raise ValueError(f"jackknife needs at least 2 samples, got {count}")
    c = batch.local_values - np.mean(batch.local_values)
    counts, sums, mag = _taken_edges(batch, c)
    x, y = c.real, c.imag
    edge = batch.edge.ravel()
    dx, dy = np.tile(x, n), np.tile(y, n)  # level-major, as the edges
    mean = [s / np.maximum(counts, 1) for s in (sums.real, sums.imag)]
    dx -= mean[0][edge]
    dy -= mean[1][edge]
    moments = [np.bincount(edge, a * b, mag.size) for a, b in ((dx, dx), (dy, dy), (dx, dy))]
    # size, mean (x, y) and centered moments (xx, yy, xy) per node row and edge
    on_edge = np.stack([counts, *mean, *moments]).reshape(6, -1, 2)
    # the samples that miss each node: the batch's raw sums minus the node's
    size, mx, my, mxx, myy, mxy = on_edge
    node_sums = np.stack([size, size * mx, size * my, mxx + size * mx**2, myy + size * my**2,
                          mxy + size * mx * my]).sum(axis=2)
    batch_sums = np.array([count, x.sum(), y.sum(), x @ x, y @ y, x @ y])
    n_miss, sx, sy, sxx, syy, sxy = batch_sums[:, None] - node_sums
    per = 1.0 / np.maximum(n_miss, 1.0)
    missed = np.where(n_miss > 0, (n_miss, sx * per, sy * per, sxx - sx * sx * per,
                                   syy - sy * sy * per, sxy - sx * sy * per), 0.0)
    # per (node row, group: left edge, right edge, missed, slot)
    size, mean_x, mean_y, m_xx, m_yy, m_xy = np.concatenate(
        [on_edge, missed[:, :, None]], axis=2)[..., None]
    k_re = np.zeros((mag.size // 2, 3, 3))
    k_im = np.zeros_like(k_re)
    k_re[:, :2, 0] = mag.reshape(-1, 2)
    k_im[:, 0, 1] = k_im[:, 1, 2] = -1.0
    k_sum = (size * (k_re * mean_x - k_im * mean_y)).sum(axis=1, keepdims=True)
    w_re = (k_re * size).sum(axis=1, keepdims=True) - count * k_re
    w_im = (k_im * size).sum(axis=1, keepdims=True) - count * k_im
    total = (w_re**2 * m_xx - 2.0 * w_re * w_im * m_xy + w_im**2 * m_yy
             + size * (w_re * mean_x - w_im * mean_y + k_sum) ** 2).sum(axis=1)
    m = count - 1
    return (2.0 / m**2) * np.sqrt((m / count) * np.maximum(total, 0.0)).ravel()


def batch_to_csv(batch: VmcBatch, path) -> None:
    """Write `sample_index, bitstring, local_value_re, local_value_im` rows."""
    _write_samples(path, batch.samples, batch.local_values)


def _write_samples(path, samples: np.ndarray, local_values: np.ndarray | None = None) -> None:
    """The samples.csv rows of a (count, n) bit array; without local values
    their two cells are left empty."""
    cells = repeat((None, None)) if local_values is None else zip(
        local_values.real.tolist(), local_values.imag.tolist())
    _write_csv(path, ["sample_index", "bitstring", "local_value_re", "local_value_im"],
               ((i, "".join(str(int(x)) for x in bits), *values)
                for i, (bits, values) in enumerate(zip(samples, cells))))
