"""Dense reference for the VMC gradient statistics.

Stacks the per-string `log_derivatives` of a batch's samples into the
(batch, 3N) matrix O and applies the textbook formulas to it: the gradient
2 Re mean(conj(O) (A~ - mean A~)) and its leave-one-out jackknife, each
replicate dropping one sample from the three batch sums the estimator
reads.  The package computes both as scatters onto the sampled edges.
"""

import numpy as np

from vdd.vmc import log_derivatives


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
