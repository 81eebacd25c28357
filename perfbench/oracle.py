"""Independent correctness oracles, applied outside every timed region.

The reference is ``scipy.sparse.csgraph.connected_components`` run on
the same edge arrays the program was given (or, for served graph
versions, on the benchmark's own copy of the edge list plus the
batches it sent).  A label array passes when

* every edge joins two equal labels, and
* it induces exactly the partition scipy finds: the pairs
  (label, scipy label) are in one-to-one correspondence.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components


def csr_edges(indptr: np.ndarray, indices: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """Directed (src, dst) arrays of a CSR adjacency."""
    n = indptr.size - 1
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    return src, np.asarray(indices, dtype=np.int64)


def reference_labels(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Component labels from scipy on the edge list ``(src, dst)``."""
    adj = sp.coo_matrix((np.ones(src.size, dtype=np.int8), (src, dst)),
                        shape=(n, n)).tocsr()
    _, labels = connected_components(adj, directed=False)
    return labels


def label_problems(labels, src: np.ndarray, dst: np.ndarray,
                   ref: np.ndarray) -> list[str]:
    """Why ``labels`` is not a correct component labelling (empty if it is)."""
    labels = np.asarray(labels)
    if labels.shape != ref.shape:
        return [f"labels have shape {labels.shape}, expected {ref.shape}"]
    problems = []
    split = np.count_nonzero(labels[src] != labels[dst])
    if split:
        problems.append(f"{split} edges join different labels")
    lab = np.unique(labels, return_inverse=True)[1].astype(np.int64)
    k = int(ref.max()) + 1 if ref.size else 0
    pairs = np.unique(lab * max(k, 1) + ref).size
    if not (pairs == k == int(lab.max(initial=-1)) + 1):
        problems.append(f"partition differs from scipy: {int(lab.max(initial=-1)) + 1} "
                        f"label classes, {k} components, {pairs} pairs")
    return problems


def corruption_detected(labels, src: np.ndarray, dst: np.ndarray,
                        ref: np.ndarray) -> bool:
    """Self-test: the oracle must reject a deliberately corrupted copy.

    One endpoint of an edge is moved to a fresh label, which splits its
    component; ``label_problems`` has to notice.
    """
    bad = np.array(labels, dtype=np.int64, copy=True)
    if src.size == 0:
        return True
    bad[src[src.size // 2]] = bad.max() + 1
    return bool(label_problems(bad, src, dst, ref))


def scipy_ms(indptr: np.ndarray, indices: np.ndarray, repeats: int = 3) -> float:
    """Median wall ms of scipy's connected components on a CSR graph:
    the floor the engine is compared against."""
    n = indptr.size - 1
    adj = sp.csr_matrix((np.ones(indices.size, dtype=np.int8), indices,
                         indptr), shape=(n, n))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        connected_components(adj, directed=False)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3
