"""The one ordering primitive of the sparse backend: sort integer rows, find their runs.

Every pattern structure of :mod:`repro.sparse` and the sparse trees — the
canonical COO order, a CSF layout, a fiber regrouping, the per-rank blocks of
a distributed tensor — is "the rows in lexicographic order, and where equal
rows begin".  :func:`lex_order` answers both from one *linearised key*
(``np.ravel_multi_index`` of the key columns over their extents): a pass over
the key shows whether the rows are in order already (then nothing is sorted),
otherwise the key is sorted once, and either way the runs are the places
where the sorted key changes.  :func:`run_starts` is the same grouping for
rows somebody else sorted.

Each call writes one ``DEBUG`` record to the ``repro.sparse`` logger saying
which branch ran; no handler is installed.
"""

from __future__ import annotations

import logging
import math
from typing import Sequence

import numpy as np

__all__ = ["lex_order", "run_starts"]

logger = logging.getLogger("repro.sparse")

_INT64_MAX = int(np.iinfo(np.int64).max)


def _run_starts(changed: np.ndarray, n_rows: int) -> np.ndarray:
    """Offsets of runs given the ``rows[i] != rows[i+1]`` change mask.

    ``changed`` has ``n_rows - 1`` entries (empty for 0 or 1 rows); a
    nonempty block always yields at least the run starting at offset 0, so a
    single row maps to ``[0]`` — never to an empty offset array, which
    :class:`~repro.sparse.csf.SegmentSum` would reject.
    """
    if n_rows <= 1:
        return np.zeros(min(n_rows, 1), dtype=np.int64)
    return np.concatenate(
        (np.zeros(1, dtype=np.int64), np.flatnonzero(changed).astype(np.int64) + 1)
    )


def run_starts(columns: Sequence[np.ndarray], n_rows: int) -> np.ndarray:
    """Run offsets of equal-row groups among lexicographically sorted rows.

    ``columns`` are the key columns of an ``n_rows``-row matrix already sorted
    lexicographically; rows belong to the same run when *all* columns agree.
    """
    changed = np.zeros(max(n_rows - 1, 0), dtype=bool)
    for col in columns:
        np.logical_or(changed, col[1:] != col[:-1], out=changed)
    return _run_starts(changed, n_rows)


def lex_order(columns: Sequence[np.ndarray],
              extents: Sequence[int]) -> tuple[np.ndarray | None, np.ndarray]:
    """Lexicographic order of integer rows, and the runs of equal rows in it.

    ``columns[j]`` is the ``j``-th sort key of every row (``columns[0]``
    primary) with values in ``[0, extents[j])``.  Returns ``(perm, starts)``:
    ``perm`` is the permutation ``np.lexsort(columns[::-1])`` yields — equal
    rows keep their input order — or ``None`` when the rows are in order as
    they stand; ``starts`` are the offsets, in the ordered rows, at which a
    row differs from the one before it (``[0]`` for a single row, empty for
    none).

    The rows are ordered through their C-order linearised key, narrowed to
    ``uint16`` when ``prod(extents)`` allows (a radix sort).  A wider key is
    made unique by appending the row number, ``key * n_rows + row``, so that
    any sort of it *is* the stable order and NumPy's default (vectorised) kind
    can be used; where that product leaves ``int64`` the key itself is sorted
    stably, and where ``prod(extents)`` does — computed exactly, as a Python
    integer — the columns go to ``np.lexsort``.
    """
    columns = tuple(columns)
    extents = tuple(int(e) for e in extents)
    n_rows = int(columns[0].shape[0])
    bound = math.prod(extents)
    if bound > _INT64_MAX:
        perm = np.lexsort(columns[::-1])
        if np.array_equal(perm, np.arange(n_rows)):  # lexsort is stable
            perm = None
        branch = "lexsort-fallback"
        starts = run_starts(
            columns if perm is None else [col[perm] for col in columns], n_rows)
    else:
        key = np.ravel_multi_index(columns, extents)
        if (key[1:] >= key[:-1]).all():  # vacuously so for 0 or 1 rows
            perm, branch = None, "in-order"
        else:
            if bound <= 1 << 16:
                perm = np.argsort(key.astype(np.uint16), kind="stable")
            elif bound * n_rows <= _INT64_MAX:
                perm = np.argsort(key * n_rows + np.arange(n_rows))
            else:
                perm = np.argsort(key, kind="stable")
            key, branch = key[perm], "key-sort"
        starts = _run_starts(key[1:] != key[:-1], n_rows)
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug("lex_order: %d rows over extents %s: %s",
                     n_rows, extents, branch)
    return perm, starts
