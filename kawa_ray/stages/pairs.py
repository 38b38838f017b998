"""S4 — candidate pair generation: groupby(block_key) -> capped within-
block pair explosion, then exact pair dedup (SURVEY.md §7.5 shuffles 1-2).

Pairs are ordered ``(a, b) = (min(norm), max(norm))`` so the dedup key is
canonical.  A block whose pair list exceeds ``max_pairs_per_block``
keeps a deterministic prefix of it: its distinct member norms sorted
lexicographically, pairs in row-major upper-triangle order
(``pairs_for_block``).  The eval oracle (``eval/pairwise.py``) mirrors
the blocking and the hot-key salting but not this truncation: it
enumerates every pair of every block.

``block_pairs`` is the package's one within-block pair emitter for
equality blocks with a whole-block member cap (the censuses, dedup
banding, setsim's prefix segments, the PageRank co-occurrence cliques).
The flagship's ``explode_partition`` above is a different contract: it
truncates a block's pair list at ``max_pairs_per_block`` instead of
dropping the block.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def block_pairs(keys, ids, max_members: int) -> tuple[np.ndarray, np.ndarray]:
    """Every within-block pair of one partition, as row indices.

    ``keys`` and ``ids`` are parallel arrays (one row per block
    membership; ids are numeric and any key dtype that pandas can
    factorize works).  Returns ``(ia, ib)`` covering each pair of
    distinct ids that share a key exactly once, with
    ``ids[ia] < ids[ib]``.  A repeated ``(key, id)`` row counts once
    (its first row represents it).  A block with fewer than 2 or more
    than ``max_members`` distinct ids is dropped whole: this is the
    cap every blocked census and its SQL oracle share.  A pair that
    shares two keys is emitted once per key; callers that need distinct
    pairs dedup downstream.

    Vectorised: one sort, then one ``np.triu_indices(m, 1)`` broadcast
    per distinct block size, so the cost is per row and per size, never
    per pair in Python.  Pair order is by block size, then block, then
    the triu order; no caller depends on it."""
    ids = np.asarray(ids)
    codes = pd.factorize(np.asarray(keys))[0]
    order = np.lexsort((ids, codes))
    k, d = codes[order], ids[order]
    new = np.ones(len(k), dtype=bool)
    new[1:] = (k[1:] != k[:-1]) | (d[1:] != d[:-1])
    rows, k = order[new], k[new]
    starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
    sizes = np.diff(np.append(starts, len(k)))
    keep = (sizes >= 2) & (sizes <= max_members)
    out_a, out_b = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for m in np.unique(sizes[keep]):
        s = starts[keep & (sizes == m)]
        iu, ju = np.triu_indices(int(m), 1)
        out_a.append(rows[(s[:, None] + iu).ravel()])
        out_b.append(rows[(s[:, None] + ju).ravel()])
    return np.concatenate(out_a), np.concatenate(out_b)


def pairs_for_block(members: list[str], max_pairs: int) -> list[tuple[str, str]]:
    """Deterministic capped pair list for one block's member norms."""
    ms = sorted(set(members))
    out = []
    n = len(ms)
    for i in range(n - 1):
        for j in range(i + 1, n):
            out.append((ms[i], ms[j]))
            if len(out) >= max_pairs:
                return out
    return out


def explode_partition(group: pd.DataFrame, max_pairs: int) -> pd.DataFrame:
    """``partition_reduce`` body over a HASH PARTITION of block keys (not
    a single block): one global sort + numpy segment splits, so per-block cost is
    a couple of python ops (a per-group pandas sort_values here cost
    ~0.7ms x 10k+ keys and dominated the stage; member order is
    irrelevant anyway — ``pairs_for_block`` canonicalises to sorted
    distinct norms, which is the frozen pair spec)."""
    import numpy as np

    if not len(group):
        return pd.DataFrame({"a": pd.Series(dtype=str), "b": pd.Series(dtype=str),
                             "block_key": pd.Series(dtype=str)})
    order = np.argsort(group["block_key"].to_numpy(), kind="stable")
    keys = group["block_key"].to_numpy()[order]
    norms = group["norm"].to_numpy()[order]
    out_a: list[str] = []
    out_b: list[str] = []
    out_k: list[str] = []
    seg_starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    seg_ends = np.concatenate((seg_starts[1:], [len(keys)]))
    for i, j in zip(seg_starts, seg_ends):
        if j - i < 2:
            continue
        for a, b in pairs_for_block(norms[i:j].tolist(), max_pairs):
            out_a.append(a)
            out_b.append(b)
            out_k.append(keys[i])
    return pd.DataFrame({"a": out_a, "b": out_b, "block_key": out_k})
