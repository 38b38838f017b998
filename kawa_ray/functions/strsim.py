"""Batched string similarity kernels: Jaro-Winkler, Levenshtein.

Used by the pairwise scoring stage (SURVEY.md §7.1 S5).  The reference
scores candidates only by embedding cosine
(/root/reference/ontology/ontology_kb.py:1664,
/root/reference/extract_word_embeddings.py:79-92); the north rule adds
batched Jaro-Winkler/Levenshtein alongside it.

One call per pair, batched over lists — pair volume is bounded by the
per-block pair cap, and pairs are generated over *distinct* normalised
surfaces (not raw mentions).  Jaro-Winkler is a plain Python loop;
Levenshtein is bit-parallel (Myers/Hyyrö), so each pair costs one step
per character of the longer string rather than one per DP cell.
"""

from __future__ import annotations

import numpy as np


def jaro(a: str, b: str) -> float:
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    window = max(la, lb) // 2 - 1
    if window < 0:
        window = 0
    ma = [False] * la
    mb = [False] * lb
    matches = 0
    for i in range(la):
        lo = max(0, i - window)
        hi = min(lb, i + window + 1)
        for j in range(lo, hi):
            if not mb[j] and a[i] == b[j]:
                ma[i] = mb[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    # transpositions
    t = 0
    j = 0
    for i in range(la):
        if ma[i]:
            while not mb[j]:
                j += 1
            if a[i] != b[j]:
                t += 1
            j += 1
    t //= 2
    m = float(matches)
    return (m / la + m / lb + (m - t) / m) / 3.0


def jaro_winkler(a: str, b: str, prefix_weight: float = 0.1, max_prefix: int = 4) -> float:
    j = jaro(a, b)
    if j <= 0.7:
        return j
    p = 0
    for ca, cb in zip(a[:max_prefix], b[:max_prefix]):
        if ca != cb:
            break
        p += 1
    return j + p * prefix_weight * (1.0 - j)


def levenshtein(a: str, b: str, cap: int | None = None) -> int:
    """Edit distance over code points; with ``cap``, any distance above
    it is returned as ``cap + 1``.

    Myers/Hyyrö bit-parallel: one bitmask per distinct character of the
    shorter string, then one word-parallel step per character of the
    longer one (Python ints are as wide as the shorter string).  ``pv``
    and ``mv`` hold the +1/-1 vertical deltas of the current DP column;
    ``score`` tracks its last cell."""
    if a == b:
        return 0
    if len(a) > len(b):
        a, b = b, a
    la, lb = len(a), len(b)
    if cap is not None and lb - la > cap:
        return cap + 1
    if la == 0:
        return lb
    peq: dict[str, int] = {}
    for i, c in enumerate(a):
        peq[c] = peq.get(c, 0) | (1 << i)
    mask = (1 << la) - 1
    last = 1 << (la - 1)
    pv, mv, score = mask, 0, la
    for c in b:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv & mask
    if cap is not None and score > cap:
        return cap + 1
    return score


def levenshtein_norm(a: str, b: str) -> float:
    """Edit distance normalised to [0,1] by max length (0 = identical)."""
    m = max(len(a), len(b))
    if m == 0:
        return 0.0
    return levenshtein(a, b) / m


def batch_jaro_winkler(av: list[str], bv: list[str]) -> np.ndarray:
    return np.fromiter((jaro_winkler(a, b) for a, b in zip(av, bv)), dtype=np.float32, count=len(av))


def batch_levenshtein_norm(av: list[str], bv: list[str]) -> np.ndarray:
    return np.fromiter((levenshtein_norm(a, b) for a, b in zip(av, bv)), dtype=np.float32, count=len(av))
