"""S5 — pairwise scoring: batched Jaro-Winkler + Levenshtein + embedding
cosine served from an actor-pinned embedding matrix (SURVEY.md §7.1 S5).

The embedding artifact (norm -> row index, float32 matrix) is broadcast
once via ``ray.put`` and materialised per actor in ``__init__`` —
mirroring the reference's per-process memmap embedding matrix
(/root/reference/ontology/ontology_kb.py:282-285) and scoring by dot
product of L2-normalised vectors
(/root/reference/extract_word_embeddings.py:79-92).  Surfaces absent
from the matrix get a deterministic char-n-gram hashing projection
(feature-hashing fallback) so unseen-but-identical strings still agree.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from kawa_ray.config import LinkageConfig
from kawa_ray.functions.minhash import char_shingles, hash64
from kawa_ray.functions.strsim import batch_jaro_winkler, batch_levenshtein_norm

EMBED_DIM = 64


def fallback_vector(norm: str, dim: int = EMBED_DIM) -> np.ndarray:
    """Deterministic char-trigram feature-hashing projection, L2-normalised."""
    v = np.zeros(dim, dtype=np.float32)
    for sh in char_shingles(norm, 3):
        h = hash64(sh)
        v[h % dim] += 1.0 if (h >> 32) & 1 else -1.0
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


class PairScorer:
    """Actor-pool callable over candidate pair batches."""

    def __init__(self, embed_ref=None, embed_obj=None, cfg: LinkageConfig | None = None,
                 ent_of: dict[str, int] | None = None):
        if embed_obj is None:
            import ray

            embed_obj = ray.get(embed_ref)
        self.norm2row, self.matrix, _ents = embed_obj
        self.cfg = cfg or LinkageConfig()
        # KB alias dictionary (norm -> entity id): pairs the dictionary
        # maps to one entity are edges outright (reference semantics —
        # the ontology lookup IS the link for known surfaces); kept
        # separate from the embedding artifact because the context-E1
        # artifact carries no entity ids.
        self.ent_of = ent_of if (ent_of and self.cfg.kb_blocking) else None
        self._fallback_cache: dict[str, np.ndarray] = {}

    def _vec(self, norm: str) -> np.ndarray:
        row = self.norm2row.get(norm)
        if row is not None:
            return self.matrix[row]
        v = self._fallback_cache.get(norm)
        if v is None:
            v = fallback_vector(norm, self.matrix.shape[1])
            self._fallback_cache[norm] = v
        return v

    def __call__(self, batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_pylist()
        b = batch.column("b").to_pylist()
        cfg = self.cfg
        jw = batch_jaro_winkler(a, b)
        lev = batch_levenshtein_norm(a, b)
        # np.array + reshape rather than np.stack: an empty batch gives
        # (0, dim) instead of raising
        dim = self.matrix.shape[1]
        va = np.array([self._vec(x) for x in a]).reshape(len(a), dim)
        vb = np.array([self._vec(x) for x in b]).reshape(len(b), dim)
        cos = np.einsum("ij,ij->i", va, vb).astype(np.float32)
        score = (cfg.w_jw * jw + cfg.w_lev * (1.0 - lev) + cfg.w_cos * cos).astype(np.float32)
        if cfg.exact_match_is_edge:
            exact = np.fromiter((x == y for x, y in zip(a, b)), dtype=bool, count=len(a))
            score = np.where(exact, 1.0, score).astype(np.float32)
        if self.ent_of is not None:
            eo = self.ent_of
            kb_same = np.fromiter(
                (eo.get(x) is not None and eo.get(x) == eo.get(y) for x, y in zip(a, b)),
                dtype=bool, count=len(a),
            )
            score = np.where(kb_same, 1.0, score).astype(np.float32)
        cols = {name: batch.column(name) for name in batch.column_names}
        cols.update(
            {
                "jw": pa.array(jw),
                "lev": pa.array(lev),
                "cos": pa.array(cos),
                "score": pa.array(score),
            }
        )
        return pa.table(cols)
