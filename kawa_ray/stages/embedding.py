"""E1 — contextual mention embeddings: span-mean-pool over an encoder's
token hidden states, averaged across occurrences, L2-normalised.

Semantics mirror the reference's ``get_word_embeddings``
(/root/reference/extract_word_embeddings.py:20-40): the target word is
subtokenised, every occurrence of that subtoken sequence in the sentence
token stream is located, each span's hidden rows are mean-pooled, the
span means are averaged, and the result is L2-normalised.

Two encoders share the interface (``encode(sentence) -> (tokens, H)``,
``tokenize_word(word) -> tokens``):

* ``TransformersEncoder`` — a real sentence-transformer encoder behind
  an import-try (torch/transformers are not in this container; on a
  cluster with them installed this is the model path the reference
  uses, loaded ONCE per actor).
* ``FixtureEncoder`` — a deterministic stand-in: each subtoken has a
  hash-derived unit vector, and the "hidden state" of position i mixes
  its own vector with its neighbours' (so the output is genuinely
  contextual and the pooling math is hand-checkable in tests).

``context_embedding_artifact`` lifts this to the corpus: an actor-pool
``map_batches`` stage detects lexicon mentions per page, embeds each
from its page context, and partial (sum, n) rows are merged per norm by
a hash-partitioned groupby — the output artifact is PairScorer's
(norm -> row, matrix) shape, distinct-surface sized.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

EMBED_DIM = 64
_PIECE = 4  # fixture subword piece length (chars)


def subword_tokenize(text: str, piece: int = _PIECE) -> list[str]:
    """Deterministic subword split: lowercase whitespace words cut into
    fixed-length pieces — the fixture stand-in for a trained subword
    vocab (a word's piece sequence is identical at every occurrence,
    which is all the span search needs)."""
    toks: list[str] = []
    for w in text.lower().split():
        for i in range(0, len(w), piece):
            toks.append(w[i:i + piece])
    return toks


class FixtureEncoder:
    """Deterministic contextual encoder (no model deps)."""

    def __init__(self, dim: int = EMBED_DIM, ctx_weight: float = 1.0,
                 window: int = 4):
        self.dim = dim
        self.ctx_weight = ctx_weight
        self.window = window
        self._cache: dict[str, np.ndarray] = {}

    def token_vec(self, tok: str) -> np.ndarray:
        v = self._cache.get(tok)
        if v is None:
            from kawa_ray.functions.minhash import hash64

            rng = np.random.default_rng(hash64("tok:" + tok) % (1 << 63))
            v = rng.standard_normal(self.dim)
            v /= max(np.linalg.norm(v), 1e-12)
            self._cache[tok] = v
        return v

    def tokenize_word(self, word: str) -> list[str]:
        return subword_tokenize(word)

    def encode(self, sentence: str) -> tuple[list[str], np.ndarray]:
        toks = subword_tokenize(sentence)
        if not toks:
            return [], np.zeros((0, self.dim))
        base = np.stack([self.token_vec(t) for t in toks])
        H = base.copy()
        w = self.ctx_weight
        for d in range(1, self.window + 1):
            decay = w / d
            H[d:] += decay * base[:-d]   # left neighbours
            H[:-d] += decay * base[d:]   # right neighbours
        H /= np.clip(np.linalg.norm(H, axis=1, keepdims=True), 1e-12, None)
        return toks, H


class TransformersEncoder:
    """Real model path (reference extract_word_embeddings.py:25-28):
    tokenizer + encoder loaded once, last_hidden_state per sentence.
    Raises ImportError where torch/transformers are absent — callers
    fall back to ``FixtureEncoder``."""

    def __init__(self, model_name: str =
                 "sentence-transformers/paraphrase-multilingual-MiniLM-L12-v2",
                 max_tokens: int = 256):
        import torch  # noqa: F401  (ImportError -> fixture fallback)
        from transformers import AutoModel, AutoTokenizer

        self.tokenizer = AutoTokenizer.from_pretrained(model_name)
        self.model = AutoModel.from_pretrained(model_name)
        self.model.eval()
        self.max_tokens = max_tokens

    def tokenize_word(self, word: str) -> list[str]:
        return [self.tokenizer.decode([a])
                for a in self.tokenizer.encode(word, add_special_tokens=False)]

    def encode(self, sentence: str) -> tuple[list[str], np.ndarray]:
        import torch

        ids = self.tokenizer.encode(sentence, truncation=True,
                                    max_length=self.max_tokens)
        toks = [self.tokenizer.decode([a]) for a in ids]
        with torch.no_grad():
            out = self.model(torch.tensor([ids]), return_dict=True)
        return toks, out.last_hidden_state[0].cpu().numpy()


def get_encoder(dim: int = EMBED_DIM):
    """Model when available, fixture otherwise — decided once per actor."""
    try:
        return TransformersEncoder()
    except ImportError:
        return FixtureEncoder(dim=dim)


def get_word_embeddings(encoder, sentence: str,
                        words: list[str]) -> dict[str, np.ndarray | None]:
    """Reference get_word_embeddings semantics
    (extract_word_embeddings.py:20-40): per-span token mean, averaged
    over every occurrence of the word's subtoken sequence, L2-normalised.
    Words whose subtoken sequence never occurs map to None."""
    toks, H = encoder.encode(sentence)
    n = len(toks)
    out: dict[str, np.ndarray | None] = {}
    for word in words:
        ent = encoder.tokenize_word(word)
        L = len(ent)
        if L == 0 or n == 0:
            out[word] = None
            continue
        spans = [i for i in range(n - L + 1) if toks[i] == ent[0]
                 and toks[i:i + L] == ent]
        if not spans:
            out[word] = None
            continue
        # per-span mean over the span's hidden rows, then mean over spans
        span_means = [H[i:i + L].mean(axis=0) for i in spans]
        vec = np.mean(span_means, axis=0)
        nv = np.linalg.norm(vec)
        out[word] = vec / nv if nv > 0 else vec
    return out


class ContextEmbedder:
    """Actor-pool callable over (url, text, lang) batches: lexicon
    mention detection + per-occurrence span pooling, emitting partial
    (norm, sum-vector blob, n) rows — encoder and lexicon are built once
    per actor (stateful-setup-once rule)."""

    def __init__(self, lexicon_ref=None, dim: int = EMBED_DIM,
                 max_chars: int = 1200, encoder=None):
        from kawa_ray.state.lexicon import LexiconIndex

        if lexicon_ref is not None:
            import ray

            obj = ray.get(lexicon_ref)
            self.lexicon = (obj if isinstance(obj, LexiconIndex)
                            else LexiconIndex.from_bytes(obj))
        else:
            self.lexicon = None
        self.dim = dim
        self.max_chars = max_chars
        self.encoder = encoder or get_encoder(dim)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from kawa_ray.sources.roster import normalize_surface

        sums: dict[str, np.ndarray] = {}
        counts: dict[str, int] = {}
        for url, text, lang in zip(batch.column("url").to_pylist(),
                                   batch.column("text").to_pylist(),
                                   batch.column("lang").to_pylist()):
            head = text[: self.max_chars]
            dets = self.lexicon.detect(head, lang=lang) if self.lexicon else []
            surfaces = sorted({d[0] for d in dets})
            if not surfaces:
                continue
            # detect() reports multiword surfaces connector-joined
            # ("A._Burns"); the text has them space-separated — search for
            # the text form, key the result by the detected surface
            text_form = {s: s.replace("_", " ") for s in surfaces}
            embs = get_word_embeddings(
                self.encoder, head, sorted(set(text_form.values()))
            )
            for surface in surfaces:
                vec = embs.get(text_form[surface])
                if vec is None:
                    continue
                norm = normalize_surface(surface)
                if norm in sums:
                    sums[norm] += vec
                    counts[norm] += 1
                else:
                    sums[norm] = vec.astype(np.float64)
                    counts[norm] = 1
        norms = sorted(sums)
        return pa.table({
            "norm": pa.array(norms, pa.string()),
            "vsum": pa.array([sums[k].astype("<f8").tobytes() for k in norms],
                             pa.binary()),
            "n": pa.array([counts[k] for k in norms], pa.int64()),
        })


def merge_context_partials(partials, dim: int = EMBED_DIM,
                           partitions: int = 64):
    """Hash-partitioned merge of per-batch (norm, vsum, n) partials to a
    per-norm mean vector, L2-normalised.  Returns a pandas frame
    (norm, vector) — distinct-surface sized, bounded by the lexicon."""
    from kawa_ray.stages.distinct import partition_reduce

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out_norm, out_vec = [], []
        for norm, grp in g.groupby("norm", sort=False):
            v = np.sum([np.frombuffer(b, dtype="<f8") for b in grp["vsum"]],
                       axis=0)
            v /= max(int(grp["n"].sum()), 1)
            nv = np.linalg.norm(v)
            out_norm.append(norm)
            out_vec.append((v / nv if nv > 0 else v).astype("<f4").tobytes())
        return pd.DataFrame({"norm": out_norm, "vec": out_vec})

    return partition_reduce(partials, "norm", merge, partitions).to_pandas()


def context_embedding_artifact(pages_ds, lexicon, dim: int = EMBED_DIM,
                               batch_size: int = 256, concurrency=2,
                               texts_ds=None):
    """pages -> PairScorer embedding artifact (norm2row, float32 matrix,
    empty aux) from corpus contexts — the E1 operator end-to-end.
    Pass ``texts_ds`` (an already-extracted (url, text, lang) Dataset)
    to avoid re-running S1 when the caller extracts anyway."""
    import ray

    from kawa_ray.stages.extract import extract_stage

    lex_ref = ray.put(lexicon.to_bytes())
    texts = texts_ds if texts_ds is not None else extract_stage(pages_ds)
    partials = texts.map_batches(
        ContextEmbedder,
        fn_constructor_kwargs={"lexicon_ref": lex_ref, "dim": dim},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )
    merged = merge_context_partials(partials, dim=dim)
    norm2row = {n: i for i, n in enumerate(merged["norm"])}
    if len(merged):
        matrix = np.stack([np.frombuffer(b, dtype="<f4") for b in merged["vec"]])
    else:
        matrix = np.zeros((0, dim), dtype=np.float32)
    return norm2row, matrix.astype(np.float32), np.array([])
