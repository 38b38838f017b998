"""Shared constants and pipeline configuration.

Semantics mirror the reference engine (ontocord/kawa):
- strip chars / connector / shingle cutoffs: /root/reference/ontology/ontology_manager.py:85,90,96-144
- digit folding (``trannum``): /root/reference/ontology/ontology_manager.py:70
- level -> shingle cutoff: /root/reference/ontology/ontology_manager.py:329-331
"""

from __future__ import annotations

from dataclasses import dataclass

# Characters stripped from word boundaries (reference: default_strip_chars,
# ontology_manager.py:85).
STRIP_CHARS = "-,~`.?!@#$%^&*(){}[]|\\/-_+=<>;'\" ,،、“”《》«»!:;?。…．"
STRIP_CHARS_SET = frozenset(STRIP_CHARS)

# Compound-word connector (reference default "_", ontology_manager.py:96-144).
CONNECTOR = "_"

# Prefix-shingle truncation length at level 0 (reference: word_shingle_cutoff,
# ontology_manager.py:93).
WORD_SHINGLE_CUTOFF = 3

# Compound words longer than this get prefix+suffix shingle patterns
# (reference: compound_word_step, ontology_manager.py:96).
COMPOUND_WORD_STEP = 3

# Number of lexicon levels built with increasing precision (reference:
# depth=4, ontology_manager.py:361).
LEXICON_DEPTH = 4

# Digits folded to "1" for lookup keys (reference: trannum,
# ontology_manager.py:70).
TRANNUM = str.maketrans("0123456789", "1111111111")


def level_to_shingle_cutoff(level: int) -> int:
    """cutoff = 3 * (1 + level^2)  -> 3, 6, 15, 30 (reference
    onto_level_2_word_shingle_cutoff, ontology_manager.py:329-331)."""
    return WORD_SHINGLE_CUTOFF * (1 + level * level)


# Upper ontology: label -> ancestor path (subset of the reference's
# default_upper_ontology, /root/reference/ontology/default_onto_tags.py:21-68).
UPPER_ONTOLOGY: dict[str, tuple[str, ...]] = {
    "PERSON": ("PERSON",),
    "PUBLIC_FIGURE": ("PUBLIC_FIGURE", "PERSON"),
    "ORG": ("ORG",),
    "GPE": ("GPE", "LOC"),
    "LOC": ("LOC",),
    "FAC": ("FAC", "LOC"),
    "PRODUCT": ("PRODUCT",),
    "EVENT": ("EVENT",),
    "WORK_OF_ART": ("WORK_OF_ART",),
    "LANGUAGE": ("LANGUAGE",),
    "LAW": ("LAW",),
    "DATE": ("DATE",),
    "TIME": ("TIME",),
    "DOMAIN_NAME": ("DOMAIN_NAME",),
    "EMAIL_ADDRESS": ("EMAIL_ADDRESS",),
    "USER_NAME": ("USER_NAME",),
    "PHONE_NUMBER": ("PHONE_NUMBER",),
    "IP_ADDRESS": ("IP_ADDRESS",),
    "PRICE": ("PRICE",),
    "CREDIT_CARD": ("CREDIT_CARD",),
    "STREET_ADDRESS": ("STREET_ADDRESS",),
    "GOVT_ID": ("GOVT_ID",),
    "DISEASE": ("DISEASE",),
    "ANIMAL": ("ANIMAL",),
    "PLANT": ("PLANT",),
    "FOOD": ("FOOD",),
    "JOB": ("JOB",),
    "RELIGION": ("RELIGION",),
    "POLITICAL_PARTY": ("POLITICAL_PARTY", "ORG"),
    "UNION": ("UNION", "ORG"),
}

# Label rename map applied after lookup (reference: default_label2label,
# /root/reference/ontology/default_onto_tags.py:1).
LABEL2LABEL: dict[str, str] = {
    "PER": "PERSON",
    "PERSON_PRONOUN": "PERSON",
    "ORGANIZATION": "ORG",
    "LOCATION": "LOC",
}

# Labels whose match requires first+last word capitalisation in running text
# (reference caps gating, ontology_manager.py:597-600).
CAPS_GATED_LABELS = frozenset({"PERSON", "PUBLIC_FIGURE", "ORG", "GPE"})

# Weight factors applied during lexicon build (reference add_to_ontology
# default weight_factors={'PERSON': 5}, ontology_manager.py:361).
LABEL_WEIGHT_FACTORS: dict[str, float] = {"PERSON": 5.0}


@dataclass(frozen=True)
class LinkageConfig:
    """Tunables of the flagship blocking + scoring + clustering pipeline."""

    # Blocking
    minhash_num_perm: int = 32
    minhash_bands: int = 8          # rows per band = num_perm // bands
    char_shingle_k: int = 3
    hot_key_threshold: int = 64     # keys with more mentions than this get salted
    n_salts: int = 8
    max_pairs_per_block: int = 2048
    # KB-alias channel: norms present in the entity KB's alias dictionary
    # additionally block on ``kb:<entity_id>`` and pairs that the dictionary
    # maps to ONE entity are edges outright — the reference's
    # dictionary-based linking (ontology lookup surface -> entity) as a
    # blocking+scoring channel.  This is what bridges cross-script aliases
    # (zh/ja/ko/ar vs latin) that share no lexical key.
    kb_blocking: bool = True

    # Scoring weights: score = w_jw*jw + w_lev*(1-lev_norm) + w_cos*cos
    w_jw: float = 0.30
    w_lev: float = 0.15
    w_cos: float = 0.55
    # same-entity pairs bottom out ~0.74 (abbreviation vs full name: low JW,
    # cos ~0.97); different-entity pairs top out ~0.60 (confusable strings,
    # cos noise tail).  0.72 splits the margin.
    edge_threshold: float = 0.72
    # pairs whose normalised surfaces are equal are always edges
    exact_match_is_edge: bool = True

    # Execution
    # keyed-node row count below which pair generation runs driver-side
    # (three shuffles on distinct-surface-sized data cost more than the
    # work; above it the hash-partitioned distributed path runs)
    driver_pair_threshold: int = 200_000

    # corpus size (pages) above which the flagship's mention stream is
    # written to per-partition parquet under /tmp and re-read, instead of
    # pinned whole in the object store with .materialize() — the
    # checkpointed pipeline's scale-correct shape as the default for big
    # inputs (round-3 VERDICT item 3).  Bench scale (sf0.1 = 50k pages)
    # stays in-memory; at 100-TB scale the spill keeps the largest
    # corpus-sized intermediate off the object store entirely.
    mention_spill_pages: int = 200_000

    # rows per detection batch; None maps each read block whole, so the
    # read, extract and detect fuse into one task per block
    detect_batch_size: int | None = None
    # requested actor-pool sizes; linkage._pool_size clamps them so a
    # pool never reserves every CPU (upstream read tasks need slots).
    # detect_concurrency sizes only the context branch's embedding pool
    # (embedding_source="context"); mention detection starts no pool
    detect_concurrency: int = 30
    score_batch_size: int = 4096
    score_concurrency: int = 8

    # Embedding channel source: "fixture" = roster alias table (default;
    # deterministic, engineered confusable margins), "context" = E1
    # span-pooled corpus context vectors (stages/embedding.py) — the
    # model path when transformers is installed, FixtureEncoder here.
    embedding_source: str = "fixture"
