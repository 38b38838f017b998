"""Per-language resource files (reference item: one JSON per language
with FIRST_NAME/LAST_NAME/ner_regexes/gender-swap keys,
/root/reference/ontology/ontology_builder.py:1040-1072, loaded by
load_target_lang_data, ontology_manager.py:231-243).

``build_lang_resources`` derives a deterministic per-language resource
dict from the fixture roster (names by script) plus small curated maps;
``save/load_lang_resource`` round-trip one language as JSON exactly like
the reference's ``{lang}.json`` files.  ``apply_target_lang`` wires the
resource into a LexiconIndex's target-language exact lexicon — the
highest-precedence lookup layer (ontology_manager.py:571-582)."""

from __future__ import annotations

import json
import os

from kawa_ray.sources.roster import build_roster, normalize_surface

BINARY_GENDER_SWAP = {
    "en": {"he": "she", "she": "he", "him": "her", "her": "him",
           "his": "hers", "hers": "his", "man": "woman", "woman": "man"},
    "es": {"él": "ella", "ella": "él", "hombre": "mujer", "mujer": "hombre"},
    "fr": {"il": "elle", "elle": "il", "homme": "femme", "femme": "homme"},
    "de": {"er": "sie", "sie": "er", "mann": "frau", "frau": "mann"},
}

PRONOUN2GENDER = {
    "en": {"he": "male", "him": "male", "his": "male",
           "she": "female", "her": "female", "hers": "female"},
}

PERSON_TITLES = {
    "en": ["mr", "mrs", "ms", "dr", "prof", "sir", "madam"],
    "es": ["sr", "sra", "srta", "dr", "dra"],
    "fr": ["m", "mme", "mlle", "dr"],
    "de": ["herr", "frau", "dr", "prof"],
}


def _script_of(s: str) -> str:
    c = s[0] if s else "a"
    if "一" <= c <= "鿿":
        return "zh"
    if "぀" <= c <= "ヿ":
        return "ja"
    if "가" <= c <= "힣":
        return "ko"
    if "؀" <= c <= "ۿ":
        return "ar"
    return "latin"


def build_lang_resources(n_entities: int = 300) -> dict[str, dict]:
    """lang -> resource dict with the reference's key layout."""
    roster = build_roster(n_entities)
    by_lang: dict[str, dict] = {}
    for aliases, label in zip(
        roster["aliases"].to_pylist(), roster["label"].to_pylist()
    ):
        if label not in ("PERSON", "PUBLIC_FIGURE"):
            continue
        for alias in aliases:
            script = _script_of(alias)
            lang = script if script != "latin" else "en"
            res = by_lang.setdefault(
                lang,
                {"FIRST_NAME": [], "LAST_NAME": [], "PERSON_NAME": [],
                 "NAME2LABEL": {},
                 "binary_gender_swap": BINARY_GENDER_SWAP.get(lang, {}),
                 "en_pronoun2gender": PRONOUN2GENDER.get(lang, {}),
                 "person2title": PERSON_TITLES.get(lang, [])},
            )
            parts = alias.split()
            if len(parts) >= 2 and script == "latin":
                res["FIRST_NAME"].append(parts[0])
                res["LAST_NAME"].append(parts[-1])
            res["PERSON_NAME"].append(alias)
            res["NAME2LABEL"][normalize_surface(alias)] = label
    for lang, res in by_lang.items():
        for k in ("FIRST_NAME", "LAST_NAME", "PERSON_NAME"):
            res[k] = sorted(set(res[k]))
    return by_lang


def save_lang_resource(res: dict, path: str) -> None:
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(res, f, ensure_ascii=False, sort_keys=True)
    os.replace(tmp, path)


def load_lang_resource(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def apply_target_lang(lexicon, res: dict, label: str = "PERSON"):
    """Populate the index's target-language exact lexicon from a resource
    (highest-precedence lookup, reference ontology_manager.py:571-582).
    Uses the resource's true NAME2LABEL when present, else ``label``.
    Mutates and returns the index."""
    tl = dict(lexicon.target_lang_lexicon)
    n2l = res.get("NAME2LABEL")
    if n2l:
        tl.update(n2l)
    else:
        for name in res.get("PERSON_NAME", []):
            tl[normalize_surface(name)] = label
    lexicon.target_lang_lexicon = tl
    return lexicon


def target_lexicons_by_lang(n_entities: int = 300) -> dict[str, dict]:
    """lang -> {norm: label} exact lexicons for mention detection."""
    return {
        lang: dict(res.get("NAME2LABEL", {}))
        for lang, res in build_lang_resources(n_entities).items()
    }
