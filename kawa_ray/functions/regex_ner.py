"""Regex-typed entity extractors (pipeline stage S2b).

Same label coverage as the reference's ``default_ner_regexes``
(/root/reference/ontology/ontology_builder_data.py:23-41): DOMAIN_NAME,
EMAIL_ADDRESS, USER_NAME, DATE, TIME, PHONE_NUMBER, IP_ADDRESS (v4+v6),
PRICE, CREDIT_CARD, CRYPTO, STREET_ADDRESS (street / ZIP / PO Box
variants), GOVT_ID, ICD_CODE — written from scratch as compact patterns
(notably the domain matcher uses a generic TLD shape instead of the
reference's enumerated TLD list, and USER_NAME matches @handles anywhere
rather than only at line start).

Patterns are compiled once at import; each detection worker process
reuses them per batch (stateful-setup-once rule).

Scan strategy (hot path — this function is ~1/3 of the per-doc cost of
the fused extract+detect stage): instead of 16 full-text ``finditer``
scans per doc, each pattern declares a *trigger*:

* ``digit`` — every possible match contains >=1 ASCII digit, starts at
  most ``_WINDOW_LEFT`` chars before its first digit and ends at most
  ``_WINDOW_RIGHT - 1`` chars after its last digit.  These patterns scan
  only merged digit-run windows via ``pat.finditer(text, pos, endpos)``.
  Digit runs closer than ``_WINDOW_LEFT + _WINDOW_RIGHT`` are merged, so
  (a) expanded windows never overlap (no duplicate matches), (b) a match
  spanning several digit runs lies inside one window, and (c) no match
  can end at ``endpos`` — which matters because Python's ``re`` treats
  ``endpos`` as end-of-string for trailing ``\\b`` / lookaheads (a match
  ending exactly there could be accepted where the full scan rejects
  it).  The window bounds are rigorous because the date/street/PO-Box
  whitespace is bounded (``\\s{1,8}`` — 8+ spaces inside a date or a
  street number is noise, not an entity).
* ``at`` / ``colon`` — the pattern requires a literal ``@`` / ``:``;
  skip the doc entirely when the char is absent (70% of docs for ``@``).
* ``full`` — DOMAIN_NAME: dots are everywhere in prose, so it keeps the
  full-text scan.

``regex_mentions_full`` keeps the naive 16-scan implementation; the two
are asserted identical on generated pages + adversarial boundary cases
in tests/test_regex_ner.py.
"""

from __future__ import annotations

import re

_MONTH = (
    r"(?:jan(?:uary)?|feb(?:ruary)?|mar(?:ch)?|apr(?:il)?|may|jun(?:e)?|"
    r"jul(?:y)?|aug(?:ust)?|sep(?:tember)?|oct(?:ober)?|nov(?:ember)?|dec(?:ember)?)"
)

# (label, pattern, trigger) in priority order — earlier wins span overlaps.
_SCANS: list[tuple[str, re.Pattern, str]] = [
    ("EMAIL_ADDRESS", re.compile(r"\b[a-z0-9!#$%&'*+/=?^_`{|}~.-]+@(?:[a-z0-9](?:[a-z0-9-]*[a-z0-9])?\.)+[a-z]{2,}\b", re.I), "at"),
    ("USER_NAME", re.compile(r"(?<![\w@.])@[a-z0-9_](?:[a-z0-9_.]{1,28}[a-z0-9_])?\b", re.I), "at"),
    ("ICD_CODE", re.compile(r"\b[A-TV-Z]\d[A-Z0-9]\.[A-Z0-9]{1,4}\b"), "digit"),
    ("DOMAIN_NAME", re.compile(r"\b(?:https?://)?(?:www\.)?[a-z0-9][a-z0-9.-]*\.[a-z]{2,12}(?:/[^\s()<>\"']*[^\s()<>\"'.,;:!?])?", re.I), "full"),
    ("IP_ADDRESS", re.compile(r"\b(?:(?:25[0-5]|2[0-4]\d|[01]?\d\d?)\.){3}(?:25[0-5]|2[0-4]\d|[01]?\d\d?)\b"), "digit"),
    ("IP_ADDRESS", re.compile(r"\b(?:[0-9a-f]{1,4}:){7}[0-9a-f]{1,4}\b|\b(?:[0-9a-f]{1,4}:){1,6}:(?:[0-9a-f]{1,4}:?){0,6}[0-9a-f]{1,4}\b", re.I), "colon"),
    ("DATE", re.compile(
        rf"\b(?:[0-3]?\d(?:st|nd|rd|th)?\s{{1,8}}(?:of\s{{1,8}})?{_MONTH}|{_MONTH}\s{{1,8}}[0-3]?\d(?:st|nd|rd|th)?)(?:,)?\s{{0,8}}(?:\d{{4}})?\b"
        r"|\b[0-3]?\d[-/.][0-3]?\d[-/.]\d{2,4}\b", re.I), "digit"),
    ("TIME", re.compile(r"\b\d{1,2}:\d{2}(?::\d{2})?\s?(?:[ap]\.?m\.?)?\b|\b\d{1,2}\s?[ap]\.?m\.?\b", re.I), "digit"),
    ("PRICE", re.compile(r"[$€£]\s?[+-]?\d{1,3}(?:,?\d{3})*(?:\.\d{1,2})?"), "digit"),
    ("CRYPTO", re.compile(r"(?<![a-km-zA-HJ-NP-Z0-9])[13][a-km-zA-HJ-NP-Z0-9]{26,33}(?![a-km-zA-HJ-NP-Z0-9])"), "digit"),
    ("CREDIT_CARD", re.compile(r"\b(?:\d{4}[- ]?){3}\d{4}\b|\b\d{15,16}\b"), "digit"),
    ("PHONE_NUMBER", re.compile(r"(?<![\d-])(?:\+?\d{1,3}[-.\s]?)?(?:\(\d{2,4}\)[-.\s]?)?\d{3}[-.\s]?\d{3,4}[-.\s]?\d{0,4}(?![\d-])"), "digit"),
    ("STREET_ADDRESS", re.compile(
        r"\b\d{1,4}\s{1,8}[\w .]{1,24}\b(?:street|st|avenue|ave|road|rd|highway|hwy|square|sq|"
        r"trail|trl|drive|dr|court|ct|parkway|pkwy|circle|cir|boulevard|blvd)\b\.?", re.I), "digit"),
    ("STREET_ADDRESS", re.compile(r"\bP\.?\s?O\.?\s?Box\s{1,8}\d+\b", re.I), "digit"),
    ("GOVT_ID", re.compile(r"\b(?!000|666)[0-8]\d{2}[- ](?!00)\d{2}[- ](?!0000)\d{4}\b"), "digit"),
    ("STREET_ADDRESS", re.compile(r"\b\d{5}(?:-\d{4})?\b(?!-)"), "digit"),
]

# public shape kept for introspection / parity tooling
REGEX_NER: list[tuple[str, re.Pattern]] = [(lbl, pat) for lbl, pat, _ in _SCANS]

_DIGIT_RUN = re.compile(r"\d+")
# Max chars a digit-triggered match extends left of its first digit
# (month + bounded whitespace in DATE, "P. O. Box " in PO-Box: <=17) and
# right of its last digit (street suffix chain: <=42, CRYPTO tail: <=34).
_WINDOW_LEFT = 24
_WINDOW_RIGHT = 48
_MERGE_GAP = _WINDOW_LEFT + _WINDOW_RIGHT


def _digit_windows(text: str) -> list[tuple[int, int]]:
    """Expanded, pairwise-disjoint windows around merged digit runs."""
    runs: list[list[int]] = []
    for m in _DIGIT_RUN.finditer(text):
        s, e = m.span()
        if runs and s - runs[-1][1] <= _MERGE_GAP:
            runs[-1][1] = e
        else:
            runs.append([s, e])
    n = len(text)
    return [(s - _WINDOW_LEFT if s > _WINDOW_LEFT else 0, min(n, e + _WINDOW_RIGHT))
            for s, e in runs]


def regex_mentions(text: str) -> list[tuple[str, int, int, str]]:
    """Non-overlapping regex-typed spans, earlier-priority label wins."""
    has_at = "@" in text
    has_colon = ":" in text
    windows: list[tuple[int, int]] | None = None
    spans: list[tuple[int, int, str, str]] = []
    taken: list[tuple[int, int]] = []
    for label, pat, trigger in _SCANS:
        if trigger == "at":
            if not has_at:
                continue
            its = (pat.finditer(text),)
        elif trigger == "colon":
            if not has_colon:
                continue
            its = (pat.finditer(text),)
        elif trigger == "digit":
            if windows is None:
                windows = _digit_windows(text)
            if not windows:
                continue
            its = (pat.finditer(text, ws, we) for ws, we in windows)
        else:  # full
            its = (pat.finditer(text),)
        for it in its:
            for m in it:
                s, e = m.span()
                if s == e:
                    continue
                if any(s < te and e > ts for ts, te in taken):
                    continue
                taken.append((s, e))
                spans.append((s, e, m.group(0), label))
    spans.sort()
    return [(surf, s, e, label) for s, e, surf, label in spans]


def regex_mentions_full(text: str) -> list[tuple[str, int, int, str]]:
    """Naive full-text reference scan — must equal ``regex_mentions``
    on every input (tests/test_regex_ner.py differential gate)."""
    spans: list[tuple[int, int, str, str]] = []
    taken: list[tuple[int, int]] = []
    for label, pat, _trigger in _SCANS:
        for m in pat.finditer(text):
            s, e = m.span()
            if s == e:
                continue
            if any(s < te and e > ts for ts, te in taken):
                continue
            taken.append((s, e))
            spans.append((s, e, m.group(0), label))
    spans.sort()
    return [(surf, s, e, label) for s, e, surf, label in spans]
