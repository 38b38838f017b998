"""Run a representative query subset at a given CPU count and emit one
JSON line of per-query output hashes — the instrument behind
tests/test_parallelism_determinism.py (SURVEY §5.5: results must be
independent of parallelism).  Fresh process per CPU level so actor-pool
sizes, block splits and shuffle fan-in all actually differ.

Usage: python -m tools.determinism_probe <num_cpus> <out.json> [sf_dir]
"""

from __future__ import annotations

import hashlib
import json
import sys


def main() -> None:
    ncpu, out_path = int(sys.argv[1]), sys.argv[2]
    sf = sys.argv[3] if len(sys.argv) > 3 else "/root/testdata/sf0.001"

    import ray

    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from kawa_ray.pipelines.blocking_ops import (
        multirule_blocking_census,
        snm_blocking_census,
    )
    from kawa_ray.pipelines.builder import user_pagerank
    from kawa_ray.pipelines.docs import (
        minhash_dedup_docs,
        minhash_keep_best,
        ngram_jaccard_dedup_docs,
        simhash_dedup_docs,
    )
    from kawa_ray.pipelines.linkage import link_pages
    from kawa_ray.pipelines.pages_ops import (
        line_dedup_census,
        paragraph_neardup_census,
    )
    from kawa_ray.pipelines.pairscore import mutual_best_match_census
    from kawa_ray.pipelines.quality_classifier import quality_classifier_census
    from kawa_ray.pipelines.substring_dedup import doc_substring_dup_census
    from kawa_ray.pipelines.vectors import embedding_neardup_pairs
    from kawa_ray.sources.pages import ensure_pages

    res: dict[str, str] = {}
    for name, fn in [
        ("minhash_dedup_docs", minhash_dedup_docs),
        ("simhash_dedup_docs", simhash_dedup_docs),
        ("ngram_jaccard_dedup_docs", ngram_jaccard_dedup_docs),
        ("minhash_keep_best", minhash_keep_best),
        ("user_pagerank", user_pagerank),
        # session-4 ops: integer-sum gradients / hash-partition line
        # ranks must be batching- and parallelism-independent too
        ("quality_classifier_census", quality_classifier_census),
        ("line_dedup_census", line_dedup_census),
        # session-5 ops: global ranks from bucket offsets / unioned
        # pair streams must not depend on partition count either
        ("snm_blocking_census", snm_blocking_census),
        ("multirule_blocking_census", multirule_blocking_census),
        # session-3 round-5 ops: block-local argmax and banded
        # paragraph candidates must not depend on partition count
        ("mutual_best_match_census", mutual_best_match_census),
        ("paragraph_neardup_census", paragraph_neardup_census),
        # segment-keyed cosine verify and fingerprint/doc-keyed span
        # merge route through the shared exchange: their outputs must
        # not depend on partition count either
        ("embedding_neardup_pairs", embedding_neardup_pairs),
        ("doc_substring_dup_census", doc_substring_dup_census),
    ]:
        df = fn(sf)
        df = df.sort_values(list(df.columns)).reset_index(drop=True)
        res[name] = hashlib.md5(
            df.to_csv(index=False, float_format="%.9g").encode()
        ).hexdigest()

    lk = link_pages(ensure_pages("0.001"))
    res["linkage_norm2cluster"] = hashlib.md5(
        json.dumps(sorted(lk["norm2cluster"].items())).encode()
    ).hexdigest()
    # detection output must not depend on CPU count or task split either
    mentions = (lk["mentions"].to_pandas().sort_values("mention_id")
                .reset_index(drop=True))
    res["linkage_mentions"] = hashlib.md5(
        mentions.to_csv(index=False).encode()
    ).hexdigest()

    with open(out_path, "w") as f:
        json.dump(res, f)
    ray.shutdown()


if __name__ == "__main__":
    main()
