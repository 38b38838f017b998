"""The measured process of one benchmark run.

run.py starts it as ``python3 -m perfbench.driver <spec.json>`` after
writing the inputs.  It times its own imports, then runs ``SESSIONS``
Ray sessions one after another.  Each session is timed from ``ray.init``
through the artifact build (one set-up sample), runs the workload's
warm-up iteration, then iterations for its share of the run's seconds
(``MIN_MEASURED`` at least).
The last session adds the traced iterations of spans.py when tracing is
on.  Each step appends one JSON line to the records file, so run.py
keeps what finished when it has to kill a stalled iteration.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

# a Ray session's speed on a shared host is set when it starts (one ran
# the census at 4.3 s per iteration, the next at 5.4 s), so a run measures
# across several sessions; each is also one set-up sample.  Each costs a
# set-up and a warm-up, and all runs of both workloads must fit the time
# the benchmark is given, so there are two
SESSIONS = 2
# measured iterations per session at least, however long they take: a
# census iteration outlasts a session's share of the seconds, and the
# first session's stalled iteration would otherwise be its only sample
MIN_MEASURED = 3
# at least 2 logical CPUs: with one, _pool_size gives the detect pool the
# only CPU, the read stage starves and the pipeline stalls
NUM_CPUS = 2
OBJECT_STORE_BYTES = 512 << 20
MIN_QUALITY = 0.99

LAYERS = ("read", "extract", "detect", "nodes", "keygen", "pairs", "score",
          "closure", "attach", "ckpt.mentions", "ckpt.graph", "ckpt.clusters",
          "census.line_dedup", "census.paragraph_neardup", "census.minhash_dedup")
COUNTS = ("read.rows", "read.bytes", "extract.rows", "extract.text_bytes",
          "detect.mentions", "detect.pool_actors", "nodes.partials", "nodes.out",
          "keygen.rows", "keygen.distinct_keys", "keygen.hot_keys", "pairs.out",
          "pairs.capped_blocks", "score.pairs", "score.edges", "closure.edges",
          "closure.clusters", "attach.rows", "ckpt.bytes_written", "ckpt.parts",
          "exchange.calls")


class Records:
    def __init__(self, path: str):
        self.path = path

    def write(self, kind: str, **fields) -> None:
        with open(self.path, "a") as f:
            f.write(json.dumps({"kind": kind, "t": time.time(), **fields}) + "\n")


def digest(obj) -> str:
    raw = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.blake2b(raw, digest_size=16).hexdigest()


def partition_digest(norm2cluster: dict[str, str]) -> str:
    """Digest of the cluster partition (independent of cluster ids)."""
    groups: dict[str, list[str]] = {}
    for norm, cid in norm2cluster.items():
        groups.setdefault(cid, []).append(norm)
    return digest(sorted(sorted(g) for g in groups.values()))


def normalized_records(df) -> list[dict]:
    """Order-insensitive form of a census frame (the oracle tests'
    normalisation: sorted columns and rows, floats to 6 places)."""
    df = df.reindex(sorted(df.columns), axis=1)
    df = df.sort_values(list(df.columns)).reset_index(drop=True)
    out = []
    for row in df.to_dict("records"):
        out.append({k: (round(float(v), 6) if isinstance(v, float)
                        else int(v) if hasattr(v, "__index__") else v)
                    for k, v in row.items()})
    return out


class LinkWorkload:
    """``link_pages`` on a generated pages corpus."""

    warmups = 1

    def __init__(self, spec: dict):
        self.spec = spec
        self.n_entities = spec["n_entities"]
        self.pages_dir = spec["inputs"]["pages_dir"]
        self.first_digest = None

    def import_modules(self) -> None:
        from kawa_ray.config import LinkageConfig
        from kawa_ray.pipelines import linkage

        self.cfg = LinkageConfig()
        self.linkage = linkage

    def build_artifacts(self) -> None:
        self.linkage._ARTIFACT_CACHE.clear()
        self.linkage.default_artifacts(self.n_entities)

    def prepare(self) -> None:
        import pyarrow.parquet as pq

        from kawa_ray.eval.pairwise import gold_labeled_pairs

        gold = pq.read_table(os.path.join(self.pages_dir, "gold_mentions.parquet"))
        _, embed = self.linkage.default_artifacts(self.n_entities)
        ent_of = self.linkage.kb_alias_lookup(embed, self.n_entities)
        self.labeled = gold_labeled_pairs(gold, self.cfg, ent_of)

    def link(self) -> dict:
        return self.linkage.link_pages(self.pages_dir, n_entities=self.n_entities)

    def iterate(self, tracer=None) -> tuple[float, list[str], dict]:
        t = time.perf_counter()
        res = self.link()
        if tracer is None:
            rows = res["clusters"].count()
        else:
            with tracer.span("attach"):
                rows = res["clusters"].count()
            tracer.add("attach.rows", rows)
        dt = time.perf_counter() - t
        errors, stats = self.check(res, rows)
        return dt, errors, stats

    def check(self, res: dict, rows: int) -> tuple[list[str], dict]:
        from kawa_ray.eval.pairwise import pairwise_f1

        errors = []
        n_mentions = res["mentions"].count()
        if rows != n_mentions:
            errors.append(f"clusters rows {rows} != mentions rows {n_mentions}")
        q = pairwise_f1(self.labeled, res["norm2cluster"])
        if q["f1"] < MIN_QUALITY or q["precision"] < MIN_QUALITY:
            errors.append(f"f1 {q['f1']:.4f} / precision {q['precision']:.4f} "
                          f"below {MIN_QUALITY}")
        d = partition_digest(res["norm2cluster"])
        if self.first_digest is None:
            self.first_digest = d
        elif d != self.first_digest:
            errors.append("cluster partition differs from the first iteration")
        self.norm2cluster = res["norm2cluster"]
        return errors, {"quality": q["f1"], "precision": q["precision"], "digest": d}

    def checkpointed(self, tracer) -> list[str]:
        """One ``link_pages_checkpointed`` run on the same corpus, with a
        fresh ``out_root`` that is deleted afterwards: the checkpoint
        layer's spans, and its answer checked against ``link_pages``'."""
        from kawa_ray.pipelines import linkage_ckpt

        out_root = tempfile.mkdtemp(prefix="ckpt-", dir=self.spec["inputs"]["ckpt_root"])
        res = linkage_ckpt.link_pages_checkpointed(
            self.pages_dir, out_root, n_entities=self.n_entities)
        with tracer.span("attach"):
            rows = res["clusters"].count()
        errors = []
        parts = res["manifests"]["mentions"]["partitions"].values()
        if rows != sum(p["rows_out"] for p in parts):
            errors.append("checkpointed clusters rows != mentions rows")
        if res["norm2cluster"] != self.norm2cluster:
            errors.append("checkpointed norm2cluster differs from link_pages'")
        shutil.rmtree(out_root)
        if os.path.exists(out_root):
            errors.append(f"out_root {out_root} survived its iteration")
        return errors


class CensusWorkload:
    """Line, paragraph and document dedup censuses (the exchange helpers)."""

    warmups = 1
    OPS = (("line_dedup", "pages_ops", "line_dedup_census"),
           ("paragraph_neardup", "pages_ops", "paragraph_neardup_census"),
           ("minhash_dedup", "docs", "minhash_dedup_docs"))

    def __init__(self, spec: dict):
        self.spec = spec
        self.sf_dir = spec["inputs"]["sf_dir"]
        self.first_digest = None

    def import_modules(self) -> None:
        from kawa_ray.config import LinkageConfig
        from kawa_ray.pipelines import docs, pages_ops

        self.cfg = LinkageConfig()
        self.modules = {"pages_ops": pages_ops, "docs": docs}

    def build_artifacts(self) -> None:
        """The censuses load no artifacts."""

    def prepare(self) -> None:
        oracle = self.spec["oracle"]
        if oracle["inputs_digest"] == self.spec["inputs"]["digest"]:
            self.expected = oracle["answers"]
        else:  # inputs changed since the answers were stored: ask DuckDB
            from perfbench.oracle import oracle_answers

            self.expected = oracle_answers(self.sf_dir)

    def iterate(self, tracer=None) -> tuple[float, list[str], dict]:
        t = time.perf_counter()
        frames, op_s = {}, {}
        for name, mod, fn in self.OPS:
            t_op = time.perf_counter()
            frames[name] = getattr(self.modules[mod], fn)(self.sf_dir)
            op_s[name] = time.perf_counter() - t_op
        dt = time.perf_counter() - t
        got = {fn: normalized_records(frames[name]) for name, _m, fn in self.OPS}
        errors = []
        d = digest(got)
        if self.first_digest is None:
            for fn, rows in got.items():
                if rows != self.expected[fn]:
                    errors.append(f"{fn}: {rows} != oracle {self.expected[fn]}")
            self.first_digest = d
        elif d != self.first_digest:
            errors.append("census output differs from the first iteration")
        return dt, errors, {"quality": 0.0 if errors else 1.0, "digest": d,
                            "op_s": op_s}


WORKLOADS = {"link": LinkWorkload, "census": CensusWorkload}


def run_iteration(wl, rec: Records, session: int, warmup: bool) -> None:
    try:
        dt, errors, stats = wl.iterate()
    except Exception:  # the run goes on; the iteration counts as failed
        dt, errors, stats = None, [traceback.format_exc()], {}
    rec.write("iter", session=session, warmup=warmup, s=dt, errors=errors, **stats)


def _spans_out(tr, t0: float, run: str) -> list[dict]:
    return [{**sp, "start": sp["start"] - t0, "end": sp["end"] - t0, "run": run}
            for sp in tr.spans]


def traced_iterations(wl, n_pages: int) -> dict:
    """One iteration under the layer spans; link workloads add one
    checkpointed run for the ``ckpt.*`` layers."""
    from perfbench import spans

    with spans.traced(wl.cfg) as tr:
        dt, errors, _ = wl.iterate(tr)
    wall = dt - tr.bookkeeping_s
    st = tr.self_times()
    t0 = tr.spans[0]["start"] if tr.spans else 0.0
    metrics = {f"{name}.s": st.get(name, 0.0) for name in LAYERS}
    metrics.update({k: tr.counts.get(k, 0) for k in COUNTS})
    metrics["detect.mentions_per_page"] = metrics["detect.mentions"] / n_pages
    metrics["pairs.dedup_ratio"] = (metrics["pairs.out"] / tr.counts["pairs.exploded"]
                                    if tr.counts.get("pairs.exploded") else 0.0)
    metrics["score.edge_ratio"] = (metrics["score.edges"] / metrics["score.pairs"]
                                   if metrics["score.pairs"] else 0.0)
    out_spans = _spans_out(tr, t0, "iteration")
    if isinstance(wl, LinkWorkload):
        with spans.traced(wl.cfg) as ck:
            errors += wl.checkpointed(ck)
        ck_st = ck.self_times()
        for name in ("ckpt.mentions", "ckpt.graph", "ckpt.clusters"):
            metrics[f"{name}.s"] = ck_st.get(name, 0.0)
        for name in ("ckpt.bytes_written", "ckpt.parts"):
            metrics[name] = ck.counts.get(name, 0)
        out_spans += _spans_out(ck, ck.spans[0]["start"], "checkpointed")
    return {"wall_s": wall, "errors": errors, "metrics": metrics,
            "coverage": sum(st.values()) / wall, "spans": out_spans}


def main() -> int:
    with open(sys.argv[1]) as f:
        spec = json.load(f)
    rec = Records(spec["records"])
    wl = WORKLOADS[spec["kind"]](spec)

    import ray
    from ray.data import DataContext

    wl.import_modules()
    imports_s = time.perf_counter() - T0
    # a fresh local instance whatever RAY_ADDRESS says, with its sessions
    # (and sockets) in the run's own short temp dir, not Ray's default one
    init_kwargs = dict(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                       logging_level="ERROR", log_to_driver=False,
                       object_store_memory=OBJECT_STORE_BYTES,
                       _temp_dir=spec["ray_temp_dir"])
    seconds = spec["seconds"] / SESSIONS
    for k in range(SESSIONS):
        if k:
            ray.shutdown()
        t = time.perf_counter()
        ray.init(**init_kwargs)
        init_s = time.perf_counter() - t
        session = ray._private.worker._global_node.get_session_dir_path()
        t = time.perf_counter()
        wl.build_artifacts()
        art_s = time.perf_counter() - t
        rec.write("setup", setup_s=imports_s + init_s + art_s, ray_init_s=init_s,
                  artifacts_s=art_s, imports_s=imports_s, session=session)
        DataContext.get_current().enable_progress_bars = False
        if k == 0:
            # what `nproc` prints: OMP_NUM_THREADS caps it below the CPUs available
            cpus = len(os.sched_getaffinity(0))
            rec.write("env", nproc=min(cpus, int(os.environ.get("OMP_NUM_THREADS") or cpus)),
                      cpus_available=cpus,
                      num_cpus=ray.cluster_resources().get("CPU", 0))
            wl.prepare()
        for _ in range(wl.warmups):
            run_iteration(wl, rec, k, warmup=True)
        start = time.perf_counter()
        for n in itertools.count(1):
            run_iteration(wl, rec, k, warmup=False)
            if n >= MIN_MEASURED and time.perf_counter() - start >= seconds:
                break
    rec.write("rss", peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if spec["trace"]:
        rec.write("trace", **traced_iterations(wl, spec["inputs"]["n_pages"]))
    ray.shutdown()
    rec.write("done")
    return 0


if __name__ == "__main__":
    sys.exit(main())
