"""Direct tests for the shared partition helpers (stages/distinct.py) —
after the round-4 sweep most data-cardinality reductions in the package
route through them, so they get their own reference checks: seeded
random frames with duplicate-heavy string AND int keys, compared
against the straight pandas answer."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from kawa_ray.stages.distinct import (
    partition_distinct,
    partition_join,
    partition_reduce,
)


def _frame(seed: int, n: int = 5000) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "k_str": [f"key{int(x):03d}" for x in rng.integers(0, 120, n)],
            "k_int": rng.integers(-50, 50, n).astype("int64"),
            "grp": [f"g{int(x)}" for x in rng.integers(0, 7, n)],
            "val": rng.integers(0, 1000, n).astype("int64"),
        }
    )


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("key", ["k_str", "k_int"])
def test_partition_distinct_matches_pandas(ray_session, seed, key):
    df = _frame(seed)
    cols = [key, "grp"]
    got = (partition_distinct(rd.from_pandas(df), cols, key_col=key)
           .to_pandas()[cols].sort_values(cols).reset_index(drop=True))
    want = (df.drop_duplicates(cols)[cols]
            .sort_values(cols).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want)


@pytest.mark.parametrize("key", ["k_str", "k_int"])
def test_partition_reduce_matches_pandas(ray_session, key):
    df = _frame(3)

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(key, sort=False, as_index=False)["val"].sum()

    got = (partition_reduce(rd.from_pandas(df), key, fn)
           .to_pandas().sort_values(key).reset_index(drop=True))
    want = (df.groupby(key, sort=False, as_index=False)["val"].sum()
            .sort_values(key).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want)


def test_partition_reduce_key_groups_never_split(ray_session):
    """Every key's rows must land in exactly one fn invocation — the
    contract every converted reduction relies on.  fn reports the keys
    it saw; no key may appear in two partitions."""
    df = _frame(4, n=3000)

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k_str": g["k_str"].unique()})

    seen = (partition_reduce(rd.from_pandas(df), "k_str", fn)
            .to_pandas()["k_str"])
    assert not seen.duplicated().any()
    assert set(seen) == set(df["k_str"].unique())


def test_partition_distinct_then_and_passthrough(ray_session):
    """then= fuses a per-partition follow-up; passthrough rows ride the
    shuffle undeduplicated (the winnow census shape)."""
    df = _frame(5, n=2000).assign(thru=False)
    extra = pd.DataFrame(
        {"k_str": ["key001"] * 3, "k_int": [0, 0, 0],
         "grp": ["p", "p", "p"], "val": [1, 1, 1], "thru": True}
    )
    ds = rd.from_pandas(pd.concat([df, extra], ignore_index=True))

    def then(g: pd.DataFrame) -> pd.DataFrame:
        dd = g[~g["thru"]]
        return pd.DataFrame(
            {"n_distinct": [len(dd)], "n_thru": [int(g["thru"].sum())]}
        )

    got = partition_distinct(ds, ["k_str", "grp"], key_col="k_str",
                             then=then, passthrough_col="thru").to_pandas()
    assert got["n_distinct"].sum() == len(df.drop_duplicates(["k_str", "grp"]))
    assert got["n_thru"].sum() == 3  # identical passthrough rows survive


class TestRouteDtypeStability:
    """route_parts must send the same logical key to the same partition
    regardless of pandas dtype promotion — a float64-promoted or
    object-boxed int batch co-locates with its int64 twins (the silent
    key-split hazard a per-batch dtype branch would create)."""

    def test_promoted_batches_co_locate(self, ray_session):
        ints = pd.DataFrame({"k": pd.Series([1, 2, 3, 65], dtype="int64"),
                             "v": [10, 20, 30, 40]})
        floats = pd.DataFrame({"k": pd.Series([1.0, 2.0, 3.0, 65.0],
                                              dtype="float64"),
                               "v": [1, 2, 3, 4]})
        objs = pd.DataFrame({"k": pd.Series([1, 2, 3, 65], dtype="object"),
                             "v": [100, 200, 300, 400]})
        ds = (rd.from_pandas(ints)
              .union(rd.from_pandas(floats))
              .union(rd.from_pandas(objs)))

        def fn(g: pd.DataFrame) -> pd.DataFrame:
            g = g.assign(k=g["k"].astype("int64"))
            return g.groupby("k", as_index=False)["v"].sum()

        got = (partition_reduce(ds, "k", fn).to_pandas()
               .astype({"k": "int64", "v": "int64"})
               .sort_values("k").reset_index(drop=True))
        # one row per key — a split key would appear twice
        assert got["k"].tolist() == [1, 2, 3, 65]
        assert got["v"].tolist() == [111, 222, 333, 444]

    def test_fractional_or_null_numeric_keys_raise(self):
        from kawa_ray.stages.distinct import route_parts

        with pytest.raises(TypeError):
            route_parts(pd.Series([1.5, 2.0]), 64)
        with pytest.raises(TypeError):
            route_parts(pd.Series([1.0, None], dtype="float64"), 64)

    def test_string_and_int_routing_deterministic(self):
        from kawa_ray.stages.distinct import route_parts

        s = pd.Series(["a", "bb", "ccc"] * 5, dtype="object")
        assert (route_parts(s, 16) == route_parts(s.copy(), 16)).all()
        i = pd.Series([-5, 0, 63, 64, 129], dtype="int64")
        assert route_parts(i, 64).tolist() == [59, 0, 63, 0, 1]


def test_composite_route_sees_one_value_per_call(ray_session):
    """A caller-computed int route below P (the pointer-jump rewrite's
    shape: salted label rows plus shortcut rows replicated once per
    salt) routes by value: each route value reaches exactly one ``fn``
    call, with every row of that value in the call (a call may hold
    several route values)."""
    P, S = 16, 4
    rng = np.random.default_rng(6)
    n = 600
    label_rows = pd.DataFrame({
        "row": np.arange(n, dtype="int64"),
        "route": rng.integers(0, P, n).astype("int64"),
    })
    # shortcut rows: each replicated into all S salts of its label bucket
    base = rng.integers(0, P // S, 40).astype("int64")
    jump_rows = pd.DataFrame({
        "row": np.repeat(np.arange(n, n + 40, dtype="int64"), S),
        "route": np.repeat(base * S, S) + np.tile(np.arange(S), 40),
    })
    df = pd.concat([label_rows, jump_rows], ignore_index=True)

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        per = g.groupby("route")["row"].agg(
            lambda r: ",".join(map(str, sorted(r))))
        return pd.DataFrame({"route": per.index.astype("int64"),
                             "rows": per.to_numpy()})

    got = partition_reduce(
        rd.from_pandas(label_rows).union(rd.from_pandas(jump_rows)),
        "route", fn, P).to_pandas()
    assert not got["route"].duplicated().any()
    want = {int(r): ",".join(map(str, sorted(g["row"])))
            for r, g in df.groupby("route")}
    assert dict(zip(got["route"].astype(int), got["rows"])) == want


def test_partition_reduce_calls_fn_per_block(ray_session):
    """``fn`` runs once per shuffled block, not once per route: a
    4-block input at P = 64 makes at most 4 calls, and no key is split
    across calls."""
    df = _frame(7, n=4000)
    ds = rd.from_pandas(np.array_split(df, 4))
    assert ds.num_blocks() == 4

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        import uuid

        n = g.groupby("k_str").size()
        return pd.DataFrame({"k_str": n.index, "n": n.to_numpy("int64"),
                             "call": uuid.uuid4().hex})

    got = partition_reduce(ds, "k_str", fn, 64).to_pandas()
    assert got["call"].nunique() <= 4
    assert not got["k_str"].duplicated().any()
    want = df.groupby("k_str").size()
    assert dict(zip(got["k_str"], got["n"])) == want.to_dict()


def test_partition_join_keeps_side_dtypes(ray_session):
    """Each side comes back with its own columns and dtypes: an int64
    near 2**62, bytes and str survive unchanged (a None-padded union
    turned such ints into float64), and a side with no rows in a
    partition still arrives with its columns."""
    big = [2**62 + 12345, 2**62 + 1, -(2**62) - 7, 5]
    left = pd.DataFrame({"k": np.array([0, 1, 2, 3], dtype="int64"),
                         "big": np.array(big, dtype="int64"),
                         "raw": [b"\x00\xff", b"", b"ab", b"\x01"],
                         "txt": ["a", "", "ü", "d"]})
    right = pd.DataFrame({"k": np.array([1, 3], dtype="int64"),
                          "w": np.array([0.5, 1.5])})

    def fn(lf: pd.DataFrame, rf: pd.DataFrame) -> pd.DataFrame:
        # k routes by value: report each route's rows on both sides
        routes = sorted(set(lf["k"]) | set(rf["k"]))
        return pd.DataFrame({
            "n_left": [len(lf)],
            "routes": [",".join(f"{r}:{(lf['k'] == r).sum()}:"
                                f"{(rf['k'] == r).sum()}" for r in routes)],
            "left_dtypes": [",".join(f"{c}:{t}" for c, t in lf.dtypes.items())],
            "right_cols": [",".join(rf.columns)],
            "big": [",".join(map(str, lf["big"].tolist()))],
            "raw": [b"|".join(lf["raw"])],
            "txt": ["|".join(lf["txt"])]})

    got = partition_join([(rd.from_pandas(left), "k"),
                          (rd.from_pandas(right), "k")], fn, 4).to_pandas()
    assert got["n_left"].sum() == 4
    # each route value reaches exactly one call, with all its rows
    routes = [r.split(":") for rs in got["routes"] for r in rs.split(",")]
    assert sorted(int(r) for r, _, _ in routes) == [0, 1, 2, 3]
    assert {int(r): (int(nl), int(nr)) for r, nl, nr in routes} == {
        0: (1, 0), 1: (1, 1), 2: (1, 0), 3: (1, 1)}
    assert set(got["left_dtypes"]) == {"k:int64,big:int64,raw:object,txt:object"}
    assert set(got["right_cols"]) == {"k,w"}
    calls = got[got["n_left"] > 0]
    assert sorted(int(x) for s in calls["big"] for x in s.split(",")) \
        == sorted(big)
    assert sorted(x for s in calls["raw"] for x in s.split(b"|")) \
        == sorted(left["raw"])
    assert sorted(x for s in calls["txt"] for x in s.split("|")) \
        == sorted(left["txt"])


def test_partition_join_three_way_sees_each_row_once(ray_session):
    rng = np.random.default_rng(3)
    frames = [pd.DataFrame({"key": [f"u{int(x)}" for x in rng.integers(0, 40, n)],
                            "row": np.arange(n, dtype="int64") + 1000 * i})
              for i, n in enumerate([300, 120, 60])]

    def fn(*fs: pd.DataFrame) -> pd.DataFrame:
        keys = [set(f["key"]) for f in fs]
        return pd.DataFrame({"side": [0, 1, 2],
                             "rows": [",".join(map(str, f["row"])) for f in fs],
                             "keys": [",".join(sorted(k)) for k in keys]})

    got = partition_join([(rd.from_pandas(f), "key") for f in frames],
                         fn, 8).to_pandas()
    for i, f in enumerate(frames):
        part = got[got["side"] == i]
        rows = [int(r) for s in part["rows"] if s for r in s.split(",")]
        assert sorted(rows) == f["row"].tolist()
    # a key's rows meet in one partition on every side
    owners: dict = {}
    for _, r in got.iterrows():
        for k in filter(None, r["keys"].split(",")):
            owners.setdefault(k, set()).add(r.name // 3)
    assert all(len(v) == 1 for v in owners.values())


def test_partition_join_composite_route_by_value(ray_session):
    """Int routes below P meet by value, the pointer jump's contract:
    salted label rows on one side, shortcut rows replicated once per
    salt on the other."""
    P, S = 16, 4
    rng = np.random.default_rng(6)
    labels = pd.DataFrame({"route": rng.integers(0, P, 500).astype("int64"),
                           "row": np.arange(500, dtype="int64")})
    base = rng.integers(0, P // S, 30).astype("int64")
    jumps = pd.DataFrame({
        "route": np.repeat(base * S, S) + np.tile(np.arange(S), 30),
        "jump": np.repeat(np.arange(30, dtype="int64"), S)})

    def fn(lab: pd.DataFrame, jm: pd.DataFrame) -> pd.DataFrame:
        routes = sorted(set(lab["route"]) | set(jm["route"]))
        return pd.DataFrame({
            "route": pd.Series(routes, dtype="int64"),
            "rows": [int((lab["route"] == r).sum()) for r in routes],
            "jumps": [int((jm["route"] == r).sum()) for r in routes]})

    got = partition_join([(rd.from_pandas(labels), "route"),
                          (rd.from_pandas(jumps), "route")], fn, P).to_pandas()
    # each route value reaches exactly one call, with all its rows
    assert not got["route"].duplicated().any()
    want_rows = labels.groupby("route").size()
    want_jumps = jumps.groupby("route").size()
    for _, r in got.iterrows():
        assert r["rows"] == want_rows.get(r["route"], 0)
        assert r["jumps"] == want_jumps.get(r["route"], 0)


_ROUTE_NAMES = {"P", "partitions", "_p", "n_parts", "n_partitions"}


def _names(node) -> set:
    import ast

    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _exchange_violations(src: str, name: str = "<src>") -> list:
    """Hand-rolled exchanges in one module: a ``groupby("part")``, a
    ``part`` column written (dict key, keyword or subscript), a modulo /
    bitmask by a partition count, a ``map_groups`` (Ray's per-key
    dispatch), a ``from ray.data.aggregate import`` or a
    ``.groupby(...).aggregate(...)`` chain (a Ray grouped exchange; a
    key-cardinality result folds with ``fold_groups``)."""
    import ast

    tree = ast.parse(src, name)
    bad = []
    for node in ast.walk(tree):
        hit = None
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr == "groupby"
                    and any(isinstance(a, ast.Constant) and a.value == "part"
                            for a in node.args)):
                hit = 'groupby("part")'
            elif any(k.arg == "part" for k in node.keywords):
                hit = "part= column"
            elif (isinstance(f, ast.Attribute) and f.attr == "bit_wise_and"
                    and _names(node) & _ROUTE_NAMES):
                hit = "bit_wise_and route"
            elif (isinstance(f, ast.Attribute) and f.attr == "aggregate"
                    and isinstance(f.value, ast.Call)
                    and isinstance(f.value.func, ast.Attribute)
                    and f.value.func.attr == "groupby"):
                hit = "groupby().aggregate()"
        elif isinstance(node, ast.Attribute) and node.attr == "map_groups":
            hit = "map_groups"
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").startswith("ray.data.aggregate"):
                hit = "ray.data.aggregate import"
        elif isinstance(node, ast.Dict):
            if any(isinstance(k, ast.Constant) and k.value == "part"
                   for k in node.keys):
                hit = '"part" column'
        elif isinstance(node, ast.Subscript):
            if (isinstance(node.slice, ast.Constant)
                    and node.slice.value == "part"):
                hit = '["part"] column'
        elif isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Mod, ast.BitAnd)):
            if _names(node.right) & _ROUTE_NAMES:
                hit = "% / & partition route"
        if hit:
            bad.append(f"{name}:{node.lineno}: {hit}")
    return bad


def test_exchange_scanner_shapes():
    """The scanner flags Ray's grouped exchanges and leaves pandas and
    pyarrow in-batch groupings alone."""
    flagged = '''
from ray.data.aggregate import Sum

def census(ds):
    return ds.groupby("lang").aggregate(Sum("n", alias_name="n"))

def per_key(ds):
    return ds.groupby("k").map_groups(fn, batch_format="pandas")
'''
    allowed = '''
def partial(df, t):
    a = df.groupby("lang", as_index=False).agg(n=("n", "sum"))
    b = t.group_by("lang").aggregate([("n", "sum")])
    return a, b
'''
    assert _exchange_violations(flagged) == [
        "<src>:2: ray.data.aggregate import",
        "<src>:5: groupby().aggregate()",
        "<src>:8: map_groups"]
    assert _exchange_violations(allowed) == []


def test_no_exchange_outside_partition_reduce():
    """Every hash-partitioned reduce goes through
    ``stages/distinct.partition_reduce`` and is routed only by
    ``route_parts``: no other module may write a ``part`` column, call
    ``groupby("part")`` or compute a partition id itself, and no other
    module runs a Ray grouped exchange (``map_groups``,
    ``groupby().aggregate()``, ``ray.data.aggregate``)."""
    from pathlib import Path

    import kawa_ray

    root = Path(kawa_ray.__file__).parent
    bad = []
    for path in sorted(root.rglob("*.py")):
        if path.relative_to(root).as_posix() == "stages/distinct.py":
            continue
        bad += _exchange_violations(path.read_text(), str(path))
    assert not bad, "hand-rolled exchanges:\n" + "\n".join(bad)


def _union_join_sites(src: str, name: str = "<src>") -> list:
    """``Dataset.union`` calls whose result feeds ``partition_reduce`` or
    ``partition_distinct`` inside one function, directly or through a
    local name: a hand-rolled join (padded sides plus a side marker)
    that belongs in ``partition_join``.  One entry per union call."""
    import ast

    def is_union(node) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "union")

    def is_reduce(node) -> bool:
        f = node.func
        fname = (f.id if isinstance(f, ast.Name)
                 else f.attr if isinstance(f, ast.Attribute) else None)
        return fname in ("partition_reduce", "partition_distinct")

    sites = set()
    for fn in ast.walk(ast.parse(src, name)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        assigned = {}  # local name -> line of the union it holds
        for st in ast.walk(fn):
            if isinstance(st, ast.Assign):
                unions = [n for n in ast.walk(st.value) if is_union(n)]
                for t in st.targets:
                    if unions and isinstance(t, ast.Name):
                        assigned[t.id] = unions[0].lineno
        for call in ast.walk(fn):
            if not (isinstance(call, ast.Call) and is_reduce(call)
                    and call.args):
                continue
            for n in ast.walk(call.args[0]):
                if is_union(n):
                    sites.add(n.lineno)
                elif isinstance(n, ast.Name) and n.id in assigned:
                    sites.add(assigned[n.id])
    return [f"{name}:{line}" for line in sorted(sites)]


def test_union_join_scanner_shapes():
    """The scanner flags a union fed to the exchange directly or via a
    name, and leaves union-find, set and returned-stream unions alone."""
    flagged = '''
def direct(a, b):
    return partition_reduce(a.map_batches(f).union(b), "k", fn)

def via_name(a, b):
    rows = a.union(b)
    return partition_reduce(rows, "k", fn)
'''
    allowed = '''
def uf(edges):
    u = UnionFind()
    for a, b in edges:
        u.union(a, b)

S = frozenset().union(*groups)

def tagged(a, b):
    return a.union(b)

def consumer(x):
    return partition_reduce(tagged(x, x), "a", fn)
'''
    assert _union_join_sites(flagged) == ["<src>:3", "<src>:6"]
    assert _union_join_sites(allowed) == []


def test_no_union_join_outside_partition_join():
    """Keyed joins of two or more Datasets go through
    ``stages/distinct.partition_join``: no module outside
    ``stages/distinct.py`` unions streams into the exchange."""
    from pathlib import Path

    import kawa_ray

    root = Path(kawa_ray.__file__).parent
    bad = []
    for path in sorted(root.rglob("*.py")):
        if path.relative_to(root).as_posix() == "stages/distinct.py":
            continue
        bad += _union_join_sites(path.read_text(), str(path))
    assert not bad, "union joins outside partition_join:\n" + "\n".join(bad)


def _pair_loop_and_fold_sites(src: str, name: str = "<src>") -> list:
    """Hand-written pair emitters and driver folds in one module: a
    ``for y in range(x + 1, ...)`` loop that is a direct body statement
    of a ``for x ...`` loop (a within-block pair loop, the job of
    ``stages/pairs.block_pairs``), and driver folds, the job of
    ``stages/distinct.fold_groups``: any ``acc.get(int(...), 0) + ...``
    expression wherever it sits (a histogram fold), and any
    ``d[k] = d.get(k, 0) + ...`` inside a loop that walks the rows of
    an ``iter_batches`` batch (``zip(b[...], ...)``, ``b.itertuples()``,
    ``b.iterrows()``; a batch fold).  A loop over a batch's groups
    (``b.groupby(...)``) is not a row walk."""
    import ast

    def loop_var(node):
        return node.target.id if isinstance(node.target, ast.Name) else None

    def starts_after(call, x) -> bool:
        a0 = call.args[0] if call.args else None
        return (isinstance(a0, ast.BinOp) and isinstance(a0.op, ast.Add)
                and isinstance(a0.left, ast.Name) and a0.left.id == x
                and isinstance(a0.right, ast.Constant)
                and a0.right.value == 1)

    def is_batch_loop(node) -> bool:
        return (isinstance(node, ast.For) and loop_var(node) is not None
                and any(isinstance(c, ast.Call)
                        and isinstance(c.func, ast.Attribute)
                        and c.func.attr == "iter_batches"
                        for c in ast.walk(node.iter)))

    def walks_rows(it, b) -> bool:
        def of_b(n) -> bool:
            return isinstance(n, ast.Name) and n.id == b
        if isinstance(it, ast.Call) and isinstance(it.func, ast.Name) \
                and it.func.id == "zip":
            return any(isinstance(a, ast.Subscript) and of_b(a.value)
                       for a in it.args)
        return (isinstance(it, ast.Call) and isinstance(it.func, ast.Attribute)
                and it.func.attr in ("itertuples", "iterrows")
                and of_b(it.func.value))

    def is_histogram_fold(node) -> bool:
        # acc.get(int(...), 0) + ...
        f = node.left
        return (isinstance(node.op, ast.Add) and isinstance(f, ast.Call)
                and isinstance(f.func, ast.Attribute) and f.func.attr == "get"
                and isinstance(f.func.value, ast.Name)
                and f.func.value.id == "acc" and len(f.args) == 2
                and isinstance(f.args[0], ast.Call)
                and isinstance(f.args[0].func, ast.Name)
                and f.args[0].func.id == "int"
                and isinstance(f.args[1], ast.Constant)
                and f.args[1].value == 0)

    def is_get_fold(st) -> bool:
        # d[k] = d.get(k, 0) + ...
        if not (isinstance(st, ast.Assign) and len(st.targets) == 1
                and isinstance(st.targets[0], ast.Subscript)
                and isinstance(st.targets[0].value, ast.Name)
                and isinstance(st.value, ast.BinOp)
                and isinstance(st.value.op, ast.Add)):
            return False
        g = st.value.left
        return (isinstance(g, ast.Call) and isinstance(g.func, ast.Attribute)
                and g.func.attr == "get"
                and isinstance(g.func.value, ast.Name)
                and g.func.value.id == st.targets[0].value.id
                and len(g.args) == 2 and isinstance(g.args[1], ast.Constant)
                and g.args[1].value == 0)

    bad, histogram, batch = set(), set(), set()
    for node in ast.walk(ast.parse(src, name)):
        if isinstance(node, ast.For) and loop_var(node):
            for st in node.body:
                if (isinstance(st, ast.For)
                        and isinstance(st.iter, ast.Call)
                        and isinstance(st.iter.func, ast.Name)
                        and st.iter.func.id == "range"
                        and starts_after(st.iter, loop_var(node))):
                    bad.add((st.lineno, "pair loop"))
        if isinstance(node, ast.BinOp) and is_histogram_fold(node):
            histogram.add(node.lineno)
        if is_batch_loop(node):
            for inner in ast.walk(node):
                if (isinstance(inner, ast.For)
                        and walks_rows(inner.iter, loop_var(node))):
                    batch |= {st.lineno for st in ast.walk(inner)
                              if is_get_fold(st)}
    bad |= {(line, "histogram fold") for line in histogram}
    bad |= {(line, "batch fold") for line in batch - histogram}
    return [f"{name}:{line}: {what}" for line, what in sorted(bad)]


def test_pair_loop_scanner_shapes():
    """The scanner flags the nested pair loop, the int-keyed histogram
    fold wherever it sits, and int- or str-keyed dict folds over a
    batch's rows, and leaves span loops, offset ranges, pandas / pyarrow
    groupings and the Misra-Gries sketch merge (a loop over a batch's
    groups) alone."""
    flagged = '''
def emit(mem, batch):
    for x in range(len(mem) - 1):
        a = mem[x]
        for y in range(x + 1, len(mem)):
            out.append((a, mem[y]))
    for k, n in zip(batch["k"], batch["n"]):
        acc[int(k)] = acc.get(int(k), 0) + int(n)

def per_lang(ds):
    for b in ds.map_batches(f).iter_batches(batch_format="pandas"):
        for lang, n in zip(b["lang"], b["n"]):
            counts[lang] = counts.get(lang, 0) + int(n)

def over_batches(ds):
    for batch in ds.iter_batches(batch_format="pandas"):
        for k, n in zip(batch["k"], batch["n"]):
            acc[int(k)] = acc.get(int(k), 0) + int(n)

def total(k, n):
    x = acc.get(int(k), 0) + n
    return x
'''
    allowed = '''
def spans(sent, i):
    for j in range(3, 0, -1):
        if hit:
            for k in range(i + 1, i + j + 1):
                sent[k] = None

def levels(depth):
    for level_no in range(depth):
        if not pending:
            for _ in range(level_no + 1, depth):
                pass

def per_lang(rows):
    for lang, n in rows:
        acc[lang] = acc.get(lang, 0) + int(n)

def partials(df, t):
    a = df.groupby("lang", as_index=False).agg(n=("n", "sum"))
    return a, t.group_by("lang").aggregate([("n", "sum")])

def sketch(ds):
    for b in ds.iter_batches(batch_format="pandas"):
        for lang, grp in b.groupby("lang"):
            totals[lang] = totals.get(lang, 0) + int(grp["cnt"].sum())
            cur = running.setdefault(lang, {})
            for t, c in zip(grp["token"], grp["cnt"]):
                cur[t] = cur.get(t, 0) + int(c)
'''
    assert _pair_loop_and_fold_sites(flagged) == [
        "<src>:5: pair loop", "<src>:8: histogram fold",
        "<src>:13: batch fold", "<src>:18: histogram fold",
        "<src>:21: histogram fold"]
    assert _pair_loop_and_fold_sites(allowed) == []


def test_no_pair_loop_or_fold_outside_helpers():
    """Within-block pairs come from ``stages/pairs.block_pairs`` and
    grouped partials fold through ``stages/distinct.fold_groups``: no
    other module writes its own pair loop or dict fold over batch
    rows."""
    from pathlib import Path

    import kawa_ray

    root = Path(kawa_ray.__file__).parent
    bad = []
    for path in sorted(root.rglob("*.py")):
        if path.relative_to(root).as_posix() in ("stages/pairs.py",
                                                 "stages/distinct.py"):
            continue
        bad += _pair_loop_and_fold_sites(path.read_text(), str(path))
    assert not bad, "pair loops / folds outside the helpers:\n" + "\n".join(bad)


def test_fold_counts_sums_sorted_typed(ray_session):
    """Partial rows of one key in several batches sum to one row;
    keys sort ascending; both columns int64 on a RangeIndex; an empty
    Dataset folds to the same typed frame, empty."""
    from kawa_ray.stages.distinct import fold_groups

    parts = [pd.DataFrame({"k": [3, -1], "n": [2, 5]}),
             pd.DataFrame({"k": [3, 2 ** 40], "n": [1, 1]}),
             pd.DataFrame({"k": pd.Series([], dtype="int64"),
                           "n": pd.Series([], dtype="int64")})]
    got = fold_groups(rd.from_pandas(parts), "k", {"n": ("n", "sum")})
    want = pd.DataFrame({"k": [-1, 3, 2 ** 40], "n": [5, 3, 1]},
                        dtype="int64")
    pd.testing.assert_frame_equal(got, want)
    empty = fold_groups(rd.from_pandas(parts[2]), "k", {"n": ("n", "sum")})
    pd.testing.assert_frame_equal(empty, want.iloc[:0].reset_index(drop=True))


def _grouped_blocks():
    """Strategy: (key kind, number of key columns, blocks) — random
    rows split into 1-4 Arrow blocks, keys with nulls, plus one key
    whose values are all null."""
    from datetime import datetime, timedelta

    from hypothesis import strategies as st

    kinds = {
        "str": (st.sampled_from(["a", "b", "ü", "zz"]), pa.string(), "zz-null"),
        "int": (st.integers(-3, 3), pa.int64(), 99),
        "ts": (st.integers(0, 3).map(
            lambda h: datetime(2024, 1, 1) + timedelta(hours=h)),
            pa.timestamp("us"), datetime(2030, 1, 1)),
    }

    @st.composite
    def draw(d):
        kind = d(st.sampled_from(sorted(kinds)))
        key_st, key_t, null_group = kinds[kind]
        n_keys = d(st.integers(1, 2))
        row = st.tuples(*[st.one_of(st.none(), key_st)] * n_keys,
                        st.one_of(st.none(), st.integers(-2**40, 2**40)),
                        st.one_of(st.none(), st.floats(-1e6, 1e6)))
        rows = d(st.lists(row, min_size=1, max_size=40))
        rows += [(null_group,) * n_keys + (None, None)] * d(st.integers(1, 3))
        cut = sorted(d(st.lists(st.integers(0, len(rows)), max_size=3)))
        blocks = [rows[lo:hi] for lo, hi in zip([0] + cut, cut + [len(rows)])]
        names = [f"k{i}" for i in range(n_keys)]
        schema = pa.schema([(c, key_t) for c in names]
                           + [("v", pa.int64()), ("f", pa.float64())])
        return names, [pa.Table.from_pylist(
            [dict(zip(schema.names, r)) for r in b], schema) for b in blocks]

    return draw()


def _plain(x):
    """SQL value for comparison: NaN / NaT / None -> None."""
    return None if x is None or (not isinstance(x, str) and pd.isna(x)) else x


def test_fold_groups_matches_duckdb(ray_session):
    """``fold_groups`` equals DuckDB ``GROUP BY ... ORDER BY`` on random
    frames split across blocks: str, int and timestamp keys (one or two
    columns), null keys as their own group, an all-null group (null
    sum/min/max, zero COUNT(col)), SUM / COUNT(*) / COUNT(col) / MIN /
    MAX, with int64 counts and float64 float sums."""
    import duckdb
    from hypothesis import given, settings

    from kawa_ray.stages.distinct import fold_groups

    @settings(max_examples=12, deadline=None)
    @given(_grouped_blocks())
    def check(case):
        names, blocks = case
        got = fold_groups(rd.from_arrow(blocks), names, {
            "s": ("v", "sum"), "n": (None, "count"), "nv": ("v", "count"),
            "lo": ("v", "min"), "hi": ("v", "max"), "fs": ("f", "sum")})
        assert list(got.columns) == names + ["s", "n", "nv", "lo", "hi", "fs"]
        assert isinstance(got.index, pd.RangeIndex)
        assert got["n"].dtype == "int64" and got["nv"].dtype == "int64"
        assert got["fs"].dtype == "float64"
        con = duckdb.connect()
        con.register("t", pa.concat_tables(blocks))
        keys = ", ".join(names)
        want = con.execute(
            f"SELECT {keys}, SUM(v), COUNT(*), COUNT(v), MIN(v), MAX(v), "
            f"SUM(f) FROM t GROUP BY {keys} ORDER BY "
            + ", ".join(f"{c} NULLS LAST" for c in names)).fetchall()
        assert len(got) == len(want)
        for g, w in zip(got.itertuples(index=False), want):
            g, w = [_plain(x) for x in g], [_plain(x) for x in w]
            assert g[:-1] == w[:-1]
            assert (g[-1] is None) == (w[-1] is None)
            if w[-1] is not None:
                assert g[-1] == pytest.approx(w[-1], rel=1e-9, abs=1e-6)

    check()
