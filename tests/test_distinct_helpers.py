"""Direct tests for the shared partition helpers (stages/distinct.py) —
after the round-4 sweep most data-cardinality reductions in the package
route through them, so they get their own reference checks: seeded
random frames with duplicate-heavy string AND int keys, compared
against the straight pandas answer."""

import numpy as np
import pandas as pd
import pytest

import ray.data as rd

from kawa_ray.stages.distinct import partition_distinct, partition_reduce


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
    salt) must reach ``fn`` one route value per call, with every row of
    that value in the call."""
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
        return pd.DataFrame({"route": [int(g["route"].iloc[0])],
                             "n_values": [int(g["route"].nunique())],
                             "rows": [",".join(map(str, sorted(g["row"])))]})

    got = partition_reduce(
        rd.from_pandas(label_rows).union(rd.from_pandas(jump_rows)),
        "route", fn, P).to_pandas()
    assert (got["n_values"] == 1).all()
    assert not got["route"].duplicated().any()
    want = {int(r): ",".join(map(str, sorted(g["row"])))
            for r, g in df.groupby("route")}
    assert dict(zip(got["route"].astype(int), got["rows"])) == want


_ROUTE_NAMES = {"P", "partitions", "_p", "n_parts", "n_partitions"}


def _names(node) -> set:
    import ast

    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _exchange_violations(path) -> list:
    """Hand-rolled exchanges in one module: a ``groupby("part")``, a
    ``part`` column written (dict key, keyword or subscript), or a
    modulo / bitmask by a partition count."""
    import ast

    tree = ast.parse(path.read_text(), str(path))
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
            bad.append(f"{path}:{node.lineno}: {hit}")
    return bad


def test_no_exchange_outside_partition_reduce():
    """Every hash-partitioned reduce goes through
    ``stages/distinct.partition_reduce`` and is routed only by
    ``route_parts``: no other module may write a ``part`` column, call
    ``groupby("part")`` or compute a partition id itself."""
    from pathlib import Path

    import kawa_ray

    root = Path(kawa_ray.__file__).parent
    bad = []
    for path in sorted(root.rglob("*.py")):
        if path.relative_to(root).as_posix() == "stages/distinct.py":
            continue
        bad += _exchange_violations(path)
    assert not bad, "hand-rolled exchanges:\n" + "\n".join(bad)
