import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import object_form
from chdp.connection import VelocityPair
from chdp.csvio import (_write_columns, read_snapshot, write_manifest, write_scan,
                        write_snapshot)
from chdp.curvature import ScanTable
from chdp.spectral import Grid, PeriodicField

SPECIAL_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e300, 0.1]
# Few values, so a column drawn from them repeats in every chunk: the signed
# zeros, the infinities, the least subnormal, 17-digit floats, large
# integers and NaNs of other sign and payload bits.
POOL_FLOATS = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, 5e-324, 0.1 + 0.2, 2 ** 0.5, 1 / 3 + 1e-16, 2.0 ** 63, 1e22],
    np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001],
             dtype=np.uint64).view(np.float64),
])
POOL_INTS = np.array([0, 1, -1, 2**53 + 1, 2**62, -2**63, 2**63 - 1])


def test_columns_written_with_str_and_repr(tmp_path):
    # Oracle: ints with str, floats with repr, csv's "\r\n" line ends.
    ints = [0, 7, 12, 2**40]
    floats = [-0.0, 5e-324, 1e300, 0.1]
    table = ScanTable(*(np.array(ints) for _ in range(4)),
                      *(np.array(floats) for _ in range(4)))
    path = tmp_path / "new" / "scan.csv"
    write_scan(path, table)
    header = "m_k1,m_k2,m_l1,m_l2,S_numeric,S_closed,Sec,gram"
    lines = [",".join([str(i)] * 4 + [repr(x)] * 4) for i, x in zip(ints, floats)]
    assert path.read_bytes() == "".join(f"{line}\r\n" for line in [header, *lines]).encode()


@st.composite
def numeric_columns(draw):
    """Int and float columns of one length; the lengths straddle the writer's chunks.

    A pool column draws its cells from a few values, so every chunk repeats them.
    """
    rows = draw(st.sampled_from([0, 1, 1023, 1024, 1025, 2049]))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        seed = draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        kind = draw(st.sampled_from(["int", "float", "pool", "increasing"]))
        if kind == "int":
            columns.append(rng.integers(-2**62, 2**62, rows))
        elif kind == "increasing":
            # Sorted, so most chunks are strictly increasing and skip the
            # writer's sort; a repeat or a special value sends one back to it.
            values = np.sort(rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300))
            specials = draw(st.lists(st.sampled_from(SPECIAL_FLOATS), max_size=2))
            values[rng.integers(0, max(rows, 1), len(specials))[:rows]] = specials[:rows]
            columns.append(values)
        elif kind == "pool":
            pool = draw(st.sampled_from([POOL_FLOATS, POOL_INTS]))
            values = rng.choice(pool, draw(st.integers(1, len(pool))), replace=False)
            columns.append(values[rng.integers(0, len(values), rows)])
        else:
            values = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
            specials = draw(st.lists(st.sampled_from(SPECIAL_FLOATS), max_size=8))
            values[rng.integers(0, max(rows, 1), len(specials))[:rows]] = specials[:rows]
            columns.append(values)
    return columns


@given(columns=numeric_columns())
# Every named float on both sides of the 1024-row chunk edge.
@example(columns=[np.arange(2049) - 1024, np.resize(np.array(SPECIAL_FLOATS), 2049)])
# Increasing times and grid points, and one that steps back to -0.0 after 0.0.
@example(columns=[np.arange(2049) * 1e-4, np.arange(2049) / 2049,
                  np.concatenate([np.arange(-3, 1) * 0.5, [-0.0], np.arange(1, 2045) * 0.5])])
@settings(max_examples=40, deadline=None)
def test_chunked_writer_matches_csv_writer(columns):
    header = [f"c{i}" for i in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        _write_columns(got, header, columns)
        object_form.write_columns(want, header, columns)
        assert got.read_bytes() == want.read_bytes()


def test_increasing_chunks_are_not_sorted(tmp_path, monkeypatch):
    # t, x and phi columns: every chunk strictly increasing, so no argsort.
    calls = []
    argsort = np.argsort

    def counting(*args, **kwargs):
        calls.append(None)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting)
    _write_columns(tmp_path / "t.csv", ["t", "x"], [np.arange(2049) * 1e-4, np.arange(2049)])
    assert calls == []
    _write_columns(tmp_path / "u.csv", ["u"], [np.zeros(3)])
    assert len(calls) == 1


@given(half_n=st.integers(8, 300), seed=st.integers(0, 2**32 - 1),
       specials=st.lists(st.sampled_from([v for v in SPECIAL_FLOATS if np.isfinite(v)]),
                         max_size=6))
@settings(max_examples=40, deadline=None)
def test_snapshot_roundtrip_is_exact(half_n, seed, specials):
    # Finite values of every magnitude, subnormals and -0.0 included, come
    # back bit for bit.
    grid = Grid(2 * half_n)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((2, grid.n)) * 10.0 ** rng.integers(-300, 300, (2, grid.n))
    values.flat[rng.integers(0, values.size, len(specials))] = specials
    state = VelocityPair(PeriodicField(grid, values[0]), PeriodicField(grid, values[1]))
    with tempfile.TemporaryDirectory() as tmp:
        write_snapshot(Path(tmp) / "snapshot.csv", state)
        back = read_snapshot(Path(tmp) / "snapshot.csv")
    assert back.grid.n == grid.n
    for got, want in ((back.u, state.u), (back.rho, state.rho)):
        assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_manifest_rejects_non_finite_floats(tmp_path, value):
    # run.json is strict JSON: a non-finite float raises and no file is written.
    path = tmp_path / "run.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_manifest(path, {"final_diagnostics": {"min_phix": value}})
    assert not path.exists()
