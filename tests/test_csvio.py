import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

import object_form
from chdp.connection import VelocityPair
from chdp.csvio import _write_columns, read_snapshot, write_scan, write_snapshot
from chdp.curvature import ScanTable
from chdp.spectral import Grid, PeriodicField

SPECIAL_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e300, 0.1]


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
    """Int and float columns of one length; the lengths straddle the writer's chunks."""
    rows = draw(st.sampled_from([0, 1, 1023, 1024, 1025, 2049]))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        seed = draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        if draw(st.booleans()):
            columns.append(rng.integers(-2**62, 2**62, rows))
        else:
            values = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
            specials = draw(st.lists(st.sampled_from(SPECIAL_FLOATS), max_size=8))
            values[rng.integers(0, max(rows, 1), len(specials))[:rows]] = specials[:rows]
            columns.append(values)
    return columns


@given(columns=numeric_columns())
# Every named float on both sides of the 1024-row chunk edge.
@example(columns=[np.arange(2049) - 1024, np.resize(np.array(SPECIAL_FLOATS), 2049)])
@settings(max_examples=40, deadline=None)
def test_chunked_writer_matches_csv_writer(columns):
    header = [f"c{i}" for i in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        _write_columns(got, header, columns)
        object_form.write_columns(want, header, columns)
        assert got.read_bytes() == want.read_bytes()


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
