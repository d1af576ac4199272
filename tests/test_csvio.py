import numpy as np

from chdp.csvio import write_scan
from chdp.curvature import ScanTable


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
