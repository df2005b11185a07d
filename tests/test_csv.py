"""The chunked CSV writer against the per-cell writer it replaced.

The reference formats one cell at a time, ``repr(float(v))`` or an empty
cell for None, and joins the lines with newlines: the bytes every command
wrote before rows went out in chunks.  The chunked writer must give the
same bytes, and its memory must not grow with the row count.
"""

import tracemalloc

import numpy as np
import pytest

from dlesim import cli

CHUNK = cli.CSV_CHUNK_ROWS
SPECIAL = (-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2e-308, 1e16, 1e-5, 3.0, -7.0)


def reference_csv(header, rows) -> bytes:
    lines = [",".join(header)]
    lines.extend(
        ",".join("" if v is None else repr(float(v)) for v in row) for row in rows
    )
    return ("\n".join(lines) + "\n").encode()


def assert_matches_reference(path, values, blank=()):
    """write_csv of (S, C) ``values`` with ``blank`` columns gives the reference bytes."""
    n_columns = values.shape[1] + len(blank)
    header = [f"c{j}" for j in range(n_columns)]
    cli.write_csv(str(path), header, values, blank=blank)
    columns = iter(values.T)
    full = [[None] * len(values) if j in blank else next(columns) for j in range(n_columns)]
    assert path.read_bytes() == reference_csv(header, list(zip(*full)))


def sample_values(n_rows, n_columns, seed=0):
    """Random magnitudes from 1e-20 to 1e20, with every special value mixed in."""
    rng = np.random.default_rng(seed)
    shape = (n_rows, n_columns)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 21, shape)
    flat = values.reshape(-1)
    flat[: len(SPECIAL)] = SPECIAL[: len(flat)]
    return values


@pytest.mark.parametrize("n_rows", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
@pytest.mark.parametrize("blank", [(), (0,), (2,), (4,), (1, 3)])
def test_chunked_bytes_equal_the_per_cell_writer(tmp_path, n_rows, blank):
    # five columns: a blank one first, in the middle, last, or two of them
    values = sample_values(n_rows, 5 - len(blank))
    assert_matches_reference(tmp_path / "out.csv", values, blank)


def test_every_special_value_round_trips(tmp_path):
    values = np.array(SPECIAL)[:, None]
    assert_matches_reference(tmp_path / "out.csv", values)
    cells = (tmp_path / "out.csv").read_text().split("\n")[1:-1]
    assert cells == ["-0.0", "0.0", "inf", "-inf", "nan", "5e-324", "2.2e-308",
                     "1e+16", "1e-05", "3.0", "-7.0"]


def test_peak_memory_does_not_grow_with_the_rows(tmp_path):
    # a writer holding every cell's text at once needed 2.9 and 28.7 MB here
    peaks = []
    for n_rows in (10_000, 100_000):
        values = sample_values(n_rows, 4)
        tracemalloc.start()
        cli.write_csv(str(tmp_path / "out.csv"), ("a", "b", "c", "d"), values)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert max(peaks) < 4e6, peaks
    assert abs(peaks[1] - peaks[0]) <= 0.1 * min(peaks), peaks
