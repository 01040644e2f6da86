"""The CSV writer: every table is a grid's position column plus value columns,
written byte for byte as the repr of each Python float, whichever notation
repr picks and whether the value is subnormal, signed zero, nan or inf."""

import math

import numpy as np
import orjson
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from abmix.cli import main
from abmix.config import RunConfig
from abmix.core import Grid
from abmix.current import CurrentDensity, GridWavefunction, current_table, wavefunction_table
from abmix.pattern import IntensityPattern, ScreenOptics, csv_table, pattern_csv

# values whose repr switches notation, is subnormal, signed zero or integral
AWKWARD = [-0.0, 5e-324, 1e-05, 0.0001, 9999999999999998.0, 1e16, 1e22, 12.0]
AWKWARD_TEXT = ["-0.0", "5e-324", "1e-05", "0.0001", "9999999999999998.0", "1e+16", "1e+22", "12.0"]
GRIDS = [
    Grid(0.0, 15.0, 16),
    Grid(-1e-05, 1e-05, 16),
    Grid(1e16, 1e16 + 30.0, 16),
    Grid(0.0, 15 * 5e-324, 16),      # subnormal positions
]


def naive_table(header, positions, *columns):
    """The reference writer: one repr per value, one row at a time."""
    rows = [",".join(repr(float(value)) for value in (x, *(column[i] for column in columns)))
            for i, x in enumerate(positions)]
    return "\n".join([header, *rows]) + "\n"


def test_orjson_writes_the_notation_the_writer_rewrites():
    # csv_table rewrites these forms into repr's; if this fails, orjson's
    # notation changed and pyproject.toml needs an upper bound on orjson
    values = [1.234e-05, -1e-06, 1e16, math.nan]
    written = orjson.dumps(np.array(values), option=orjson.OPT_SERIALIZE_NUMPY)
    assert written == b"[0.00001234,-1e-6,1e16,null]", f"orjson {orjson.__version__} wrote {written!r}"


@pytest.mark.parametrize("grid", GRIDS, ids=["integral", "small", "large", "subnormal"])
class TestBytesMatchNaiveRepr:
    def test_pattern_table(self, grid):
        # pattern_csv's table; no screen fits on these grids, so it is written by csv_table
        counts = np.array(AWKWARD * 2)
        text = csv_table("x_m,count", grid, counts)
        assert text == naive_table("x_m,count", grid.positions, counts)
        assert [line.split(",")[1] for line in text.splitlines()[1:9]] == AWKWARD_TEXT

    def test_wavefunction_table(self, grid):
        samples = np.array(AWKWARD * 2) + 1j * -np.array(AWKWARD[::-1] * 2)
        psi = GridWavefunction(grid, samples)
        text = wavefunction_table(psi)
        assert text == naive_table("eta_m,re_psi,im_psi", grid.positions, samples.real, samples.imag)
        assert text.splitlines()[1].split(",")[1:] == ["-0.0", "-12.0"]

    def test_current_table(self, grid):
        # a CurrentDensity takes any float samples, non-finite ones included
        samples = np.array([-v for v in AWKWARD[:5]] + [math.nan, math.inf, -math.inf] + AWKWARD)
        text = current_table(CurrentDensity(grid, samples))
        assert text == naive_table("eta_m,j_A", grid.positions, samples)
        assert [line.split(",")[1] for line in text.splitlines()[6:9]] == ["nan", "inf", "-inf"]
        assert [line.split(",")[1] for line in text.splitlines()[9:]] == AWKWARD_TEXT


def test_pattern_csv_is_the_table_of_the_pattern_grid():
    grid = Grid(0.0, 1.0, 160)
    counts = np.array(AWKWARD * 20)
    pattern = IntensityPattern(ScreenOptics(grid, 32 * grid.dx, 1.0), counts)
    assert pattern_csv(pattern, "count") == naive_table("x_m,count", grid.positions, counts)


@pytest.mark.parametrize(
    "args, grid, tables",
    [
        (["mixture", "--csv"], lambda objects: objects["screen"].grid, 3),
        (["current"], lambda objects: objects["wavepackets"][0].grid, 5),
        (["experiment", "--seed", "5"], lambda objects: objects["screen"].grid, 3),
    ],
    ids=["mixture", "current", "experiment"],
)
def test_each_table_starts_with_the_repr_of_each_position(tmp_path, capsys, args, grid, tables):
    out_dir = tmp_path / "run"
    assert main([*args, "--out", str(out_dir)]) == 0
    capsys.readouterr()
    cfg = RunConfig()
    assert cfg.validate() == []
    positions = [repr(x) for x in grid(cfg.objects).positions.tolist()]
    written = [path for path in out_dir.glob("*.csv") if path.name != "mixture_summary.csv"]
    assert len(written) == tables
    for path in written:
        body = [line for line in path.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
        assert [row.split(",")[0] for row in body[1:]] == positions


def _around(*values):
    """Each value and its neighbours either way, with both signs."""
    near = [np.nextafter(v, direction) for v in values for direction in (-math.inf, math.inf)]
    return [sign * float(v) for v in (*values, *near) for sign in (1.0, -1.0)]


# the bounds of the writer's notation rule and of float formatting itself
EDGES = [
    *_around(1e-9, 1e-4, 1e16),
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
    *_around(2.0**53 - 1.0, 2.0**53, 2.0**53 + 2.0, 2.0**63 - 1024.0, 2.0**63, 2.0**63 + 2048.0),
]


def test_edges_match_naive_repr():
    edges = np.array(EDGES)
    grid = Grid(-1e16, 1e16, len(edges))
    assert csv_table("x,a,b", grid, edges, edges[::-1]) == naive_table("x,a,b", grid.positions, edges, edges[::-1])


@settings(max_examples=100, deadline=None)
@given(
    bounds=st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300)),
    columns=st.integers(2, 24).flatmap(
        lambda n: st.lists(st.lists(st.floats(), min_size=n, max_size=n), min_size=1, max_size=3)
    ),
)
def test_any_floats_match_naive_repr(bounds, columns):
    n = len(columns[0])
    assume(0.0 < bounds[1] - bounds[0] < math.inf)
    grid = Grid(*bounds, n)
    header = ",".join(["x", *"abc"[:len(columns)]])
    assert csv_table(header, grid, *map(np.array, columns)) == naive_table(header, grid.positions, *columns)


def test_a_million_random_bit_patterns_match_repr():
    # checked column by column with one repr per value: naive_table's row loop
    # would take seconds longer on a million values
    columns = np.random.default_rng(20261018).integers(0, 2**64, (10, 100_000), dtype=np.uint64).view(float)
    grid = Grid(-1.0, 1.0, columns.shape[1])
    header = ",".join(["x", *"abcdefghij"])
    reprs = (map(repr, values.tolist()) for values in (grid.positions, *columns))
    assert csv_table(header, grid, *columns) == "\n".join([header, *map(",".join, zip(*reprs)), ""])
