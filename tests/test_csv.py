"""The CSV writer: every table is a grid's position column plus value columns,
written byte for byte as the repr of each Python float, with each Grid
instance formatting its positions once however many tables it heads."""

from functools import cached_property

import numpy as np
import pytest

from abmix.cli import main
from abmix.core import Grid
from abmix.current import CurrentDensity, GridWavefunction, current_table, wavefunction_table
from abmix.pattern import IntensityPattern, pattern_csv

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


@pytest.mark.parametrize("grid", GRIDS, ids=["integral", "small", "large", "subnormal"])
class TestBytesMatchNaiveRepr:
    def test_pattern_csv(self, grid):
        counts = np.array(AWKWARD * 2)
        pattern = IntensityPattern(grid, counts, 1.0, 1.0, holds_counts=True)
        text = pattern_csv(pattern, "count")
        assert text == naive_table("x_m,count", grid.positions, counts)
        assert [line.split(",")[1] for line in text.splitlines()[1:9]] == AWKWARD_TEXT

    def test_wavefunction_table(self, grid):
        samples = np.array(AWKWARD * 2) + 1j * -np.array(AWKWARD[::-1] * 2)
        psi = GridWavefunction(grid, samples)
        text = wavefunction_table(psi)
        assert text == naive_table("eta_m,re_psi,im_psi", grid.positions, samples.real, samples.imag)
        assert text.splitlines()[1].split(",")[1:] == ["-0.0", "-12.0"]

    def test_current_table(self, grid):
        samples = np.array([-v for v in AWKWARD] + AWKWARD)
        text = current_table(CurrentDensity(grid, samples))
        assert text == naive_table("eta_m,j_A", grid.positions, samples)
        assert [line.split(",")[1] for line in text.splitlines()[9:]] == AWKWARD_TEXT


@pytest.fixture
def formatted(monkeypatch):
    """The Grids whose position text is formatted, once per formatting."""
    grids = []
    build = Grid.position_text.func

    def spy(grid):
        grids.append(grid)
        return build(grid)

    spied = cached_property(spy)
    spied.__set_name__(Grid, "position_text")
    monkeypatch.setattr(Grid, "position_text", spied)
    return grids


@pytest.mark.parametrize(
    "args, tables",
    [
        (["mixture", "--csv"], 3),
        (["current"], 5),
        (["experiment", "--seed", "5"], 3),
    ],
    ids=["mixture", "current", "experiment"],
)
def test_each_command_formats_its_grid_once(tmp_path, capsys, formatted, args, tables):
    out_dir = tmp_path / "run"
    assert main([*args, "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert len(formatted) == 1
    position_lines = formatted[0].position_text
    written = [path for path in out_dir.glob("*.csv") if path.name != "mixture_summary.csv"]
    assert len(written) == tables
    for path in written:
        body = [line for line in path.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
        assert [row.split(",")[0] for row in body[1:]] == list(position_lines)


def test_equal_grids_format_their_own_text(formatted):
    first, second = Grid(0.0, 1.5, 16), Grid(0.0, 1.5, 16)
    assert first == second and first is not second
    tables = [current_table(CurrentDensity(grid, np.arange(16.0))) for grid in (first, second, first)]
    assert tables[0] == tables[1] == tables[2]
    assert [id(grid) for grid in formatted] == [id(first), id(second)]
    assert first.position_text is not second.position_text
