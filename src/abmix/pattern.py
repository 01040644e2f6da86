"""Detection-screen patterns: synthesis, mixing, sampling and estimation.

The far-field two-slit intensity with an inserted phase dphi is modeled
as

    I(x) = [1 + cos(2 pi x / P + dphi)] * exp(-x^2 / (2 w^2))

with P = lambda L / d the fringe period and w the Gaussian envelope
width.  The sign of the phase insertion is calibrated so the fringe
maximum nearest the axis sits at the closed-form translation dx
(tests pin this calibration).

Every pattern lies on a `ScreenOptics` (grid, P, w), the one home of the
screen's rules, which computes the envelope and the central cells once.

A statistical mixture of two branches is realized on the screen as the
incoherent, intensity-level weighted sum of the branch patterns; the
wire-electron branches are orthogonal, so no cross term survives.
Mixing equal-weight patterns of phase +delta and -delta multiplies the
fringe contrast by |cos delta| while the envelope is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import orjson

from .core import Grid, require_gaussian_width, require_positive
from .dual import BranchAmplitudes
from .errors import ValidationError

MIN_PERIODS = 4.0        # required screen span in fringe periods
VISIBILITY_FLOOR = 0.05  # below this the correlation peak is unreliable
HISTOGRAM_REBIN = 16     # cell merging for counts histograms


@dataclass(frozen=True)
class ScreenOptics:
    """The detection screen's grid, fringe period P and envelope width w, and
    the one home of the screen's rules: P and w finite and positive, 2 w^2
    not overflowing; a span of MIN_PERIODS periods of 2 * HISTOGRAM_REBIN
    cells each at least; and, read cell by cell and merged HISTOGRAM_REBIN at
    a time, some cell within one period of x = 0, where contrast is read,
    with the envelope above 0 on each such cell.  The centres ascend, and so
    do their means, as float rounding is monotone: the central cells are one
    run, found by binary search and kept as a slice.  Two optics are equal
    when their grid, P and w are."""

    grid: Grid
    period: float            # m
    envelope_width: float    # m
    envelope: np.ndarray = field(init=False, repr=False, compare=False)   # G(x) on each cell, read-only
    # by rebin, 1 or HISTOGRAM_REBIN: the slice of the grid's cells whose merged
    # cells have |centre| <= P, and the merged envelope on them, read-only
    central: dict[int, tuple[slice, np.ndarray]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grid, period, width = self.grid, self.period, self.envelope_width
        require_positive("period", period)
        require_gaussian_width("envelope_width", width)
        if grid.span < MIN_PERIODS * period:
            raise ValidationError(f"screen span {grid.span!r} m is narrower than {MIN_PERIODS} fringe "
                                  f"periods ({MIN_PERIODS * period!r} m)")
        if grid.dx * 2 * HISTOGRAM_REBIN > period:
            raise ValidationError(
                f"{grid.n} cells over {grid.span!r} m do not resolve the fringe period {period!r} m: "
                f"each period needs at least {2 * HISTOGRAM_REBIN} cells, so raise screen.n or narrow "
                "[screen.x_min, screen.x_max]"
            )
        x = grid.positions   # becomes the envelope: 8 bytes a cell
        windows = {}
        for rebin in (1, HISTOGRAM_REBIN):
            centers = x if rebin == 1 else x[:grid.n // rebin * rebin].reshape(-1, rebin).mean(axis=1)
            start, stop = np.searchsorted(centers, -period, "left"), np.searchsorted(centers, period, "right")
            if start == stop:
                raise ValidationError(f"the screen has no cell within one fringe period ({period!r} m) of x = 0")
            windows[rebin] = slice(start * rebin, stop * rebin)
        envelope = _envelope(x, width)
        central = {}
        for rebin, window in windows.items():
            central_envelope = envelope[window].reshape(-1, rebin).sum(axis=1)
            if not np.all(central_envelope > 0.0):
                raise ValidationError(f"envelope_width {width!r} m is too narrow: the envelope underflows "
                                      f"to 0 within one fringe period ({period!r} m) of x = 0")
            central_envelope.flags.writeable = False
            central[rebin] = (window, central_envelope)
        envelope.flags.writeable = False
        object.__setattr__(self, "envelope", envelope)
        object.__setattr__(self, "central", central)


def _envelope(x: np.ndarray, width: float) -> np.ndarray:
    """exp(-x^2 / 2w^2), computed in place: `x` is overwritten and returned.
    x^2 / 2w^2 beyond the float range is inf, and exp(-inf) = 0; where 2w^2
    underflows to 0 the envelope is 0, or nan at x = 0, which ScreenOptics refuses."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        np.square(x, out=x)
        np.divide(x, -2.0 * width**2, out=x)
        return np.exp(x, out=x)


@dataclass(frozen=True)
class IntensityPattern:
    """Sampled intensity on the cells of `optics`'s grid, finite and non-negative
    (all zero for a branch without detections); it holds a read-only copy."""

    optics: ScreenOptics
    intensity: np.ndarray

    def __post_init__(self):
        intensity = np.array(self.intensity, dtype=float)
        intensity.flags.writeable = False
        object.__setattr__(self, "intensity", intensity)
        if intensity.shape != (self.n,):
            raise ValidationError(f"intensity must be 1-D with one value per screen cell, "
                                  f"got shape {intensity.shape} on {self.n} cells")
        if np.any(~np.isfinite(intensity)) or np.any(intensity < 0.0):
            raise ValidationError("intensities must be finite and non-negative")

    @property
    def n(self) -> int:
        return self.optics.grid.n


@dataclass(frozen=True)
class FringeEstimate:
    shift: float         # m
    visibility: float    # in [0, 1]
    uncertainty: float   # m; 0 for noise-free synthesized patterns, nan for a row not measured


def two_slit_pattern(optics: ScreenOptics, phase: float) -> IntensityPattern:
    """Synthesize the two-slit pattern on `optics` with phase difference
    `phase` inserted.  A phase that is not finite fails as its nan
    intensities do."""
    with np.errstate(invalid="ignore"):   # the cos of an infinite phase is nan, which IntensityPattern rejects
        intensity = (1.0 + np.cos(2.0 * math.pi * optics.grid.positions / optics.period + phase)) * optics.envelope
    return IntensityPattern(optics, intensity)


def mixture_pattern(amplitudes: BranchAmplitudes, pattern1: IntensityPattern,
                    pattern2: IntensityPattern) -> IntensityPattern:
    """Incoherent weighted sum |c1|^2 I1 + |c2|^2 I2 of two patterns on the same optics."""
    if pattern2.optics != pattern1.optics:
        raise ValidationError("mixture requires both patterns to share grid, fringe period and envelope width")
    return IntensityPattern(pattern1.optics, amplitudes.p1 * pattern1.intensity + amplitudes.p2 * pattern2.intensity)


def _contrast(optics: ScreenOptics, block: np.ndarray, counts: bool) -> np.ndarray:
    """Visibility of each row of a (k, n) block on `optics`'s grid: (max - min)/(max + min),
    or 0 if that is 0/0, of intensity/envelope over the slice of cells within one fringe
    period of x = 0 (`optics.central`), with counts merged HISTOGRAM_REBIN at a time first."""
    rebin = HISTOGRAM_REBIN if counts else 1
    window, central_envelope = optics.central[rebin]
    profile = block[:, window].reshape(len(block), -1, rebin).sum(axis=2) / central_envelope
    hi, lo = profile.max(axis=1), profile.min(axis=1)
    return np.divide(hi - lo, hi + lo, out=np.zeros(len(block)), where=hi + lo > 0.0)


def visibility(pattern: IntensityPattern) -> float:
    """(I_max - I_min)/(I_max + I_min) of the envelope-normalized pattern
    over the central two fringe periods, read cell by cell as a synthesized
    pattern (`ShiftEstimator.shifts` judges detection counts)."""
    return float(_contrast(pattern.optics, pattern.intensity[np.newaxis], False)[0])


def _fringe_parts(block: np.ndarray, envelope: np.ndarray, nfft: int) -> np.ndarray:
    """A zero-padded (k, nfft) buffer holding each row of the (k, n) `block`,
    cast to float once, less its least-squares envelope multiple a*G(x).

    For a model pattern (1 + V cos)G this removes the non-oscillatory hump
    exactly, which would otherwise bias the correlation peak toward zero
    lag.  Each row's a comes from its own `np.dot`: `rows @ envelope` sums
    in another order and would move the last bits.
    """
    parts = np.zeros((len(block), nfft))
    rows = parts[:, :len(envelope)]
    rows[...] = block
    coefficients = np.array([np.dot(row, envelope) for row in rows]) / np.dot(envelope, envelope)
    rows -= coefficients[:, np.newaxis] * envelope
    return parts


@dataclass(frozen=True, eq=False)
class ShiftEstimator:
    """Estimator of fringe translations relative to `reference`, checked
    (ValidationError if it is not measured) and transformed once.

    A shift is the argmax of the cross-correlation of the two
    baseline-removed patterns (`_fringe_parts`), refined by quadratic
    interpolation around the peak and clipped to half the grid span.
    Shifts are resolved within half a fringe period; beyond that the
    nearest-period alias wins because the envelope weights it higher.
    Every pattern is judged by the envelope and contrast rule of the
    reference's optics.  Nothing here is written after construction, so
    threads may share it.
    """

    reference: IntensityPattern
    nfft: int = field(init=False)   # smallest power of 2 >= 2n - 1: no circular wrap
    reference_spectrum: np.ndarray = field(init=False)   # conj(rfft) of the reference's fringe part, read-only

    def __post_init__(self):
        reference, n = self.reference, self.reference.n
        object.__setattr__(self, "nfft", 1 << (2 * n - 2).bit_length())
        part = _fringe_parts(reference.intensity[np.newaxis], reference.optics.envelope, self.nfft)
        spectrum = np.conj(np.fft.rfft(part, axis=-1)[0])   # padded as every block is
        spectrum.flags.writeable = False
        object.__setattr__(self, "reference_spectrum", spectrum)
        shifts, visibilities = self.shifts(reference.intensity[np.newaxis], holds_counts=False)
        if math.isnan(shifts[0]):
            raise ValidationError(f"reference visibility {float(visibilities[0])!r} is at or below {VISIBILITY_FLOOR}")

    def shifts(self, block: np.ndarray, holds_counts: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """Shifts (m) and visibilities of the rows of a (k, n) block of
        intensities on the reference's grid, detection counts unless
        `holds_counts` is false, through one rfft and one irfft of the whole
        block.  Rows are not validated.  A row at or below VISIBILITY_FLOOR
        is not measured: its shift is nan, which is how every caller tells."""
        optics = self.reference.optics
        visibilities = _contrast(optics, block, holds_counts)
        n, dx, nfft = optics.grid.n, optics.grid.dx, self.nfft
        # beside its (k, n) rows, int64 counts as drawn or floats, a block holds one zero-padded
        # (k, nfft) buffer, which takes the fringe parts and then the correlation, and the
        # (k, nfft // 2 + 1) spectra: a bootstrap thread's working set is 8 k n + 8 k nfft +
        # 16 k (nfft // 2 + 1) bytes, 640 KiB at the default screen (k = 4, n = 4096, nfft = 8192)
        c = _fringe_parts(block, optics.envelope, nfft)
        spectra = np.fft.rfft(c, axis=-1)
        spectra *= self.reference_spectrum
        np.fft.irfft(spectra, nfft, axis=-1, out=c)
        del spectra
        # lag L sits in column L mod nfft: lags -(n-1) .. -1 end the buffer and
        # lags 0 .. n-1 start it; the first maximum of the two runs, as one
        # run in lag order, and its neighbours are read in place
        negative, positive, rows = c[:, nfft - n + 1:], c[:, :n], np.arange(len(c))
        before, after = np.argmax(negative, axis=1), np.argmax(positive, axis=1)
        peaks = np.where(negative[rows, before] >= positive[rows, after], before, after + n - 1)
        around = np.clip(peaks[:, np.newaxis] + [-1, 0, 1], 0, 2 * n - 2)
        left, middle, right = np.take_along_axis(c, (around - (n - 1)) % nfft, axis=1).T
        curvature = left - 2.0 * middle + right
        # at lag -(n-1) or n-1 the clipped neighbour is the peak: the offset is -+1/2, and the shift clips all the same
        offsets = np.divide(0.5 * (left - right), curvature, out=np.zeros(len(peaks)), where=curvature != 0.0)
        half_span = 0.5 * (n - 1) * dx
        shifts = np.clip((peaks - (n - 1) + offsets) * dx, -half_span, half_span)
        shifts[visibilities <= VISIBILITY_FLOOR] = math.nan
        return shifts, visibilities


def estimate_shift(pattern: IntensityPattern, reference: IntensityPattern) -> FringeEstimate:
    """Fringe translation of the synthesized `pattern` relative to `reference`,
    by a one-off estimator: a nan shift, as `ShiftEstimator.shifts` gives, when
    its visibility is at or below VISIBILITY_FLOOR (the physically washed-out
    regime); ValidationError when its optics differ from the reference's."""
    estimator = ShiftEstimator(reference)
    if pattern.optics != reference.optics:
        raise ValidationError("pattern and reference must share grid, fringe period and envelope width")
    shifts, visibilities = estimator.shifts(pattern.intensity[np.newaxis], holds_counts=False)
    return FringeEstimate(shift=float(shifts[0]), visibility=float(visibilities[0]), uncertainty=0.0)


def cdf_edges(pattern: IntensityPattern) -> np.ndarray:
    """The pattern's normalized CDF at its n + 1 cell edges: 0, then the
    running sum of the intensities over their total, ending at exactly 1;
    ValidationError for a pattern of zero mass, which is no density."""
    cdf = np.concatenate([[0.0], np.cumsum(pattern.intensity)])
    if not cdf[-1] > 0.0:
        raise ValidationError("pattern has zero mass, cannot serve as a density")
    cdf /= cdf[-1]
    return cdf


def inverse_cdf_positions(pattern: IntensityPattern, quantiles: np.ndarray) -> np.ndarray:
    """Map uniform quantiles to screen positions through the pattern's CDF.

    The pattern is read as a histogram density, constant on each cell
    [x_i - dx/2, x_i + dx/2), so the cumulative sum is piecewise linear
    and inversion is exact.  Quantile q falls in the last cell i with
    cdf[i] <= q, i.e. cdf[i] <= q < cdf[i+1], clipped to the screen.
    Nothing in the package calls it: the benchmark's tracer wraps it by
    name, and the tests use it, with `histogram_pattern`, as the reference
    for the cells the experiment's chunk count (`experiment._count_chunk`)
    puts each quantile in.
    """
    cdf = cdf_edges(pattern)
    cells = np.clip(np.searchsorted(cdf, quantiles, side="right") - 1, 0, pattern.n - 1)
    width = np.maximum(cdf[cells + 1] - cdf[cells], np.finfo(float).tiny)
    fraction = np.clip((quantiles - cdf[cells]) / width, 0.0, 1.0)
    grid = pattern.optics.grid
    left_edges = grid.x_min - 0.5 * grid.dx + grid.dx * cells
    return left_edges + fraction * grid.dx


def histogram_pattern(samples: np.ndarray, reference: IntensityPattern) -> IntensityPattern:
    """Bin detection positions onto the cells of `reference`'s grid, as a
    counts pattern on the reference's optics.  Nothing in the package calls
    it: the benchmark's tracer wraps it by name, and the tests use it, with
    `inverse_cdf_positions`, as the reference for the experiment's chunk
    count (`experiment._count_chunk`)."""
    grid = reference.optics.grid
    edges = np.concatenate([grid.positions - 0.5 * grid.dx, [grid.x_max + 0.5 * grid.dx]])
    counts, _ = np.histogram(np.asarray(samples, dtype=float), bins=edges)
    return IntensityPattern(reference.optics, counts.astype(float))


def _repr_texts(values: np.ndarray) -> list[str]:
    """The repr of each value, from one `orjson.dumps` of them all.

    Ryu's shortest digits are repr's digits; only orjson's notation differs
    from repr's, by three rules that hold for the values `csv_table` flags:
    0.0000123 is 1.23e-05 (1e-5 <= |x| < 1e-4), 1e-6 is 1e-06 (a one-digit
    negative exponent) and 1e16 is 1e+16.  nan and inf, which orjson writes
    as null, are the only values formatted by repr.
    """
    dump = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
    text = bytearray(dump.replace(b"e", b"e+").replace(b"e+-", b"e-0"))
    chars = np.frombuffer(text, dtype=np.uint8)
    # only a 0.0000Drest token has a 0 before its point (an exponent token's
    # first digit is nonzero).  Its D moves before the point and its rest
    # stays put: 0.000D.rest, whose 0.000 is dropped and whose end, marked
    # ;, becomes e-05.  A lone D keeps no point.
    dots = np.flatnonzero(chars == ord("."))
    dots = dots[chars[dots - 1] == ord("0")]
    ends = np.flatnonzero((chars == ord(",")) | (chars == ord("]")))
    chars[ends[np.searchsorted(ends, dots)]] = ord(";")
    chars[dots + 4] = chars[dots + 5]
    chars[dots + 5] = ord(".")
    text = text.replace(b"0.000", b"").replace(b";", b"e-05,").replace(b".e", b"e")
    texts = text[1:-1].decode().split(",")
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        texts[i] = repr(float(values[i]))
    return texts


def csv_table(header: str, grid: Grid, *columns: np.ndarray) -> str:
    """CSV text: the header row, then one row per position of `grid`, the
    position followed by each column's value there, every value written
    byte for byte as the repr of a Python float.

    The whole table goes through one `orjson.dumps`, whose Ryu output has
    repr's shortest digits and, for +-0, for 1e-4 <= |x| < 1e16 and for
    nonzero |x| < 1e-9, repr's notation too.  Every other value (1e-9 <=
    |x| < 1e-4, |x| >= 1e16, nan and inf) is flagged and passed as nan,
    which orjson writes as null.  The flagged values are formatted together
    by `_repr_texts`, from one more orjson dump rewritten by three notation
    rules, with repr for nan and inf only, and fill the nulls in row order.
    The magnitude tests are exact: a double below fl(1e-4) has no shortest
    digits at or above 1e-4, and so for every bound.
    """
    table = np.column_stack([grid.positions, *(np.asarray(column, dtype=float) for column in columns)])
    magnitude = np.abs(table)
    by_repr = ~((magnitude == 0.0) | ((magnitude >= 1e-4) & (magnitude < 1e16)) | (magnitude < 1e-9))
    # orjson writes a flat array about 3x as fast as a 2-D one; each row's last comma becomes a newline
    text = bytearray(orjson.dumps(np.where(by_repr, np.nan, table).ravel(), option=orjson.OPT_SERIALIZE_NUMPY))
    chars = np.frombuffer(text, dtype=np.uint8)
    width = table.shape[1]
    chars[np.flatnonzero(chars == ord(","))[width - 1::width]] = ord("\n")
    rows = text[1:-1].decode()
    if by_repr.any():
        parts = rows.split("null")
        filled = [""] * (2 * len(parts) - 1)
        filled[::2] = parts
        filled[1::2] = _repr_texts(table[by_repr])
        rows = "".join(filled)
    return f"{header}\n{rows}\n"


def pattern_csv(pattern: IntensityPattern, value_column: str = "intensity") -> str:
    """CSV text for a pattern: header row, columns x_m and `value_column`."""
    return csv_table(f"x_m,{value_column}", pattern.optics.grid, pattern.intensity)
