"""Block draws: a case's stream as a tape of doubles, parsed a block at a time.

Every draw in the suites reads its case's PCG64 stream as consecutive
doubles.  A value on a disc takes two, the radius then the angle
(``kernels._disc``), and ``rng.uniform(low, high)`` takes one, as
``low + (high - low) * u``.  So a sample is a run of doubles, and a block of
samples is its samples' runs one after another.

A ``Tape`` reads the stream ahead in chunks and counts the doubles used.
``draw(tape, start, n, *items)`` locates every item of samples
start..start+n-1 on the tape, parses each item for the whole block at once,
and moves the cursor past the last sample.  So it returns what drawing one
sample after another returns, and leaves the cursor where those draws leave
the stream.  Runs of fixed length are located by a cumulative sum.  A stage
that redraws (a paravector until its |det| reaches ``kernels.MIN_DET``; a
wave vector, then a polarization, until their norms reach ``WAVE_NORM`` and
``POLARIZATION_NORM``) first takes one candidate in every sample, all
parsed and checked at once; the samples before the first one whose
candidate fails are drawn, that sample takes one more candidate, the
samples after it move along, and they are parsed and checked again.
The one-sample draws that the items below name are ``fields``' or, where
only the tests call them, ``tests/util.py``'s.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, groupby

import numpy as np

from .algebra import det_rows
from .kernels import DRAW_SCALE, MIN_DET, _disc, dots

__all__ = ["CHUNK", "Tape", "Item", "draw", "discs", "uniforms", "EVENT", "POLY", "SCALAR",
           "FIELD", "NULL_WAVE", "PARAVECTOR", "WAVE", "MAXWELL_EVENT"]

#: Doubles the tape reads from the stream at a time.
CHUNK = 4096
#: The norms a drawn wave vector and its projected polarization must reach.
WAVE_NORM = 0.3
POLARIZATION_NORM = 0.2
#: Rows of the exponent table of a block field, kernels._degree_exponents(3).
_TERMS = 35


class Tape:
    """A stream's doubles, read ahead in chunks of ``CHUNK``; a cursor, the
    count of doubles used; and ``offsets``, the cursor at the first double of
    each sample of the last draw (whole numbers, in float64 as ``draw``
    works them out)."""

    def __init__(self, rng: np.random.Generator):
        self._rng, self._chunk = rng, CHUNK
        self._buf, self._at = np.empty(0), 0
        self.cursor = 0
        self.offsets = np.zeros(0)

    def window(self, n: int) -> np.ndarray:
        """The doubles from the cursor on, at least n of them.  The stream is
        read in whole chunks, so fewer than ``CHUNK`` are read past them."""
        have = len(self._buf) - self._at
        if have < n:
            more = -(-(n - have) // self._chunk) * self._chunk
            self._buf = np.concatenate([self._buf[self._at:], self._rng.random(more)])
            self._at = 0
        return self._buf[self._at:]

    def advance(self, n: int) -> None:
        self._at += n
        self.cursor += n


def draw(tape: Tape, start: int, n: int, *items) -> list:
    """Samples start..start+n-1, each of them the items drawn in turn: one
    parsed block per item.  Equal items back to back are checked and parsed
    together, as one item drawn for m times the samples."""
    index = np.arange(start, start + n)
    lengths, redraws, parts, checked = _layout(items)
    drawn = {a: [] for item, m, a, b in checked}  # the parsed rows that passed
    runs = lengths[:, index % 2].T  # (n, stages): a run, or one candidate of a redraw
    sizes = runs.copy()  # the doubles a stage takes, its failed candidates included
    first = 0  # the samples before it have passed their checks
    while True:
        ends = np.cumsum(sizes).reshape(n, -1)
        at = ends - runs  # each stage's run, or its last candidate
        u = tape.window(int(ends[-1, -1]))
        if not checked:
            break
        blocks = [_parse(item, m, u, at[first:, a:b], index[first:]) for item, m, a, b in checked]
        failed = np.flatnonzero(~np.concatenate(
            [part[0].ok(block).reshape(n - first, -1) for part, block in zip(checked, blocks)],
            axis=1))
        row, j = divmod(int(failed[0]), len(redraws)) if len(failed) else (n - first, None)
        for (item, m, a, b), block in zip(checked, blocks):
            drawn[a].append(block[:row * m])  # the samples before the failed one are drawn
        if j is None:
            break
        first += row
        sizes[first, redraws[j]] += runs[first, redraws[j]]
    tape.offsets = tape.cursor + (ends[:, 0] - sizes[:, 0])
    out = []
    for item, m, a, b in parts:
        block = np.concatenate(drawn[a]) if a in drawn else _parse(item, m, u, at[:, a:b], index)
        out.extend([block] if m == 1 else block.reshape(n, m, *block.shape[1:]).swapaxes(0, 1))
    tape.advance(int(ends[-1, -1]))
    return out


@lru_cache(maxsize=None)
def _layout(items: tuple) -> tuple:
    """A layout's stage lengths (a row per stage, a column per sample
    parity), the stages that redraw, its runs of equal items as (item, m,
    first column, end column), and the runs that redraw."""
    # offsets are float64, exact below 2**53: numpy's int64 additions would
    # map code that check algebra runs nothing else from (README, Peak memory)
    lengths = np.array([length for item in items for length in item.lengths], float)
    redraws = np.flatnonzero([r for item in items for r in item.redraws])
    same = [(item, len(list(run))) for item, run in groupby(items)]
    cols = list(accumulate((m * len(item.lengths) for item, m in same), initial=0))
    parts = [(item, m, a, b) for (item, m), a, b in zip(same, cols, cols[1:])]
    return lengths, redraws, parts, [part for part in parts if any(part[0].redraws)]


def _parse(item, m: int, u: np.ndarray, at: np.ndarray, index: np.ndarray):
    """m equal items drawn back to back in each sample, parsed as one item
    drawn in m times the samples."""
    return item.parse(u, at.reshape(-1, len(item.lengths)), np.repeat(index, m))


def _runs(u: np.ndarray, at: np.ndarray, length: int) -> np.ndarray:
    """The `length` doubles from each offset of at, as the rows of an array."""
    return u[(at[:, None] + np.arange(float(length))).astype(np.intp)]


def _uniform(u: np.ndarray, low: float, high: float) -> np.ndarray:
    return low + (high - low) * u  # rng.uniform(low, high) from the double u


def _wave(k, c0) -> tuple:
    """A block (diffops) of plane waves: the constant rows c0 (n, 4), phases k."""
    c = np.zeros((len(c0), _TERMS, 4), np.complex128)
    c[:, 0] = c0
    return None, k, c


class Item:
    """What a draw takes per sample: its stages, each a run of ``lengths``
    doubles (for an even and an odd sample index) or, where ``redraws`` says
    so, a candidate of that many doubles drawn until it passes ``ok``.
    ``parse(u, at, index)`` gets the offsets of the item's stages, one row
    per sample, and returns the block; ``ok(block)`` says whether each
    sample's candidates pass, one column per stage that redraws.  An item
    that redraws parses to an array, one row per sample."""

    __slots__ = ("lengths", "parse", "redraws", "ok")

    def __init__(self, lengths, parse, redraws=(False,), ok=None):
        self.lengths, self.parse, self.redraws, self.ok = lengths, parse, redraws, ok


def discs(scale: float, *shape: int) -> Item:
    """Values on the disc of radius ``scale``, n arrays of ``shape``."""
    size = 2 * math.prod(shape)
    return Item(((size, size),), lambda u, at, index: _disc(
        _runs(u, at[:, 0], size), scale).reshape(len(at), *shape))


def uniforms(low: float, high: float, count: int) -> Item:
    """``count`` doubles uniform on [low, high) per sample."""
    return Item(((count, count),),
                lambda u, at, index: _uniform(_runs(u, at[:, 0], count), low, high))


def _paravector(u, at, index):
    return _disc(_runs(u, at[:, 0], 8), DRAW_SCALE)


def _passes(p: np.ndarray) -> np.ndarray:
    d = det_rows(p)
    return np.hypot(d.real, d.imag) >= MIN_DET  # hypot is abs() of a complex


def _field(u, at, index):
    odd = index % 2 == 1
    c = np.zeros((len(at), _TERMS, 4), np.complex128)
    k = np.zeros((len(at), 4), np.complex128)
    c[~odd] = _disc(_runs(u, at[~odd, 0], 8 * _TERMS), 1.0).reshape(-1, _TERMS, 4)
    z = _disc(_runs(u, at[odd, 0], 16), 1.0)
    c[odd, 0], k[odd] = z[:, :4], z[:, 4:]
    return None, k, c


def _null_wave(u, at, index):
    z = _disc(_runs(u, at[:, 0], 14), 1.0)
    kappa = z[:, 4:]
    return _wave(np.concatenate([np.sqrt(dots(kappa, kappa))[:, None], kappa], axis=1),
                 z[:, :4])


def _maxwell_event(u, at, index):
    v = _runs(u, at[:, 0], 5)
    x = np.empty((len(v), 4), np.complex128)
    x[:, 1:] = _uniform(v[:, :3], -2.0, 2.0)
    x[:, 0].real = _uniform(v[:, 3], -2.0, 2.0)
    x[:, 0].imag = _uniform(v[:, 4], -0.1, 0.1)
    return x


def _wave_draw(u, at, index):
    kvec, raw = (_uniform(_runs(u, at[:, j], 3), -1.0, 1.0) for j in (0, 1))
    pol = raw - (dots(raw, kvec) / dots(kvec, kvec))[:, None] * kvec
    return np.concatenate([kvec, pol, _uniform(_runs(u, at[:, 2], 2), -1.0, 1.0)], axis=1)


def _wave_ok(w):
    v = w[:, :6].reshape(-1, 2, 3)  # the wave vector and the polarization
    return np.sqrt(dots(v, v)) >= (WAVE_NORM, POLARIZATION_NORM)


#: random_event
EVENT = discs(DRAW_SCALE, 4)
#: random_field's coefficients on the table
POLY = discs(1.0, _TERMS, 4)
#: random_scalar_field's scalar coefficients on the table
SCALAR = discs(1.0, _TERMS)
#: random_field for an even sample index, random_plane_wave (its amplitude,
#: then its phase) for an odd one, as a block
FIELD = Item(((8 * _TERMS, 16),), _field)
#: null_plane_wave as a block: the amplitude, then kappa; kappa0 = sqrt(kappa . kappa)
NULL_WAVE = Item(((14, 14),), _null_wave)
#: random_paravector: four values on the DRAW_SCALE disc, redrawn until |det| >= MIN_DET
PARAVECTOR = Item(((8, 8),), _paravector, (True,), lambda p: _passes(p)[:, None])
#: random_wave_potential's draws, as the rows [kvec, pol, amplitude's real
#: and imaginary parts]: a wave vector, three uniform(-1, 1) doubles, redrawn
#: until its norm reaches WAVE_NORM; a polarization, three more, projected
#: orthogonal to it and redrawn until its norm reaches POLARIZATION_NORM;
#: then the amplitude, two more
WAVE = Item(((3, 3), (3, 3), (2, 2)), _wave_draw, (True, True, False), _wave_ok)
#: a real position, three uniform(-2, 2) doubles, then a complex time,
#: uniform(-2, 2) plus i uniform(-0.1, 0.1)
MAXWELL_EVENT = Item(((5, 5),), _maxwell_event)
