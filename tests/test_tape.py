"""The tape's block draws against the per-sample draws of tests/util.py."""

import numpy as np
import pytest

from paracalc import fields, tape
from paracalc.electromag import PhysConstants, plane_wave_block
from paracalc.fields import random_event
from paracalc.harness import case_rng
from paracalc.tape import (
    CHUNK,
    EVENT,
    FIELD,
    MAXWELL_EVENT,
    NULL_WAVE,
    PARAVECTOR,
    POLY,
    SCALAR,
    WAVE,
    Tape,
    discs,
    draw,
    uniforms,
)

from util import (
    field_row,
    maxwell_event,
    null_wave_row,
    random_paravector,
    random_wave_row,
    scalar_row,
    stack_samples,
    wave_draw,
)

TEN_EVENTS = discs(2.0, 10, 4)
SPATIAL = uniforms(-2.0, 2.0, 3)

#: every layout the suites draw, by the cases that draw it
FAMILIES = {
    "algebra-paravectors": (PARAVECTOR, PARAVECTOR, PARAVECTOR),
    "paravector-event": (PARAVECTOR, EVENT),
    "transport": (PARAVECTOR, FIELD, EVENT),
    "group-composition": (PARAVECTOR, PARAVECTOR, FIELD, EVENT),
    "wave-form": (PARAVECTOR, POLY, EVENT),
    "field-event": (FIELD, EVENT),
    "additivity": (POLY, FIELD, EVENT),
    "scalar-product-rule": (SCALAR, FIELD, EVENT),
    "null-plane-wave": (NULL_WAVE, EVENT),
    "convergence-band": (FIELD, TEN_EVENTS),
    "plane-wave": (WAVE, MAXWELL_EVENT),
    "lorenz": (SCALAR, SCALAR, SCALAR, MAXWELL_EVENT),
    "gauss-law-slice": (SCALAR, SPATIAL),
}


def reference(item, rng, index, attempts):
    """One sample's draw of ``item`` from rng, as the arrays the tape parses."""
    if item is PARAVECTOR:
        return [random_paravector(rng).data]
    if item is EVENT:
        return [random_event(rng).data]
    if item is POLY:
        return [field_row(rng)[0]]
    if item is SCALAR:
        return [scalar_row(rng)]
    if item is FIELD:
        return list(field_row(rng, index % 2 == 1))
    if item is NULL_WAVE:
        return list(null_wave_row(rng))
    if item is TEN_EVENTS:
        return [np.array([random_event(rng).data for _ in range(10)])]
    if item is MAXWELL_EVENT:
        return [maxwell_event(rng).data]
    if item is SPATIAL:
        return [rng.uniform(-2.0, 2.0, size=3)]
    kvec, pol, amp = wave_draw(rng, attempts)
    return [np.concatenate([kvec, pol, [amp.real, amp.imag]])]


def arrays(out):
    """A draw's blocks as arrays: a block field as its coefficients and phases."""
    return [a for block in out
            for a in ([block[2], block[1]] if isinstance(block, tuple) else [block])]


def assert_same(got, want, what):
    assert len(got) == len(want), what
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, what
        assert a.tobytes() == b.tobytes(), what


def check_family(name, seed, block, attempts=None):
    """Blocks of the family against as many per-sample draws, the cursor
    against the doubles the per-sample draws took, and the offsets against
    the cursor before each sample drawn as a block of one."""
    items, rng, ref = FAMILIES[name], np.random.default_rng(seed), np.random.default_rng(seed)
    t, single, chunk = Tape(rng), Tape(np.random.default_rng(seed)), tape.CHUNK
    for start in range(0, max(2 * block, 24), block):
        got = arrays(draw(t, start, block, *items))
        starts = []
        for i in range(start, start + block):
            starts.append(single.cursor)
            draw(single, i, 1, *items)
        assert t.offsets.tolist() == starts, (name, seed, block, chunk, start)
        want = stack_samples([a for item in items for a in reference(item, ref, i, attempts)]
                             for i in range(start, start + block))
        assert_same(got, want, (name, seed, block, chunk, start))
        fresh = np.random.default_rng(seed)
        fresh.bit_generator.advance(t.cursor)
        assert fresh.bit_generator.state == ref.bit_generator.state, (name, seed, block, chunk)


@pytest.mark.parametrize("name", FAMILIES)
def test_block_draws_take_the_per_sample_draws(name, monkeypatch):
    # chunks of 5 and 13 doubles refill the tape in the middle of a sample
    for seed in (0, 1):
        for block in (1, 7, 16, 256):
            for chunk in (CHUNK, 13, 5):
                monkeypatch.setattr(tape, "CHUNK", chunk)
                check_family(name, seed, block)


@pytest.mark.parametrize("name", [n for n, items in FAMILIES.items() if PARAVECTOR in items])
def test_block_draws_take_forced_paravector_redraws(name, monkeypatch):
    # a group of four values whose first real part is below -0.5 becomes
    # singular: about a third of the paravector candidates are redrawn, some
    # several times in a row; fields and events change alike on both sides
    disc, forced = fields._disc, []

    def often_singular(u, scale):
        z = disc(u, scale)
        if z.shape[-1] % 4 == 0:
            groups = z.reshape(-1, 4)
            hit = groups[:, 0].real < -0.5
            groups[hit] = [1.0 + 0.5j, 1.0 + 0.5j, 0.0, 0.0]  # [s; s e_x] has det 0
            forced.append(hit.sum())
        return z

    monkeypatch.setattr(fields, "_disc", often_singular)
    monkeypatch.setattr(tape, "_disc", often_singular)
    for seed in range(3):
        for block in (1, 7, 16, 256):
            monkeypatch.setattr(tape, "CHUNK", 13 if block == 7 else CHUNK)
            check_family(name, seed, block)
    assert sum(forced) > 300


def test_block_draws_take_forced_wave_redraws(monkeypatch):
    # the two loops of the plane-wave draw, redrawn about a quarter and a
    # third of the time
    monkeypatch.setattr(tape, "WAVE_NORM", 0.8)
    monkeypatch.setattr(tape, "POLARIZATION_NORM", 0.6)
    attempts = []
    for seed in range(3):
        for block in (1, 7, 16, 256):
            monkeypatch.setattr(tape, "CHUNK", 5 if block == 7 else CHUNK)
            check_family("plane-wave", seed, block, attempts)
    tries = np.array(attempts)
    assert (tries[:, 0] > 2).sum() > 20 and (tries[:, 1] > 2).sum() > 20


@pytest.mark.parametrize("c", [1.0, 2.0])
def test_plane_wave_blocks_are_the_per_sample_rows(c):
    k = PhysConstants(c=c)
    for seed in (0, 1):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        _, phase, coeffs = plane_wave_block(draw(Tape(rng), 0, 16, WAVE)[0], k)
        want = stack_samples(random_wave_row(ref, k) for _ in range(16))
        assert_same([coeffs, phase], want, (c, seed))


def test_block_draws_take_the_redraw_loops_unforced():
    # at the shipped bounds, so that the comparisons above also cover them
    attempts = []
    check_family("plane-wave", 4, 256, attempts)
    tries = np.array(attempts)
    assert (tries[:, 0] > 1).any() and (tries[:, 1] > 1).any()


@pytest.mark.parametrize("name", FAMILIES)
def test_sample_offsets_replay_each_sample(name):
    # a fresh substream advanced to a sample's offset, parsed as a block of
    # one, gives that sample's row of the block
    items = FAMILIES[name]
    for seed in (42, 3):
        t = Tape(case_rng(seed, "transforms", 0))
        draw(t, 0, 7, *items)
        block = arrays(draw(t, 7, 16, *items))
        assert t.offsets[0] > 0 and (np.diff(t.offsets) > 0).all()
        for i, offset in enumerate(t.offsets):
            rng = case_rng(seed, "transforms", 0)
            rng.bit_generator.advance(int(offset))
            one = arrays(draw(Tape(rng), 7 + i, 1, *items))
            assert_same(one, [a[i:i + 1] for a in block], (name, seed, i))


@pytest.mark.parametrize("chunk", [5, 64])
def test_tape_reads_less_than_a_chunk_ahead(chunk, monkeypatch):
    monkeypatch.setattr(tape, "CHUNK", chunk)
    rng = np.random.default_rng(9)
    t = Tape(rng)
    for start in range(0, 40, 8):
        draw(t, start, 8, *FAMILIES["transport"])
        states = []
        for ahead in range(chunk):
            fresh = np.random.default_rng(9)
            fresh.bit_generator.advance(t.cursor + ahead)
            states.append(fresh.bit_generator.state)
        assert rng.bit_generator.state in states
