"""The ALOHA slot source draws what ``Generator.integers`` draws, state included.

:class:`~repro.rfid.aloha.SlotSource` reads a round's slots off PCG64's raw
64-bit words and keeps the generator's held 32-bit half-word itself, so the
sweep's slot draws skip ``Generator.integers``'s fixed per-call cost.  Every
read log and digest rests on the two giving the same slots and leaving the
same generator state.  The property below checks both against numpy's own
``integers(0, 2**q, size=n, dtype=np.int32)``, the oracle's draw, over frames
of 1 to 2**15 slots, counts up to 4096, either held half-word on entry, and
whole-word ``random()``/``normal()`` draws in between.  If numpy changes its
bounded sampler or PCG64's 32-bit draw, this fails first and names the numpy
it ran under.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.rfid.aloha import SlotSource

NUMPY = f"numpy {np.__version__}"

STEPS = st.lists(
    st.tuples(
        st.integers(0, 15),
        st.integers(0, 4096),
        st.sampled_from(("draw", "draw_array")),
        st.sampled_from((None, "random", "normal", "sync")),
    ),
    min_size=1,
    max_size=6,
)
"""Per draw: frame exponent ``q``, slot count, form, and what follows it."""


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), held_on_entry=st.booleans(), steps=STEPS)
# Even and odd counts from either held half-word, a one-slot frame (no draw)
# between them, and whole-word draws that must leave the held half alone.
@example(seed=1, held_on_entry=False, steps=[(4, 2, "draw", None), (4, 3, "draw", None)])
@example(
    seed=1,
    held_on_entry=True,
    steps=[(4, 1, "draw", "random"), (0, 5, "draw_array", "normal"), (15, 4096, "draw", None)],
)
def test_slots_and_state_match_generator_integers(seed, held_on_entry, steps):
    expected = np.random.default_rng(seed)
    actual = np.random.default_rng(seed)
    if held_on_entry:
        # One 32-bit draw leaves the high half of a word held.
        for rng in (expected, actual):
            rng.integers(0, 2, size=1, dtype=np.int32)
    slots = SlotSource(actual)
    for q, count, form, then in steps:
        frame_size = 1 << q
        want = expected.integers(0, frame_size, size=count, dtype=np.int32)
        got = getattr(slots, form)(count, frame_size)
        if form == "draw_array":
            assert got.dtype == np.intp
            got = got.tolist()
        assert got == want.tolist(), f"{NUMPY}: slots differ from Generator.integers"
        if then == "sync":
            assert slots.sync() == expected.bit_generator.state, NUMPY
        elif then is not None:
            assert getattr(actual, then)() == getattr(expected, then)(), NUMPY
    assert slots.sync() == expected.bit_generator.state, NUMPY
    assert actual.bit_generator.state == expected.bit_generator.state, NUMPY


def test_reload_follows_a_restored_state():
    rng = np.random.default_rng(7)
    slots = SlotSource(rng)
    slots.draw(3, 16)
    checkpoint = slots.sync()
    first = slots.draw(5, 64)
    slots.draw(4, 8)
    rng.bit_generator.state = checkpoint
    slots.reload()
    assert slots.draw(5, 64) == first


@pytest.mark.parametrize("bit_generator", ["MT19937", "Philox", "SFC64", "PCG64DXSM"])
def test_other_bit_generators_are_refused(bit_generator):
    rng = np.random.Generator(getattr(np.random, bit_generator)(0))
    with pytest.raises(TypeError, match=bit_generator):
        SlotSource(rng)
