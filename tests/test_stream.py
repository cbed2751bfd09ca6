"""The counter-based SplitMix64 stream that every randomized check draws from."""

import numpy as np
import pytest

from ptgfv import analysis
from ptgfv.analysis import PROBE_COUNTER, SplitMix64, lemma_suite, stability_check
from ptgfv.mesh import generate_rhombus_equilateral

from oracles import ReferenceStream, splitmix64


def test_reference_stream_gives_the_published_splitmix64_outputs():
    # the outputs of the reference implementation of SplitMix64 for seeds
    # 0 and 1234567
    assert next(splitmix64(0)) == 0xE220A8397B1DCDAF
    draws = splitmix64(1234567)
    assert [next(draws) for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


@pytest.mark.parametrize("counter", [0, PROBE_COUNTER])
@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
def test_stream_matches_the_python_int_stream(seed, counter):
    # bit for bit, also across the uint64 wrap-around of the largest seed and
    # of the probe's counters, and in blocks of any size
    reference = ReferenceStream(seed, counter).uniform((1000,))
    stream = SplitMix64(seed, counter)
    assert np.array_equal(stream.uniform((1000,)), reference)
    assert stream.counter == counter + 1000
    stream = SplitMix64(seed, counter)
    parts = [stream.uniform((1,)), stream.uniform((3, 111)), stream.uniform((666,))]
    assert np.array_equal(np.concatenate([p.ravel() for p in parts]), reference)


def test_uniforms_are_53_bit_fractions_in_the_unit_interval():
    u = SplitMix64(7).uniform((4096,))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert np.array_equal(u * 2.0**53, np.floor(u * 2.0**53))
    assert len(np.unique(u)) == len(u)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_a_seed_outside_64_bits_is_refused(seed, rhombus4):
    with pytest.raises(ValueError, match="seed must be in 0..2\\*\\*64 - 1"):
        SplitMix64(seed)
    with pytest.raises(ValueError, match="seed"):
        lemma_suite(samples=5, seed=seed)
    with pytest.raises(ValueError, match="seed"):
        stability_check(rhombus4, trials=1, seed=seed)


def test_lemma_and_probe_streams_never_share_a_draw(monkeypatch):
    # every draw of ``verify --samples 10000 --mesh <n=32>`` is recorded as
    # the counter range it takes; the two ranges are disjoint, so no draw is
    # shared, and the suite stays far below the probe's first counter.  The
    # suite's sampler reads candidates ahead and rewinds to just past the
    # last one it keeps, so its next draw starts inside the previous one or
    # at its end
    ranges = {"lemma": [], "probe": []}

    class Recording(SplitMix64):
        def uniform(self, size):
            start = self.counter
            values = super().uniform(size)
            ranges[user].append((start, self.counter, values))
            return values

    monkeypatch.setattr(analysis, "SplitMix64", Recording)
    user = "lemma"
    lemma_suite(samples=10000, seed=42)
    user = "probe"
    stability_check(generate_rhombus_equilateral(32), seed=42)
    lemma = [(a, b) for a, b, _ in ranges["lemma"]]
    probe = [(a, b) for a, b, _ in ranges["probe"]]
    # each user draws one run of counters without a gap
    assert all(b == c for (_, b), (c, _) in zip(probe, probe[1:]))
    assert all(a <= c <= b for (a, b), (c, _) in zip(lemma, lemma[1:]))
    assert lemma[0][0] == 0 and probe[0][0] == PROBE_COUNTER
    assert 60000 < lemma[-1][1] < 1e6
    assert probe[-1][1] - PROBE_COUNTER == 100 * (3 * 32 * 32 + 2 * 32)
    values = {name: np.concatenate([v.ravel() for *_, v in runs]) for name, runs in ranges.items()}
    assert np.intersect1d(values["lemma"], values["probe"]).size == 0

