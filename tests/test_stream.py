"""The counter-based SplitMix64 stream that every randomized check draws from."""

import numpy as np
import pytest

from ptgfv.analysis import SplitMix64, lemma_suite, stability_check
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


@pytest.mark.parametrize("counter", [0, 1 << 63])
@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
def test_stream_matches_the_python_int_stream(seed, counter):
    # bit for bit, also across the uint64 wrap-around of the largest seed and
    # of counters from 2^63 on, and in blocks of any size; setting the
    # counter moves the stream to that draw
    reference = ReferenceStream(seed, counter).uniform((1000,))
    stream = SplitMix64(seed)
    stream.counter = counter
    assert np.array_equal(stream.uniform((1000,)), reference)
    assert stream.counter == counter + 1000
    stream = SplitMix64(seed)
    stream.counter = counter
    parts = [stream.uniform((1,)), stream.uniform((3, 111)), stream.uniform((666,))]
    assert np.array_equal(np.concatenate([p.ravel() for p in parts]), reference)


def test_uniforms_are_53_bit_fractions_in_the_unit_interval():
    u = SplitMix64(7).uniform((4096,))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert np.array_equal(u * 2.0**53, np.floor(u * 2.0**53))
    assert len(np.unique(u)) == len(u)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_a_seed_outside_64_bits_is_refused(seed):
    with pytest.raises(ValueError, match="seed must be in 0..2\\*\\*64 - 1"):
        SplitMix64(seed)
    with pytest.raises(ValueError, match="seed"):
        lemma_suite(samples=5, seed=seed)


def test_only_the_lemma_suite_draws(monkeypatch):
    # ``verify --samples 10000 --mesh <n=32>`` draws for the lemma suite's
    # triangles alone: the stability check is closed form and makes no draw.
    # The suite's sampler reads candidates ahead and rewinds to just past
    # the last one it keeps, so its next draw starts inside the previous one
    # or at its end
    ranges = {"lemma": [], "stability": []}
    uniform = SplitMix64.uniform

    def recording(self, size):
        start = self.counter
        values = uniform(self, size)
        ranges[user].append((start, self.counter))
        return values

    monkeypatch.setattr(SplitMix64, "uniform", recording)
    user = "lemma"
    lemma_suite(samples=10000, seed=42)
    user = "stability"
    stability_check(generate_rhombus_equilateral(32))
    assert ranges["stability"] == []
    lemma = ranges["lemma"]
    assert all(a <= c <= b for (a, b), (c, _) in zip(lemma, lemma[1:]))
    assert lemma[0][0] == 0 and 60000 < lemma[-1][1] < 1e6
