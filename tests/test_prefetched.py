"""Streams with prefetched words: reads from them, then from the live words, are SplitMix64's.

Both readers, SplitMix64(seed) and SplitMix64(seed, ahead), are checked against `Reference`,
a stream written out here from the mix and the rejection rule, so that neither is its own
oracle.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from biasrank.rng import SplitMix64, words  # noqa: E402

SETTINGS = settings(max_examples=300, deadline=None, database=None)
MASK = (1 << 64) - 1


class Reference:
    """SplitMix64 (Steele, Lea and Flood 2014) word by word, and the rejection rule on its words."""

    def __init__(self, seed):
        self.state = seed & MASK

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def residues(self, bound, count):
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit, out = (1 << 64) - ((1 << 64) % bound), []
        while len(out) < count:
            word = self.next_u64()
            if word < limit:
                out.append(word % bound)
        return tuple(out)

    def below(self, bound):
        return self.residues(bound, 1)[0]


# Bounds near the edges: 1, small primes, the byte boundary, and 2^63 + 1, which rejects
# about half of all words, so a read skips prefetched words and runs past them.
bound = st.one_of(st.sampled_from([1, 2, 3, 5, 7, 256, 257, (1 << 63) + 1, (1 << 64) - 1]),
                  st.integers(1, 1 << 64))
read = st.one_of(st.tuples(st.just("next_u64")),
                 st.tuples(st.just("below"), bound),
                 st.tuples(st.just("residues"), bound, st.integers(-3, 12)))


def same_reads(seed, ahead, reads):
    reference = Reference(seed)
    live, prefetched = SplitMix64(seed), SplitMix64(seed, words([seed], ahead))
    for name, *args in reads:
        expected = getattr(reference, name)(*args)
        assert getattr(live, name)(*args) == expected, ("live", name, args)
        assert getattr(prefetched, name)(*args) == expected, ("prefetched", name, args)


@SETTINGS
@given(st.integers(-(1 << 66), 1 << 66), st.integers(0, 24), st.lists(read, max_size=12))
def test_reads_are_the_streams(seed, ahead, reads):
    same_reads(seed, ahead, reads)


def test_a_read_crosses_from_the_prefetched_words_to_the_stream():
    big = (1 << 63) + 1
    limit = (1 << 64) - (1 << 64) % big
    # seeds whose 4 prefetched words hold a rejected one, so 3 residues read past them
    seeds = [s for s in range(40) if max(words([s], 4)) >= limit]
    assert seeds
    for s in seeds:
        same_reads(s, 4, [("residues", big, 3), ("residues", big, 5), ("next_u64",)])
        same_reads(s, 4, [("below", 3), ("residues", 7, 8), ("below", big)])


def test_no_prefetched_words():
    for s in (0, 1, (1 << 64) - 1):
        same_reads(s, 0, [("next_u64",), ("below", (1 << 63) + 1), ("residues", 5, 4)])


@pytest.mark.parametrize("bound", [3, 255, 257, (1 << 63) + 1])
def test_a_word_at_the_limit_is_rejected(bound):
    # prefetched words are read as given, so crafted ones reach the rejection rule
    limit = (1 << 64) - (1 << 64) % bound
    gen = SplitMix64(0, [limit, (1 << 64) - 1, limit - 1, 7])
    assert gen.residues(bound, 2) == ((limit - 1) % bound, 7 % bound)


@pytest.mark.parametrize("ahead", [0, 1, 3])
def test_a_count_below_one_reads_no_word(ahead):
    for count in (0, -1, -7):
        for gen in (SplitMix64(9), SplitMix64(9, words([9], ahead))):
            assert gen.residues(5, count) == ()
            assert gen.next_u64() == Reference(9).next_u64()


@pytest.mark.parametrize("ahead", [0, 2])
def test_seeds_outside_64_bits_are_taken_mod_2_64(ahead):
    for seed in (-1, -5, -(1 << 64) - 3, 1 << 64, (1 << 64) + 5, 18446744073709551621, 1 << 70):
        same_reads(seed, ahead, [("next_u64",), ("residues", 257, 6), ("below", 3),
                                 ("residues", (1 << 63) + 1, 4), ("next_u64",)])


@pytest.mark.parametrize("ahead", [0, 3])
@pytest.mark.parametrize("bad", [0, -1])
def test_a_bound_below_one_raises_as_splitmix64(ahead, bad):
    for name, args in (("below", (bad,)), ("residues", (bad, 2)), ("residues", (bad, 0))):
        for gen in (Reference(9), SplitMix64(9), SplitMix64(9, words([9], ahead))):
            with pytest.raises(ValueError, match="bound must be positive"):
                getattr(gen, name)(*args)
