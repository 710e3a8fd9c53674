"""Prefetched streams: reads from prefetched words, then the live stream, are SplitMix64's."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from biasrank.rng import Prefetched, SplitMix64, words  # noqa: E402

SETTINGS = settings(max_examples=300, deadline=None, database=None)

# Bounds near the edges: 1, small primes, the byte boundary, and 2^63 + 1, which rejects
# about half of all words, so a read skips prefetched words and runs past them.
bound = st.one_of(st.sampled_from([1, 2, 3, 5, 7, 256, 257, (1 << 63) + 1, (1 << 64) - 1]),
                  st.integers(1, 1 << 64))
read = st.one_of(st.tuples(st.just("next_u64")),
                 st.tuples(st.just("below"), bound),
                 st.tuples(st.just("residues"), bound, st.integers(0, 12)))


def same_reads(seed, ahead, reads):
    live, prefetched = SplitMix64(seed), Prefetched(seed, words([seed], ahead))
    for name, *args in reads:
        assert getattr(prefetched, name)(*args) == getattr(live, name)(*args), (name, args)


@SETTINGS
@given(st.integers(0, (1 << 64) - 1), st.integers(0, 24), st.lists(read, max_size=12))
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


@pytest.mark.parametrize("ahead", [0, 3])
@pytest.mark.parametrize("bad", [0, -1])
def test_a_bound_below_one_raises_as_splitmix64(ahead, bad):
    for name, args in (("below", (bad,)), ("residues", (bad, 2)), ("residues", (bad, 0))):
        with pytest.raises(ValueError, match="bound must be positive"):
            getattr(SplitMix64(9), name)(*args)
        with pytest.raises(ValueError, match="bound must be positive"):
            getattr(Prefetched(9, words([9], ahead)), name)(*args)
