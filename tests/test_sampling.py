import hashlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbto import sampling
from rbto.sampling import DRAW_AHEAD, Lognormal, Normal, RandomInput, SampleStream


def lognormal_to_u(rv, x):
    """Inverse of the lognormal transform: u = (ln x - mu_ln) / sigma_ln."""
    return (np.log(x) - rv.mu_ln) / rv.sigma_ln


def test_standard_normal_moments():
    ri = RandomInput((Normal(),))
    x = ri.sample(10**6, SampleStream(123).child("moments"))
    assert abs(x.mean()) < 5e-3
    assert abs(x.std() - 1.0) < 5e-3


def test_lognormal_unit_mean_moments():
    ri = RandomInput((Lognormal(1.0, 0.1),))
    x = ri.sample(10**6, SampleStream(456).child("moments"))
    assert abs(x.mean() - 1.0) < 2e-3


def test_same_seed_path_bit_identical():
    ri = RandomInput((Normal(), Lognormal(2.0, 0.5)))
    a = ri.sample(1000, SampleStream(99).child("x", 3))
    b = ri.sample(1000, SampleStream(99).child("x", 3))
    assert np.array_equal(a, b)


def test_stream_words_pinned():
    # generator output of the refresh and mini-batch paths, recorded before
    # the label digests were cached; any change to the stream encoding shows here
    pf = SampleStream(5).child("pf", 25).rng().standard_normal(3)
    batch = SampleStream(5).child("batch", 7).rng().standard_normal(3)
    assert pf.tolist() == [0.7904974087747304, 0.5204064893934327, -0.28734717707675667]
    assert batch.tolist() == [-0.7478595379644631, 0.48762322987512324, -1.7432605059822965]


WORD_EDGES = st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 1, 2**100 + 7])  # one, two, three and four words


@given(
    seed=st.one_of(WORD_EDGES, st.integers(0, 2**70)),
    path=st.lists(st.one_of(WORD_EDGES, st.integers(0, 2**70), st.text(max_size=8)), max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_stream_state_is_the_seed_sequence_of_its_labels(seed, path):
    # rng() seeds from 32-bit words; the state is that of SeedSequence([seed, *encoded labels])
    words = [seed]
    for label in path:
        if isinstance(label, str):
            digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
            words += [2, int.from_bytes(digest, "little")]
        else:
            words += [1, label]
    expected = np.random.default_rng(np.random.SeedSequence(words)).bit_generator.state
    assert SampleStream(seed, tuple(path)).rng().bit_generator.state == expected


@given(
    seed=st.one_of(WORD_EDGES, st.integers(0, 2**70)),
    calls=st.lists(
        st.lists(st.one_of(WORD_EDGES, st.integers(0, 2**70), st.text(max_size=8)), max_size=3),
        max_size=3,
    ),
)
@settings(max_examples=200, deadline=None)
def test_chained_children_equal_the_stream_of_their_whole_path(seed, calls):
    # child() appends the new labels' words to its parent's; the result is the
    # stream built from the whole path at once
    stream = SampleStream(seed)
    for labels in calls:
        stream = stream.child(*labels)
    whole = SampleStream(seed, tuple(label for labels in calls for label in labels))
    assert stream == whole
    assert stream.words == whole.words
    assert stream.rng().bit_generator.state == whole.rng().bit_generator.state


BLOCK_ROWS = 1000  # sampling.DRAW_BLOCK in the blocks_u tests, so each sees many fills
FIRST_FILL = DRAW_AHEAD * BLOCK_ROWS  # rows of a draw's first fill, the single draw sample_u


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(sampling, "DRAW_BLOCK", BLOCK_ROWS)


def drawn_blocks(ri, n, stream):
    """The ranges blocks_u(n, stream) yields under small_blocks, by its contract:
    sample_u for the first fill, then the generator of stream.child(b) for block b >= 1."""
    first = min(FIRST_FILL, n)
    blocks = [ri.sample_u(first, stream)]
    for b, start in enumerate(range(first, n, BLOCK_ROWS), start=1):
        blocks.append(stream.child(b).rng().standard_normal((min(BLOCK_ROWS, n - start), ri.dim)))
    return blocks


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("n", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5,
                               FIRST_FILL, FIRST_FILL + 1, FIRST_FILL + 3 * BLOCK_ROWS + 5])
def test_blocks_u_concatenate_to_sample_u(dim, n, small_blocks):
    # up to the first fill the blocks are the single draw sample_u bit for bit;
    # each later block comes from its own generator
    ri = RandomInput((Normal(),) * dim)
    stream = SampleStream(17).child("blocks")
    blocks = list(ri.blocks_u(n, stream))
    lengths = [min(FIRST_FILL, n)]  # the first fill covers DRAW_AHEAD blocks
    while sum(lengths) < n:
        lengths.append(min(BLOCK_ROWS, n - sum(lengths)))
    assert [len(b) for b in blocks] == lengths
    assert all(np.array_equal(a, b) for a, b in zip(blocks, drawn_blocks(ri, n, stream), strict=True))
    if n <= FIRST_FILL:
        assert np.array_equal(blocks[0], ri.sample_u(n, stream))


class _TracedRng:
    """A generator that logs which thread makes each fill; a held fill waits for `release`."""

    def __init__(self, rng, log, release, held):
        self.rng, self.log, self.release, self.held = rng, log, release, held

    def standard_normal(self, out):
        if self.held:
            assert self.release.wait(10.0)
        self.log.append(threading.get_ident())
        self.rng.standard_normal(out=out)
        self.release.set()  # the first fill that is not held lets the held one go


def test_blocks_u_read_after_a_delay_equals_read_at_once(monkeypatch, threads_left, small_blocks):
    # the bits do not depend on which thread drew a block: read at once, with the
    # worker held in its first fill, the caller draws the blocks it would wait
    # for; read after the worker has exited, the worker drew every block
    ri = RandomInput((Normal(),) * 2)
    n = FIRST_FILL + 5 * BLOCK_ROWS + 7
    stream = SampleStream(18).child("late")
    expected = np.concatenate(drawn_blocks(ri, n, stream))
    shipped_rng = SampleStream.rng
    caller = threading.get_ident()

    def draw(hold_first):
        log, release = [], threading.Event()

        def traced(s):
            return _TracedRng(shipped_rng(s), log, release, hold_first and s == stream)

        monkeypatch.setattr(SampleStream, "rng", traced)
        blocks = ri.blocks_u(n, stream)
        monkeypatch.setattr(SampleStream, "rng", shipped_rng)
        return blocks, log

    at_once, log = draw(hold_first=True)
    assert np.array_equal(np.concatenate(list(at_once)), expected)
    assert caller in log
    late, log = draw(hold_first=False)
    assert threads_left() == 0
    assert np.array_equal(np.concatenate(list(late)), expected)
    assert len(log) == 7 and caller not in log


def test_blocks_u_concurrent_draws_under_fast_switching(threads_left, small_blocks):
    # four draws read in lockstep (more workers than cores) with a short switch
    # interval: whichever thread takes a block, each is drawn once, by its own generator
    ri = RandomInput((Normal(),))
    n = FIRST_FILL + 20 * BLOCK_ROWS + 3
    streams = [SampleStream(30).child(i) for i in range(4)]
    expected = [np.concatenate(drawn_blocks(ri, n, stream)) for stream in streams]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            draws = [ri.blocks_u(n, stream) for stream in streams]
            rounds = list(zip(*draws))  # one block of each draw at a time
            read = [np.concatenate(blocks) for blocks in zip(*rounds)]
            assert all(np.array_equal(a, b) for a, b in zip(read, expected))
    finally:
        sys.setswitchinterval(interval)
    assert threads_left() == 0


def test_blocks_u_unread_draw_leaves_no_thread(threads_left, small_blocks):
    ri = RandomInput((Normal(),))
    n = FIRST_FILL + 3 * BLOCK_ROWS + 5
    draw = ri.blocks_u(n, SampleStream(4))
    assert threads_left() == 0  # the worker exits after its last fill, read or not
    assert np.array_equal(np.concatenate(list(draw)), np.concatenate(drawn_blocks(ri, n, SampleStream(4))))


def test_blocks_u_consumer_that_breaks_leaves_no_thread(threads_left, small_blocks):
    for _ in RandomInput((Normal(),)).blocks_u(FIRST_FILL + 3 * BLOCK_ROWS + 5, SampleStream(2)):
        assert threads_left(timeout=0.0) <= 1  # one worker at most
        break
    assert threads_left() == 0


def test_blocks_u_consumer_that_raises_leaves_no_thread(threads_left, small_blocks):
    with pytest.raises(RuntimeError, match="consumer failed"):
        for _ in RandomInput((Normal(),)).blocks_u(FIRST_FILL + 3 * BLOCK_ROWS + 5, SampleStream(3)):
            raise RuntimeError("consumer failed")
    assert threads_left() == 0


def test_distinct_paths_are_uncorrelated():
    s = SampleStream(2024)
    a = s.child("one").rng().standard_normal(10**5)
    b = s.child("two").rng().standard_normal(10**5)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.01


def test_standard_normal_from_u_is_identity():
    ri = RandomInput((Normal(),))
    u = np.array([[0.3], [-1.7], [2.5]])
    assert np.array_equal(ri.from_u(u), u)


def test_lognormal_moment_matching_constants():
    rv = Lognormal(1.0, 0.1)
    assert rv.sigma_ln == pytest.approx(0.0997513, abs=1e-7)
    assert rv.mu_ln == pytest.approx(-0.0049752, abs=1e-7)


def test_lognormal_from_u_at_zero():
    ri = RandomInput((Lognormal(1.0, 0.1),))
    assert ri.from_u(np.array([0.0]))[0] == pytest.approx(0.9950372, abs=1e-7)


def test_lognormal_empirical_moments_match_specified():
    rv = Lognormal(2.0, 0.4)
    ri = RandomInput((rv,))
    n = 10**6
    x = ri.sample(n, SampleStream(7).child("ln")).ravel()
    se_mean = rv.std / np.sqrt(n)
    assert abs(x.mean() - rv.mean) < 3 * se_mean
    # std of the sample std via the delta method with the empirical 4th moment
    m4 = np.mean((x - x.mean()) ** 4)
    se_std = np.sqrt(max(m4 - rv.std**4, 0.0)) / (2 * rv.std * np.sqrt(n))
    assert abs(x.std() - rv.std) < 3 * se_std


def test_roundtrip_many_points():
    rv = Lognormal(3.0, 0.6)
    ri = RandomInput((Normal(), rv, Normal()))
    u = SampleStream(11).child("rt").rng().standard_normal((10**4, 3))
    x = ri.from_u(u)
    assert np.array_equal(x[:, [0, 2]], u[:, [0, 2]])
    assert np.abs(lognormal_to_u(rv, x[:, 1]) - u[:, 1]).max() < 1e-10


@given(
    mean=st.floats(0.1, 50),
    cov=st.floats(0.01, 1.0),
    u=st.floats(-6, 6),
)
@settings(max_examples=50, deadline=None)
def test_normal_roundtrip_property(mean, cov, u):
    # a standard-normal column passes through unchanged beside a lognormal one
    ri = RandomInput((Normal(), Lognormal(mean, cov * mean)))
    x = ri.from_u(np.array([u, 0.0]))
    assert x[0] == u


@given(
    mean=st.floats(0.1, 50),
    cov=st.floats(0.01, 1.0),
    u=st.floats(-6, 6),
)
@settings(max_examples=50, deadline=None)
def test_lognormal_roundtrip_property(mean, cov, u):
    rv = Lognormal(mean, cov * mean)
    x = RandomInput((rv,)).from_u(np.array([u]))
    assert x[0] > 0
    assert lognormal_to_u(rv, x[0]) == pytest.approx(u, abs=1e-8)


def test_stream_rejects_bad_labels():
    with pytest.raises(ValueError):
        SampleStream(5).child(-1)
    with pytest.raises(TypeError):
        SampleStream(5).child(3.14)


@pytest.mark.parametrize("labels, error", [
    (("a", -1), ValueError), ((-1, "a"), ValueError), ((2, 3.14), TypeError), ((3.14, 2), TypeError),
])
def test_bad_label_anywhere_in_a_child_raises_at_that_call(labels, error):
    parent = SampleStream(5).child("ok", 1)
    with pytest.raises(error):
        parent.child(*labels)
    with pytest.raises(error):
        SampleStream(5, ("ok", 1, *labels))
