import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imputebench.stochastics import (
    Purpose,
    SeedSpec,
    _address_rows,
    _philox_keys,
    make_stream,
    rep_streams,
    substream_id,
)

# the seeds and ids where SeedSequence's word count changes
_EDGES = (0, 2**32 - 1, 2**32, 2**64 - 1)
_U64 = st.integers(0, 2**64 - 1) | st.sampled_from(_EDGES)
# a child key is one spawn-key word
_CHILD_KEY = st.integers(0, 2**32 - 1) | st.sampled_from([0, 2**32 - 1])
_SPAWN_KEYS = st.lists(_CHILD_KEY, max_size=3)


def _seed_sequence_key(entropy, spawn_key=()):
    """The oracle: numpy's own SeedSequence key of a stream address."""
    seq = np.random.SeedSequence(entropy=list(entropy), spawn_key=tuple(spawn_key))
    return seq.generate_state(2, np.uint64)


def _seed_sequence_draws(entropy, spawn_key=(), n=4):
    seq = np.random.SeedSequence(entropy=list(entropy), spawn_key=tuple(spawn_key))
    return np.random.Generator(np.random.Philox(seq)).random(n)


def _stream_at(seed, sid, spawn_key=()):
    """The stream at an address, made as the program makes it: make_stream, then children."""
    stream = make_stream(SeedSpec(seed, sid))
    for key in spawn_key:
        stream = stream.child(key)
    return stream


class TestSeedSpec:
    def test_valid(self):
        spec = SeedSpec(base_seed=123, stream_id=0)
        assert spec.base_seed == 123

    @pytest.mark.parametrize("base_seed,stream_id", [
        (-1, 0),
        (0, -5),
        (2**64, 0),
        (0, 2**64),
        (1.5, 0),
        (True, 0),
        ("123", 0),
    ])
    def test_rejects_bad_fields(self, base_seed, stream_id):
        with pytest.raises(ValueError):
            SeedSpec(base_seed=base_seed, stream_id=stream_id)


class TestMakeStream:
    def test_same_spec_same_sequence(self):
        a = make_stream(SeedSpec(123, 0)).generator.standard_normal(100)
        b = make_stream(SeedSpec(123, 0)).generator.standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_different_stream_id_differs(self):
        a = make_stream(SeedSpec(123, 0)).generator.standard_normal(10)
        b = make_stream(SeedSpec(123, 1)).generator.standard_normal(10)
        assert np.any(a != b)

    def test_different_base_seed_differs(self):
        a = make_stream(SeedSpec(123, 0)).generator.standard_normal(10)
        b = make_stream(SeedSpec(124, 0)).generator.standard_normal(10)
        assert np.any(a != b)

    def test_stream_independence(self):
        # paired draws of (s,0) and (s,1) should be uncorrelated
        a = make_stream(SeedSpec(7, 0)).generator.standard_normal(100_000)
        b = make_stream(SeedSpec(7, 1)).generator.standard_normal(100_000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.01


class TestChildStreams:
    def test_child_deterministic(self):
        a = make_stream(SeedSpec(5, 9)).child(3).generator.random(20)
        b = make_stream(SeedSpec(5, 9)).child(3).generator.random(20)
        np.testing.assert_array_equal(a, b)

    def test_children_differ(self):
        parent = make_stream(SeedSpec(5, 9))
        a = parent.child(0).generator.random(10)
        b = parent.child(1).generator.random(10)
        assert np.any(a != b)

    def test_child_does_not_advance_parent(self):
        parent = make_stream(SeedSpec(5, 9))
        parent.child(0)
        parent.child(1)
        fresh = make_stream(SeedSpec(5, 9))
        np.testing.assert_array_equal(
            parent.generator.random(10), fresh.generator.random(10)
        )

    def test_grandchildren(self):
        a = make_stream(SeedSpec(5, 9)).child(2).child(7).generator.random(5)
        b = make_stream(SeedSpec(5, 9)).child(2).child(7).generator.random(5)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("key", [-1, 1.5, True, None, 2**32])
    def test_bad_child_key(self, key):
        with pytest.raises(ValueError):
            make_stream(SeedSpec(0, 0)).child(key)


class TestBuiltOnFirstDraw:
    def _count_philox(self, monkeypatch):
        """The key of each Philox built from now on, in build order."""
        keys = []
        real = np.random.Philox

        def counted(seed, *args, **kwargs):
            keys.append(seed.generate_state(2, np.uint64).tolist())
            return real(seed, *args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counted)
        return keys

    def test_make_stream_and_child_build_no_seed_sequence(self, monkeypatch):
        keys = self._count_philox(monkeypatch)
        parent = make_stream(SeedSpec(5, 9))
        child = parent.child(3).child(1)
        assert keys == []
        child.generator.random(2)
        child.generator.random(2)
        assert keys == [_seed_sequence_key((5, 9), (3, 1)).tolist()]

    def test_touching_the_parent_first_changes_no_draw(self):
        touched = make_stream(SeedSpec(5, 9))
        first = touched.generator.random(4)
        child = touched.child(2).generator.random(4)
        untouched = make_stream(SeedSpec(5, 9))
        late_child = untouched.child(2).generator.random(4)
        np.testing.assert_array_equal(child, late_child)
        np.testing.assert_array_equal(first, untouched.generator.random(4))

    @pytest.mark.parametrize("entropy,spawn_key", [((-1, 0), ()), ((1, 0), (2, -3))])
    def test_negative_entropy_rejected_before_any_draw(self, entropy, spawn_key):
        with pytest.raises(ValueError):
            _stream_at(*entropy, spawn_key)


class TestPhiloxKeys:
    """The key kernel against numpy's SeedSequence, the stream contract's oracle."""

    @settings(max_examples=200, deadline=None)
    @given(addresses=st.lists(st.tuples(_U64, _U64, _SPAWN_KEYS), min_size=1, max_size=12))
    @example(addresses=[(0, 0, []), (2**64 - 1, 2**64 - 1, [2**32 - 1, 0]), (2**32, 5, [7])])
    # every address form the program makes: seeds and ids of one and two
    # words, and children and grandchildren at both ends of a spawn-key word
    @example(addresses=[
        (seed, sid, spawn_key) for seed in _EDGES for sid in _EDGES
        for spawn_key in ([], [0], [2**32 - 1], [0, 2**32 - 1], [2**32 - 1, 0])
    ])
    def test_keys_equal_seed_sequence(self, addresses):
        for seed, sid, spawn_key in addresses:
            np.testing.assert_array_equal(
                _stream_at(seed, sid, spawn_key)._key, _seed_sequence_key((seed, sid), spawn_key)
            )

    @settings(max_examples=100, deadline=None)
    @given(
        seed=_U64, sid=_U64, prefix=_SPAWN_KEYS, keys=st.lists(_CHILD_KEY, min_size=1, max_size=5)
    )
    def test_children_equal_seed_sequence(self, seed, sid, prefix, keys):
        parent = _stream_at(seed, sid, prefix)
        for key, child in zip(keys, parent.children(keys)):
            spawn_key = tuple(prefix) + (key,)
            np.testing.assert_array_equal(child._key, _seed_sequence_key((seed, sid), spawn_key))
            np.testing.assert_array_equal(
                child.generator.random(4), _seed_sequence_draws((seed, sid), spawn_key)
            )

    @settings(max_examples=50, deadline=None)
    @given(seed=_U64, sid=_U64)
    def test_lone_stream_equals_seed_sequence(self, seed, sid):
        np.testing.assert_array_equal(
            make_stream(SeedSpec(seed, sid)).generator.random(4), _seed_sequence_draws((seed, sid))
        )

    def test_one_width_batch(self):
        words = np.column_stack([_address_rows(123, range(40)), np.arange(40, dtype=np.uint32)])
        expected = [_seed_sequence_key((123, i), (i,)) for i in range(40)]
        np.testing.assert_array_equal(_philox_keys(words), np.array(expected, dtype=np.uint64))

    def test_child_is_the_one_key_case_of_children(self):
        parent = make_stream(SeedSpec(5, 9))
        np.testing.assert_array_equal(
            parent.child(4).generator.random(3), parent.children([2, 4])[1].generator.random(3)
        )

    @pytest.mark.parametrize("key", [-1, 1.5, True, None, 2**32])
    def test_bad_children_key(self, key):
        with pytest.raises(ValueError):
            make_stream(SeedSpec(0, 0)).children([0, key])


class TestRepStreams:
    @pytest.mark.parametrize("seed,cell,first,last", [
        (123, 7, 1, 16),
        (0, 0, 1, 3),
        # cell 0's ids cross 2**32 at replication 2**29: one word, then two
        (4242, 0, 2**29 - 2, 2**29 + 2),
        (2**64 - 1, 2**24 - 1, 2**37 - 3, 2**37 - 1),
        (2**32, 3, 5, 5),
    ])
    def test_equal_make_stream(self, seed, cell, first, last):
        purposes = (Purpose.SAMPLING, Purpose.AMPUTATION, Purpose.IMPUTATION)
        for purpose, streams in zip(purposes, rep_streams(seed, cell, first, last)):
            assert len(streams) == last - first + 1
            for t, stream in zip(range(first, last + 1), streams):
                spec = SeedSpec(seed, substream_id(cell, t, purpose))
                np.testing.assert_array_equal(
                    stream.generator.random(3), make_stream(spec).generator.random(3)
                )
                np.testing.assert_array_equal(
                    stream._key, _seed_sequence_key((spec.base_seed, spec.stream_id))
                )

    @pytest.mark.parametrize("seed,cell,first,last", [
        (0, 2**24, 1, 1),
        (0, -1, 1, 1),
        (0, 0, 0, 2**37),
        (0, 0, -1, 1),
        (-1, 0, 1, 1),
        (2**64, 0, 1, 1),
    ])
    def test_range_errors(self, seed, cell, first, last):
        with pytest.raises(ValueError):
            rep_streams(seed, cell, first, last)

    def test_streams_built_on_first_draw(self, monkeypatch):
        built = []
        real = np.random.Philox
        monkeypatch.setattr(np.random, "Philox", lambda seed: built.append(1) or real(seed))
        sampling, _, imputation = rep_streams(1, 2, 1, 4)
        assert built == []
        sampling[2].generator.random(1)
        imputation[0].generator.random(1)
        assert len(built) == 2


class TestSubstreamId:
    def test_bit_layout_frozen(self):
        # 24-bit cell | 37-bit replication | 3-bit purpose
        assert substream_id(0, 0, Purpose.POPULATION) == 0
        assert substream_id(0, 0, Purpose.IMPUTATION) == 3
        assert substream_id(0, 1, Purpose.POPULATION) == 1 << 3
        assert substream_id(1, 0, Purpose.POPULATION) == 1 << 40
        assert substream_id(2, 5, Purpose.AMPUTATION) == (2 << 40) | (5 << 3) | 2

    def test_purpose_values_frozen(self):
        assert Purpose.POPULATION == 0
        assert Purpose.SAMPLING == 1
        assert Purpose.AMPUTATION == 2
        assert Purpose.IMPUTATION == 3

    def test_injective_on_grid(self):
        seen = set()
        for cell in (0, 1, 7, 2**24 - 1):
            for rep in (0, 1, 200, 2**37 - 1):
                for purpose in Purpose:
                    seen.add(substream_id(cell, rep, purpose))
        assert len(seen) == 4 * 4 * 4

    def test_range_checks(self):
        with pytest.raises(ValueError):
            substream_id(2**24, 0, Purpose.POPULATION)
        with pytest.raises(ValueError):
            substream_id(0, 2**37, Purpose.POPULATION)
        with pytest.raises(ValueError):
            substream_id(-1, 0, Purpose.POPULATION)
        with pytest.raises(ValueError):
            substream_id(0, -1, Purpose.POPULATION)

    def test_fits_in_64_bits(self):
        top = substream_id(2**24 - 1, 2**37 - 1, Purpose.IMPUTATION)
        assert 0 <= top <= 2**64 - 1
        SeedSpec(123, top)  # must be a usable stream id


# The draws the layers make on a stream's generator: standard_normal
# (datagen, imputers, linmodel), random (ampute), choice without
# replacement (datagen) and chisquare (linmodel).
class TestDrawStandardNormal:
    def test_empty(self):
        assert make_stream(SeedSpec(1, 0)).generator.standard_normal(0).size == 0

    def test_moments(self):
        x = make_stream(SeedSpec(1, 0)).generator.standard_normal(1_000_000)
        assert -0.01 < x.mean() < 0.01
        assert 0.99 < x.var() < 1.01

    def test_stream_linearity(self):
        s1 = make_stream(SeedSpec(1, 0))
        two = np.concatenate([s1.generator.standard_normal(5), s1.generator.standard_normal(5)])
        one = make_stream(SeedSpec(1, 0)).generator.standard_normal(10)
        np.testing.assert_array_equal(two, one)

    def test_negative_count(self):
        with pytest.raises(ValueError):
            make_stream(SeedSpec(1, 0)).generator.standard_normal(-1)


class TestDrawUniform:
    def test_empty(self):
        assert make_stream(SeedSpec(1, 0)).generator.random(0).size == 0

    def test_mean(self):
        x = make_stream(SeedSpec(1, 0)).generator.random(1_000_000)
        assert 0.499 < x.mean() < 0.501

    def test_range(self):
        x = make_stream(SeedSpec(2, 0)).generator.random(10_000)
        assert np.all(x >= 0.0) and np.all(x < 1.0)


class TestSampleWithoutReplacement:
    def test_exhaustive_is_permutation(self):
        idx = make_stream(SeedSpec(1, 0)).generator.choice(5, size=5, replace=False)
        assert sorted(idx) == [0, 1, 2, 3, 4]

    def test_distinct(self):
        idx = make_stream(SeedSpec(1, 0)).generator.choice(1_000_000, size=1000, replace=False)
        assert len(set(idx.tolist())) == 1000
        assert idx.min() >= 0 and idx.max() < 1_000_000

    def test_k_exceeds_population(self):
        with pytest.raises(ValueError):
            make_stream(SeedSpec(1, 0)).generator.choice(3, size=4, replace=False)

    def test_inclusion_frequency(self):
        # each index appears with frequency k/pop across repeated draws
        pop, k, trials = 20, 5, 10_000
        stream = make_stream(SeedSpec(3, 0))
        counts = np.zeros(pop)
        for _ in range(trials):
            counts[stream.generator.choice(pop, size=k, replace=False)] += 1
        freq = counts / trials
        expect = k / pop
        se = np.sqrt(expect * (1 - expect) / trials)
        assert np.all(np.abs(freq - expect) < 3 * se)


class TestDrawChiSquare:
    def test_moments(self):
        stream = make_stream(SeedSpec(4, 0))
        draws = np.array([stream.generator.chisquare(10) for _ in range(200_000)])
        assert 9.9 < draws.mean() < 10.1
        assert 19.4 < draws.var() < 20.6

    def test_positive(self):
        stream = make_stream(SeedSpec(4, 1))
        assert all(stream.generator.chisquare(1) > 0 for _ in range(1000))

    @pytest.mark.parametrize("dof", [0, -1])
    def test_bad_dof(self, dof):
        with pytest.raises(ValueError):
            make_stream(SeedSpec(4, 2)).generator.chisquare(dof)
