"""Tests for the SetCollection repository type."""

import pytest

from repro.datasets import SetCollection
from repro.errors import InvalidParameterError


class TestConstruction:
    def test_duplicates_collapse(self):
        collection = SetCollection([["a", "a", "b"]])
        assert collection[0] == frozenset({"a", "b"})

    def test_empty_set_rejected(self):
        with pytest.raises(InvalidParameterError):
            SetCollection([set()])

    def test_names_default(self):
        collection = SetCollection([{"a"}, {"b"}])
        assert collection.name_of(0) == "set_0"

    def test_names_aligned(self):
        collection = SetCollection([{"a"}], names=["col"])
        assert collection.name_of(0) == "col"
        assert collection.id_of("col") == 0

    def test_misaligned_names_rejected(self):
        with pytest.raises(InvalidParameterError):
            SetCollection([{"a"}], names=["x", "y"])

    def test_from_mapping(self):
        collection = SetCollection.from_mapping({"t1": {"a"}, "t2": {"b"}})
        assert len(collection) == 2
        assert collection[collection.id_of("t2")] == frozenset({"b"})


class TestDerivedData:
    def test_vocabulary(self):
        collection = SetCollection([{"a", "b"}, {"b", "c"}])
        assert collection.vocabulary == frozenset({"a", "b", "c"})

    def test_stats(self):
        collection = SetCollection([{"a", "b"}, {"b", "c", "d"}])
        stats = collection.stats()
        assert stats.num_sets == 2
        assert stats.max_size == 3
        assert stats.avg_size == 2.5
        assert stats.num_unique_elements == 4

    def test_stats_as_row(self):
        row = SetCollection([{"a"}]).stats().as_row()
        assert row == (1, 1, 1.0, 1)

    def test_cardinality(self):
        collection = SetCollection([{"a", "b", "c"}])
        assert collection.cardinality(0) == 3

    def test_iteration(self):
        collection = SetCollection([{"a"}, {"b"}])
        assert list(collection) == [frozenset({"a"}), frozenset({"b"})]


class TestPartitioning:
    def test_partitions_cover_all_ids(self):
        collection = SetCollection([{f"t{i}"} for i in range(50)])
        partitions = collection.partition(4, seed=1)
        assert len(partitions) == 4
        flattened = sorted(i for part in partitions for i in part)
        assert flattened == list(range(50))

    def test_single_partition(self):
        collection = SetCollection([{"a"}, {"b"}])
        assert collection.partition(1) == [[0, 1]]

    def test_deterministic_by_seed(self):
        collection = SetCollection([{f"t{i}"} for i in range(30)])
        assert collection.partition(3, seed=7) == collection.partition(
            3, seed=7
        )

    def test_invalid_partition_count(self):
        with pytest.raises(InvalidParameterError):
            SetCollection([{"a"}]).partition(0)

    @pytest.mark.parametrize("parts", [2, 3, 4, 5, 7, 16])
    def test_split_equals_the_positional_draw(self, parts):
        """Ownership is drawn per id slot; while no id is missing that
        is the same split the old positional draw over the live ids
        made, so an unmutated collection shards exactly as before."""
        from repro.utils.rng import make_rng

        collection = SetCollection([{f"t{i}"} for i in range(257)])
        positional = [[] for _ in range(parts)]
        draw = make_rng(5).integers(0, parts, size=len(collection))
        for set_id, part in zip(collection.ids(), draw):
            positional[int(part)].append(set_id)
        assert collection.partition(parts, seed=5) == positional

    @pytest.mark.parametrize("parts", [2, 3, 4, 5, 7, 16])
    def test_assignment_is_prefix_stable(self, parts):
        """Growing the collection never re-draws an existing id."""
        small = SetCollection([{f"t{i}"} for i in range(100)])
        large = SetCollection([{f"t{i}"} for i in range(1000)])
        assert (
            large.slot_assignment(parts, seed=3)[:100].tolist()
            == small.slot_assignment(parts, seed=3).tolist()
        )

    def test_sub_split_of_a_partition_uses_its_own_stream(self):
        """``partition(N)[i]`` split again into ``N`` by the nested draw
        (how a worker's pool shards its partition), with the same seed:
        re-using the first-level draw would send the whole slice to
        sub-shard ``i``."""
        collection = SetCollection([{f"t{i}"} for i in range(400)])
        for workers in (2, 3, 4):
            nested = collection.slot_assignment(workers, nested=True)
            for index, owned in enumerate(collection.partition(workers)):
                sub = [
                    [i for i in owned if nested[i] == part]
                    for part in range(workers)
                ]
                assert sorted(i for part in sub for i in part) == owned
                assert all(len(part) > len(owned) // (4 * workers)
                           for part in sub), (workers, index)

    def test_subset(self):
        collection = SetCollection(
            [{"a"}, {"b"}, {"c"}], names=["x", "y", "z"]
        )
        sub = collection.subset([2, 0])
        assert len(sub) == 2
        assert sub[0] == frozenset({"c"})
        assert sub.name_of(0) == "z"
