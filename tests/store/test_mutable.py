"""MutableSetCollection: overlay semantics, versioning, delta postings."""

import pytest

from repro.datasets import SetCollection
from repro.errors import InvalidParameterError
from repro.index import InvertedIndex
from repro.store import MutableSetCollection


@pytest.fixture()
def overlay():
    return MutableSetCollection(
        SetCollection(
            [{"a", "b"}, {"b", "c"}, {"d"}], names=["s0", "s1", "s2"]
        )
    )


class TestOverlaySemantics:
    def test_starts_equal_to_base(self, overlay):
        assert len(overlay) == 3
        assert overlay.version == 0
        assert overlay.ids() == [0, 1, 2]
        assert overlay.vocabulary == frozenset({"a", "b", "c", "d"})

    def test_insert_appends_and_bumps_version(self, overlay):
        set_id = overlay.insert({"d", "e"}, name="s3")
        assert set_id == 3
        assert overlay.version == 1
        assert overlay[3] == frozenset({"d", "e"})
        assert overlay.name_of(3) == "s3"
        assert "e" in overlay.vocabulary

    def test_delete_tombstones_and_shrinks_vocabulary(self, overlay):
        overlay.delete("s2")
        assert overlay.ids() == [0, 1]
        assert len(overlay) == 2
        assert "d" not in overlay.vocabulary  # refcount hit zero
        with pytest.raises(InvalidParameterError):
            overlay[2]
        with pytest.raises(InvalidParameterError):
            overlay.delete("s2")  # already gone

    def test_shared_tokens_survive_single_delete(self, overlay):
        overlay.delete("s0")
        assert "b" in overlay.vocabulary  # still held by s1
        assert "a" not in overlay.vocabulary

    def test_replace_keeps_name_allocates_new_id(self, overlay):
        new_id = overlay.replace("s0", {"x"})
        assert new_id == 3
        assert overlay.id_of("s0") == 3
        assert overlay.ids() == [1, 2, 3]
        assert overlay[3] == frozenset({"x"})
        assert overlay.version == 2  # delete + insert

    def test_failed_replace_leaves_the_set_alive(self, overlay):
        """Invalid replacement tokens must be rejected BEFORE the delete
        half runs — a failed replace may not destroy data."""
        with pytest.raises(InvalidParameterError):
            overlay.replace("s0", [])
        with pytest.raises(InvalidParameterError):
            overlay.replace("s0", [42])
        assert overlay.id_of("s0") == 0
        assert overlay[0] == frozenset({"a", "b"})
        assert overlay.version == 0  # nothing happened

    def test_duplicate_name_rejected(self, overlay):
        with pytest.raises(InvalidParameterError, match="already exists"):
            overlay.insert({"z"}, name="s1")

    def test_empty_set_rejected(self, overlay):
        with pytest.raises(InvalidParameterError):
            overlay.insert([])

    def test_stats_reflect_live_state_only(self, overlay):
        overlay.delete("s2")
        overlay.insert({"p", "q", "r"}, name="s3")
        stats = overlay.stats()
        assert stats.num_sets == 3
        assert stats.max_size == 3
        assert stats.num_unique_elements == len(overlay.vocabulary)

    def test_compacted_densifies_ids(self, overlay):
        overlay.delete("s1")
        overlay.insert({"z"}, name="s3")
        dense = overlay.compacted()
        assert isinstance(dense, SetCollection)
        assert list(dense.ids()) == [0, 1, 2]
        assert [dense.name_of(i) for i in dense.ids()] == ["s0", "s2", "s3"]


class TestDeltaPostings:
    def test_delta_index_matches_full_rebuild(self, overlay):
        overlay.insert({"b", "e"}, name="s3")
        overlay.delete("s1")
        overlay.replace("s2", {"d", "f"})
        delta = overlay.delta_index()
        rebuilt = InvertedIndex(overlay, overlay.ids())
        for token in overlay.vocabulary:
            assert delta.sets_containing(token) == rebuilt.sets_containing(
                token
            ), token
        assert delta.stats() == rebuilt.stats()

    def test_sharded_delta_views_partition_postings(self, overlay):
        overlay.insert({"b"}, name="s3")
        ids = overlay.ids()
        left, right = ids[:2], ids[2:]
        merged = sorted(
            overlay.delta_index(left).sets_containing("b")
            + overlay.delta_index(right).sets_containing("b")
        )
        assert merged == overlay.delta_index().sets_containing("b")

    def test_vacuum_drops_dead_entries_without_changing_reads(
        self, overlay
    ):
        overlay.delete("s0")
        before = {
            token: overlay.delta_index().sets_containing(token)
            for token in overlay.vocabulary
        }
        dropped = overlay.vacuum()
        assert dropped == 2  # 'a' and 'b' entries for set 0
        after = {
            token: overlay.delta_index().sets_containing(token)
            for token in overlay.vocabulary
        }
        assert before == after

    def test_adopting_prebuilt_postings_skips_reindex(self):
        base = SetCollection([{"a"}, {"a", "b"}], names=["x", "y"])
        postings = {"a": [0, 1], "b": [1]}
        overlay = MutableSetCollection(base, postings=postings)
        assert overlay.delta_index().sets_containing("a") == [0, 1]
        overlay.insert({"a"}, name="z")
        assert overlay.delta_index().sets_containing("a") == [0, 1, 2]


class TestEngineCompatibility:
    def test_partition_covers_live_ids(self, overlay):
        overlay.delete("s1")
        overlay.insert({"k"}, name="s3")
        parts = overlay.partition(2, seed=3)
        assert sorted(i for part in parts for i in part) == overlay.ids()

    def test_insert_only_split_equals_the_positional_draw(self):
        from repro.utils.rng import make_rng

        overlay = MutableSetCollection(
            SetCollection([{f"t{i}"} for i in range(40)])
        )
        for i in range(25):
            overlay.insert({f"n{i}"})
        positional = [[], [], []]
        draw = make_rng(3).integers(0, 3, size=len(overlay))
        for set_id, part in zip(overlay.ids(), draw):
            positional[int(part)].append(set_id)
        assert overlay.partition(3, seed=3) == positional

    def test_delete_moves_no_other_id(self):
        """Ownership is a function of the id: a delete takes its id out
        of one shard and changes nothing else (the positional draw moved
        about half of all later ids)."""
        overlay = MutableSetCollection(
            SetCollection([{f"t{i}"} for i in range(60)])
        )
        before = overlay.partition(3, seed=1)
        overlay.delete(7)
        overlay.delete(31)
        inserted = overlay.insert({"fresh"})
        after = overlay.partition(3, seed=1)
        owner = int(overlay.slot_assignment(3, seed=1)[inserted])
        for part, (old, new) in enumerate(zip(before, after)):
            expected = [i for i in old if i not in (7, 31)]
            if part == owner:
                expected.append(inserted)
            assert new == expected

    def test_subset_of_live_ids(self, overlay):
        overlay.delete("s0")
        sub = overlay.subset([1, 2])
        assert len(sub) == 2
        assert sub.name_of(0) == "s1"
