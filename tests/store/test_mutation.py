"""The one mutation value and the one function that applies it.

Every write path — the wire, the scheduler with its WAL, the in-process
pools (cosine and prefix-Jaccard) and the cluster coordinator — takes a
:class:`Mutation` through :func:`apply_mutation`. A refused write must
change nothing on any of them: not the collection's version, not the
token index's rows, not the log. Accepted writes keep the wire replies
and WAL bytes they always had.
"""

from __future__ import annotations

import json

import pytest

from repro.datasets import SetCollection
from repro.errors import InvalidParameterError, WalError
from repro.service import protocol
from repro.service.bootstrap import build_serving_stack
from repro.store import MutableSetCollection, WalRecord, WriteAheadLog
from repro.store.mutation import (
    DELETE,
    INSERT,
    REPLACE,
    Mutation,
    apply_mutation,
)
from repro.store.wal import _crc

SETS = {
    "a": ["kitten", "sitting"],
    "b": ["mitten"],
    "c": ["sitter", "knitting"],
}

#: Wire objects every backend must refuse without changing state. The
#: stacks below delete "c" (id 2) before the refusals, so id 2 is dead.
BAD = {
    "non-str token": {"op": "insert", "name": "z", "tokens": ["x", 7]},
    "empty tokens": {"op": "insert", "name": "z", "tokens": []},
    "missing name": {"op": "delete", "name": "nope"},
    "dead id": {"op": "delete", "set_id": 2},
    "out-of-range id": {"op": "delete", "set_id": 999},
    "out-of-range replace": {
        "op": "replace", "set_id": 999, "tokens": ["never-seen"],
    },
    "bool id": {"op": "delete", "set_id": True},
    "unknown op": {"op": "upsert", "name": "a", "tokens": ["never-seen"]},
    "duplicate insert name": {
        "op": "insert", "name": "a", "tokens": ["never-seen"],
    },
    "replace of missing name": {
        "op": "replace", "name": "nope", "tokens": ["never-seen"],
    },
}

#: Stack options per backend; "scheduler" and "wire" share a stack
#: shape and differ in the entry point.
BACKENDS = {
    "cosine-pool": {},
    "jaccard-pool": {"jaccard": True},
    "cluster-pool": {"cluster_workers": 1},
    "scheduler": {},
    "wire": {},
}


@pytest.fixture(scope="module", params=sorted(BACKENDS))
def backend(request, tmp_path_factory):
    name = request.param
    path = tmp_path_factory.mktemp(name)
    (path / "c.json").write_text(json.dumps(SETS))
    stack = build_serving_stack(
        path / "c.json", wal_path=path / "ops.wal", **BACKENDS[name]
    )
    stack.scheduler.mutate(Mutation(DELETE, "c"))
    yield name, stack
    stack.close()


def state(stack) -> tuple:
    """What a refused write must leave as it was."""
    index = stack.pool._token_index
    store = getattr(index, "store", None)
    rows = len(store) if store is not None else len(index._tokens)
    return (
        stack.collection.version,
        len(stack.collection),
        rows,
        stack.wal.path.stat().st_size,
    )


def refuse(name: str, stack, obj: dict) -> None:
    if name == "wire":
        reply = protocol.control(stack.scheduler, obj)
        assert "error" in reply and reply["op"] == obj["op"], reply
        assert "internal error" not in reply["error"], reply
        return
    target = stack.scheduler if name == "scheduler" else stack.pool
    with pytest.raises(InvalidParameterError):
        target.mutate(Mutation.from_obj(obj))


@pytest.mark.parametrize("case", sorted(BAD))
def test_refused_write_changes_nothing(backend, case):
    name, stack = backend
    before = state(stack)
    refuse(name, stack, BAD[case])
    assert state(stack) == before
    if name != "wire":
        assert "never-seen" not in stack.collection.vocabulary


class TestMutationValue:
    def test_tokens_freeze_and_sort_on_the_way_out(self):
        mutation = Mutation(INSERT, "n", ["b", "a", "b"])
        assert mutation.tokens == frozenset({"a", "b"})
        assert mutation.to_obj() == {
            "op": "insert", "name": "n", "tokens": ["a", "b"],
        }
        assert Mutation.from_obj(mutation.to_obj()) == mutation

    def test_ids_travel_as_set_id(self):
        mutation = Mutation(REPLACE, 3, ("x",))
        assert mutation.to_obj() == {
            "op": "replace", "set_id": 3, "tokens": ["x"],
        }
        assert Mutation.from_obj(mutation.to_obj()) == mutation

    @pytest.mark.parametrize(
        "args",
        [
            ("upsert", "n", ["x"]),
            (INSERT, 3, ["x"]),
            (INSERT, "n", "xy"),
            (INSERT, "n", None),
            (DELETE, None),
            (DELETE, False),
            (DELETE, "n", ["x"]),
            (REPLACE, 1.0, ["x"]),
        ],
    )
    def test_bad_shapes_are_refused(self, args):
        with pytest.raises(InvalidParameterError):
            Mutation(*args)

    def test_apply_names_the_mutation_it_applied(self):
        collection = MutableSetCollection(
            SetCollection([{"x"}, {"y"}], names=["s0", "s1"])
        )
        assert apply_mutation(collection, Mutation(INSERT, None, ["z"])) == (
            2, Mutation(INSERT, "set_2", ["z"]),
        )
        assert apply_mutation(collection, Mutation(DELETE, 0)) == (
            0, Mutation(DELETE, "s0"),
        )
        assert apply_mutation(collection, Mutation(REPLACE, 1, ["w"])) == (
            3, Mutation(REPLACE, "s1", ["w"]),
        )

    def test_immutable_collections_are_refused(self):
        with pytest.raises(InvalidParameterError, match="immutable"):
            apply_mutation(SetCollection([{"x"}]), Mutation(DELETE, 0))


#: Accepted writes, their wire replies and the WAL lines they leave —
#: the bytes the format has always had.
ACCEPTED = [
    (
        {"op": "insert", "name": "z", "tokens": ["sitting", "kitten", "n t"]},
        '{"op":"insert","set_id":3,"version":[0,1]}',
        '{"crc":"79b60273","name":"z","op":"insert","seq":1,'
        '"tokens":["kitten","n t","sitting"]}',
    ),
    (
        {"op": "replace", "name": "a", "tokens": ["mitten", "kitchen"]},
        '{"op":"replace","set_id":4,"version":[0,3]}',
        '{"crc":"029b6c85","name":"a","op":"replace","seq":2,'
        '"tokens":["kitchen","mitten"]}',
    ),
    (
        {"op": "delete", "set_id": 1},
        '{"op":"delete","set_id":1,"version":[0,4]}',
        '{"crc":"353aef1a","name":"b","op":"delete","seq":3}',
    ),
]


def test_accepted_writes_keep_their_bytes(tmp_path):
    (tmp_path / "c.json").write_text(json.dumps(SETS))
    stack = build_serving_stack(
        tmp_path / "c.json", wal_path=tmp_path / "ops.wal"
    )
    try:
        replies = [
            protocol.encode(protocol.control(stack.scheduler, obj))
            for obj, _, _ in ACCEPTED
        ]
    finally:
        stack.close()
    assert replies == [reply for _, reply, _ in ACCEPTED]
    assert (tmp_path / "ops.wal").read_text().splitlines() == [
        line for _, _, line in ACCEPTED
    ]


def test_existing_wal_lines_replay(tmp_path):
    wal_path = tmp_path / "ops.wal"
    wal_path.write_text("".join(line + "\n" for _, _, line in ACCEPTED))
    collection = MutableSetCollection(
        SetCollection([set(t) for t in SETS.values()], names=list(SETS))
    )
    assert WriteAheadLog(wal_path).replay_into(collection) == 3
    assert sorted(collection.name_of(i) for i in collection.ids()) == [
        "a", "c", "z",
    ]
    assert collection[collection.id_of("a")] == {"kitchen", "mitten"}


def test_malformed_wal_body_is_a_wal_error():
    body = {"seq": 1, "op": "insert", "name": "z", "tokens": []}
    line = json.dumps({**body, "crc": _crc(body)}, sort_keys=True)
    with pytest.raises(WalError, match="malformed"):
        WalRecord.from_line(line)
