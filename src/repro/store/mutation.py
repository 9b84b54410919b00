"""One mutation value, applied through one function.

The wire decodes a control line into a :class:`Mutation` and every
backend applies it through :func:`apply_mutation`; the name-keyed
mutation that returns is what the write-ahead log records and the
cluster coordinator replicates, all in one ``{"op", "name" | "set_id",
"tokens"}`` shape. Both validate before any state changes, so a refused
write changes nothing: not the collection, not the token index's vector
store, not the log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import InvalidParameterError

INSERT, DELETE, REPLACE = "insert", "delete", "replace"

#: Every op a mutation may carry.
OPS = (INSERT, DELETE, REPLACE)


@dataclass(frozen=True)
class Mutation:
    """One validated insert, delete or replace.

    ``ref`` addresses the set: a name, or a live id for delete and
    replace; ``None`` lets an insert take the collection's default
    name. ``tokens`` are the new members (insert and replace, any
    iterable of strings, held as a ``frozenset``) and ``None`` for a
    delete.
    """

    op: str
    ref: int | str | None
    tokens: frozenset[str] | None = None

    def __post_init__(self) -> None:
        op, ref, tokens = self.op, self.ref, self.tokens
        if op not in OPS:
            raise InvalidParameterError(f"unknown mutation op: {op!r}")
        if op == INSERT and not isinstance(ref, (str, type(None))):
            raise InvalidParameterError('"insert" addresses sets by "name"')
        if op != INSERT and (
            isinstance(ref, bool) or not isinstance(ref, (int, str))
        ):
            raise InvalidParameterError(f'"{op}" needs a "name" or "set_id"')
        if op == DELETE:
            if tokens is not None:
                raise InvalidParameterError('"delete" takes no "tokens"')
            return
        if tokens is None or isinstance(tokens, (str, bytes)):
            raise InvalidParameterError(f'"{op}" needs a "tokens" list')
        members = list(tokens)
        if not members or any(not isinstance(t, str) for t in members):
            raise InvalidParameterError(
                '"tokens" must be a non-empty list of strings'
            )
        object.__setattr__(self, "tokens", frozenset(members))

    @classmethod
    def from_obj(cls, obj: dict[str, Any]) -> "Mutation":
        """The mutation a wire line, WAL body or replicated record
        describes (``"set_id"`` wins over ``"name"``)."""
        op = obj.get("op")
        if "set_id" in obj:
            ref = obj["set_id"]
            if isinstance(ref, bool) or not isinstance(ref, int):
                raise InvalidParameterError('"set_id" must be an integer')
        elif isinstance(obj.get("name"), str):
            ref = obj["name"]
        else:
            raise InvalidParameterError(
                'mutation needs a "name" (or "set_id")'
            )
        tokens = obj.get("tokens")
        if tokens is not None and not isinstance(tokens, list):
            raise InvalidParameterError('"tokens" must be a list of strings')
        return cls(op, ref, None if op == DELETE else tokens)

    def to_obj(self) -> dict[str, Any]:
        """The record body: ``op``, the ref and the sorted tokens."""
        obj: dict[str, Any] = {"op": self.op}
        if isinstance(self.ref, str):
            obj["name"] = self.ref
        elif self.ref is not None:
            obj["set_id"] = self.ref
        if self.tokens is not None:
            obj["tokens"] = sorted(self.tokens)
        return obj


def apply_mutation(
    collection, mutation: Mutation, token_index=None
) -> tuple[int, Mutation]:
    """Apply ``mutation`` to a :class:`MutableSetCollection`.

    Resolves the ref against live state first, then extends
    ``token_index`` (when it can grow) with the members, then writes
    the collection. Returns the affected set id (the new one for insert
    and replace) and the name-keyed mutation the WAL and replication
    record.
    """
    if not hasattr(collection, "insert"):
        raise InvalidParameterError(
            "collection is immutable; serve a MutableSetCollection "
            "(e.g. 'repro serve <snapshot> --wal <log>') to enable "
            "insert/delete/replace"
        )
    op, ref, tokens = mutation.op, mutation.ref, mutation.tokens
    if op == INSERT:
        name = f"set_{collection.num_slots}" if ref is None else ref
        if collection.contains_name(name):
            raise InvalidParameterError(
                f"a live set named {name!r} already exists "
                "(delete or replace it instead)"
            )
    elif isinstance(ref, str):
        set_id, name = collection.id_of(ref), ref
    elif collection.alive(ref):
        set_id, name = ref, collection.name_of(ref)
    else:
        raise InvalidParameterError(f"no live set with id {ref}")
    extend = getattr(token_index, "extend", None)
    if tokens is not None and extend is not None:
        extend(tokens)
    if op == INSERT:
        set_id = collection.insert(tokens, name=name)
    elif op == DELETE:
        collection.delete(set_id)
    else:
        set_id = collection.replace(set_id, tokens)
    return set_id, Mutation(op, name, tokens)
