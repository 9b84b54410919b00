"""A hand-rolled Prometheus text-exposition registry.

No client library, no background threads: families hold labeled
children, children hold numbers, ``render()`` prints the text format
(``# HELP`` / ``# TYPE`` headers, cumulative ``_bucket{le=...}`` rows,
``_sum``/``_count``) that any Prometheus scraper parses.

The registry is *declarative-idempotent*: re-declaring a family with
the same name returns the existing one, so adapters can repopulate on
every scrape without bookkeeping.  Counters additionally support
:meth:`Counter.set_at_least`, which clamps to the maximum ever seen —
that is what keeps scrape-to-scrape values monotone when the
underlying source resets (a restarted cluster worker reports its
fresh, smaller totals; the exposition must not go backwards).
"""

from __future__ import annotations

import math
import threading
from typing import Iterable, Sequence

from repro.obs.histogram import StreamingHistogram


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value != value:  # NaN
        return "NaN"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _label_suffix(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    parts = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in zip(names, values)
    )
    return "{" + parts + "}"


class Counter:
    """A monotone child; ``inc`` adds, ``set_at_least`` clamps up."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount

    def set_at_least(self, value: float) -> None:
        """Raise to ``value`` if larger; never lowers — the monotone
        bridge from resettable snapshot sources."""
        if value > self.value:
            self.value = value


class Gauge:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class _Family:
    __slots__ = ("name", "help", "kind", "label_names", "children", "bounds")

    def __init__(
        self,
        name: str,
        help: str,
        kind: str,
        label_names: tuple[str, ...],
        bounds: tuple[float, ...] | None = None,
    ) -> None:
        self.name = name
        self.help = help
        self.kind = kind
        self.label_names = label_names
        self.bounds = bounds
        self.children: dict[
            tuple[str, ...], Counter | Gauge | StreamingHistogram
        ] = {}

    def _key(self, values: Sequence[str]) -> tuple[str, ...]:
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {values!r}"
            )
        return tuple(str(v) for v in values)

    def labels(self, *values: str) -> Counter | Gauge | StreamingHistogram:
        key = self._key(values)
        child = self.children.get(key)
        if child is None:
            if self.kind == "counter":
                child = Counter()
            elif self.kind == "gauge":
                child = Gauge()
            else:
                child = StreamingHistogram(self.bounds)
            self.children[key] = child
        return child

    def replace(
        self, values: Sequence[str], child: StreamingHistogram
    ) -> None:
        """Install ``child`` as the series for ``values`` — the adapter
        path, where a scrape hands over a whole shipped histogram."""
        self.children[self._key(values)] = child

    def render(self) -> Iterable[str]:
        yield f"# HELP {self.name} {_escape_help(self.help)}"
        yield f"# TYPE {self.name} {self.kind}"
        for key in sorted(self.children):
            child = self.children[key]
            suffix = _label_suffix(self.label_names, key)
            if self.kind == "histogram":
                assert isinstance(child, StreamingHistogram)
                for bound, running in child.cumulative():
                    le = _label_suffix(
                        self.label_names + ("le",),
                        key + (_format_value(bound),),
                    )
                    yield (
                        f"{self.name}_bucket{le} {_format_value(running)}"
                    )
                yield f"{self.name}_sum{suffix} {_format_value(child.sum)}"
                yield (
                    f"{self.name}_count{suffix} {_format_value(child.count)}"
                )
            else:
                yield f"{self.name}{suffix} {_format_value(child.value)}"


class PromRegistry:
    """Declare-once metric families rendered as Prometheus text.

    The registry must be long-lived (one per gateway/server process):
    counters clamp with ``set_at_least`` across scrapes, which only
    works if the same child objects survive between scrapes.
    """

    CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    def _declare(
        self,
        name: str,
        help: str,
        kind: str,
        labels: Sequence[str],
        bounds: Sequence[float] | None = None,
    ) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.label_names != tuple(labels):
                    raise ValueError(
                        f"metric {name} re-declared with a different "
                        f"kind or label set"
                    )
                return family
            family = _Family(
                name,
                help,
                kind,
                tuple(labels),
                tuple(bounds) if bounds is not None else None,
            )
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str, labels: Sequence[str] = ()
    ) -> _Family:
        return self._declare(name, help, "counter", labels)

    def gauge(
        self, name: str, help: str, labels: Sequence[str] = ()
    ) -> _Family:
        return self._declare(name, help, "gauge", labels)

    def histogram(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        *,
        bounds: Sequence[float],
    ) -> _Family:
        return self._declare(name, help, "histogram", labels, bounds)

    def render(self) -> str:
        """The full exposition payload, trailing newline included."""
        with self._lock:
            lines: list[str] = []
            for name in sorted(self._families):
                lines.extend(self._families[name].render())
        return "\n".join(lines) + "\n"


def parse_exposition(text: str) -> dict[str, float]:
    """Parse rendered text back to ``{series-with-labels: value}`` —
    a test/CI helper (validates the format round-trips), not a full
    Prometheus parser."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise ValueError(f"unparseable exposition line: {line!r}")
        value_part = value_part.strip()
        if value_part == "+Inf":
            value = math.inf
        elif value_part == "-Inf":
            value = -math.inf
        else:
            value = float(value_part)
        out[name_part.strip()] = value
    return out
