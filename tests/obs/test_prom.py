"""The hand-rolled Prometheus registry: text format, monotone
counters, cumulative histogram buckets, and declaration rules."""

import math

import pytest

from repro.obs import PromRegistry, StreamingHistogram
from repro.obs.prom import parse_exposition


class TestRender:
    def test_counter_help_type_and_labels(self):
        registry = PromRegistry()
        family = registry.counter(
            "repro_requests_total", "Requests accepted", ("tenant",)
        )
        family.labels("alpha").inc(3)
        family.labels("beta").inc()
        text = registry.render()
        assert "# HELP repro_requests_total Requests accepted" in text
        assert "# TYPE repro_requests_total counter" in text
        values = parse_exposition(text)
        assert values['repro_requests_total{tenant="alpha"}'] == 3
        assert values['repro_requests_total{tenant="beta"}'] == 1
        assert text.endswith("\n")

    def test_labelless_family_needs_empty_labels_call(self):
        registry = PromRegistry()
        family = registry.gauge("repro_up", "Serving")
        family.labels().set(1)
        assert parse_exposition(registry.render())["repro_up"] == 1

    def test_label_arity_is_enforced(self):
        registry = PromRegistry()
        family = registry.gauge("g", "help", ("tenant",))
        with pytest.raises(ValueError, match="expected labels"):
            family.labels()

    def test_escaping_and_special_values(self):
        registry = PromRegistry()
        registry.gauge("g", 'multi\nline "help"', ("path",)).labels(
            'a"b\\c\nd'
        ).set(math.inf)
        text = registry.render()
        assert '# HELP g multi\\nline "help"' in text
        assert 'path="a\\"b\\\\c\\nd"' in text
        assert text.splitlines()[-1].endswith(" +Inf")

    def test_families_render_sorted_by_name(self):
        registry = PromRegistry()
        registry.counter("z_total", "z").labels().inc()
        registry.counter("a_total", "a").labels().inc()
        text = registry.render()
        assert text.index("a_total") < text.index("z_total")


class TestDeclarationRules:
    def test_redeclaring_returns_the_same_family(self):
        registry = PromRegistry()
        first = registry.counter("c_total", "help", ("tenant",))
        first.labels("alpha").inc(5)
        again = registry.counter("c_total", "other help", ("tenant",))
        assert again is first
        assert again.labels("alpha").value == 5

    def test_conflicting_redeclaration_is_loud(self):
        registry = PromRegistry()
        registry.counter("c_total", "help", ("tenant",))
        with pytest.raises(ValueError, match="re-declared"):
            registry.gauge("c_total", "help", ("tenant",))
        with pytest.raises(ValueError, match="re-declared"):
            registry.counter("c_total", "help", ("tenant", "phase"))


class TestCounterMonotonicity:
    def test_set_at_least_never_lowers(self):
        registry = PromRegistry()
        child = registry.counter("c_total", "help", ("tenant",)).labels("a")
        child.set_at_least(10)
        child.set_at_least(4)  # a restarted source reports less
        assert child.value == 10
        child.set_at_least(12)
        assert child.value == 12

    def test_negative_inc_rejected(self):
        registry = PromRegistry()
        child = registry.counter("c_total", "help").labels()
        with pytest.raises(ValueError, match="only go up"):
            child.inc(-1)


class TestHistogram:
    def test_buckets_render_cumulative_with_inf(self):
        registry = PromRegistry()
        family = registry.histogram(
            "h_seconds", "help", ("tenant",), bounds=(0.1, 1.0)
        )
        child = family.labels("a")
        for value in (0.05, 0.5, 0.5, 5.0):
            child.observe(value)
        values = parse_exposition(registry.render())
        assert values['h_seconds_bucket{tenant="a",le="0.1"}'] == 1
        assert values['h_seconds_bucket{tenant="a",le="1"}'] == 3
        assert values['h_seconds_bucket{tenant="a",le="+Inf"}'] == 4
        assert values['h_seconds_count{tenant="a"}'] == 4
        assert values['h_seconds_sum{tenant="a"}'] == pytest.approx(6.05)

    def test_replace_overwrites_from_streaming_state(self):
        registry = PromRegistry()
        family = registry.histogram("h_seconds", "help", bounds=(0.1, 1.0))
        family.labels().observe(0.05)
        state = {"bounds": [0.1, 1.0], "counts": [2, 2], "count": 5, "sum": 2.5}
        family.replace((), StreamingHistogram.from_state(state))
        values = parse_exposition(registry.render())
        assert values['h_seconds_bucket{le="0.1"}'] == 2
        assert values['h_seconds_bucket{le="1"}'] == 4
        # count carries the overflow bucket: 5 total, 4 under bounds.
        assert values['h_seconds_bucket{le="+Inf"}'] == 5
        assert values["h_seconds_count"] == 5
        with pytest.raises(ValueError, match="expected labels"):
            family.replace(("extra",), StreamingHistogram.from_state(state))

    def test_merge_accumulates_worker_states(self):
        registry = PromRegistry()
        child = registry.histogram(
            "h_seconds", "help", bounds=(0.1,)
        ).labels()
        for counts, count, total in (([2], 2, 1.0), ([1], 4, 3.0)):
            child.merge(
                StreamingHistogram.from_state(
                    {"bounds": [0.1], "counts": counts, "count": count,
                     "sum": total}
                )
            )
        values = parse_exposition(registry.render())
        assert values['h_seconds_bucket{le="0.1"}'] == 3
        assert values['h_seconds_bucket{le="+Inf"}'] == 6
        assert values["h_seconds_sum"] == 4.0


class TestTenantLabelEscaping:
    """Hostile tenant names must survive render -> parse intact: a
    quote, backslash, or newline in a label value may never break a
    series line or collide two tenants onto one key."""

    NASTY_TENANTS = (
        'quote"y',
        "back\\slash",
        "new\nline",
        'all"of\\the\nabove',
        "\\n",  # literal backslash-n: must NOT collide with a newline
        "\n",
    )

    def test_hostile_tenant_values_round_trip(self):
        from repro.obs.prom import _escape_label

        registry = PromRegistry()
        family = registry.counter(
            "repro_tenant_cpu_seconds_total", "CPU seconds", ("tenant",)
        )
        for index, tenant in enumerate(self.NASTY_TENANTS):
            family.labels(tenant).set_at_least(float(index + 1))
        text = registry.render()
        values = parse_exposition(text)
        for index, tenant in enumerate(self.NASTY_TENANTS):
            key = (
                "repro_tenant_cpu_seconds_total"
                f'{{tenant="{_escape_label(tenant)}"}}'
            )
            assert values[key] == index + 1, tenant
        # One line per child: no raw newline leaked out of a label.
        body = [
            line for line in text.splitlines() if not line.startswith("#")
        ]
        assert len(body) == len(self.NASTY_TENANTS)

    def test_escaped_values_stay_distinct(self):
        from repro.obs.prom import _escape_label

        # The two names whose *escaped* forms are closest: "\n" (the
        # newline) renders as \n, while "\\n" renders as \\n.
        assert _escape_label("\n") != _escape_label("\\n")
        registry = PromRegistry()
        family = registry.counter("c_total", "help", ("tenant",))
        family.labels("\n").inc(1)
        family.labels("\\n").inc(2)
        values = parse_exposition(registry.render())
        assert values['c_total{tenant="\\n"}'] == 1
        assert values['c_total{tenant="\\\\n"}'] == 2

    def test_adapter_series_with_hostile_tenant(self):
        from repro.obs.adapters import service_to_registry
        from repro.service.metrics import ServiceMetrics

        metrics = ServiceMetrics()
        metrics.record_accepted()
        metrics.record_completed(0.01, None)
        registry = PromRegistry()
        service_to_registry(registry, metrics, tenant='evil"\\\ntenant')
        # Round-trips through the real adapter path, resource series
        # included.
        values = parse_exposition(registry.render())
        key = (
            "repro_tenant_searches_total"
            '{tenant="evil\\"\\\\\\ntenant"}'
        )
        assert values[key] == 1


class TestParseExposition:
    def test_round_trips_every_kind(self):
        registry = PromRegistry()
        registry.counter("c_total", "c").labels().inc(2)
        registry.gauge("g", "g", ("x",)).labels("1").set(-3.5)
        registry.histogram("h", "h", bounds=(1.0,)).labels().observe(0.5)
        values = parse_exposition(registry.render())
        assert values["c_total"] == 2
        assert values['g{x="1"}'] == -3.5
        assert values['h_bucket{le="1"}'] == 1

    def test_rejects_garbage_lines(self):
        with pytest.raises(ValueError, match="unparseable"):
            parse_exposition("justonetoken\n")
