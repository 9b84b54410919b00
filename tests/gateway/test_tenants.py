"""Tests for the tenant registry and its JSON config."""

import json

import pytest

from repro.errors import TenantConfigError
from repro.gateway import TenantRegistry, TenantSpec


def write_collection(path, sets):
    path.write_text(json.dumps(sets))
    return str(path)


@pytest.fixture()
def two_tenant_dir(tmp_path):
    write_collection(
        tmp_path / "alpha.json",
        {"west": ["seattle", "portland"], "east": ["boston", "newyork"]},
    )
    write_collection(
        tmp_path / "beta.json",
        {"south": ["austin", "houston"], "north": ["fargo"]},
    )
    (tmp_path / "tenants.json").write_text(
        json.dumps(
            {
                "cache_size": 64,
                "max_inflight": 4,
                "tenants": [
                    {"name": "alpha", "collection": "alpha.json", "qps": 50},
                    {
                        "name": "beta",
                        "collection": "beta.json",
                        "auth_token": "s3cret",
                    },
                ],
            }
        )
    )
    return tmp_path


class TestTenantSpec:
    def test_unknown_keys_are_loud(self):
        with pytest.raises(TenantConfigError, match="pqs"):
            TenantSpec.from_obj(
                {"name": "a", "collection": "a.json", "pqs": 10}
            )

    def test_missing_name_or_collection(self):
        with pytest.raises(TenantConfigError):
            TenantSpec.from_obj({"collection": "a.json"})
        with pytest.raises(TenantConfigError):
            TenantSpec(name="a", collection="")

    @pytest.mark.parametrize(
        "field", ["qps", "burst", "mutations_per_second", "mutation_burst"]
    )
    def test_nonpositive_rates_rejected(self, field):
        with pytest.raises(TenantConfigError, match=field):
            TenantSpec.from_obj(
                {"name": "a", "collection": "a.json", field: 0}
            )

    def test_queue_and_inflight_bounds(self):
        with pytest.raises(TenantConfigError, match="max_queue_depth"):
            TenantSpec(name="a", collection="a.json", max_queue_depth=0)
        with pytest.raises(TenantConfigError, match="max_inflight"):
            TenantSpec(name="a", collection="a.json", max_inflight=0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("alpha", 2.0),
            ("alpha", 0),
            ("shards", 0),
            ("workers", 0),
            ("max_batch", 0),
            ("max_batch", 2.5),
            ("iub_mode", "bogus"),
            ("qps", True),
            ("engine", "bogus"),
            ("engine", "columnar"),
        ],
    )
    def test_unservable_values_rejected_naming_tenant(self, field, value):
        """Values no stack can serve fail when the config loads, with an
        error naming the tenant and the field — not later inside stack
        construction, and not served as something else (``true`` as
        1 qps)."""
        with pytest.raises(TenantConfigError, match=field) as excinfo:
            TenantSpec.from_obj(
                {"name": "acme", "collection": "a.json", field: value}
            )
        if field != "engine":  # an unknown key: named, not the tenant
            assert "'acme'" in str(excinfo.value)

    def test_non_object_tenant_entry(self):
        with pytest.raises(TenantConfigError, match="JSON object"):
            TenantSpec.from_obj(["name", "a"])


class TestRegistryConfig:
    def test_builds_tenants_with_relative_paths_and_shared_cache(
        self, two_tenant_dir
    ):
        registry = TenantRegistry.from_config(
            two_tenant_dir / "tenants.json"
        )
        with registry:
            assert sorted(registry.names) == ["alpha", "beta"]
            assert len(registry) == 2
            assert registry.max_inflight == 4
            assert registry.cache is not None
            assert registry.cache.capacity == 64
            alpha = registry.get("alpha")
            beta = registry.get("beta")
            # One shared cache object, namespaced per tenant.
            assert alpha.scheduler.cache is beta.scheduler.cache
            assert registry.sole_tenant is None
            assert registry.auth_tokens() == {"beta": "s3cret"}

    def test_sole_tenant_shortcut(self, two_tenant_dir):
        config = {
            "tenants": [{"name": "only", "collection": "alpha.json"}]
        }
        registry = TenantRegistry.from_config(
            config, base_dir=two_tenant_dir
        )
        with registry:
            assert registry.sole_tenant is registry.get("only")

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(TenantConfigError, match="cannot read"):
            TenantRegistry.from_config(tmp_path / "nope.json")

    def test_invalid_json_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(TenantConfigError, match="not valid JSON"):
            TenantRegistry.from_config(path)

    def test_unknown_top_level_keys(self, two_tenant_dir):
        with pytest.raises(TenantConfigError, match="tennants"):
            TenantRegistry.from_config(
                {"tennants": []}, base_dir=two_tenant_dir
            )

    def test_empty_tenant_list(self):
        with pytest.raises(TenantConfigError, match="non-empty"):
            TenantRegistry.from_config({"tenants": []})

    def test_duplicate_tenant_names(self, two_tenant_dir):
        config = {
            "tenants": [
                {"name": "dup", "collection": "alpha.json"},
                {"name": "dup", "collection": "beta.json"},
            ]
        }
        with pytest.raises(TenantConfigError, match="duplicate"):
            TenantRegistry.from_config(config, base_dir=two_tenant_dir)

    @pytest.mark.parametrize(
        "override", [{"cache_size": "big"}, {"max_inflight": 0}]
    )
    def test_bad_global_scalars(self, two_tenant_dir, override):
        config = {
            "tenants": [{"name": "a", "collection": "alpha.json"}],
            **override,
        }
        with pytest.raises(TenantConfigError):
            TenantRegistry.from_config(config, base_dir=two_tenant_dir)

    def test_cache_size_zero_disables_caching(self, two_tenant_dir):
        config = {
            "cache_size": 0,
            "tenants": [{"name": "a", "collection": "alpha.json"}],
        }
        registry = TenantRegistry.from_config(
            config, base_dir=two_tenant_dir
        )
        with registry:
            assert registry.cache is None
            assert registry.get("a").scheduler.cache is None

    def test_unloadable_collection_fails_at_build_not_first_request(
        self, two_tenant_dir
    ):
        config = {
            "tenants": [
                {"name": "a", "collection": "alpha.json"},
                {"name": "ghost", "collection": "missing.json"},
            ]
        }
        with pytest.raises(Exception):
            TenantRegistry.from_config(config, base_dir=two_tenant_dir)


class TestTenantStats:
    def test_stats_row_carries_identity_and_serving_schema(
        self, two_tenant_dir
    ):
        registry = TenantRegistry.from_config(
            two_tenant_dir / "tenants.json"
        )
        with registry:
            row = registry.get("alpha").stats()
            assert row["tenant"] == "alpha"
            assert row["backend"]["backend"] == "engine-pool"
            for field in ("requests", "rejected", "shed", "queue_depth",
                          "latency_p99"):
                assert field in row
