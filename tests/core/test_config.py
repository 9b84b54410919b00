"""Tests for the filter configuration presets."""

from dataclasses import fields

import pytest

from repro.core import FilterConfig
from repro.errors import InvalidParameterError


class TestPresets:
    def test_koios_everything_on(self):
        config = FilterConfig.koios()
        assert config.use_first_sight_ub
        assert config.use_iub_buckets
        assert config.use_no_em
        assert config.use_em_early_termination
        assert config.vanilla_initialization
        assert not config.exhaustive_verification

    def test_baseline_everything_off(self):
        config = FilterConfig.baseline()
        assert not config.use_first_sight_ub
        assert not config.use_iub_buckets
        assert not config.use_no_em
        assert not config.use_em_early_termination
        assert config.exhaustive_verification

    def test_baseline_plus_only_iub(self):
        config = FilterConfig.baseline_plus()
        assert config.use_first_sight_ub
        assert config.use_iub_buckets
        assert not config.use_no_em
        assert not config.use_em_early_termination
        assert config.exhaustive_verification

    def test_without_override(self):
        config = FilterConfig.koios().without(use_no_em=False)
        assert not config.use_no_em
        assert config.use_iub_buckets

    def test_invalid_mode_rejected(self):
        with pytest.raises(InvalidParameterError):
            FilterConfig(iub_mode="nope")

    def test_track_caps_only_in_safe_mode(self):
        assert not FilterConfig.koios().track_caps
        assert FilterConfig.koios(iub_mode="safe").track_caps

    def test_frozen(self):
        with pytest.raises(AttributeError):
            FilterConfig.koios().use_no_em = False

    def test_one_engine(self):
        """``koios(engine=)`` survives only for old callers; nothing but
        ``"columnar"`` is accepted, and the config has no engine field."""
        assert FilterConfig.koios(engine="columnar") == FilterConfig.koios()
        with pytest.raises(InvalidParameterError):
            FilterConfig.koios(engine="reference")
        assert "engine" not in {f.name for f in fields(FilterConfig)}
        assert len(fields(FilterConfig)) == 7
