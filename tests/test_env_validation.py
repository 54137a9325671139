"""Typed rejection of invalid ``REPRO_*`` environment configuration.

Every mode-selecting environment variable used to be validated with a
bare :class:`~repro.errors.ReproError` (or, before that, inconsistently
across modules).  The hardening sweep retyped them all to
:class:`~repro.errors.ConfigurationError` with a uniform message shape:
the variable's *name*, the rejected value, and the allowed values — so
an operator who fat-fingers ``REPRO_DECIDE=vectr`` learns which knob to
fix without reading source.

These tests drive the parsers directly (monkeypatched environment, no
subprocess) and assert on the message contract, not just the type.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, ReproError


@pytest.mark.parametrize(
    "variable, parser, valid",
    [
        (
            "REPRO_ENGINE",
            lambda: __import__(
                "repro.probability.engine", fromlist=["_mode_from_env"]
            )._mode_from_env(),
            "compiled",
        ),
        (
            "REPRO_DECIDE",
            lambda: __import__(
                "repro.core.vector", fromlist=["_mode_from_env"]
            )._mode_from_env(),
            "vector",
        ),
        (
            "REPRO_ARTIFACTS",
            lambda: __import__(
                "repro.artifacts.store", fromlist=["_mode_from_env"]
            )._mode_from_env(),
            "on",
        ),
    ],
)
class TestModeEnvRejection:
    def test_invalid_value_raises_named_configuration_error(
        self, monkeypatch, variable, parser, valid
    ):
        monkeypatch.setenv(variable, "bogus-mode")
        with pytest.raises(ConfigurationError) as excinfo:
            parser()
        message = str(excinfo.value)
        assert variable in message
        assert "bogus-mode" in message

    def test_valid_value_accepted(self, monkeypatch, variable, parser, valid):
        monkeypatch.setenv(variable, valid)
        assert parser() == valid

    def test_value_is_case_and_space_normalised(
        self, monkeypatch, variable, parser, valid
    ):
        monkeypatch.setenv(variable, f"  {valid.upper()} ")
        assert parser() == valid


class TestGraphBackendEnv:
    def test_invalid_backend_raises_named_configuration_error(
        self, monkeypatch
    ):
        from repro.graph import backend as graph_backend

        monkeypatch.setenv("REPRO_GRAPH", "neo4j")
        monkeypatch.setattr(graph_backend, "_override", None)
        with pytest.raises(ConfigurationError) as excinfo:
            graph_backend.active_backend()
        message = str(excinfo.value)
        assert "REPRO_GRAPH" in message
        assert "neo4j" in message


class TestNumericEnvRejection:
    def test_compile_limit_must_be_an_integer(self, monkeypatch):
        from repro.probability import engine

        monkeypatch.setenv("REPRO_ENGINE_COMPILE_LIMIT", "many")
        with pytest.raises(ConfigurationError) as excinfo:
            engine._compile_limit_from_env()
        assert "REPRO_ENGINE_COMPILE_LIMIT" in str(excinfo.value)

    def test_compile_limit_must_be_positive(self, monkeypatch):
        from repro.probability import engine

        monkeypatch.setenv("REPRO_ENGINE_COMPILE_LIMIT", "0")
        with pytest.raises(ConfigurationError) as excinfo:
            engine._compile_limit_from_env()
        assert "REPRO_ENGINE_COMPILE_LIMIT" in str(excinfo.value)

    def test_artifact_capacity_grammar_is_enforced(self, monkeypatch):
        from repro.artifacts.store import ArtifactStore

        monkeypatch.setenv(
            "REPRO_ARTIFACTS_CAPACITY", "kernels=big,plans=16"
        )
        with pytest.raises(ConfigurationError) as excinfo:
            ArtifactStore._parse_capacity_env()
        assert "REPRO_ARTIFACTS_CAPACITY" in str(excinfo.value)

    def test_artifact_capacity_valid_grammar_parses(self, monkeypatch):
        from repro.artifacts.store import ArtifactStore

        monkeypatch.setenv(
            "REPRO_ARTIFACTS_CAPACITY", "kernels=2048, plans=16"
        )
        assert ArtifactStore._parse_capacity_env() == {
            "kernels": 2048,
            "plans": 16,
        }


class TestSetterRejection:
    """Programmatic setters reject like the env parsers, typed."""

    def test_set_engine_mode(self):
        from repro.probability.engine import set_engine_mode

        with pytest.raises(ConfigurationError):
            set_engine_mode("turbo")

    def test_set_decide_mode(self):
        from repro.core.vector import set_decide_mode

        with pytest.raises(ConfigurationError):
            set_decide_mode("turbo")

    def test_set_artifacts_mode(self):
        from repro.artifacts.store import set_artifacts_mode

        with pytest.raises(ConfigurationError):
            set_artifacts_mode("maybe")

    def test_configuration_error_is_a_repro_error(self):
        # Backward compatibility: existing ``except ReproError`` sites
        # (the CLI's top-level handler) still catch configuration
        # failures.
        assert issubclass(ConfigurationError, ReproError)
