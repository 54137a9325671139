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
from repro.planes import PLANE_TABLE, planes, planes_from_env, set_planes


def _env_plane(field):
    return getattr(planes_from_env(), field)


@pytest.mark.parametrize(
    "variable, parser, valid",
    [
        ("REPRO_ENGINE", lambda: _env_plane("engine"), "compiled"),
        ("REPRO_DECIDE", lambda: _env_plane("decide"), "vector"),
        ("REPRO_ARTIFACTS", lambda: _env_plane("artifacts"), "on"),
        ("REPRO_GRAPH", lambda: _env_plane("graph"), "vectorized"),
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
        assert repr(valid) in message

    def test_valid_value_accepted(self, monkeypatch, variable, parser, valid):
        monkeypatch.setenv(variable, valid)
        assert parser() == valid

    def test_value_is_case_and_space_normalised(
        self, monkeypatch, variable, parser, valid
    ):
        monkeypatch.setenv(variable, f"  {valid.upper()} ")
        assert parser() == valid


@pytest.mark.parametrize("field, variable, fast, oracle", PLANE_TABLE)
def test_setter_rejection_names_variable_value_and_allowed(
    field, variable, fast, oracle
):
    """A setter rejects like the env parser, with the same message."""
    before = planes()
    with pytest.raises(ConfigurationError) as excinfo:
        set_planes(**{field: "turbo"})
    message = str(excinfo.value)
    assert variable in message and "'turbo'" in message
    assert repr(fast) in message and repr(oracle) in message
    assert planes() == before


class TestGraphBackendEnv:
    def test_invalid_backend_raises_named_configuration_error(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_GRAPH", "neo4j")
        with pytest.raises(ConfigurationError) as excinfo:
            planes_from_env()
        message = str(excinfo.value)
        assert "REPRO_GRAPH" in message
        assert "neo4j" in message


class TestSetterRejection:
    """Programmatic setters reject like the env parsers, typed."""

    def test_set_engine_mode(self):
        with pytest.raises(ConfigurationError):
            set_planes(engine="turbo")

    def test_set_decide_mode(self):
        with pytest.raises(ConfigurationError):
            set_planes(decide="turbo")

    def test_set_artifacts_mode(self):
        with pytest.raises(ConfigurationError):
            set_planes(artifacts="maybe")

    def test_unknown_plane_rejected(self):
        with pytest.raises(ConfigurationError) as excinfo:
            set_planes(ipc="shm")
        assert "'ipc'" in str(excinfo.value)

    def test_configuration_error_is_a_repro_error(self):
        # Backward compatibility: existing ``except ReproError`` sites
        # (the CLI's top-level handler) still catch configuration
        # failures.
        assert issubclass(ConfigurationError, ReproError)
