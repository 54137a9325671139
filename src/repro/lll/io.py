"""Serialising LLL instances to and from JSON-friendly dictionaries.

Events are defined by arbitrary Python predicates, which cannot be
serialised directly; instead, each event's scope is exhaustively
tabulated into its set of *bad outcomes* (feasible in the paper's
bounded-degree regime, where scopes are small).  Tabulation goes through
:meth:`repro.probability.BadEvent.bad_outcomes`, which reuses the
compiled truth table when the engine has one, and reloaded events carry
their outcome set as a precomputed table, so a save/load round trip
never re-enumerates a predicate under the compiled engine.  The round
trip preserves semantics exactly: the reloaded instance has identical
event probabilities, dependency graph and solutions.

Names of variables and events may be strings, integers, or (possibly
nested) lists/tuples thereof; tuples are canonicalised to lists in JSON
and restored as tuples on load.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Hashable, List

from repro.errors import EnumerationLimitError, ReproError
from repro.lll.instance import LLLInstance
from repro.probability import BadEvent, DiscreteVariable

#: Refuse to tabulate events with more outcomes than this.
DEFAULT_TABULATION_LIMIT = 1 << 20


def _encode_name(name: Hashable) -> Any:
    """Tuples become tagged lists so they survive JSON."""
    if isinstance(name, tuple):
        return {"__tuple__": [_encode_name(part) for part in name]}
    if isinstance(name, (str, int, float, bool)) or name is None:
        return name
    raise ReproError(
        f"cannot serialise name {name!r}: only strings, numbers and "
        f"(nested) tuples thereof are supported"
    )


def _decode_name(encoded: Any) -> Hashable:
    if isinstance(encoded, dict):
        parts = encoded.get("__tuple__")
        if len(encoded) != 1 or not isinstance(parts, list):
            raise ReproError(
                f"cannot decode name {encoded!r}: the only object form is "
                f"{{\"__tuple__\": [...]}}"
            )
        return tuple(_decode_name(part) for part in parts)
    if isinstance(encoded, list):
        return tuple(_decode_name(part) for part in encoded)
    return encoded


def instance_to_dict(
    instance: LLLInstance,
    tabulation_limit: int = DEFAULT_TABULATION_LIMIT,
) -> Dict[str, Any]:
    """Serialise an instance by tabulating every event's bad outcomes."""
    variables = []
    for variable in instance.variables:
        variables.append(
            {
                "name": _encode_name(variable.name),
                "values": [_encode_name(value) for value in variable.values],
                "probabilities": list(variable.probabilities),
            }
        )
    events = []
    for event in instance.events:
        scope = event.variables
        outcome_count = 1
        for variable in scope:
            outcome_count *= variable.num_values
        if outcome_count > tabulation_limit:
            raise EnumerationLimitError(
                f"event {event.name!r}: tabulating {outcome_count} outcomes "
                f"exceeds the limit {tabulation_limit}"
            )
        bad_outcomes = [
            [_encode_name(value) for value in combo]
            for combo in event.bad_outcomes(limit=tabulation_limit)
        ]
        events.append(
            {
                "name": _encode_name(event.name),
                "scope": [_encode_name(variable.name) for variable in scope],
                "bad_outcomes": bad_outcomes,
            }
        )
    return {"format": "repro-lll-instance", "version": 1,
            "variables": variables, "events": events}


def instance_from_dict(payload: Dict[str, Any]) -> LLLInstance:
    """Rebuild an instance serialised by :func:`instance_to_dict`.

    A payload of the wrong shape (a missing key, a scalar where a list
    belongs) raises :class:`~repro.errors.ReproError`, like a payload
    with invalid content.
    """
    if payload.get("format") != "repro-lll-instance":
        raise ReproError("payload is not a serialised LLL instance")
    if payload.get("version") != 1:
        raise ReproError(f"unsupported version {payload.get('version')!r}")
    try:
        return _instance_from_fields(payload)
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise ReproError(
            f"malformed instance dict: {type(error).__name__}: {error}"
        ) from error


def _instance_from_fields(payload: Dict[str, Any]) -> LLLInstance:
    variables: Dict[Hashable, DiscreteVariable] = {}
    for spec in payload["variables"]:
        name = _decode_name(spec["name"])
        values = tuple(_decode_name(value) for value in spec["values"])
        variables[name] = DiscreteVariable(
            name, values, spec["probabilities"]
        )
    events = []
    for spec in payload["events"]:
        scope_names = [_decode_name(name) for name in spec["scope"]]
        missing = [name for name in scope_names if name not in variables]
        if missing:
            raise ReproError(
                f"event {spec['name']!r} references unknown variables "
                f"{missing[:3]!r}"
            )
        scope = [variables[name] for name in scope_names]
        bad = [
            tuple(_decode_name(value) for value in outcome)
            for outcome in spec["bad_outcomes"]
        ]
        events.append(
            BadEvent.from_bad_outcomes(
                _decode_name(spec["name"]), scope, bad
            )
        )
    return LLLInstance(events)


def save_instance(instance: LLLInstance, path: str) -> None:
    """Serialise an instance to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(instance_to_dict(instance), handle)


def load_instance(path: str) -> LLLInstance:
    """Load an instance from a JSON file written by :func:`save_instance`."""
    with open(path, "r", encoding="utf-8") as handle:
        return instance_from_dict(json.load(handle))
