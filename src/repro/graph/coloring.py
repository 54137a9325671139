"""Vectorized coloring substrate: whole-palette array rounds over CSR.

Every algorithm here is an :class:`~repro.graph.batched.ArrayAlgorithm`
reimplementation of a per-node LOCAL algorithm from :mod:`repro.coloring`
— Linial's polynomial-evaluation reduction, the greedy and
Kuhn-Wattenhofer class eliminations, and Cole-Vishkin bit reduction —
with *element-identical* outputs.  The per-node versions stay in place
as the differential oracle (``REPRO_GRAPH=reference``); the Hypothesis
suite in ``tests/test_graph_substrate.py`` asserts the equivalence on
random graphs, including multi-component and isolated-node cases.  The
edge and 2-hop pipelines of :mod:`repro.coloring.derived` reach
:func:`vertex_coloring_arrays` through
:func:`~repro.coloring.vertex.compute_vertex_coloring` on their CSR
line and square graphs.

Faithfulness notes (the invariants that make identity hold):

* every round reads exclusively the *pre-round snapshot* of the color
  vector, exactly like messages composed before any node updates;
* "pick the smallest free color" scans candidates in the same ascending
  order as the per-node loops (:func:`_first_free`);
* Linial's distinguishing point is the smallest ``x`` with no neighbor
  collision, found by scanning ``x = 0, 1, ...`` with early exit — on
  typical instances almost every node resolves at ``x = 0``, so the
  scan does O(nodes + edges) work, not O(q * edges);
* all validation failures raise the same :class:`ColoringError` family
  the per-node code raises.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.errors import ColoringError, GraphSubstrateError, SimulationError
from repro.coloring.linial import reduction_schedule
from repro.coloring.reduction import kw_phase_schedule
from repro.coloring.vertex import ColoringResult
from repro.graph.batched import ArrayAlgorithm, BatchedSimulator
from repro.graph.csr import CSRGraph, require_index_dtype
from repro.obs.recorder import active as _obs_active, span as _obs_span


# ----------------------------------------------------------------------
# Shared primitives
# ----------------------------------------------------------------------
def _first_free(
    colors: np.ndarray,
    csr: CSRGraph,
    active: np.ndarray,
    base: np.ndarray,
    width: int,
    context: str,
) -> np.ndarray:
    """Smallest free color in ``[base, base + width)`` for each active node.

    ``colors`` is the pre-round snapshot; a color is *used* if any
    neighbor (of any state) holds it — the exact semantics of the
    per-node ``for candidate ...: if candidate not in used`` loops,
    which scan candidates in ascending order.
    """
    used = np.zeros((len(active), width), dtype=bool)
    owner, entry = csr.gather_neighborhoods(active)
    neighbor_colors = colors[csr.indices[entry]]
    relative = neighbor_colors - base[owner]
    valid = (relative >= 0) & (relative < width)
    used[owner[valid], relative[valid]] = True
    free = ~used
    pick = free.argmax(axis=1)
    if not free[np.arange(len(active)), pick].all():
        raise ColoringError(f"no free color available during {context}")
    return base + pick


def _eval_poly(coeffs: np.ndarray, x: int, q: int) -> np.ndarray:
    """Evaluate all nodes' polynomials at ``x`` over GF(q) (Horner)."""
    value = np.zeros(coeffs.shape[1], dtype=np.int64)
    for j in range(coeffs.shape[0] - 1, -1, -1):
        value = (value * x + coeffs[j]) % q
    return value


def linial_round_array(
    colors: np.ndarray, csr: CSRGraph, m: int, q: int, k: int
) -> np.ndarray:
    """One whole-network Linial reduction round: ``[m] -> [q^2]``.

    Element-identical to applying
    :func:`repro.coloring.linial.reduce_color` at every node with its
    neighbors' pre-round colors.
    """
    n = csr.num_nodes
    if len(colors) and (int(colors.min()) < 0 or int(colors.max()) >= m):
        raise ColoringError(f"color outside palette [0, {m})")
    row, neighbor = csr.row_index, csr.indices
    if np.any(colors[row] == colors[neighbor]):
        raise ColoringError("a neighbor shares this node's color")
    coefficients = np.empty((k + 1, n), dtype=np.int64)
    remainder = colors.astype(np.int64, copy=True)
    for j in range(k + 1):
        coefficients[j] = remainder % q
        remainder //= q
    if np.any(remainder != 0):
        raise ColoringError(f"color does not fit in {k + 1} base-{q} digits")

    new_colors = np.full(n, -1, dtype=np.int64)
    pending = np.arange(n, dtype=np.int64)
    for x in range(q):
        value = _eval_poly(coefficients, x, q)
        owner, entry = csr.gather_neighborhoods(pending)
        conflict = value[pending[owner]] == value[csr.indices[entry]]
        blocked = np.zeros(len(pending), dtype=bool)
        blocked[owner[conflict]] = True
        resolved = pending[~blocked]
        new_colors[resolved] = x * q + value[resolved]
        pending = pending[blocked]
        if len(pending) == 0:
            break
    if len(pending):
        raise ColoringError(
            f"no distinguishing point found (q={q}, k={k}) for "
            f"{len(pending)} nodes — input coloring was not proper"
        )
    return new_colors


def cv_reduce_array(colors: np.ndarray, parent_colors: np.ndarray) -> np.ndarray:
    """Vectorized Cole-Vishkin step: ``(c, c_parent) -> 2i + bit_i(c)``."""
    differing = colors ^ parent_colors
    if np.any(differing == 0):
        raise ColoringError(
            "child and parent share a color; input coloring is improper"
        )
    lowest = differing & -differing
    # frexp is exact on powers of two: frexp(2^i) = (0.5, i + 1).
    position = (np.frexp(lowest.astype(np.float64))[1] - 1).astype(np.int64)
    bit = (colors >> position) & 1
    return 2 * position + bit


# ----------------------------------------------------------------------
# Array algorithms (vectorized twins of repro.coloring)
# ----------------------------------------------------------------------
class LinialArrayAlgorithm(ArrayAlgorithm):
    """Vectorized twin of :class:`repro.coloring.linial.LinialColoringAlgorithm`."""

    def __init__(self, identifier_space: int, degree_bound: int) -> None:
        if identifier_space < 1:
            raise ColoringError("identifier_space must be positive")
        self._schedule = reduction_schedule(identifier_space, degree_bound)
        self.rounds_needed = len(self._schedule)

    @property
    def schedule(self) -> List[Tuple[int, int, int]]:
        return list(self._schedule)

    @property
    def final_palette(self) -> int:
        if not self._schedule:
            return 0
        _m, q, _k = self._schedule[-1]
        return q * q

    def start(self, csr: CSRGraph, inputs: Optional[np.ndarray]) -> np.ndarray:
        if inputs is None:
            return np.arange(csr.num_nodes, dtype=np.int64)
        if np.any(inputs < 0):
            raise ColoringError(
                "nodes need non-negative integer initial colors"
            )
        return inputs.astype(np.int64, copy=True)

    def round(
        self, state: np.ndarray, csr: CSRGraph, round_number: int
    ) -> np.ndarray:
        m, q, k = self._schedule[round_number - 1]
        return linial_round_array(state, csr, m, q, k)


class GreedyReductionArrayAlgorithm(ArrayAlgorithm):
    """Vectorized twin of :class:`repro.coloring.reduction.GreedyColorReductionAlgorithm`."""

    def __init__(self, palette: int, target: int, degree_bound: int) -> None:
        if target <= degree_bound:
            raise ColoringError(
                f"target palette {target} must exceed the degree bound "
                f"{degree_bound}"
            )
        if palette < 1:
            raise ColoringError("palette must be positive")
        self._palette = palette
        self._target = max(target, 1)
        self.rounds_needed = max(palette - self._target, 0)

    def start(self, csr: CSRGraph, inputs: Optional[np.ndarray]) -> np.ndarray:
        if inputs is None:
            raise GraphSubstrateError("color reduction requires input colors")
        if len(inputs) and (
            int(inputs.min()) < 0 or int(inputs.max()) >= self._palette
        ):
            raise ColoringError(
                f"nodes need a color in [0, {self._palette})"
            )
        return inputs.astype(np.int64, copy=True)

    def round(
        self, state: np.ndarray, csr: CSRGraph, round_number: int
    ) -> np.ndarray:
        dissolving = self._palette - round_number
        active = np.nonzero(state == dissolving)[0]
        new_state = state.copy()
        if len(active):
            base = np.zeros(len(active), dtype=np.int64)
            new_state[active] = _first_free(
                state, csr, active, base, self._target,
                context=f"greedy elimination below {self._target}",
            )
        return new_state


class KWReductionArrayAlgorithm(ArrayAlgorithm):
    """Vectorized twin of :class:`repro.coloring.reduction.KWColorReductionAlgorithm`."""

    def __init__(self, palette: int, target: int, degree_bound: int) -> None:
        if target <= degree_bound:
            raise ColoringError(
                f"target palette {target} must exceed the degree bound "
                f"{degree_bound}"
            )
        if palette < 1:
            raise ColoringError("palette must be positive")
        self._palette = palette
        self._target = target
        self._phases = kw_phase_schedule(palette, target)
        self._plan: List[Tuple[int, int, bool]] = []
        for phase_index, (m, s) in enumerate(self._phases):
            rounds = min(s, m) - target
            for j in range(rounds):
                self._plan.append((phase_index, target + j, j == rounds - 1))
        self.rounds_needed = len(self._plan)

    def start(self, csr: CSRGraph, inputs: Optional[np.ndarray]) -> np.ndarray:
        if inputs is None:
            raise GraphSubstrateError("color reduction requires input colors")
        if len(inputs) and (
            int(inputs.min()) < 0 or int(inputs.max()) >= self._palette
        ):
            raise ColoringError(
                f"nodes need a color in [0, {self._palette})"
            )
        return inputs.astype(np.int64, copy=True)

    def round(
        self, state: np.ndarray, csr: CSRGraph, round_number: int
    ) -> np.ndarray:
        phase_index, dissolve_offset, is_last = self._plan[round_number - 1]
        _m, s = self._phases[phase_index]
        target = self._target
        group, offset = np.divmod(state, s)
        active = np.nonzero(offset == dissolve_offset)[0]
        new_state = state.copy()
        if len(active):
            base = group[active] * s
            new_state[active] = _first_free(
                state, csr, active, base, target,
                context="Kuhn-Wattenhofer group elimination",
            )
        if is_last:
            group, offset = np.divmod(new_state, s)
            if np.any(offset >= target):
                raise ColoringError(
                    f"some node still has offset >= target {target} at "
                    f"the end of a phase"
                )
            new_state = group * target + offset
        return new_state


class ColeVishkinArrayAlgorithm(ArrayAlgorithm):
    """Vectorized twin of :class:`repro.coloring.cole_vishkin.ColeVishkinAlgorithm`.

    Input: the parent array (``-1`` marks roots).  The state vector is
    the color; parents are per-run configuration, validated against the
    CSR adjacency at :meth:`start`.
    """

    _ELIMINATE = (5, 4, 3)

    def __init__(self, identifier_space: int) -> None:
        if identifier_space < 1:
            raise ColoringError("identifier_space must be positive")
        from repro.coloring.cole_vishkin import cv_rounds_needed

        self._reduction_rounds = cv_rounds_needed(identifier_space)
        self.rounds_needed = self._reduction_rounds + 2 * len(self._ELIMINATE)
        self._parents: Optional[np.ndarray] = None

    def start(self, csr: CSRGraph, inputs: Optional[np.ndarray]) -> np.ndarray:
        if inputs is None:
            raise GraphSubstrateError(
                "Cole-Vishkin requires a parent array (-1 for roots)"
            )
        parents = inputs.astype(np.int64, copy=True)
        non_roots = np.nonzero(parents >= 0)[0]
        if len(non_roots):
            # Directed adjacency keys are globally sorted (row-major with
            # ascending neighbors), so parent membership is one
            # searchsorted over the flat key array.
            n = csr.num_nodes
            keys = csr.row_index * np.int64(n) + csr.indices
            queries = non_roots * np.int64(n) + parents[non_roots]
            position = np.searchsorted(keys, queries)
            present = (position < len(keys)) & (
                keys[np.minimum(position, len(keys) - 1)] == queries
            )
            if not present.all():
                offender = int(non_roots[~present][0])
                raise ColoringError(
                    f"node {offender!r}: parent "
                    f"{int(parents[offender])!r} is not a neighbor"
                )
        self._parents = parents
        return np.arange(csr.num_nodes, dtype=np.int64)

    def round(
        self, state: np.ndarray, csr: CSRGraph, round_number: int
    ) -> np.ndarray:
        parents = self._parents
        roots = parents < 0
        parent_color = state[np.where(roots, 0, parents)]
        if round_number <= self._reduction_rounds:
            parent_color = np.where(roots, state ^ 1, parent_color)
            return cv_reduce_array(state, parent_color)
        phase = round_number - self._reduction_rounds - 1
        eliminate = self._ELIMINATE[phase // 2]
        if phase % 2 == 0:
            # Shift-down: adopt the parent's color; roots rotate.
            return np.where(roots, (state + 1) % 3, parent_color)
        active = np.nonzero(state == eliminate)[0]
        new_state = state.copy()
        if len(active):
            base = np.zeros(len(active), dtype=np.int64)
            new_state[active] = _first_free(
                state, csr, active, base, 3,
                context="shift-down recoloring into {0, 1, 2}",
            )
        return new_state


# ----------------------------------------------------------------------
# Pipelines (array twin of repro.coloring.vertex)
# ----------------------------------------------------------------------
def _require_round_budget(csr: CSRGraph, needed: int, max_rounds: int) -> None:
    """Raise the reference simulator's budget error if ``needed`` exceeds it."""
    if needed > max_rounds:
        unfinished = list(range(min(csr.num_nodes, 3)))
        raise SimulationError(
            f"{csr.num_nodes} nodes still running after "
            f"{max_rounds} rounds (e.g. {unfinished!r})"
        )


def vertex_coloring_arrays(
    csr: CSRGraph,
    target: Optional[int] = None,
    identifier_space: Optional[int] = None,
    max_rounds: int = 1_000_000,
    reduction: str = "kw",
) -> ColoringResult:
    """Array-native twin of :func:`repro.coloring.vertex.compute_vertex_coloring`.

    Same schedule, same obs spans/events/counters, element-identical
    colors; the color vector stays an array across both phases instead
    of round-tripping through per-node dicts.
    """
    if reduction not in ("kw", "greedy"):
        raise ColoringError(f"unknown reduction strategy {reduction!r}")
    degree = max(csr.max_degree, 1)
    if identifier_space is None:
        identifier_space = csr.num_nodes
    if target is None:
        target = degree + 1
    if target <= csr.max_degree:
        raise ColoringError(
            f"target {target} must exceed the maximum degree "
            f"{csr.max_degree}"
        )

    recorder = _obs_active()
    linial = LinialArrayAlgorithm(identifier_space, degree)
    simulator = BatchedSimulator(csr, linial)
    with _obs_span("coloring", "linial"):
        _require_round_budget(csr, linial.rounds_needed, max_rounds)
        linial_result = simulator.run()
    palette = linial.final_palette or identifier_space
    colors_array = simulator.state
    if recorder is not None:
        recorder.count("coloring", "linial_rounds", linial_result.rounds)
        recorder.event(
            "coloring",
            "phase",
            phase="linial",
            rounds=linial_result.rounds,
            palette=palette,
            nodes=csr.num_nodes,
        )

    reduction_rounds = 0
    if palette > target:
        if reduction == "kw":
            reducer = KWReductionArrayAlgorithm(
                palette, target, csr.max_degree
            )
        else:
            reducer = GreedyReductionArrayAlgorithm(
                palette, target, csr.max_degree
            )
        reduction_simulator = BatchedSimulator(csr, reducer, inputs=colors_array)
        with _obs_span("coloring", "reduction", strategy=reduction):
            _require_round_budget(csr, reducer.rounds_needed, max_rounds)
            reduction_result = reduction_simulator.run()
        colors_array = reduction_simulator.state
        palette = target
        reduction_rounds = reduction_result.rounds
        if recorder is not None:
            recorder.count("coloring", "reduction_rounds", reduction_rounds)
            recorder.event(
                "coloring",
                "phase",
                phase="reduction",
                strategy=reduction,
                rounds=reduction_rounds,
                palette=palette,
            )

    colors = {
        node: int(color) for node, color in enumerate(colors_array.tolist())
    }
    return ColoringResult(
        colors=colors,
        palette=palette,
        linial_rounds=linial_result.rounds,
        reduction_rounds=reduction_rounds,
    )


def cole_vishkin_arrays(
    csr: CSRGraph, parents: Dict[Hashable, Hashable]
) -> Dict[str, object]:
    """Array-native twin of :func:`repro.coloring.cole_vishkin.compute_cole_vishkin_coloring`."""
    missing = [
        node for node in range(csr.num_nodes) if node not in parents
    ]
    if missing:
        raise ColoringError(f"no parent entry for nodes {missing[:3]!r}")
    entries = []
    for node in range(csr.num_nodes):
        parent = parents[node]
        if parent is None:
            entries.append(-1)
            continue
        if not isinstance(parent, int) or not (0 <= parent < csr.num_nodes):
            raise ColoringError(
                f"node {node!r}: parent {parent!r} is not a neighbor"
            )
        entries.append(parent)
    parent_array = np.array(entries, dtype=np.int64)
    algorithm = ColeVishkinArrayAlgorithm(csr.num_nodes)
    result = BatchedSimulator(csr, algorithm, inputs=parent_array).run()
    return {"colors": dict(result.outputs), "rounds": result.rounds}


def validate_proper_vertex_arrays(csr: CSRGraph, colors: np.ndarray) -> None:
    """Raise :class:`ColoringError` unless adjacent nodes differ."""
    colors = require_index_dtype("colors", colors)
    conflict = colors[csr.row_index] == colors[csr.indices]
    if np.any(conflict):
        u = int(csr.row_index[np.argmax(conflict)])
        v = int(csr.indices[np.argmax(conflict)])
        raise ColoringError(
            f"adjacent nodes {u} and {v} share color {int(colors[u])}"
        )
