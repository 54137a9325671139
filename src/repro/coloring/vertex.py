"""End-to-end distributed vertex coloring pipelines.

:func:`compute_vertex_coloring` chains the Linial reduction (``log* n``
rounds to an ``O(d^2)`` palette) with the greedy class elimination (down
to any ``target > d``), running both as honest LOCAL simulations and
reporting the exact total round count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional

from repro.errors import ColoringError
from repro.coloring.linial import LinialColoringAlgorithm
from repro.coloring.reduction import (
    GreedyColorReductionAlgorithm,
    KWColorReductionAlgorithm,
)
from repro.local_model.network import Network
from repro.local_model.simulator import Simulator
from repro.obs.recorder import active as _obs_active, span as _obs_span


@dataclass
class ColoringResult:
    """A proper coloring with its round accounting."""

    #: Node -> color.
    colors: Dict[Hashable, int]
    #: Size of the final palette (colors are in ``[0, palette)``).
    palette: int
    #: Rounds spent in the Linial (log* n) phase.
    linial_rounds: int
    #: Rounds spent in the greedy class-elimination phase.
    reduction_rounds: int

    @property
    def total_rounds(self) -> int:
        """Total communication rounds across both phases."""
        return self.linial_rounds + self.reduction_rounds

    @property
    def num_colors_used(self) -> int:
        """Number of distinct colors actually present."""
        return len(set(self.colors.values()))


def compute_vertex_coloring(
    network: Network,
    target: Optional[int] = None,
    identifier_space: Optional[int] = None,
    max_rounds: int = 1_000_000,
    reduction: str = "kw",
) -> ColoringResult:
    """Properly color a network with ``target`` colors (default ``d + 1``).

    Parameters
    ----------
    network:
        The communication graph; node identifiers must be non-negative
        integers (they seed the initial coloring).
    target:
        Final palette size; must exceed the maximum degree.  ``None``
        selects ``d + 1``.  Passing the Linial fixpoint palette (or
        anything at least as large) skips the reduction phase.
    identifier_space:
        Strict upper bound on node identifiers; computed from the network
        when omitted.
    reduction:
        ``"kw"`` (default) uses the Kuhn-Wattenhofer batched reduction
        (``O(target * log(palette / target))`` rounds); ``"greedy"`` uses
        one-class-per-round elimination (``palette - target`` rounds).
    """
    if reduction not in ("kw", "greedy"):
        raise ColoringError(f"unknown reduction strategy {reduction!r}")
    degree = max(network.max_degree, 1)
    if identifier_space is None:
        identifier_space = network.identifier_space()
    if target is None:
        target = degree + 1
    if target <= network.max_degree:
        raise ColoringError(
            f"target {target} must exceed the maximum degree "
            f"{network.max_degree}"
        )

    # Array-native fast path (REPRO_GRAPH=vectorized, the default):
    # whole-palette rounds over a CSR adjacency, element-identical to the
    # per-node simulation below.  Imported lazily — repro.graph imports
    # this module for ColoringResult.
    from repro.graph import fast_path_csr, vertex_coloring_arrays

    csr = fast_path_csr(network)
    if csr is not None:
        return vertex_coloring_arrays(
            csr,
            target=target,
            identifier_space=identifier_space,
            max_rounds=max_rounds,
            reduction=reduction,
        )

    recorder = _obs_active()
    linial = LinialColoringAlgorithm(identifier_space, degree)
    simulator = Simulator(network, linial)
    with _obs_span("coloring", "linial"):
        linial_result = simulator.run(max_rounds)
    palette = linial.final_palette or identifier_space
    colors = dict(linial_result.outputs)
    if recorder is not None:
        recorder.count("coloring", "linial_rounds", linial_result.rounds)
        recorder.event(
            "coloring",
            "phase",
            phase="linial",
            rounds=linial_result.rounds,
            palette=palette,
            nodes=len(colors),
        )

    reduction_rounds = 0
    if palette > target:
        if reduction == "kw":
            reducer = KWColorReductionAlgorithm(
                palette, target, network.max_degree
            )
        else:
            reducer = GreedyColorReductionAlgorithm(
                palette, target, network.max_degree
            )
        with _obs_span("coloring", "reduction", strategy=reduction):
            reduction_result = Simulator(network, reducer, inputs=colors).run(
                max_rounds
            )
        colors = dict(reduction_result.outputs)
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

    return ColoringResult(
        colors=colors,
        palette=palette,
        linial_rounds=linial_result.rounds,
        reduction_rounds=reduction_rounds,
    )
