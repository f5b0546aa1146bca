"""R008 — time measurement goes through obs.timed, not ad-hoc clocks."""

from __future__ import annotations

import ast

from repro.tools.lint.model import Rule
from repro.tools.lint.rules.base import AstLintRule, dotted_name

_MONOTONIC_CLOCKS = {
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
}


class ObsClockRule(AstLintRule):
    rule = Rule(
        "R008", "obs-owns-the-clock",
        "time measurement goes through obs.timed, not ad-hoc clocks",
        "Hand-rolled perf_counter deltas bypass the metrics registry, "
        "so the timing never shows up in run reports.  Wrap the region "
        "in obs.timed(name) instead.")
    # Only project modules must route timing through obs; tests and
    # benchmarks may hand-roll timers for their own assertions.
    path_only = ("repro/",)
    # obs implements timed blocks; the engine measures pool latencies it
    # feeds into obs itself.
    path_allow = ("repro/obs/", "repro/sim/engine.py")

    def visit_Call(self, node: ast.Call) -> None:
        canon = self.canonical(dotted_name(node.func))
        if canon in _MONOTONIC_CLOCKS:
            self.flag(node,
                      f"ad-hoc timing via {canon}(); wrap the region in "
                      f"obs.timed(name) so it lands in the metrics "
                      f"registry")
        self.generic_visit(node)
