"""Spans around the package's public calls, recorded from outside.

``Tracer.install`` replaces each module attribute in ``TARGETS`` with a
wrapper that records a span (name, start, end, parent, extra) and calls
the original function; ``uninstall`` puts the originals back, so an
untraced stretch runs the package's own code with no wrapper at all.  A
module attribute is what callers actually look up: ``analysis`` calls
``parse`` through ``analysis.parse`` and ``quantum.hardy_scan`` reaches
``joint_probability`` through ``quantum.joint_probability``.

Spans stay in memory until ``summarize`` turns them into additive counters
and the run writes them out at its end.
"""

from __future__ import annotations

import time
from collections import Counter

# (module, attribute, span name).  Each attribute is wrapped on its own, and
# every wrapper calls the original, so one call records exactly one span.
TARGETS = (
    ("formulas", "parse", "formulas.parse"),
    ("analysis", "parse", "formulas.parse"),
    ("cli", "parse", "formulas.parse"),
    ("semantics", "eval_model", "semantics.eval_model"),
    ("analysis", "eval_model", "semantics.eval_model"),
    ("cli", "eval_model", "semantics.eval_model"),
    ("semantics", "accessible_worlds", "semantics.accessible_worlds"),
    ("quantum", "probability_table", "quantum.probability_table"),
    ("cli", "probability_table", "quantum.probability_table"),
    ("quantum", "joint_probability", "quantum.joint_probability"),
    ("quantum", "hardy_family", "quantum.hardy_family"),
    ("cli", "hardy_family", "quantum.hardy_family"),
    ("quantum", "hardy_scan", "quantum.hardy_scan"),
    ("cli", "hardy_scan", "quantum.hardy_scan"),
    ("modelio", "parse_model", "modelio.parse_model"),
    ("worlds", "enumerate_worlds", "worlds.enumerate_worlds"),
    ("analysis", "enumerate_worlds", "worlds.enumerate_worlds"),
    ("cli", "enumerate_worlds", "worlds.enumerate_worlds"),
    ("analysis", "catalog", "analysis.catalog"),
    ("analysis", "theorem_suite", "analysis.theorem_suite"),
    ("analysis", "information_flow", "analysis.information_flow"),
    ("analysis", "frame_comparison", "analysis.frame_comparison"),
    ("analysis", "lhv_feasibility", "analysis.lhv_feasibility"),
)


def _extra(name: str, args, result):
    """What a span records beyond its times: text length for parse, worlds
    for enumerate_worlds, witnesses and vacuous flags for eval_model."""
    if name == "formulas.parse":
        return len(args[0])
    if name == "worlds.enumerate_worlds":
        return len(result)
    if name == "semantics.eval_model":
        return (len(result.witnesses), len(result.vacuous_flags))
    return None


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list = []
        self._stack: list[int] = []
        self._originals: list = []

    def install(self) -> None:
        for module_name, attribute, name in TARGETS:
            module = self.modules.get(module_name)
            if module is None:
                continue
            original = getattr(module, attribute)
            self._originals.append((module, attribute, original))
            setattr(module, attribute, self._wrap(original, name))

    def uninstall(self) -> None:
        for module, attribute, original in reversed(self._originals):
            setattr(module, attribute, original)
        self._originals.clear()

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, function, name):
        stack, clock = self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = clock()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                extra = _extra(name, args, result) if result is not None else None
                spans[index] = (name, start, end, parent, extra)

        traced.__wrapped__ = function
        return traced


def _has_ancestor(spans: list, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def summarize(spans: list) -> Counter:
    """Additive counters for one stretch of spans.

    ``busy_ns:<name>`` sums the spans that have no ancestor of the same
    name, so recursion is not counted twice; ``hardy_family`` calls made
    inside ``hardy_scan`` belong to the scan and are left out of the
    family's own busy time.
    """
    c: Counter = Counter()
    for i, (name, start, end, _, extra) in enumerate(spans):
        c[f"calls:{name}"] += 1
        outermost = not _has_ancestor(spans, i, name)
        if name == "quantum.hardy_family" and _has_ancestor(spans, i, "quantum.hardy_scan"):
            outermost = False
        if outermost:
            c[f"busy_ns:{name}"] += end - start
        if name == "formulas.parse":
            c["parse_chars"] += extra or 0
            if _has_ancestor(spans, i, "analysis.frame_comparison"):
                c["parse_in_frame_comparison"] += 1
        elif name == "quantum.joint_probability":
            if _has_ancestor(spans, i, "quantum.hardy_scan"):
                c["joint_in_scan"] += 1
            elif _has_ancestor(spans, i, "quantum.probability_table"):
                c["joint_in_table"] += 1
        elif name == "semantics.eval_model" and extra is not None:
            c["witnesses"] += extra[0]
            c["vacuous_flags"] += extra[1]
        elif name == "worlds.enumerate_worlds":
            c["worlds"] += extra or 0
    return c


BUSY_METRICS = (
    "formulas.parse",
    "semantics.eval_model",
    "quantum.probability_table",
    "quantum.hardy_family",
    "quantum.hardy_scan",
    "modelio.parse_model",
    "worlds.enumerate_worlds",
    "analysis.theorem_suite",
    "analysis.information_flow",
    "analysis.frame_comparison",
    "analysis.lhv_feasibility",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_counts(c: Counter) -> dict:
    """Counts and ratios of one unit of work; they repeat exactly."""
    calls = lambda name: c[f"calls:{name}"]  # noqa: E731
    return {
        "formulas.parse.calls": calls("formulas.parse"),
        "formulas.parse.per_frame_comparison": _ratio(
            c["parse_in_frame_comparison"], calls("analysis.frame_comparison")
        ),
        "semantics.eval_model.calls": calls("semantics.eval_model"),
        "semantics.accessible_worlds.calls": calls("semantics.accessible_worlds"),
        "semantics.accessible_worlds.per_verdict": _ratio(
            calls("semantics.accessible_worlds"), calls("semantics.eval_model")
        ),
        "semantics.witnesses": c["witnesses"],
        "semantics.vacuous_flags": c["vacuous_flags"],
        "quantum.probability_table.calls": calls("quantum.probability_table"),
        "quantum.joint_probability.calls": calls("quantum.joint_probability"),
        "quantum.joint_probability.per_table": _ratio(
            c["joint_in_table"], calls("quantum.probability_table")
        ),
        "quantum.joint_probability.per_scan": _ratio(
            c["joint_in_scan"], calls("quantum.hardy_scan")
        ),
        "worlds.per_model": _ratio(c["worlds"], calls("worlds.enumerate_worlds")),
        "analysis.catalog.calls": calls("analysis.catalog"),
    }


def layer_times(c: Counter) -> dict:
    """Busy times (ms) and parse throughput of one unit of work."""
    times = {f"{name}.busy_ms": c[f"busy_ns:{name}"] / 1e6 for name in BUSY_METRICS}
    times["formulas.parse.chars_per_s"] = _ratio(
        c["parse_chars"], c["busy_ns:formulas.parse"] / 1e9
    )
    return times


# ----------------------------------------------------------- import time

IMPORT_PACKAGES = ("hardyworlds", "numpy", "scipy")


def import_breakdown(stderr: str) -> dict:
    """Cumulative import time (ms) of each package in ``IMPORT_PACKAGES``
    from ``python -X importtime`` output.

    A module counts once, at the outermost entry of its package, so
    ``scipy`` covers ``scipy`` and ``scipy.optimize`` but not a scipy module
    imported inside another scipy module.  ``hardyworlds`` includes the
    numpy and scipy imports it triggers.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, name.strip(), int(cumulative)))
    totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    ancestors: list = []
    # the listing is post-order; reversed, every module follows its importer
    for depth, name, cumulative in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        top = name.split(".", 1)[0]
        if top in totals and not any(a[1] == top for a in ancestors):
            totals[top] += cumulative / 1000.0
        ancestors.append((depth, top))
    return totals
