"""Span tracer that times calls into mvflow's public functions from outside.

While a traced op runs, the tracer replaces each target name where callers
look it up at run time (a module global or a class attribute) by a wrapper
that records one span: (op id, span id, parent span id, name, start ns,
end ns, attributes).  Afterwards every original object is put back, so an
untraced op runs the package exactly as shipped.  Nothing under src/ is
edited.

The span stack is shared by all threads.  That is exact for ``jobs=1``:
mvflow's thread pool then runs one task at a time while the submitting
thread waits, so traced calls never interleave.
"""
from __future__ import annotations

import functools
import time

# (module, attribute, span name).  A name imported with ``from .x import f``
# lives in the importing module too, so each lookup site is listed.
MODULE_TARGETS = (
    ("mvflow.cli", "main", "experiments.cli_main"),
    ("mvflow.solver", "run", "solver.run"),
    ("mvflow.experiments", "run", "solver.run"),
    ("mvflow.solver", "step", "solver.step"),
    ("mvflow.solver", "admissible_dt", "solver.admissible_dt"),
    ("mvflow.solver", "total_energy", "solver.total_energy"),
    ("mvflow.experiments", "total_energy", "solver.total_energy"),
    ("mvflow.experiments", "make_reference", "solver.make_reference"),
    ("mvflow.pressure", "quad", "pressure.quad"),
    ("mvflow.relative_energy", "potential", "pressure.potential"),
    ("mvflow.experiments", "certify_lower_bound", "pressure.certify"),
    ("mvflow.experiments", "certify_h_bound", "pressure.certify"),
    ("mvflow.pressure", "bregman_H", "pressure.bregman"),
    ("mvflow.relative_energy", "bregman_H", "pressure.bregman"),
    ("mvflow.pressure", "h_increment", "pressure.h_increment"),
    ("mvflow.relative_energy", "h_increment", "pressure.h_increment"),
    ("mvflow.experiments", "assemble", "measures.assemble"),
    ("mvflow.experiments", "estimate_defect", "measures.estimate_defect"),
    ("mvflow.experiments", "energy_inequality_slack", "measures.energy_slack"),
    ("mvflow.experiments", "continuity_residual", "measures.residual"),
    ("mvflow.experiments", "renorm_continuity_residual", "measures.residual"),
    ("mvflow.experiments", "momentum_residual", "measures.residual"),
    ("mvflow.experiments", "compatibility_residual", "measures.residual"),
    ("mvflow.experiments", "density_family", "measures.testfuncs"),
    ("mvflow.experiments", "momentum_family", "measures.testfuncs"),
    ("mvflow.experiments", "compatibility_family", "measures.testfuncs"),
    ("mvflow.experiments", "remainder_terms", "relative_energy.remainder_terms"),
    ("mvflow.experiments", "gronwall_verdict", "relative_energy.gronwall_verdict"),
    ("mvflow.experiments", "relative_energy_series", "relative_energy.series"),
    ("mvflow.relative_energy", "relative_energy_series", "relative_energy.series"),
)

# (module, class, method, span name): methods are looked up on the class.
METHOD_TARGETS = (
    ("mvflow.pressure", "PressureLaw", "P", "pressure.P"),
)

TRACED_MODULES = ("mvflow.cli", "mvflow.solver", "mvflow.experiments",
                  "mvflow.pressure", "mvflow.relative_energy")

LAYERS = ("solver", "pressure", "measures", "relative_energy", "experiments")

# Root span the benchmark opens around each op; its self time is harness time.
OP_SPAN = "bench.op"

_WRAPPED = "__perfbench_wrapped__"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def is_wrapper(obj) -> bool:
    return getattr(obj, _WRAPPED, None) is not None


class Tracer:
    """Installs span wrappers, collects spans per op, restores originals."""

    def __init__(self, modules: dict):
        # modules maps dotted module name -> imported module object
        self.modules = modules
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._clock = time.perf_counter_ns

    # -- targets ---------------------------------------------------------------
    def targets(self):
        """(owner, attribute, span name) for every lookup site."""
        out = [(self.modules[mod], attr, name) for mod, attr, name in MODULE_TARGETS]
        for mod, cls, meth, name in METHOD_TARGETS:
            out.append((getattr(self.modules[mod], cls), meth, name))
        return out

    # -- install / restore -----------------------------------------------------
    def install(self, on_return=None) -> None:
        """Wrap every target.  on_return(name, args, result), if given, returns
        the attributes stored on a span after the wrapped call returns."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for owner, attr, name in self.targets():
            orig = owner.__dict__[attr]
            if is_wrapper(orig):
                raise RuntimeError(f"{owner.__name__}.{attr} is already wrapped")
            key = id(orig)
            if key not in wrappers:
                wrappers[key] = self._wrap(orig, name, on_return)
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, wrappers[key])

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        self.check_unwrapped()

    def check_unwrapped(self) -> None:
        """Raise unless every target name holds an unwrapped object."""
        for owner, attr, _ in self.targets():
            if is_wrapper(owner.__dict__[attr]):
                raise RuntimeError(f"{owner.__name__}.{attr} is still wrapped")

    def _wrap(self, fn, name, on_return):
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, clock(), 0, None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[4] = clock()
            if on_return is not None:
                rec[5] = on_return(name, args, result)
            return result

        setattr(wrapper, _WRAPPED, name)
        return wrapper

    # -- spans -----------------------------------------------------------------
    def open_op(self) -> list:
        """Start a fresh op: clear spans and open the root span."""
        self.spans.clear()
        self._stack.clear()
        rec = [0, -1, OP_SPAN, self._clock(), 0, None]
        self.spans.append(rec)
        self._stack.append(0)
        return rec

    def close_op(self, rec: list) -> list[list]:
        self._stack.clear()
        rec[4] = self._clock()
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans) -> list[int]:
    """Per span: duration minus the part of its interval its children cover.

    Children are clipped to the parent's interval and their union is taken,
    so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for sid, parent, _, t0, t1, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((t0, t1))
    out = []
    for sid, _, _, t0, t1, *_ in spans:
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, t0), min(hi, t1)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((t1 - t0) - covered)
    return out


def outermost(spans, names) -> list[list]:
    """Spans named in ``names`` with no ancestor also named in ``names``."""
    by_id = {s[0]: s for s in spans}
    out = []
    for s in spans:
        if s[2] not in names:
            continue
        p = s[1]
        while p >= 0 and by_id[p][2] not in names:
            p = by_id[p][1]
        if p < 0:
            out.append(s)
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer numbers for one traced op (see README for definitions)."""
    selfs = self_times(spans)
    by_id = {s[0]: s for s in spans}
    count: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    for s, st in zip(spans, selfs):
        count[s[2]] = count.get(s[2], 0) + 1
        self_ns[s[2]] = self_ns.get(s[2], 0) + st

    def incl(*names) -> float:
        return sum(s[4] - s[3] for s in outermost(spans, set(names))) * 1e-9

    def mean_us(name) -> float:
        n = count.get(name, 0)
        total = sum(s[4] - s[3] for s in spans if s[2] == name)
        return total / n * 1e-3 if n else 0.0

    runs = [s for s in spans if s[2] == "solver.run"]
    accepted = sum(s[5]["n_steps"] for s in runs)
    ratios = [s[5]["dt_mean"] / s[5]["dt_cfl0"] for s in runs if s[5]["n_steps"]]
    member_runs = [s for s in runs if by_id[s[1]][2] != "solver.make_reference"]
    trials = count.get("solver.step", 0)

    layer_self = {layer: 0 for layer in LAYERS}
    for name, ns in self_ns.items():
        if layer_of(name) in layer_self:
            layer_self[layer_of(name)] += ns
    root = spans[0]
    wall = root[4] - root[3]

    m = {
        "solver.trial_steps": trials,
        "solver.accepted_steps": accepted,
        "solver.accept_ratio": accepted / trials if trials else 0.0,
        "solver.dt_over_cfl": sum(ratios) / len(ratios) if ratios else 0.0,
        "solver.step_us": mean_us("solver.step"),
        "solver.admissible_dt_calls": count.get("solver.admissible_dt", 0),
        "solver.energy_calls": count.get("solver.total_energy", 0),
        "solver.energy_us": mean_us("solver.total_energy"),
        "solver.controller_s": self_ns.get("solver.run", 0) * 1e-9,
        "solver.run_s": sum(s[4] - s[3] for s in member_runs) * 1e-9,
        "solver.reference_s": incl("solver.make_reference"),
        "pressure.quad_calls": count.get("pressure.quad", 0),
        "pressure.potential_calls": count.get("pressure.P", 0)
        + count.get("pressure.potential", 0),
        "pressure.potential_s": incl("pressure.P", "pressure.potential"),
        "pressure.certify_s": incl("pressure.certify"),
        "pressure.bregman_s": incl("pressure.bregman", "pressure.h_increment"),
        "measures.assemble_s": incl("measures.assemble"),
        "measures.defect_s": incl("measures.estimate_defect"),
        "measures.energy_slack_s": incl("measures.energy_slack"),
        "measures.residual_calls": count.get("measures.residual", 0),
        "measures.residual_s": incl("measures.residual"),
        "relative_energy.remainder_s": incl("relative_energy.remainder_terms"),
        "relative_energy.verdict_s": incl("relative_energy.gronwall_verdict"),
        "relative_energy.series_s": incl("relative_energy.series"),
        "trace.spans": len(spans),
        "trace.accounted_frac": sum(layer_self.values()) / wall if wall else 0.0,
    }
    for layer, ns in layer_self.items():
        m[f"{layer}.self_s"] = ns * 1e-9
    return m
