"""Spans around the calls between stochpert layers, recorded from outside.

The package is not instrumented.  :func:`installed` replaces, for the
duration of one op, the module attributes through which the layers call
each other (and the CLI calls them) with timing wrappers, then restores
the originals, so untraced ops run the unmodified code.  Each span keeps
its name, layer, start, end, parent span and op index in memory; the
benchmark writes them out when the run ends.

Layer of a span is the module that owns the called function, not the
caller: ``perturb.derivative`` is the name perturb uses for
``projection.derivative``, so its time is projection time.  A layer's self
time is the duration of its spans minus the duration of their child spans;
since one op runs on one thread the self times of all layers add up to the
root ``cli.main`` span.

Newton iterations are derived, not counted: the corrector
(``projection._newton_correct``) is not wrapped, so its Sylvester solves
appear as children of the ``continue_projection`` span.  Within that span
every predictor (a ``derivative`` child that returned) starts one
corrector call, and the ``solve_dense`` children up to the next predictor
belong to it.  Each Newton iteration makes two solves, so iterations per
corrector call are those solves divided by two.  Solves under a
``derivative`` span are predictor or gauge-generator work and are not
counted.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import statistics
import time

from stochpert import cli, dobrushin, model, perturb, projection

CONTINUE = frozenset({"projection.continue_projection",
                      "perturb.continue_projection"})
DERIVATIVE = frozenset({"projection.derivative", "perturb.derivative"})
ROOT = "cli.main"


class Span:
    __slots__ = ("name", "layer", "parent", "op", "start", "end", "info",
                 "error")

    def __init__(self, name, layer, parent, op):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.info = None
        self.error = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "layer": self.layer,
                "parent": self.parent, "op": self.op, "start": self.start,
                "end": self.end, "info": self.info, "error": self.error}


class Recorder:
    """In-memory span store with a parent stack (single-threaded)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    def timed(self, name, layer, fn, info=None):
        """Wrap ``fn`` so each call records a span; ``info(args, result)``
        may attach a size or status."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else None, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if info is not None:
                span.info = info(args, result)
            return result
        return wrapper


def _kron_size(args, result):
    return int(args[0].shape[0] * args[1].shape[0])


def _lp_info(args, result):
    rows, cols = args[0].lhs.shape
    return {"size": int(rows * cols), "optimal": bool(result.optimal)}


def _rows(args, result):
    return int(result.shape[0])


#: (owner, attribute, span name, layer, info)
TARGETS = (
    (perturb, "effective_operator", "perturb.effective_operator", "perturb",
     None),
    (perturb, "continue_projection", "perturb.continue_projection",
     "projection", None),
    (perturb, "derivative", "perturb.derivative", "projection", None),
    (projection, "derivative", "projection.derivative", "projection", None),
    (projection, "gap_report", "projection.gap_report", "projection", None),
    (projection, "solve_dense", "projection.solve_dense", "sylvester",
     _kron_size),
    (projection, "sep_brute", "projection.sep_brute", "sylvester",
     _kron_size),
    (projection, "continue_projection", "projection.continue_projection",
     "projection", None),
    (dobrushin, "lp_solve", "dobrushin.lp_solve", "numerics", _lp_info),
    (dobrushin, "polar_generators", "dobrushin.polar_generators",
     "dobrushin", _rows),
    (dobrushin, "star_norm", "dobrushin.star_norm", "dobrushin", None),
    (dobrushin, "z_norm", "dobrushin.z_norm", "dobrushin", None),
    (dobrushin, "dependency_matrix", "dobrushin.dependency_matrix",
     "dobrushin", None),
    (model.PcaModel, "operator", "PcaModel.operator", "model", None),
)

#: every span name a traced run can produce
SPAN_NAMES = ((ROOT, "PcaModel.family", "family.at", "family.derivative")
              + tuple(t[2] for t in TARGETS))


def _timed_family(rec: Recorder, original):
    """``PcaModel.family`` whose returned family has timed ``at`` and
    ``derivative``."""
    def family(self):
        fam = original(self)
        return dataclasses.replace(
            fam, at=rec.timed("family.at", "model", fam.at),
            derivative=rec.timed("family.derivative", "model",
                                 fam.derivative))
    return rec.timed("PcaModel.family", "model", family)


@contextlib.contextmanager
def installed(rec: Recorder, op: int):
    """Trace op number ``op``: wrap every target, yield the timed
    ``cli.main``, restore the originals."""
    saved = [(owner, attr, getattr(owner, attr))
             for owner, attr, *_ in TARGETS]
    saved.append((model.PcaModel, "family", model.PcaModel.family))
    rec.op = op
    try:
        for (owner, attr, name, layer, info), (_, _, fn) in zip(TARGETS,
                                                               saved):
            setattr(owner, attr, rec.timed(name, layer, fn, info))
        model.PcaModel.family = _timed_family(rec, saved[-1][2])
        yield rec.timed(ROOT, "cli", cli.main)
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

LAYERS = ("cli", "perturb", "projection", "sylvester", "model", "dobrushin",
          "numerics")


def self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.duration
    return [s.duration - c for s, c in zip(spans, child)]


def newton_iterations(spans: list[Span]) -> list[float]:
    """Newton iterations of every corrector call, in span order."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span.parent is not None and spans[span.parent].name in CONTINUE:
            children.setdefault(span.parent, []).append(i)
    calls = []
    for kids in children.values():
        solves = None
        for i in sorted(kids, key=lambda k: spans[k].start):
            span = spans[i]
            if span.name in DERIVATIVE and not span.error:
                if solves is not None:
                    calls.append(solves / 2)
                solves = 0
            elif span.name == "projection.solve_dense" and solves is not None:
                solves += 1
        if solves is not None:
            calls.append(solves / 2)
    return calls


def layer_metrics(spans: list[Span], n_ops: int) -> tuple[dict, dict]:
    """Per-layer metrics (counts and times per traced op) and the self-time
    attribution by layer."""
    own = self_times(spans)
    per_op = 1.0 / max(n_ops, 1)

    def total(name, field="duration"):
        return sum(getattr(s, field) for s in spans if s.name == name)

    def count(names):
        return sum(1 for s in spans if s.name in names)

    def largest(name, key=None):
        vals = [s.info if key is None else s.info[key]
                for s in spans if s.name == name and s.info is not None]
        return max(vals, default=0)

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span, t in zip(spans, own):
        layer_self[span.layer] += t
    iters = newton_iterations(spans)
    predictors = sum(1 for s in spans if s.name in DERIVATIVE
                     and s.parent is not None
                     and spans[s.parent].name in CONTINUE)
    lps = [s for s in spans if s.name == "dobrushin.lp_solve"]
    metrics = {
        "projection.newton_iters_p50": (statistics.median(iters)
                                        if iters else 0.0, "count"),
        "projection.newton_iters_max": (max(iters, default=0.0), "count"),
        "projection.predictor_calls": (predictors * per_op, "count"),
        "projection.self_s": (layer_self["projection"] * per_op, "s"),
        "projection.gap_report_s": (total("projection.gap_report") * per_op,
                                    "s"),
        "sylvester.solve_calls": (count({"projection.solve_dense"}) * per_op,
                                  "count"),
        "sylvester.solve_s": (total("projection.solve_dense") * per_op, "s"),
        "sylvester.solve_kron_max": (largest("projection.solve_dense"),
                                     "count"),
        "sylvester.sep_calls": (count({"projection.sep_brute"}) * per_op,
                                "count"),
        "sylvester.sep_s": (total("projection.sep_brute") * per_op, "s"),
        "sylvester.sep_kron_max": (largest("projection.sep_brute"), "count"),
        "model.at_calls": (count({"family.at"}) * per_op, "count"),
        "model.derivative_calls": (count({"family.derivative"}) * per_op,
                                   "count"),
        "model.busy_s": (layer_self["model"] * per_op, "s"),
        "perturb.self_s": (layer_self["perturb"] * per_op, "s"),
        "numerics.lp_calls": (len(lps) * per_op, "count"),
        "numerics.lp_s": (sum(s.duration for s in lps) * per_op, "s"),
        "numerics.lp_nonoptimal": (sum(1 for s in lps if s.info is not None
                                       and not s.info["optimal"]) * per_op,
                                   "count"),
        "numerics.lp_size_max": (largest("dobrushin.lp_solve", "size"),
                                 "count"),
        "dobrushin.generators": (sum(s.info for s in spans
                                     if s.name == "dobrushin.polar_generators"
                                     and s.info is not None) * per_op,
                                 "count"),
        "dobrushin.self_s": (layer_self["dobrushin"] * per_op, "s"),
        "cli.self_s": (layer_self["cli"] * per_op, "s"),
    }
    attribution = {layer: t * per_op for layer, t in layer_self.items()}
    return metrics, attribution
