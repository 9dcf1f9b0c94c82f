"""Outside-in layer tracing for the benchmark.

The library is not edited.  Tracing replaces each wrapped public function
by a timing wrapper: a module-level function is rebound under every name
in every ``cone_sobolev`` module that holds it (``segments`` and ``lorentz``
each hold their own ``integrate_adaptive``), and a method or staticmethod
is rebound on its class.  ``uninstall`` restores the originals, so traced
and untraced rounds can alternate in one process.

Each wrapped call is a span with a name, start, end and parent.  Self time
is the span's duration minus the time its child spans cover; the process
is single-threaded, so children never overlap and that is a plain sum.
Spans of the first recorded round are kept in memory and written out when
the run ends; aggregates (calls, self and inclusive seconds) and the
boundary counts below are kept for every traced round.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import math
import sys
import time
from array import array
from pathlib import Path

PACKAGE = "cone_sobolev"

# (module, qualified name) of every wrapped layer function
WRAPPED = (
    ("quadrature", "integrate_adaptive"),
    ("segments", "moment_integral"),
    ("segments", "LevelSet.from_pieces"),
    ("segments", "LevelSet.lorentz_qth_power"),
    ("profiles", "gradient_density"),
    ("profiles", "alvino_profile"),
    ("profiles", "from_knots"),
    ("rearrangement", "SampledField.from_function"),
    ("rearrangement", "rearrangement"),
    ("rearrangement", "radial_rearrangement"),
    ("rearrangement", "StepFunction1D.as_pieces"),
    ("lorentz", "lorentz_norm_rearranged"),
    ("lorentz", "lorentz_norm_distributional"),
    ("lorentz", "restricted_norm"),
    ("lorentz", "hardy_check"),
    ("sobolev", "quotient"),
    ("sobolev", "polya_szego_check"),
    ("sobolev", "alvino_search"),
    ("sobolev", "bump_superposition_field"),
    ("bernstein", "construct_system"),
    ("bernstein", "verify_system"),
    ("bernstein", "superadditivity_certificate"),
    ("bernstein", "gradient_upper_certificate"),
    ("bernstein", "bernstein_lower_bound"),
    ("cones", "WeightedCone.create"),
)

SPAN_NAMES = tuple(f"{mod}.{qual}" for mod, qual in WRAPPED)
_INDEX = {name: i for i, name in enumerate(SPAN_NAMES)}
_QUAD = _INDEX["quadrature.integrate_adaptive"]
_MOMENT = _INDEX["segments.moment_integral"]
_FROM_PIECES = _INDEX["segments.LevelSet.from_pieces"]
_QTH_POWER = _INDEX["segments.LevelSet.lorentz_qth_power"]
_AS_PIECES = _INDEX["rearrangement.StepFunction1D.as_pieces"]

# boundary counts; the two ratios are derived from numerator/denominator
COUNT_NAMES = (
    "quadrature.integrate_adaptive.f_evals",
    "segments.LevelSet.from_pieces.pieces_in",
    "segments.LevelSet.from_pieces.strata_out",
    "segments.LevelSet.lorentz_qth_power.adaptive_ratio",
    "segments.moment_integral.adaptive_ratio",
    "rearrangement.StepFunction1D.as_pieces.pieces_out",
)


def layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s"),
                (f"{name}.incl_s", "s")]
    for name in COUNT_NAMES:
        out.append((name, "ratio" if name.endswith("_ratio") else "count"))
    out.append(("trace_overhead_ratio", "ratio"))
    return out


class _Frame:
    __slots__ = ("idx", "start", "child", "span", "quad_child")

    def __init__(self, idx: int, start: float, span: int):
        self.idx = idx
        self.start = start
        self.child = 0.0
        self.span = span
        self.quad_child = False


class Tracer:
    """Span recorder and the wrappers that feed it."""

    def __init__(self) -> None:
        self._originals: list[tuple[object, str, object]] = []
        self._stack: list[_Frame] = []
        self._in_qth_power = 0
        self.recording = False
        # raw spans of the recorded round: name index, start, end, parent
        self.span_name = array("h")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.reset()

    # -- aggregates ---------------------------------------------------

    def reset(self) -> None:
        n = len(SPAN_NAMES)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.incl_s = [0.0] * n
        self.f_evals = 0
        self.pieces_in = 0
        self.strata_out = 0
        self.quad_under_qth_power = 0
        self.finite_strata = 0
        self.moments_with_quad = 0
        self.pieces_out = 0

    def snapshot(self) -> dict:
        """Per-layer metrics accumulated since the last reset."""
        out: dict[str, float] = {}
        for i, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
            out[f"{name}.incl_s"] = self.incl_s[i]
        out["quadrature.integrate_adaptive.f_evals"] = self.f_evals
        out["segments.LevelSet.from_pieces.pieces_in"] = self.pieces_in
        out["segments.LevelSet.from_pieces.strata_out"] = self.strata_out
        out["segments.LevelSet.lorentz_qth_power.adaptive_ratio"] = _ratio(
            self.quad_under_qth_power, self.finite_strata)
        out["segments.moment_integral.adaptive_ratio"] = _ratio(
            self.moments_with_quad, self.calls[_MOMENT])
        out["rearrangement.StepFunction1D.as_pieces.pieces_out"] = \
            self.pieces_out
        return out

    # -- spans --------------------------------------------------------

    def _enter(self, idx: int) -> _Frame:
        stack = self._stack
        if idx == _QUAD:
            if stack and stack[-1].idx == _MOMENT:
                stack[-1].quad_child = True
            if self._in_qth_power:
                self.quad_under_qth_power += 1
        elif idx == _QTH_POWER:
            self._in_qth_power += 1
        span = -1
        start = time.perf_counter()
        if self.recording:
            span = len(self.span_name)
            self.span_name.append(idx)
            self.span_parent.append(stack[-1].span if stack else -1)
            self.span_start.append(start)
            self.span_end.append(0.0)
        frame = _Frame(idx, start, span)
        stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        dur = end - frame.start
        idx = frame.idx
        self.calls[idx] += 1
        self.incl_s[idx] += dur
        self.self_s[idx] += dur - frame.child
        if stack:
            stack[-1].child += dur
        if idx == _QTH_POWER:
            self._in_qth_power -= 1
        elif idx == _MOMENT and frame.quad_child:
            self.moments_with_quad += 1
        if frame.span >= 0:
            self.span_end[frame.span] = end

    def _wrap(self, idx: int, fn):
        tracer = self

        if idx == _QUAD:
            def wrapper(f, *args, **kwargs):
                def counted(x):
                    tracer.f_evals += 1
                    return f(x)
                frame = tracer._enter(idx)
                try:
                    return fn(counted, *args, **kwargs)
                finally:
                    tracer._exit(frame)
        elif idx == _FROM_PIECES:
            def wrapper(pieces):
                pieces = list(pieces)
                tracer.pieces_in += len(pieces)
                frame = tracer._enter(idx)
                try:
                    level = fn(pieces)
                finally:
                    tracer._exit(frame)
                tracer.strata_out += len(level.strata)
                return level
        elif idx == _QTH_POWER:
            def wrapper(self, *args, **kwargs):
                tracer.finite_strata += sum(
                    1 for s in self.strata
                    if s.lam0 < s.lam1 and not math.isinf(s.lam1))
                frame = tracer._enter(idx)
                try:
                    return fn(self, *args, **kwargs)
                finally:
                    tracer._exit(frame)
        elif idx == _AS_PIECES:
            def wrapper(self):
                frame = tracer._enter(idx)
                try:
                    out = fn(self)
                finally:
                    tracer._exit(frame)
                tracer.pieces_out += len(out)
                return out
        else:
            def wrapper(*args, **kwargs):
                frame = tracer._enter(idx)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)
        return functools.update_wrapper(wrapper, fn)

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Rebind every wrapped function to its timing wrapper."""
        if self._originals:
            return
        importlib.import_module(PACKAGE)
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for idx, (mod_name, qual) in enumerate(WRAPPED):
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(idx, raw.__func__))
                else:
                    new = self._wrap(idx, raw)
                self._originals.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            original = getattr(module, qual)
            wrapper = self._wrap(idx, original)
            for holder in modules:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._originals.append((holder, name, original))
                        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        """Restore every original function."""
        for holder, name, original in reversed(self._originals):
            setattr(holder, name, original)
        self._originals.clear()

    # -- output ---------------------------------------------------------

    def write_spans(self, path: Path) -> int:
        """Write the recorded spans as gzipped tab-separated text; returns
        the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tstart_s\tend_s\tparent\n")
            for i, (idx, start, end, parent) in enumerate(zip(
                    self.span_name, self.span_start, self.span_end,
                    self.span_parent)):
                out.write(f"{i}\t{SPAN_NAMES[idx]}\t{start - origin:.9f}\t"
                          f"{end - origin:.9f}\t{parent}\n")
        return len(self.span_name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
