"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each spheremaps module from the
outside (no change to the package): every call becomes a span with a name
`<layer>.<function>`, start and end times, the index of the span that was
open when it started, the operation id the benchmark set, and optional
attributes read from the arguments or the result.  Spans stay in memory and
are written out once, at the end of the run (by bench/run.py).
"""

import functools
import importlib
import inspect
import time

LAYERS = ("grid", "seminorms", "gallery", "sphere2", "optimize",
          "experiments", "cli")


def _gagliardo_attrs(args, kwargs, result):
    h = kwargs.get("h", args[0] if args else None)
    m = h.m if hasattr(h, "m") else len(h)
    return {"p": float(kwargs.get("p", args[2] if len(args) > 2 else 0.0)),
            "m": int(m)}


def _minimize_attrs(args, kwargs, result):
    return {"nfev": int(result.nfev), "nit": int(result.nit),
            "success": bool(result.success)}


# attributes recorded per wrapped function (everything else records none)
ATTRS = {
    "seminorms.gagliardo_seminorm": _gagliardo_attrs,
    "optimize.minimize": _minimize_attrs,
}


class Tracer:
    """Spans are tuples (name, start, end, parent, op, attrs); parent is the
    index of the enclosing span or -1."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = -1
        self._undo = []

    def wrap(self, name, fn):
        attrs_fn = ATTRS.get(name)
        spans, stack = self.spans, self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, start, time.perf_counter(), parent,
                              tracer.op, {"raised": True})
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            attrs = attrs_fn(args, kwargs, result) if attrs_fn else None
            spans[idx] = (name, start, end, parent, tracer.op, attrs)
            return result

        return traced

    def install(self):
        """Wrap the public functions defined in each spheremaps layer, plus
        the `minimize` that spheremaps.optimize calls."""
        for layer in LAYERS:
            mod = importlib.import_module(f"spheremaps.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                self._undo.append((mod, attr, obj))
                setattr(mod, attr, self.wrap(f"{layer}.{attr}", obj))
            if layer == "optimize":
                self._undo.append((mod, "minimize", mod.minimize))
                mod.minimize = self.wrap("optimize.minimize", mod.minimize)

    def uninstall(self):
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo.clear()


def self_times(spans):
    """Duration of each span minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for i, sp in enumerate(spans):
        if sp[3] >= 0:
            children[sp[3]].append(i)
    out = []
    for i, sp in enumerate(spans):
        covered, reach = 0.0, sp[1]
        for c in sorted(children[i], key=lambda j: spans[j][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], sp[2])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(sp[2] - sp[1] - covered)
    return out


def layer_metrics(spans, extra=None):
    """Per-layer metrics from a list of spans (see BENCHMARK.json)."""
    selfs = self_times(spans)
    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    dur = {}
    calls = {}
    for sp, st in zip(spans, selfs):
        layer = sp[0].split(".", 1)[0]
        m[f"{layer}.self_s"] += st
        dur[sp[0]] = dur.get(sp[0], 0.0) + sp[2] - sp[1]
        calls[sp[0]] = calls.get(sp[0], 0) + 1

    def d(*names):
        return sum(dur.get(n, 0.0) for n in names)

    def c(*names):
        return sum(calls.get(n, 0) for n in names)

    def outer(layer, exclude=()):
        """Summed duration of the layer's spans not nested in the same layer."""
        tot, n = 0.0, 0
        for sp in spans:
            if not sp[0].startswith(layer + ".") or sp[0] in exclude:
                continue
            if sp[3] >= 0 and spans[sp[3]][0].startswith(layer + "."):
                continue
            tot += sp[2] - sp[1]
            n += 1
        return tot, n

    mins = [sp for sp in spans if sp[0] == "optimize.minimize"]
    nfev = sum(sp[5]["nfev"] for sp in mins if sp[5] and "nfev" in sp[5])
    nit = sum(sp[5]["nit"] for sp in mins if sp[5] and "nit" in sp[5])
    conv = sum(1 for sp in mins if sp[5] and sp[5].get("success"))
    minimize_s = d("optimize.minimize")
    m.update({
        "optimize.search_s": d("optimize.estimate_inf_distance",
                               "optimize.estimate_point_to_class"),
        "optimize.seed_s": sum(st for sp, st in zip(spans, selfs)
                               if sp[0].startswith("optimize.")
                               and sp[0] != "optimize.minimize"),
        "optimize.minimize_calls": len(mins),
        "optimize.minimize_s": minimize_s,
        "optimize.nfev": nfev,
        "optimize.nit": nit,
        "optimize.us_per_nfev": 1e6 * minimize_s / nfev if nfev else 0.0,
        "optimize.converged_ratio": conv / len(mins) if mins else 0.0,
    })
    gag = [sp for sp in spans if sp[0] == "seminorms.gagliardo_seminorm"]
    m.update({
        "seminorms.gagliardo_p2_s": sum(sp[2] - sp[1] for sp in gag
                                        if sp[5] and sp[5]["p"] == 2.0),
        "seminorms.gagliardo_p_s": sum(sp[2] - sp[1] for sp in gag
                                       if sp[5] and sp[5]["p"] != 2.0),
        "seminorms.gagliardo_calls": len(gag),
        "seminorms.gagliardo_even_s": d("seminorms.gagliardo_even"),
        "seminorms.h_half_s": d("seminorms.h_half_seminorm_sq"),
        "seminorms.h_half_calls": c("seminorms.h_half_seminorm_sq"),
        "seminorms.w1p_s": d("seminorms.w1p_distance"),
        "seminorms.w1p_calls": c("seminorms.w1p_distance"),
        "grid.lift_s": d("grid.lift"),
        "grid.lift_calls": c("grid.lift"),
        "grid.degree_s": d("grid.degree_winding", "grid.degree_kronecker_s1",
                           "grid.degree_fourier"),
        "grid.spline_fit_s": d("grid.phase_model_from_map"),
    })
    build_s, build_calls = outer("gallery")
    m["gallery.build_s"], m["gallery.build_calls"] = build_s, build_calls
    s2_readers = ("sphere2.degree_kronecker_s2", "sphere2.dirichlet_energy",
                  "sphere2.h1_distance")
    m["sphere2.build_s"] = outer("sphere2", exclude=s2_readers)[0]
    m["sphere2.degree_s"] = d("sphere2.degree_kronecker_s2")
    m["sphere2.energy_s"] = d("sphere2.dirichlet_energy")
    m["experiments.run_calls"] = c("experiments.run_experiment")
    main_idx = [i for i, sp in enumerate(spans) if sp[0] == "cli.main"]
    m["cli.main_s"] = sum(selfs[i] for i in main_idx)
    if extra:
        m.update(extra)
    return m
