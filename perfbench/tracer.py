"""Span tracing of the `dwbc` layers from outside the package.

`install()` rebinds the public functions of the traced modules, every
copy of them that another `dwbc` module imported by name, and a few
methods, with wrappers.  A wrapper records a span (name, start, end,
parent span, query id) in memory; hot leaf operations (tower products
and inverses, `h_M` lookups) only bump a counter.  Self time is a
span's duration minus the time its direct child spans cover.  Nothing
under `src/` is edited: the rebinding happens in the benchmark process
after import.
"""

import functools
import importlib
import inspect
import json
import time

MODULES = ("exact_core", "lattice_oracle", "ik_engine", "bethe_reps",
           "efp_reps", "hankel_orthopoly", "identity_suite", "cli")

# private functions that carry a layer of their own
EXTRA = {
    "lattice_oracle": ("_transfer_bracket",),
}
# tiny helpers called inside inner loops: spans would only add noise
SKIP = {
    "exact_core": ("approx_eq", "as_fraction", "format_rational",
                   "parse_rational", "build_tower"),
    "ik_engine": ("a_fn", "b_fn", "d_fn", "e_fn", "homogeneous_abc",
                  "psi_kernel", "gamma_change"),
    "efp_reps": ("u_of_z", "w_of_z_at_one"),
    "hankel_orthopoly": ("sin_taylor", "omega_taylor", "omegat_taylor"),
    "identity_suite": ("rand_fraction",),
}

RESIDUE_DRIVE = "exact_core.residue_drive"


class Tracer:
    def __init__(self):
        self.spans = []        # (id, name, start, end, parent id, query id)
        self.stack = []        # open spans: [name, start, child time, id]
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self.z_keys = set()
        self.max_prec = 0
        self.query = None
        self.family = None     # the memoized `ik_engine.family`

    def bump(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name, fn, on_result=None):
        stack, spans = self.stack, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans) + len(stack)  # spans started so far
            frame = [name, clock(), 0.0, sid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dur
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[2]
                spans.append((sid, name, frame[1], end,
                              parent[3] if parent else None, self.query))
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def counted(self, key, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    # -- layer-specific observations ------------------------------------

    def _drive(self, fn):
        """residue_drive: the integrand `build` callback runs inside it,
        but is the calling route's code; span it as `<route>.build` so
        residue_drive's own time is tower set-up and residue extraction."""
        traced = self.wrap(RESIDUE_DRIVE, fn)

        @functools.wraps(fn)
        def drive(specs, build, *args, **kwargs):
            route = self.stack[-1][0] if self.stack else "toplevel"
            return traced(specs, self.wrap(f"{route}.build", build),
                          *args, **kwargs)

        return drive

    def _tower(self, fn):
        """build_tower: count the towers residue_drive builds (retries
        show as towers beyond the first) and their largest window."""

        @functools.wraps(fn)
        def tower(varspecs, *args, **kwargs):
            if self.stack and self.stack[-1][0] == RESIDUE_DRIVE:
                self.bump("exact_core.residue_drive.towers")
                precs = [p for _, p in varspecs]
                if precs:
                    self.max_prec = max(self.max_prec, max(precs))
            return fn(varspecs, *args, **kwargs)

        return tower

    def _z_key(self, args, result):
        # weight objects hash by value (WeightTriple) or by identity
        self.z_keys.add((args[0], args[1]))

    def _terms(self, args, result):
        self.bump("ik_engine.hns_poly.terms", len(result.terms))

    # -- output -----------------------------------------------------------

    def summary(self):
        """JSON-ready totals; `merge()` adds several of them up."""
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "counts": self.counts,
            "z_distinct": len(self.z_keys),
            "max_prec": self.max_prec,
            "family_cache_size": (self.family.cache_info().currsize
                                  if self.family is not None else 0),
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _rebind(mods, old, new):
    for mod in mods:
        for key, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, key, new)


def install(tracer):
    """Wrap the layers of every traced module."""
    mods = {name: importlib.import_module(f"dwbc.{name}") for name in MODULES}
    all_mods = list(mods.values())
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            is_fn = inspect.isfunction(obj) or hasattr(obj, "cache_info")
            if not is_fn or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if attr.startswith("_") and attr not in EXTRA.get(short, ()):
                continue
            if attr in SKIP.get(short, ()):
                continue
            name = f"{short}.{attr}"
            if name == "ik_engine.family":
                tracer.family = obj
            if name == RESIDUE_DRIVE:
                wrapper = tracer._drive(obj)
            elif name == "lattice_oracle.enumerate_Z":
                wrapper = tracer.wrap(name, obj, tracer._z_key)
            else:
                wrapper = tracer.wrap(name, obj)
            _rebind(all_mods, obj, wrapper)

    core, ik = mods["exact_core"], mods["ik_engine"]
    _rebind(all_mods, core.build_tower, tracer._tower(core.build_tower))
    series = core.Series
    mul = tracer.counted("exact_core.series_mul.calls", series.__mul__)
    series.__mul__ = series.__rmul__ = mul
    series.inverse = tracer.counted("exact_core.series_inverse.calls",
                                    series.inverse)
    fam = ik.BoundaryGenFamily
    fam.h = tracer.counted("ik_engine.h_M.calls", fam.h)
    fam.hns_poly = tracer.wrap("ik_engine.hns_poly", fam.hns_poly,
                               tracer._terms)
    fam.hns_value = tracer.wrap("ik_engine.hns_value", fam.hns_value)


def merge(summaries):
    """Add up the summaries of several traced processes."""
    out = {"calls": {}, "self_s": {}, "counts": {}, "z_distinct": 0,
           "max_prec": 0, "family_cache_size": 0}
    for s in summaries:
        for key in ("calls", "self_s", "counts"):
            for name, val in s[key].items():
                out[key][name] = out[key].get(name, 0) + val
        out["z_distinct"] += s["z_distinct"]
        out["max_prec"] = max(out["max_prec"], s["max_prec"])
        out["family_cache_size"] = max(out["family_cache_size"],
                                       s["family_cache_size"])
    return out
