"""Outside-in tracing of frontal_lab for the benchmark's traced runs.

`Tracer.install()` wraps the public functions of each layer module, plus
the jet product and quotient, `StructureData.aug_values` and
`CatalogEntry.build`, by rebinding every module name (and every entry of a
module-level table) that holds the original function object.  A function
that calls itself through its module global, such as `expr.eval_jet`, is
recorded at its outermost call only.  Spans (name, start, end, parent) are
kept in flat arrays in memory; `uninstall()` restores every binding.

Nothing here is imported by the library: spans come from the benchmark's
side of each call, so the program under test is unchanged.
"""

from __future__ import annotations

import cProfile
import contextlib
import functools
import inspect
import io
import os
import pstats
import sys
import time
from array import array

LAYERS = ("jets", "expr", "frame", "equiaffine", "blaschke", "reconstruct",
          "catalog", "structio", "cli")
_READS = ("structio.read_structure_file", "structio.read_frontal_file")
_WRITES = ("structio.write_report", "structio.write_structure_file",
           "structio.export_obj", "structio.export_field_csv",
           "structio.export_frame_csv")


def _methods():
    """(owner class, attribute names, span name) of the traced methods."""
    from frontal_lab.catalog import CatalogEntry
    from frontal_lab.jets import Jet
    from frontal_lab.reconstruct import StructureData
    return ((Jet, ("__mul__", "__rmul__"), "jets.mul"),
            (Jet, ("__truediv__",), "jets.div"),
            (StructureData, ("aug_values",), "reconstruct.aug_values"),
            (CatalogEntry, ("build",), "catalog.build"))


def traced_functions():
    """Map each traced function object to its span name."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"frontal_lab.{layer}"]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                out[obj] = f"{layer}.{name}"
    for owner, attrs, span in _methods():
        out[vars(owner)[attrs[0]]] = span
    return out


def _recurses(fn):
    return fn.__name__ in fn.__code__.co_names


def _size(x):
    import numpy as np
    return int(np.size(x))


class Tracer:
    def __init__(self):
        self.names = []
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = {}
        self.mul_lanes = array("q")
        self.span_bytes = {}
        self._undo = []

    # --- installation -------------------------------------------------------

    def install(self):
        targets = traced_functions()
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        modules = [m for n, m in list(sys.modules.items())
                   if n == "frontal_lab" or n.startswith("frontal_lab.")]
        for mod in modules:
            table = vars(mod)
            for key, val in list(table.items()):
                self._rebind(table, key, val, wrappers)
                if isinstance(val, dict):
                    for k, v in list(val.items()):
                        self._rebind(val, k, v, wrappers)
        for owner, attrs, _ in _methods():
            for attr in attrs:
                fn = vars(owner)[attr]
                self._undo.append((owner, attr, fn, True))
                setattr(owner, attr, wrappers[fn])

    def _rebind(self, table, key, val, wrappers):
        if inspect.isfunction(val) and val in wrappers:
            new = wrappers[val]
        elif isinstance(val, tuple) and any(
                inspect.isfunction(v) and v in wrappers for v in val):
            new = tuple(wrappers.get(v, v) if inspect.isfunction(v) else v
                        for v in val)
        else:
            return
        self._undo.append((table, key, val, False))
        table[key] = new

    def uninstall(self):
        for owner, key, val, is_attr in reversed(self._undo):
            if is_attr:
                setattr(owner, key, val)
            else:
                owner[key] = val
        self._undo.clear()

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter
        key = name.replace(".", "_")
        before = getattr(self, f"_before_{key}", None)
        after = getattr(self, f"_after_{key}", None)
        if name in _WRITES:
            after = self._after_write
        guard = [0] if _recurses(fn) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if guard is not None:
                if guard[0]:
                    return fn(*args, **kwargs)
                guard[0] = 1
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(kind)
            kind.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                if guard is not None:
                    guard[0] = 0
            if after is not None:
                after(idx, args, kwargs, result)
            return result

        return wrapper

    # --- counters taken at the layer boundaries ------------------------------

    def _add(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def _after_jets_mul(self, idx, args, kwargs, result):
        self.mul_lanes.append(_size(result.coeffs[0]))

    def _before_jets_integrate_jet(self, args, kwargs):
        def counted(t):
            self._add("jets.integrate_jet.integrand_calls", 1)
            self._add("jets.integrate_jet.integrand_points", _size(t.value))
            return integrand(t)
        integrand = _first_arg(args, kwargs, "integrand")
        return _replace_first(args, kwargs, "integrand", counted)

    def _before_blaschke_probe_limits(self, args, kwargs):
        def counted(u1, u2):
            self._add("blaschke.probe_limits.fn_calls", 1)
            return fn(u1, u2)
        fn = _first_arg(args, kwargs, "fn")
        targets = args[1] if len(args) > 1 else kwargs["targets"]
        self._add("blaschke.probe_limits.targets", len(_atleast_2d(targets)))
        return _replace_first(args, kwargs, "fn", counted)

    def _after_blaschke_probe_limits(self, idx, args, kwargs, result):
        self._add("blaschke.probe_limits.results", len(result))
        self._add("blaschke.probe_limits.ok", sum(r.ok for r in result))

    def _before_frame_frame_bundle(self, args, kwargs):
        self._add("frame.frame_bundle.points", _points(args[1], args[2]))
        return args, kwargs

    def _before_equiaffine_structure_from_field(self, args, kwargs):
        self._add("equiaffine.structure_from_field.points",
                  _points(args[2], args[3]))
        return args, kwargs

    def _before_reconstruct_aug_values(self, args, kwargs):
        self._add("reconstruct.aug_values.points", _points(args[1], args[2]))
        return args, kwargs

    def _after_write(self, idx, args, kwargs, result):
        self.span_bytes[idx] = os.path.getsize(
            _first_arg(args, kwargs, "path"))

    # --- aggregation ---------------------------------------------------------

    def spans(self):
        """Span arrays (kind, parent, start, end) and the name table."""
        import numpy as np
        return {"kind": np.asarray(self.kind, dtype=np.int32),
                "parent": np.asarray(self.parent, dtype=np.int32),
                "start": np.asarray(self.start),
                "end": np.asarray(self.end),
                "names": np.asarray(self.names)}

    def layer_metrics(self, output_points):
        """Per-layer metrics of everything recorded since construction.

        output_points: grid points the traced jobs asked for, the base of
        frame.frame_bundle.points_per_output.
        """
        import numpy as np
        sp = self.spans()
        kind, parent = sp["kind"], sp["parent"]
        dur = sp["end"] - sp["start"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=kind.size)
        self_t = dur - child
        nn = len(self.names)
        calls = np.bincount(kind, minlength=nn)
        self_s = np.bincount(kind, weights=self_t, minlength=nn)
        ids = {n: i for i, n in enumerate(self.names)}

        def c(name):
            return int(calls[ids[name]])

        def s(name):
            return float(self_s[ids[name]])

        def outer_total(group):
            gid = np.isin(kind, [ids[n] for n in group])
            outer = gid & ~(nested & np.isin(kind[np.maximum(parent, 0)],
                                             [ids[n] for n in group]))
            return outer, float(dur[outer].sum())

        aug = ids["reconstruct.aug_values"]
        in_aug = 0
        for i in np.flatnonzero(kind == ids["frame.frame_bundle"]):
            p = parent[i]
            while p >= 0 and kind[p] != aug:
                p = parent[p]
            in_aug += p >= 0
        _, read_s = outer_total(_READS)
        outer_w, write_s = outer_total(_WRITES)
        written = sum(self.span_bytes.get(int(i), 0)
                      for i in np.flatnonzero(outer_w))
        n = self.counts.get
        probe_results = n("blaschke.probe_limits.results", 0)
        # Lane-weighted median: half of all product lanes run in calls at
        # least this wide, so it sits where the product work is, not where
        # the many small calls are.
        lanes = np.sort(np.asarray(self.mul_lanes))
        cum = np.cumsum(lanes)
        lanes_p50 = (float(lanes[np.searchsorted(cum, cum[-1] / 2.0)])
                     if lanes.size else 0.0)
        return {
            "jets.mul.calls": c("jets.mul"),
            "jets.mul.self_s": s("jets.mul"),
            "jets.mul.lanes_p50": lanes_p50,
            "jets.div.calls": c("jets.div"),
            "jets.div.self_s": s("jets.div"),
            "jets.integrate_jet.calls": c("jets.integrate_jet"),
            "jets.integrate_jet.self_s": s("jets.integrate_jet"),
            "jets.integrate_jet.integrand_calls":
                n("jets.integrate_jet.integrand_calls", 0),
            "jets.integrate_jet.integrand_points":
                n("jets.integrate_jet.integrand_points", 0),
            "expr.eval_jet.calls": c("expr.eval_jet"),
            "expr.eval_jet.self_s": s("expr.eval_jet"),
            "frame.frame_bundle.calls": c("frame.frame_bundle"),
            "frame.frame_bundle.points": n("frame.frame_bundle.points", 0),
            "frame.frame_bundle.points_per_output":
                n("frame.frame_bundle.points", 0) / max(1, output_points),
            "frame.frame_bundle.self_s": s("frame.frame_bundle"),
            "frame.singular_scan.self_s": s("frame.singular_scan"),
            "equiaffine.structure_from_field.calls":
                c("equiaffine.structure_from_field"),
            "equiaffine.structure_from_field.points":
                n("equiaffine.structure_from_field.points", 0),
            "equiaffine.structure_from_field.self_s":
                s("equiaffine.structure_from_field"),
            "blaschke.probe_limits.calls": c("blaschke.probe_limits"),
            "blaschke.probe_limits.targets":
                n("blaschke.probe_limits.targets", 0),
            "blaschke.probe_limits.fn_calls":
                n("blaschke.probe_limits.fn_calls", 0),
            "blaschke.probe_limits.ok_frac":
                n("blaschke.probe_limits.ok", 0) / max(1, probe_results),
            "blaschke.probe_limits.self_s": s("blaschke.probe_limits"),
            "blaschke.blaschke_field.self_s": s("blaschke.blaschke_field"),
            "blaschke.blaschke_verify.self_s": s("blaschke.blaschke_verify"),
            "reconstruct.aug_values.calls": c("reconstruct.aug_values"),
            "reconstruct.aug_values.points":
                n("reconstruct.aug_values.points", 0),
            "reconstruct.aug_values.self_s": s("reconstruct.aug_values"),
            "reconstruct.bundles_per_aug":
                int(in_aug) / max(1, c("reconstruct.aug_values")),
            "reconstruct.integrate_frame.self_s":
                s("reconstruct.integrate_frame"),
            "catalog.build.calls": c("catalog.build"),
            "catalog.build.self_s": s("catalog.build"),
            "structio.read_s": read_s,
            "structio.write_s": write_s,
            "structio.bytes_written": int(written),
            "cli.main.self_s": s("cli.main"),
        }


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _replace_first(args, kwargs, name, value):
    if args:
        return (value,) + args[1:], kwargs
    return args, dict(kwargs, **{name: value})


def _atleast_2d(targets):
    import numpy as np
    return np.atleast_2d(np.asarray(targets, dtype=float))


def _points(u1, u2):
    import numpy as np
    return int(np.broadcast(np.asarray(u1), np.asarray(u2)).size)


def self_test(cli, argv):
    """Run `argv` under cProfile and under a Tracer; list the disagreements.

    Every traced function must have as many spans as cProfile counts calls
    (primitive calls for the outermost-only functions), so a binding the
    tracer failed to rebind shows up as a missing span.
    """
    sink = io.StringIO()
    prof = cProfile.Profile()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        prof.runcall(cli.main, list(argv))
    stats = pstats.Stats(prof).stats
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            cli.main(list(argv))
    finally:
        tracer.uninstall()
    spans = {}
    for k in tracer.kind:
        spans[tracer.names[k]] = spans.get(tracer.names[k], 0) + 1
    mismatches = []
    for fn, name in traced_functions().items():
        code = fn.__code__
        cc, nc = stats.get((code.co_filename, code.co_firstlineno,
                            code.co_name), (0, 0))[:2]
        direct = cc if _recurses(fn) else nc
        if spans.get(name, 0) != direct:
            mismatches.append(f"{name}: {spans.get(name, 0)} spans, "
                              f"{direct} calls")
    return mismatches
