"""In-memory spans around the calls into each package layer.

``Recorder.install`` replaces a public function at the name its caller looks
it up by (``cavsqueeze.scans.solve_steady_states`` for the scans layer,
``cavsqueeze.bistability.turning_points`` for the call inside
``solve_steady_states``) with a wrapper that records one span per call: name,
start, end, parent span and a small integer the layer metrics need (roots
returned, system size, steps, samples, iterations).  Nothing is written until
``dump`` at the end of the run.  A name a later version no longer has is
skipped, so its metrics read 0 calls instead of failing.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Any, Callable

# layer -> function -> (modules that look the name up, info extractor)
SITES: dict[str, dict[str, tuple[tuple[str, ...], Callable | None]]] = {
    "bistability": {
        "solve_steady_states": (("bistability", "scans", "cli"),
                                lambda args, kw, out: len(out)),
        "turning_points": (("bistability", "scans", "cli"), None),
    },
    "spectra": {
        "build_fluctuation_system": (("spectra", "scans", "cli"), None),
        "output_spectrum": (("spectra", "scans", "cli"),
                            lambda args, kw, out: args[0].a.shape[0]),
        "efficiency_matrix": (("spectra", "scans", "cli"), None),
        "quadrature_extrema": (("spectra", "scans", "cli"), None),
    },
    "scans": {
        "free_release_scan": (("cli",), lambda args, kw, out: len(out.samples)),
        "piezo_scan": (("cli",), lambda args, kw, out: len(out.samples)),
        "analyzer_chain": (("scans",), None),
        "calibrate_and_correct": (("scans",), None),
    },
    "oracle": {
        "me_oracle_spectrum": (("oracle", "cli"), None),
        "liouvillian": (("oracle",), None),
        "steady_density": (("oracle",), None),
        "homodyne_spectrum": (("oracle",), None),
    },
    "cloud": {
        "mc_cooperativity": (("cloud", "cli"), lambda args, kw, out: kw["n_samples"]),
        "fit_cooperativity": (("cloud", "cli"), lambda args, kw, out: out.n_iter),
    },
    "config": {
        "load_config": (("config", "cli"), None),
    },
    "cli": {
        "main": (("cli",), None),
    },
}


class Recorder:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index, info]
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, info: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kw):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kw)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, kw, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict[str, Any]) -> None:
        for layer, funcs in SITES.items():
            for func, (sites, info) in funcs.items():
                for site in sites:
                    mod = modules.get(site)
                    original = getattr(mod, func, None)
                    if original is None:
                        continue
                    self._patched.append((mod, func, original))
                    setattr(mod, func, self._wrap(f"{layer}.{func}", original, info))

    def uninstall(self) -> None:
        for mod, func, original in reversed(self._patched):
            setattr(mod, func, original)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "info"],
                       "spans": self.spans}, fh)


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def _child_time(spans: list[list[Any]]) -> list[dict[str, float]]:
    """For each span, the time its direct children spent, per child layer."""
    out: list[dict[str, float]] = [{} for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            layer = name.split(".", 1)[0]
            out[parent][layer] = out[parent].get(layer, 0.0) + end - start
    return out


def layer_self_s(spans: list[list[Any]]) -> dict[str, float]:
    """Seconds each layer spent in its own code over the traced run."""
    own: dict[str, float] = {}
    for (name, start, end, _, _), kids in zip(spans, _child_time(spans)):
        layer = name.split(".", 1)[0]
        own[layer] = own.get(layer, 0.0) + end - start - sum(kids.values())
    return own


def layer_metrics(spans: list[list[Any]], csv_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a finished span list."""
    kids = _child_time(spans)
    dur: dict[str, list[float]] = {}
    info: dict[str, list[Any]] = {}
    self_s: dict[str, float] = {}
    scan_self = 0.0
    os_by_n: dict[int, list[float]] = {}
    for (name, start, end, _, extra), k in zip(spans, kids):
        dur.setdefault(name, []).append(end - start)
        info.setdefault(name, []).append(extra)
        self_s[name] = self_s.get(name, 0.0) + end - start - sum(k.values())
        if name in ("scans.free_release_scan", "scans.piezo_scan"):
            scan_self += end - start - k.get("bistability", 0.0) - k.get("spectra", 0.0)
        elif name == "spectra.output_spectrum":
            os_by_n.setdefault(extra, []).append(end - start)

    def calls(name):
        return (float(len(dur.get(name, ()))), "count")

    def p50(name, scale, unit):
        return (_p50(dur.get(name, [])) * scale, unit)

    steps = sum(info.get("scans.free_release_scan", []) + info.get("scans.piezo_scan", []))
    mc_samples = sum(info.get("cloud.mc_cooperativity", []))
    mc_time = sum(dur.get("cloud.mc_cooperativity", []))
    iters = info.get("cloud.fit_cooperativity", [])
    return {
        "bistability.solve_steady_states.calls": calls("bistability.solve_steady_states"),
        "bistability.solve_steady_states.p50_us": p50("bistability.solve_steady_states", 1e6, "us"),
        "bistability.solve_steady_states.self_s": (self_s.get("bistability.solve_steady_states", 0.0), "s"),
        "bistability.turning_points.calls": calls("bistability.turning_points"),
        "bistability.turning_points.p50_us": p50("bistability.turning_points", 1e6, "us"),
        "bistability.roots_returned": (float(sum(info.get("bistability.solve_steady_states", []))), "count"),
        "spectra.build_fluctuation_system.calls": calls("spectra.build_fluctuation_system"),
        "spectra.build_fluctuation_system.p50_us": p50("spectra.build_fluctuation_system", 1e6, "us"),
        "spectra.output_spectrum.calls": calls("spectra.output_spectrum"),
        "spectra.output_spectrum.n5_p50_us": (_p50(os_by_n.get(5, [])) * 1e6, "us"),
        "spectra.output_spectrum.n194_p50_us": (_p50(os_by_n.get(194, [])) * 1e6, "us"),
        "spectra.output_spectrum.self_s": (self_s.get("spectra.output_spectrum", 0.0), "s"),
        "scans.steps": (float(steps), "count"),
        "scans.self_us_per_step": (scan_self / steps * 1e6 if steps else 0.0, "us"),
        "scans.analyzer_chain.calls": calls("scans.analyzer_chain"),
        "oracle.liouvillian.p50_ms": p50("oracle.liouvillian", 1e3, "ms"),
        "oracle.steady_density.p50_ms": p50("oracle.steady_density", 1e3, "ms"),
        "oracle.homodyne_spectrum.calls": calls("oracle.homodyne_spectrum"),
        "oracle.homodyne_spectrum.p50_ms": p50("oracle.homodyne_spectrum", 1e3, "ms"),
        "oracle.self_s": (self_s.get("oracle.me_oracle_spectrum", 0.0), "s"),
        "cloud.mc_cooperativity.samples_per_s": (mc_samples / mc_time if mc_time else 0.0, "1/s"),
        "cloud.fit_cooperativity.p50_ms": p50("cloud.fit_cooperativity", 1e3, "ms"),
        "cloud.fit_cooperativity.iterations": (sum(iters) / len(iters) if iters else 0.0, "count"),
        "config.load_config.p50_us": p50("config.load_config", 1e6, "us"),
        "cli.self_s": (self_s.get("cli.main", 0.0), "s"),
        "cli.csv_bytes": (float(csv_bytes), "B"),
    }
