"""Outside-in layer tracing for the qpmspdc benchmark.

Spans are recorded by replacing layer functions at the module attributes
their callers look up (``cli.run_coincidence`` and so on), so nothing in the
package changes. Spans are kept in memory while the run lasts; self times
and counts are derived from them when it ends.
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from qpmspdc import biphoton, cli, config, scenarios
from qpmspdc.dispersion import IndexModel

# (module, attribute, layer). Each layer boundary is the attribute its caller
# looks up, so the wrapper sees every call the caller makes.
SPAN_POINTS = (
    (cli, "load_scenario", "config"),
    (cli, "run_coincidence", "scenarios"),
    (cli, "design_report", "scenarios"),
    (cli, "maker_curve", "scenarios"),
    (cli, "pump_profile", "scenarios"),
    (cli, "write_scan_csv", "biphoton.csv"),
    (cli, "write_line_plot", "svg"),
    (scenarios, "build_joint_amplitude", "biphoton.joint_fill"),
    (scenarios, "coincidence_scan_oracle", "biphoton.oracle"),
    (scenarios, "coincidence_scan_analytic", "biphoton.analytic"),
    (scenarios, "detection_plane_profile", "fields"),
    (scenarios, "pump_spectrum_at_crystal", "fields"),
    (scenarios, "maker_efficiency", "phasematch"),
    (scenarios, "design_poling_period", "phasematch"),
    (scenarios, "delta_kz_paraxial", "phasematch"),
    (biphoton, "delta_kz_paraxial", "phasematch"),
    (biphoton, "efficiency_drop_over_scan", "phasematch"),
    (config, "design_poling_period", "phasematch"),
)

# Layers with a self time; "op" is the benchmark's own span around one op,
# so its self time is the part of an op that no layer span covers.
LAYERS = ("cli", "config", "scenarios", "fields", "phasematch",
          "biphoton.joint_fill", "biphoton.oracle", "biphoton.analytic",
          "biphoton.csv", "svg")

# Per-op counts; cli.out_bytes is added by the caller, which sees the files.
COUNTERS = ("biphoton.oracle.gmac", "biphoton.joint_fill.cells",
            "fields.march_calls", "dispersion.index_calls", "cli.out_bytes",
            "svg.points")


def _oracle_counts(counts: Counter, args, kwargs, result) -> None:
    """Matrix work of the oracle's detector-pair transform, from its shapes.

    The oracle contracts the N x N joint grid with an N x M_i idler phase
    matrix, then with an M_s x N signal phase matrix; a scanned detector
    contributes scan positions x slit samples columns, a fixed one slit
    samples only. Of the M_s x M_i detector-pair entries, n_scan x n_slit^2
    are kept. These counts describe the transform the oracle is handed, so
    they stay put when its implementation changes.
    """
    amplitude, geometry, mode = args[:3]
    slit_samples = kwargs.get("slit_samples", 8)
    n_slit = 1 if geometry.slit_width == 0.0 else max(int(slit_samples), 8)
    n_scan = result.positions.size
    scanned = n_scan * n_slit
    m_s = n_slit if mode == "idler-only" else scanned
    m_i = n_slit if mode == "signal-only" else scanned
    n_s, n_i = amplitude.q_signal.size, amplitude.q_idler.size
    counts["biphoton.oracle.gmac"] += (n_s * n_i * m_i + m_s * n_s * m_i) / 1e9
    counts["biphoton.oracle.kept"] += n_scan * n_slit * n_slit
    counts["biphoton.oracle.computed"] += m_s * m_i


def _fill_counts(counts: Counter, args, kwargs, result) -> None:
    counts["biphoton.joint_fill.cells"] += result.q_signal.size * result.q_idler.size


def _march_counts(counts: Counter, args, kwargs, result) -> None:
    counts["fields.march_calls"] += 1


def _svg_counts(counts: Counter, args, kwargs, result) -> None:
    x, curves = args[1], args[2]
    counts["svg.points"] += len(x) * len(curves)


_COUNT_HOOKS = {
    "coincidence_scan_oracle": _oracle_counts,
    "build_joint_amplitude": _fill_counts,
    "detection_plane_profile": _march_counts,
    "pump_spectrum_at_crystal": _march_counts,
    "write_line_plot": _svg_counts,
}


class Tracer:
    """Span recorder; spans are (name, start, end, parent index, op id)."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []

    def _begin(self) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _end(self, idx: int, parent: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.op)

    @contextmanager
    def span(self, name: str):
        idx, parent = self._begin()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._end(idx, parent, name, start)

    def _wrap(self, fn, name: str, hook):
        def traced(*args, **kwargs):
            idx, parent = self._begin()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx, parent, name, start)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every span point and IndexModel.index for the block's duration."""
        saved = []
        counts = self.counts

        index = IndexModel.index

        def counted_index(*args, **kwargs):
            counts["dispersion.index_calls"] += 1
            return index(*args, **kwargs)

        try:
            for module, attr, layer in SPAN_POINTS:
                fn = getattr(module, attr, None)
                if fn is None:
                    print(f"trace: {module.__name__}.{attr} not found; "
                          f"{layer} time there is not traced", file=sys.stderr)
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, layer, _COUNT_HOOKS.get(attr)))
            saved.append((IndexModel, "index", index))
            IndexModel.index = counted_index
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def layer_metrics(self, ops: int) -> dict:
        """Per-op means of each layer's self time (ms) and of each counter.

        A layer the run never entered reports 0.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_ms = dict.fromkeys(LAYERS + ("op",), 0.0)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            self_ms[name] += (end - start - child_time[idx]) * 1e3
        ops = max(ops, 1)
        metrics = {f"{layer}.self_ms": self_ms[layer] / ops for layer in LAYERS}
        metrics["op.uncovered_ms"] = self_ms["op"] / ops
        for name in COUNTERS:
            metrics[name] = self.counts[name] / ops
        computed = self.counts["biphoton.oracle.computed"]
        metrics["biphoton.oracle.useful_ratio"] = (
            self.counts["biphoton.oracle.kept"] / computed if computed else 0.0)
        return metrics
