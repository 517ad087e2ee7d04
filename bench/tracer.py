"""Spans and counts around calls into the program's public functions.

The tracer replaces each traced function, under every name a qrfactors
module holds it by, with a wrapper that records a span (name, start,
end, parent). A span's self time is its duration minus the time its
child spans cover. Nothing is wrapped unless a Tracer is installed, so
an untraced run calls the program exactly as a user would.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, function) pairs, in the order the metrics are reported.
TRACED = (
    ("tsdata", "load_csv"), ("tsdata", "demean"),
    ("covariance", "build_augmented"), ("covariance", "sample_autocov"),
    ("rrqr", "hybrid1"), ("rrqr", "hybrid3"),
    ("factor_rrqr", "fit_rrqr"), ("factor_rrqr", "scan_model_order"),
    ("baselines", "fit_evd"), ("baselines", "evd_spectrum"),
    ("baselines", "fit_pca"),
    ("forecast_eval", "rolling_eval"), ("forecast_eval", "yule_walker"),
    ("forecast_eval", "forecast_one_step"), ("forecast_eval", "rmse"),
    ("simgen", "monte_carlo"), ("simgen", "gen_sim2"),
    ("simgen", "subspace_error"),
    ("cli", "main"),
)

# Counts taken from a traced function's return value.
_RESULT_COUNTS = {
    "rrqr.hybrid1": ("passes", lambda res: res.passes),
    "rrqr.hybrid3": ("passes", lambda res: res.passes),
    "factor_rrqr.scan_model_order": ("ranks", lambda res: len(res.candidates)),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {}
    for module, func in TRACED:
        name = f"{module}.{func}"
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in _RESULT_COUNTS:
            units[f"{name}.{_RESULT_COUNTS[name][0]}"] = "count"
    units["baselines.evd_spectrum.per_evd_fit"] = "ratio"
    units["cli.main.bytes_written"] = "bytes"
    return units


class Tracer:
    """Records spans while installed; counts only after start()."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = {}
        self._self_s: dict[str, float] = {}
        self._calls: dict[str, int] = {}
        self._stack: list[list] = []  # [name, index, child seconds]
        self._patched: list[tuple[object, str, object]] = []
        self._recording = False

    def start(self) -> None:
        """Forget anything recorded so far (set-up, warm-up) and record."""
        self.spans.clear()
        self.counts.clear()
        self._self_s.clear()
        self._calls.clear()
        self._recording = True

    def count(self, name: str, value: float) -> None:
        if self._recording:
            self.counts[name] = self.counts.get(name, 0.0) + value

    def _wrap(self, name: str, original):
        result_count = _RESULT_COUNTS.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            frame = [name, len(self.spans), 0.0]
            parent = self._stack[-1][1] if self._stack else -1
            self.spans.append(None)  # reserve the index for children
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[frame[1]] = (name, t0, t1, parent)
                if self._stack:
                    self._stack[-1][2] += t1 - t0
                if self._recording:
                    self._calls[name] = self._calls.get(name, 0) + 1
                    self._self_s[name] = (self._self_s.get(name, 0.0)
                                          + (t1 - t0) - frame[2])
            if result_count is not None:
                self.count(f"{name}.{result_count[0]}", result_count[1](result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function under each name modules reach it by."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "qrfactors" or key.startswith("qrfactors.")]
        for module_name, func in TRACED:
            original = getattr(importlib.import_module(f"qrfactors.{module_name}"), func)
            wrapper = self._wrap(f"{module_name}.{func}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics, each summed over the recorded rounds and
        divided by their number."""
        out = {}
        for module, func in TRACED:
            name = f"{module}.{func}"
            out[f"{name}.calls"] = self._calls.get(name, 0) / rounds
            out[f"{name}.self_s"] = self._self_s.get(name, 0.0) / rounds
            if name in _RESULT_COUNTS:
                key = f"{name}.{_RESULT_COUNTS[name][0]}"
                out[key] = self.counts.get(key, 0.0) / rounds
        evd_fits = self._calls.get("baselines.fit_evd", 0)
        out["baselines.evd_spectrum.per_evd_fit"] = (
            self._calls.get("baselines.evd_spectrum", 0) / evd_fits
            if evd_fits else 0.0)
        out["cli.main.bytes_written"] = (
            self.counts.get("cli.main.bytes_written", 0.0) / rounds)
        return out
