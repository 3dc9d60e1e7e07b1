"""Spans around the calls into each unkloc layer, for the traced run.

The tracer wraps the public functions that ``experiments.run_trial`` calls
(looked up in the modules' namespaces at call time) and the two methods
that ``sampling.acquire`` calls, for the duration of one ``with`` block.
Spans are kept in memory as (name, start, end, parent); counts are taken at
the same boundaries.  The program itself is not changed, and the wrapped
functions return exactly what the originals return.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from unkloc import bandwidth, experiments, field, noise


class CountingGenerator:
    """Forwards every call to a numpy Generator and counts the variates drawn."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self.drawn = 0

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            out = attr(*args, **kwargs)
            self.drawn += int(np.size(out))
            return out

        return counted


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def _wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, perf_counter(), 0.0, self._open[-1] if self._open else None]
            self._open.append(len(self.spans))
            self.spans.append(record)
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._open.pop()
            if count is not None:
                count(self.counts, args, out)
            return out

        return traced

    def _generate_trace(self, original):
        def generate_trace(spec, rng):
            counting = CountingGenerator(rng)
            trace = original(spec, counting)
            self.counts["spacings_drawn"] += counting.drawn
            self.counts["samples"] += trace.m
            return trace

        return generate_trace

    @contextmanager
    def installed(self):
        """Wrap the layer entry points; restore the originals on exit."""
        targets = [
            (experiments, "trial_seed", "sampling.trial_seed", None),
            (experiments, "spawn_rngs", "sampling.spawn_rngs", None),
            (experiments, "generate_trace", "sampling.generate_trace", None),
            (experiments, "acquire", "sampling.acquire", None),
            (experiments, "grid_deviation", "sampling.grid_deviation", None),
            (field.BandlimitedField, "evaluate", "field.evaluate", _count_evaluate),
            (experiments, "distortion", "field.distortion", None),
            (noise.NoiseSpec, "draw", "noise.draw", None),
            (experiments, "estimate_field", "estimator.estimate_field", _count_estimate),
            (experiments, "energy_estimate", "estimator.energy_estimate", None),
            (bandwidth, "energy_estimate", "estimator.energy_estimate", None),
            (experiments, "detect_bandwidth", "bandwidth.detect", _count_detect),
        ]
        saved = []
        try:
            for owner, attr, name, count in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                inner = self._generate_trace(original) if attr == "generate_trace" else original
                setattr(owner, attr, self._wrap(name, inner, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> tuple[dict[str, float], float]:
        """Self time per span name, and the summed duration of top-level spans."""
        child = [0.0] * len(self.spans)
        top = 0.0
        for _, start, end, parent in self.spans:
            if parent is None:
                top += end - start
            else:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            own[name] += (end - start) - child[i]
        return own, top

    def layer_metrics(self, run_wall: float) -> dict[str, float]:
        """Per-layer numbers of one traced ``run()`` call that took run_wall seconds."""
        own, top = self.self_times()
        c = self.counts
        return {
            "sampling.trial_seed_s": own["sampling.trial_seed"],
            "sampling.spawn_rngs_s": own["sampling.spawn_rngs"],
            "sampling.generate_trace_s": own["sampling.generate_trace"],
            "sampling.acquire_self_s": own["sampling.acquire"],
            "sampling.grid_deviation_s": own["sampling.grid_deviation"],
            "sampling.samples": float(c["samples"]),
            "sampling.draw_yield": _ratio(c["samples"], c["spacings_drawn"]),
            "field.evaluate_s": own["field.evaluate"],
            "field.evaluate_ns_per_point_harmonic": _ratio(1e9 * own["field.evaluate"], c["points_harmonics"]),
            "field.distortion_s": own["field.distortion"],
            "noise.draw_s": own["noise.draw"],
            "estimator.estimate_field_s": own["estimator.estimate_field"],
            "estimator.ns_per_sample_coeff": _ratio(1e9 * own["estimator.estimate_field"], c["sample_coeffs"]),
            "estimator.energy_estimate_s": own["estimator.energy_estimate"],
            "bandwidth.detect_s": own["bandwidth.detect"],
            "bandwidth.harmonics_scanned": float(c["harmonics_scanned"]),
            "bandwidth.ns_per_sample_harmonic": _ratio(1e9 * own["bandwidth.detect"], c["sample_harmonics"]),
            "bandwidth.stopped_ratio": _ratio(c["stopped"], c["detections"]),
            "experiments.harness_s": run_wall - top,
        }


def _ratio(num: float, den: float) -> float:
    """num / den, reading 0 when the layer did no work (den == 0)."""
    return num / den if den else 0.0


def _count_evaluate(counts: Counter, args, out) -> None:
    self, x = args[0], args[1]
    counts["points_harmonics"] += int(np.size(x)) * self.b


def _count_estimate(counts: Counter, args, out) -> None:
    counts["sample_coeffs"] += int(np.size(args[0])) * out.coeffs.size


def _count_detect(counts: Counter, args, out) -> None:
    scanned = out.b_scanned + 1
    counts["detections"] += 1
    counts["stopped"] += out.status == "Stopped"
    counts["harmonics_scanned"] += scanned
    counts["sample_harmonics"] += int(np.size(args[0])) * scanned
