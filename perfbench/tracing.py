"""In-memory span tracing of infolab's layers, installed from outside the package.

The tracer replaces named public functions of each infolab module (and the
``observe`` / ``derive`` methods the rollout loop calls) with wrappers that
record one span per call: a name, start and end (``perf_counter_ns``) and the
index of the enclosing span.  Nothing inside ``src/`` is edited; ``uninstall``
puts every original back, so untraced rounds run the unmodified code.

Per-step layers (rng, processes, predictors) are wrapped at the entry points
the rollout loop calls, so the per-call cost stays bounded; the cheaper
layers (bounds, quantizers) have every public function wrapped.
"""

from __future__ import annotations

import csv
import gzip
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "rng", "processes", "predictors", "estimators", "info", "bounds", "quantizers", "harness",
)

# (layer, module-level function names); None means every public function.
FUNCTIONS = {
    "rng": ["derive_stream", "sample_gaussian", "sample_unit_sphere", "sample_categorical",
            "sample_stick_breaking"],
    "processes": ["sample_latent", "initial_history", "step", "meta_step", "irreducible_rate"],
    "predictors": ["init_predictor", "predict", "log_loss"],
    "estimators": ["run_replicate", "run_meta_replicate", "aggregate_error_curve",
                   "exact_mi_enumeration", "per_step_info", "misspec_decomposition",
                   "linreg_mi_mc", "meta_error_split"],
    "info": ["linreg_mi_given_inputs", "lambert_w"],
    "bounds": None,
    "quantizers": None,
    "harness": ["run_scenario", "run_replicates", "verify_curve", "bounds_for",
                "write_scenario_outputs", "write_sweep_output", "atomic_write_text",
                "sweep_scaling"],
}

# (layer, class name, method name): methods called on objects, not through a module.
METHODS = [
    ("rng", "RngStream", "derive"),
    ("predictors", "ConjugateState", "observe"),
    ("predictors", "EnumerationState", "observe"),
    ("predictors", "EnsembleState", "observe"),
    ("predictors", "OmniscientState", "observe"),
    ("predictors", "OracleMetaState", "observe"),
]


def _ess_frac(log_weights: np.ndarray) -> float:
    w = np.exp(log_weights - np.max(log_weights))
    w /= w.sum()
    return float(1.0 / np.sum(w * w) / w.size)


def unique_particle_frac(state) -> float:
    """Distinct particles / ensemble size, read from a predictor state."""
    if hasattr(state, "xi_particles"):  # per-task filters: average over tasks
        xi = state.xi_particles
        return float(np.mean([len(np.unique(x, axis=0)) / len(x) for x in xi]))
    parts = state.particles
    if parts.latents is not None:
        return len({id(l) for l in parts.latents}) / parts.size
    cols = []
    for value in vars(parts).values():
        for arr in value if isinstance(value, list) else [value]:
            if isinstance(arr, np.ndarray) and arr.ndim >= 1 and arr.shape[0] == parts.size:
                cols.append(arr.reshape(parts.size, -1))
    return len(np.unique(np.hstack(cols), axis=0)) / parts.size


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.unwrapped: list[str] = []  # table entries the loaded package lacks
        self.reset()

    # -- recording -------------------------------------------------------

    def reset(self) -> None:
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.name_idx = array("q")
        self._stack = [-1]
        self.states: list = []  # predictor states returned by init_predictor
        self.min_ess = 1.0
        self.enum_sequences = 0

    def _wrap(self, span: str, fn):
        nid = self._name_ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        starts, ends, parents, names, stack = (
            self.starts, self.ends, self.parents, self.name_idx, self._stack,
        )
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1])
            names.append(nid)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    # -- installation ----------------------------------------------------

    def install(self, lab) -> None:
        """Wrap the traced entry points of every loaded infolab module."""
        self.reset()
        self.unwrapped = []
        loaded = [m for n, m in list(sys.modules.items()) if n.startswith("infolab")]
        for layer in LAYERS:
            module = getattr(lab, layer)
            names = FUNCTIONS[layer]
            if names is None:
                names = [
                    n for n, v in vars(module).items()
                    if inspect.isfunction(v) and v.__module__ == module.__name__
                    and not n.startswith("_")
                ]
            for name in names:
                orig = getattr(module, name, None)
                if orig is None:
                    self.unwrapped.append(f"{layer}.{name}")
                    continue
                wrapped = self._wrap(f"{layer}.{name}", self._counted(layer, name, orig))
                for mod in loaded:  # every `from .x import name` binding too
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, attr, wrapped)
        for layer, cls_name, meth in METHODS:
            cls = getattr(getattr(lab, layer), cls_name, None)
            if cls is None or meth not in vars(cls):
                self.unwrapped.append(f"{layer}.{cls_name}.{meth}")
                continue
            self._patch(cls, meth, self._wrap(f"{layer}.{meth}", vars(cls)[meth]))
        ensemble = getattr(lab.predictors, "EnsembleState", None)
        if ensemble is not None and "_maybe_resample" in vars(ensemble):
            self._patch(ensemble, "_maybe_resample", self._ess_hook(vars(ensemble)["_maybe_resample"]))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _counted(self, layer, name, fn):
        """Add the bookkeeping some metrics need (work counts, returned states)."""
        if layer == "predictors" and name == "init_predictor":
            def init(*args, **kwargs):
                state = fn(*args, **kwargs)
                if hasattr(state, "resamples"):
                    self.states.append(state)
                return state
            return init
        if layer == "estimators" and name in ("exact_mi_enumeration", "misspec_decomposition"):
            def enum(model, *args, **kwargs):
                T = args[-1] if args else kwargs["T"]
                self.enum_sequences += model.alphabet ** T
                return fn(model, *args, **kwargs)
            return enum
        return fn

    def _ess_hook(self, fn):
        """Read the effective sample size of the weights each resample replaces."""
        def maybe_resample(state):
            log_weights, resamples = state.log_weights, state.resamples
            fn(state)
            if state.resamples != resamples:
                self.min_ess = min(self.min_ess, _ess_frac(log_weights))
        return maybe_resample

    # -- reduction -------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds), where self excludes child spans."""
        n = len(self.starts)
        if n == 0:
            return {}
        dur = np.frombuffer(self.ends, dtype=np.int64) - np.frombuffer(self.starts, dtype=np.int64)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        names = np.frombuffer(self.name_idx, dtype=np.int64)
        child = np.zeros(n, dtype=np.int64)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        self_ns = np.bincount(names, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        return {
            name: (int(calls[i]), float(self_ns[i]) * 1e-9)
            for i, name in enumerate(self.names) if calls[i]
        }

    def top_level_s(self) -> float:
        """Seconds covered by spans with no traced parent."""
        dur = np.frombuffer(self.ends, dtype=np.int64) - np.frombuffer(self.starts, dtype=np.int64)
        top = np.frombuffer(self.parents, dtype=np.int64) < 0
        return float(dur[top].sum()) * 1e-9

    def final_states(self) -> tuple[int, float, float]:
        """Ensemble health over the predictor states init_predictor returned.

        (total resamples, mean unique-particle fraction at the final horizon,
        lowest ESS fraction seen just before a resample or at the end);
        zeros when no ensemble ran.
        """
        if not self.states:
            return 0, 0.0, 0.0
        final_ess = [_ess_frac(lw) for s in self.states for lw in np.atleast_2d(s.log_weights)]
        return (
            sum(int(s.resamples) for s in self.states),
            float(np.mean([unique_particle_frac(s) for s in self.states])),
            min(self.min_ess, *final_ess),
        )

    def spans(self) -> tuple[array, array, array, array]:
        """This round's (starts, ends, parents, name indices); the next install starts new arrays."""
        return self.starts, self.ends, self.parents, self.name_idx

    def write_spans(self, path: str, run_id: str, spans) -> None:
        """Write one round's spans as gzipped CSV (times in ns from its first span)."""
        starts, ends, parents, name_idx = spans
        t0 = starts[0] if len(starts) else 0
        with gzip.open(path, "wt", newline="") as f:
            out = csv.writer(f, lineterminator="\n")
            out.writerow(["run_id", "span", "parent", "name", "start_ns", "end_ns"])
            for i in range(len(starts)):
                out.writerow([run_id, i, parents[i], self.names[name_idx[i]],
                              starts[i] - t0, ends[i] - t0])
