"""Outside-in benchmark of infolab: one workload per run, measured from outside ``src/``.

Usage (from the repository root):

    python3 perfbench/run.py --workload conjugate_rollout --seed 1 --seconds 30 --trace 0

    for w in conjugate_rollout ensemble_rollout meta_split exact_and_bounds; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 30 --trace 0; done

A run sets the workload up (re-importing infolab, parsing the configs,
building the specs and input models from ``--seed``) several times before its
first round and once after every round, then repeats rounds of the workload on
those same inputs until ``--seconds`` are used up.
It is a closed loop with one client and one Python thread: each round starts
when the previous one has finished.  Every round checks its outputs at the
acceptance-criterion tolerances and writes its result files.  ``attempted``
and ``failed`` count the first round's operations only, so they depend on
the seed and not on the host's speed; every later round must give the same
sha256 digests and the same failed checks, which is one more operation.

Times are reported at a reference speed of the host (see ``reference.py``):
on a shared virtual machine the host's speed drifts by up to ~40% over tens
of seconds, so each set-up and round is bracketed by a fixed reference loop
and scaled by its speed.  ``setup_s`` and ``wall_s`` are medians of the
scaled times; the raw fastest, median and slowest are printed and recorded
with the sample count.

``--trace 0`` reports the end-to-end metrics from untraced rounds.
``--trace 1`` alternates untraced and traced rounds and reports the per-layer
split, at reference speed, of the traced round that was fastest at that speed
(see ``tracing.py``); the gap between the scaled medians of the two kinds of
round is the tracing overhead.  Timing uses
``perf_counter`` and memory ``getrusage`` only: nothing outside this process
is traced or changed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record with provenance, check
names, round times and digests goes to ``perfbench/out/``.
"""

from __future__ import annotations

import os
import sys
import time

PROCESS_START = time.perf_counter()
# One thread in total: BLAS must not start its own pool (set before numpy loads).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import glob
import hashlib
import importlib
import importlib.metadata
import json
import platform
import resource
import statistics
from types import SimpleNamespace

import numpy as np

from reference import REFERENCE_S, ScaledClock
from tracing import LAYERS, Tracer
from workloads import WORKLOADS, Checks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
SETUPS = 5  # before the first round; one more follows every round

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, the end-to-end metric and workloads it should move).
PER_LAYER = {
    "rng.derive_calls": ("count", "wall_s on conjugate_rollout, meta_split; small on ensemble_rollout"),
    "rng.derive_s": ("s", "wall_s on conjugate_rollout, meta_split; small on ensemble_rollout"),
    "processes.step_calls": ("count", "wall_s on conjugate_rollout"),
    "processes.step_s": ("s", "wall_s on conjugate_rollout"),
    "processes.sample_latent_s": ("s", "wall_s on conjugate_rollout"),
    "predictors.init_s": ("s", "wall_s on meta_split"),
    "predictors.predict_s": ("s", "wall_s, steps_per_s on ensemble_rollout, meta_split"),
    "predictors.observe_s": ("s", "wall_s, steps_per_s on ensemble_rollout, meta_split"),
    "predictors.log_loss_s": ("s", "wall_s, steps_per_s on ensemble_rollout, meta_split"),
    "predictors.resample_events": ("count", "health, not speed: ensemble_rollout, meta_split"),
    "predictors.min_ess_frac": ("frac", "health, not speed: ensemble_rollout, meta_split"),
    "predictors.unique_particle_frac": ("frac", "health, not speed: ensemble_rollout, meta_split"),
    "estimators.rollout_self_s": ("s", "wall_s, peak_rss_mb on the rollout workloads"),
    "estimators.aggregate_s": ("s", "wall_s, peak_rss_mb on the rollout workloads"),
    "estimators.enum_s": ("s", "wall_s on exact_and_bounds"),
    "estimators.enum_sequences": ("count", "wall_s on exact_and_bounds"),
    "quantizers.width_reduce_s": ("s", "wall_s on exact_and_bounds"),
    "bounds.eval_calls": ("count", "wall_s on exact_and_bounds"),
    "bounds.eval_s": ("s", "wall_s on exact_and_bounds"),
    "info.linreg_mi_s": ("s", "wall_s on conjugate_rollout"),
    "harness.verify_s": ("s", "wall_s on the rollout workloads"),
    "harness.write_s": ("s", "wall_s on the rollout workloads"),
    "harness.write_bytes": ("bytes", "wall_s on the rollout workloads"),
    **{f"{layer}.self_s": ("s", "layer share of trace.wall_s") for layer in LAYERS},
    **{f"{layer}.calls": ("count", "layer share of trace.wall_s") for layer in LAYERS},
    "other.self_s": ("s", "benchmark code outside any layer span"),
    "trace.wall_s": ("s", "traced round wall time (layers + other)"),
    "trace.spans": ("count", "spans recorded per traced round"),
    "trace.overhead_frac": ("frac", "share of traced wall time added by tracing"),
}


def import_lab() -> SimpleNamespace:
    """(Re-)import infolab from this checkout's src/ and return its layer modules."""
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "infolab" or n.startswith("infolab.")]:
        del sys.modules[name]
    lab = SimpleNamespace(**{layer: importlib.import_module(f"infolab.{layer}") for layer in LAYERS})
    if not os.path.abspath(lab.rng.__file__).startswith(SRC + os.sep):
        raise ImportError(f"infolab imported from {lab.rng.__file__}, not from {SRC}")
    return lab


def setup(workload: str, seed: int, clock: ScaledClock):
    """Import infolab and build the workload's inputs: (lab, work, raw seconds, scaled seconds)."""
    def build():
        lab = import_lab()
        return lab, WORKLOADS[workload](lab, seed)
    (lab, work), raw, scaled = clock.time(build)
    gc.collect()  # free the previous import's module cycles, so they do not count in peak RSS
    return lab, work, raw, scaled


def sha256_file(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def run_round(work, out_dir: str, checks: Checks, clock: ScaledClock):
    """One round: ({file name: sha256}, bytes written, raw wall seconds, scaled seconds)."""
    def work_round():
        try:
            return work.run(out_dir, checks)
        except Exception as exc:  # the run goes on; the round counts as broken
            checks.check(f"round raised {type(exc).__name__}: {exc}", False, exact=True)
            return []
    paths, raw, scaled = clock.time(work_round)
    digests = {os.path.basename(p): sha256_file(p) for p in paths}
    return digests, sum(os.path.getsize(p) for p in paths), raw, scaled


def layer_metrics(tracer: Tracer, wall: float, scale: float, write_bytes: int) -> dict:
    """Per-layer metrics of one traced round; seconds are multiplied by `scale`
    (the round's reference-speed factor), so they add up to its scaled wall time."""
    times = tracer.self_times()

    def s(*names):
        return sum((times.get(n, (0, 0.0))[1] for n in names), 0.0)

    def c(*names):
        return sum(times.get(n, (0, 0.0))[0] for n in names)

    resamples, unique, min_ess = tracer.final_states()
    m = {
        "rng.derive_calls": c("rng.derive"),
        "rng.derive_s": s("rng.derive"),
        "processes.step_calls": c("processes.step", "processes.meta_step"),
        "processes.step_s": s("processes.step", "processes.meta_step"),
        "processes.sample_latent_s": s("processes.sample_latent"),
        "predictors.init_s": s("predictors.init_predictor"),
        "predictors.predict_s": s("predictors.predict"),
        "predictors.observe_s": s("predictors.observe"),
        "predictors.log_loss_s": s("predictors.log_loss"),
        "predictors.resample_events": resamples,
        "predictors.min_ess_frac": min_ess,
        "predictors.unique_particle_frac": unique,
        "estimators.rollout_self_s": s("estimators.run_replicate", "estimators.run_meta_replicate"),
        "estimators.aggregate_s": s("estimators.aggregate_error_curve"),
        "estimators.enum_s": s("estimators.exact_mi_enumeration", "estimators.per_step_info",
                               "estimators.misspec_decomposition"),
        "estimators.enum_sequences": tracer.enum_sequences,
        "quantizers.width_reduce_s": s("quantizers.width_reduction_distortion",
                                       "quantizers.width_reduce", "quantizers.multinomial_width_reduce"),
        "info.linreg_mi_s": s("info.linreg_mi_given_inputs"),
        "harness.verify_s": s("harness.verify_curve", "harness.bounds_for"),
        "harness.write_s": s("harness.write_scenario_outputs", "harness.write_sweep_output",
                             "harness.atomic_write_text"),
        "harness.write_bytes": write_bytes,
    }
    for layer in LAYERS:
        names = [n for n in times if n.startswith(layer + ".")]
        m[f"{layer}.self_s"] = s(*names)
        m[f"{layer}.calls"] = c(*names)
    m["bounds.eval_calls"] = m["bounds.calls"]
    m["bounds.eval_s"] = m["bounds.self_s"]
    m["other.self_s"] = wall - tracer.top_level_s()
    m["trace.wall_s"] = wall
    m["trace.spans"] = len(tracer.starts)
    return {k: v * scale if PER_LAYER[k][0] == "s" else v for k, v in m.items()}


def git_commit() -> str | None:
    """HEAD commit read from .git without running git (the checkout may have none)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def config_hash(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def provenance(seed: int, work) -> dict:
    source = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "infolab", "*.py"))):
        with open(path, "rb") as f:
            source.update(os.path.basename(path).encode() + b"\0" + f.read())
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "openblas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "config_sha256": [config_hash(p) for p in work.payload],
        "measurement": "process-local only: time.perf_counter(_ns) and resource.getrusage, "
                       "times scaled by a reference loop timed in this process; "
                       "no system-wide tracing and no machine settings changed",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")

    startup = time.perf_counter() - PROCESS_START
    clock = ScaledClock()
    setups = []  # (raw, scaled) seconds of every set-up
    try:
        for _ in range(SETUPS):
            lab, work, raw, scaled = setup(args.workload, args.seed, clock)
            setups.append((raw, scaled))
    except ImportError as exc:
        print(f"cannot import infolab from {SRC}: {exc}", file=sys.stderr)
        return 2

    out_dir = os.path.join(OUT, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    # The first round's operations are the run's: they depend on the seed alone,
    # not on how many rounds fit in --seconds.  Every later round must repeat
    # them exactly (same result digests, same failed checks), checked once per run.
    checks, tracer = Checks(), Tracer()
    walls = {False: [], True: []}  # (raw, scaled) seconds of every untraced / traced round
    fastest_traced, first, repeats, rounds = None, None, [], 0
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(walls[True]) < len(walls[False])
        round_checks = checks if first is None else Checks()
        if traced:
            tracer.install(lab)
        try:
            digests, written, raw, scaled = run_round(work, out_dir, round_checks, clock)
        finally:
            tracer.uninstall()
        rounds += 1
        walls[traced].append((raw, scaled))
        if traced and (fastest_traced is None or scaled < fastest_traced[0]):
            fastest_traced = (scaled, rounds, layer_metrics(tracer, raw, scaled / raw, written), tracer.spans())
        outcome = (digests, round_checks.attempted, round_checks.failed)
        if first is None:
            first = (outcome[0], outcome[1], list(outcome[2]))
        else:
            repeats.append(outcome == first)
        lab, work, raw, scaled = setup(args.workload, args.seed, clock)
        setups.append((raw, scaled))
        elapsed = time.perf_counter() - start
        longest = max(raw for raw, _ in walls[False] + walls[True])
        enough = walls[False] and (walls[True] or not args.trace)
        if enough and elapsed + longest > args.seconds:
            break
    first_digests = first[0]
    checks.check("determinism.rounds_identical", all(repeats), exact=True)

    def median_scaled(pairs):
        return statistics.median(scaled for _, scaled in pairs)

    if args.trace:
        _, traced_round, metrics, spans = fastest_traced
        traced_wall = median_scaled(walls[True])
        metrics["trace.overhead_frac"] = (traced_wall - median_scaled(walls[False])) / traced_wall
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        wall = median_scaled(walls[False])
        metrics = {
            "setup_s": median_scaled(setups),
            "wall_s": wall,
            "steps_per_s": work.steps / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    failed_frac = checks.failed_count / checks.attempted

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "steps_per_round": work.steps,
        "rounds": rounds,
        "reference_s": REFERENCE_S,
        "reference_samples_s": clock.samples,
        "round_wall_s": {kind: {"raw": [r for r, _ in walls[t]], "scaled": [s for _, s in walls[t]]}
                         for kind, t in (("untraced", False), ("traced", True))},
        "setup_s": {"raw": [r for r, _ in setups], "scaled": [s for _, s in setups]},
        "cold_setup_s": startup + setups[0][0],
        "attempted": checks.attempted,
        "failed": checks.failed_count,
        "rounds_compared_to_first": len(repeats),
        "failed_frac": failed_frac,
        "failed_checks": sorted({name for name, _ in checks.failed}),
        "broken_checks": sorted(set(checks.broken)),
        "result_sha256": first_digests,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "moves": {k: v for k, (_, v) in PER_LAYER.items()},
        "unwrapped": tracer.unwrapped,
        "provenance": provenance(args.seed, work),
    }
    if args.trace:
        tracer.write_spans(os.path.join(OUT, f"{args.workload}.spans.csv.gz"),
                           f"{tag}-round{traced_round}", spans)
    with open(os.path.join(OUT, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}  "
          f"steps/round {work.steps}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for kind, pairs in (("untraced rounds", walls[False]), ("traced rounds", walls[True]),
                        ("set-ups", setups)):
        if pairs:
            raw = [r for r, _ in pairs]
            print(f"  {kind}: n={len(pairs)} median {median_scaled(pairs):.4g} s at reference speed; "
                  f"raw fastest {min(raw):.4g} s, median {statistics.median(raw):.4g} s, "
                  f"slowest {max(raw):.4g} s")
    print(f"  failed_frac = {failed_frac:.6g} frac ({checks.failed_count} of {checks.attempted} operations)")
    for name in record["failed_checks"]:
        print(f"  FAILED CHECK {name}")
    for name, digest in sorted(first_digests.items()):
        print(f"  sha256 {digest}  {name}")
    print(json.dumps({
        "correct": not checks.broken,
        "attempted": checks.attempted,
        "failed": checks.failed_count,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
