"""Command-line interface: simulate, bounds, verify, sweep-scaling, selftest."""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, replace
from typing import Optional

import click
import numpy as np

from . import bounds as bnd
from . import harness
from .estimators import EnumerationModel, exact_mi_enumeration, linreg_mi_mc
from .rng import RngStream, SeedSpec


@click.group()
def main() -> None:
    """Numerical laboratory for Bayesian predictive log-loss and its bounds."""


def _warn_if_unchecked(config: harness.ScenarioConfig) -> None:
    if not config.bound_ids:
        click.echo(
            f"warning: scenario {config.scenario_id} names no bounds; "
            "nothing to verify (trivial pass)"
        )


@main.command()
@click.argument("config_path", type=click.Path(exists=True))
@click.option("--seed", type=int, default=None, help="Override the config master seed.")
@click.option("--out", type=click.Path(file_okay=False), default=".", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
def simulate(config_path: str, seed: Optional[int], out: str, fmt: str) -> None:
    """Run one scenario config and write curve/bound/verification files."""
    try:
        config = harness.load_config(config_path)
        if seed is not None:
            config = replace(config, master_seed=seed)
    except (OSError, ValueError) as exc:
        raise click.ClickException(f"{config_path}: {exc}")
    _warn_if_unchecked(config)
    result = harness.run_scenario(config)
    paths = harness.write_scenario_outputs(result, out, fmt)
    for p in paths:
        click.echo(p)
    status = "pass" if result.verification.passed else "FAIL"
    click.echo(f"{config.scenario_id}: {status}")
    if not result.verification.passed:
        sys.exit(1)


@main.command()
@click.argument("bound_id")
@click.option("--params", required=True, help="JSON dict of bound parameters.")
@click.option("--out", type=click.Path(file_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
def bounds(
    bound_id: str,
    params: str,
    out: Optional[str],
    fmt: str,
) -> None:
    """Evaluate a closed-form bound family at the given parameters."""
    try:
        values = json.loads(params)
    except json.JSONDecodeError as exc:
        raise click.ClickException(f"--params is not valid JSON: {exc}")
    if not isinstance(values, dict):
        raise click.ClickException("--params must be a JSON object of bound parameters")
    try:
        reports = bnd.evaluate_bound(bound_id, values)
    except KeyError as exc:
        raise click.ClickException(exc.args[0])
    except (TypeError, ValueError) as exc:
        raise click.ClickException(f"bound '{bound_id}': {exc}")
    if fmt == "json":
        text = json.dumps([asdict(r) for r in reports], indent=2)
    else:
        text = harness.bounds_csv(reports)
    if out:
        path = os.path.join(out, f"bound_{bound_id}.{fmt}")
        harness.atomic_write_text(path, text)
        click.echo(path)
    else:
        click.echo(text, nl=False)


@main.command()
@click.argument("manifest")
@click.option("--seed", type=int, default=20240817, show_default=True)
@click.option("--out", type=click.Path(file_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
def verify(manifest: str, seed: int, out: Optional[str], fmt: str) -> None:
    """Run a manifest of scenarios; exit nonzero if any bound check fails."""
    try:
        configs = harness.load_manifest(manifest, master_seed=seed)
    except (OSError, ValueError) as exc:
        raise click.ClickException(f"{manifest}: {exc}")
    if not configs:
        click.echo("warning: empty manifest; nothing to verify (trivial pass)")
        return
    for config in configs:
        _warn_if_unchecked(config)
    ok, results = harness.verify_suite(configs)
    for result in results:
        if out:
            harness.write_scenario_outputs(result, out, fmt)
        for row in result.verification.rows:
            status = "pass" if row.passed else "FAIL"
            click.echo(
                f"{row.scenario_id} T={row.horizon} {row.bound_id}/{row.side}: "
                f"empirical={row.empirical:.6g} bound={row.bound:.6g} "
                f"margin={row.margin:.3g} {status}"
            )
    click.echo("suite: " + ("pass" if ok else "FAIL"))
    if not ok:
        sys.exit(1)


@main.command("sweep-scaling")
@click.option("--d", "d", type=int, required=True)
@click.option("--k", "--K", "k", type=float, required=True)
@click.option("--c-min", type=float, required=True)
@click.option("--c-max", type=float, required=True)
@click.option("--points", type=int, default=9, show_default=True)
@click.option("--out", type=click.Path(file_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
def sweep_scaling_cmd(
    d: int,
    k: float,
    c_min: float,
    c_max: float,
    points: int,
    out: Optional[str],
    fmt: str,
) -> None:
    """Compute-optimal width sweep over a FLOP-budget grid."""
    try:
        sweep = harness.sweep_scaling(d, k, c_min, c_max, points)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    for c, n, t, v in zip(sweep.c_values, sweep.n_star, sweep.t_star, sweep.bound_value):
        click.echo(f"C={c:.3g} n*={int(n)} T*={t:.6g} bound={v:.6g}")
    click.echo(f"slope={sweep.slope:.4f} +- {sweep.slope_half_width:.4f}")
    if out:
        click.echo(harness.write_sweep_output(sweep, out, fmt))


@main.command()
@click.option("--seed", type=int, default=7, show_default=True)
def selftest(seed: int) -> None:
    """Fast end-to-end sanity checks; exit nonzero on failure."""
    failures = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        click.echo(f"{name}: {'pass' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
        if not ok:
            failures.append(name)

    try:
        stream = RngStream(SeedSpec(seed, (("selftest", 0),)))
    except ValueError as exc:
        raise click.ClickException(str(exc))

    # Exact information identity on a random model, 3^64 label sequences.
    gen = np.random.default_rng(seed)
    prior = gen.dirichlet(np.ones(4))
    cond = gen.dirichlet(np.ones(3), size=4)
    mi, gap = exact_mi_enumeration(EnumerationModel(prior=prior, cond=cond), T=64)
    check("information-identity", abs(mi - gap) <= 1e-9, f"|diff|={abs(mi - gap):.2e}")

    # Linear-model MI sits inside the closed-form sandwich.
    est, se = linreg_mi_mc(5, 0.25, 100, 200, stream)
    lower = bnd.linreg_error_lower(5, 0.25, 100).value
    upper = bnd.linreg_error_upper(5, 0.25, 100).value
    per_step = est / 100
    check(
        "linreg-sandwich",
        lower - 3 * se / 100 <= per_step <= upper + 3 * se / 100,
        f"{lower:.4g} <= {per_step:.4g} <= {upper:.4g}",
    )

    # Scaling sweep: square-root growth up to log corrections, plus the
    # analytic cap on the optimal width.
    sweep = harness.sweep_scaling(4, 4.0, 1e6, 1e10, 9)
    cap_ok = all(
        n * 4 <= math.sqrt(3.0 * c) for n, c in zip(sweep.n_star, sweep.c_values)
    )
    check(
        "scaling-sweep",
        0.35 <= sweep.slope <= 0.55 and cap_ok,
        f"slope={sweep.slope:.4f} cap={'ok' if cap_ok else 'violated'}",
    )

    # Bound evaluations are finite and nonnegative on a smoke grid.
    smoke = [
        bnd.logreg_error_upper(3, 200).value,
        bnd.deepnet_error_upper(2, 3, 3, 1.0, 100).value,
        bnd.ark_error_upper(2, 2, 200).value,
        bnd.dirichlet_error_upper(3, 2.0, 1.0, 100).value,
        bnd.linrep_error_upper(6, 2, 8, 64).value,
        bnd.icl_error_upper(8, 4, 2, 4, 2.0, 16, 32, 64).value,
    ]
    check(
        "bound-smoke",
        all(math.isfinite(v) and v >= 0 for v in smoke),
        f"min={min(smoke):.4g}",
    )

    if failures:
        sys.exit(1)


if __name__ == "__main__":
    main()
