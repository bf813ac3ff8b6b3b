"""Acceptance suite: end-to-end checks of every headline claim at desk scale.

Each test prints one summary line of the form

    [criterion NN] <name>: PASS|FAIL (<detail>)

before asserting, so the full scoreboard is visible even when a criterion
fails.  Tolerances are 3 standard errors for Monte-Carlo quantities and 1e-9
for exact identities.
"""

import math
import time

import numpy as np
import pytest

from infolab import bounds as bnd
from infolab import harness
from infolab import quantizers as qt
from infolab.estimators import (
    EnumerationModel,
    aggregate_error_curve,
    exact_mi_enumeration,
    linreg_mi_mc,
    meta_error_split,
    misspec_decomposition,
    per_step_info,
    run_replicate,
)
from infolab.harness import run_replicates
from infolab.info import dirmult_expected_unique, entropy_pmf
from infolab.predictors import (
    ConjugateLinReg,
    MisspecifiedConjugate,
    PriorEnsemble,
)
from infolab.processes import (
    DeepNet,
    DirichletNet,
    LinRep,
    LinReg,
    LogReg,
    irreducible_rate,
)
from infolab.rng import RngStream, SeedSpec

# The whole file is slow (minutes); `pytest -m "not slow"` is the inner loop.
pytestmark = pytest.mark.slow


def _line(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {name}: {tag}{suffix}")


def _stream(seed):
    return RngStream(SeedSpec(seed, (("acceptance", 0),)))


# ---------------------------------------------------------------------------


def test_criterion_01_information_identity():
    gen = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for _ in range(25):
        H = int(gen.integers(2, 9))
        A = int(gen.integers(2, 5))
        T = int(gen.integers(2, 9 if A == 2 else (7 if A == 3 else 7)))
        while A**T > 4096:
            T -= 1
        prior = gen.dirichlet(np.ones(H))
        cond = gen.dirichlet(np.ones(A), size=H)
        mi, gap = exact_mi_enumeration(EnumerationModel(prior=prior, cond=cond), T)
        worst = max(worst, abs(mi - gap))
        count += 1
    elapsed = time.perf_counter() - start
    ok = count >= 25 and worst <= 1e-9 and elapsed < 5.0
    _line(1, "cumulative-loss equals mutual information", ok,
          f"{count} instances, max |diff|={worst:.2e}, {elapsed:.2f}s")
    assert count >= 25
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_02_linreg_sandwich_and_mi_agreement():
    d, s2 = 5, 0.25
    horizons = [20, 100, 500]
    spec = LinReg(d=d, noise_var=s2)
    kind = ConjugateLinReg(
        prior_mean=np.zeros(d), prior_cov=spec.prior_var * np.eye(d), noise_var=s2
    )
    start = time.perf_counter()
    records = run_replicates(spec, kind, 500, 2000, _stream(102))
    curve = aggregate_error_curve(records, horizons)
    sandwich_ok, mi_ok, details = True, True, []
    mi_stream = _stream(1022)
    for i, T in enumerate(horizons):
        emp, se = float(curve.mean_error[i]), float(curve.std_err[i])
        lo = bnd.linreg_error_lower(d, s2, T).value
        hi = bnd.linreg_error_upper(d, s2, T).value
        sandwich_ok &= (lo - 3 * se <= emp <= hi + 3 * se)
        mi, mi_se = linreg_mi_mc(d, s2, T, 400, mi_stream.derive(("T", T)))
        tol = 3 * math.sqrt(se**2 + (mi_se / T) ** 2)
        mi_ok &= abs(emp - mi / T) <= tol
        details.append(f"T={T}: {lo:.4f}<={emp:.4f}<={hi:.4f}, |emp-MI/T|={abs(emp - mi / T):.2e}")
    elapsed = time.perf_counter() - start
    ok = sandwich_ok and mi_ok and elapsed < 120.0
    _line(2, "conjugate loss inside the linreg sandwich and equal to MI/T", ok,
          "; ".join(details) + f", {elapsed:.0f}s")
    assert sandwich_ok
    assert mi_ok
    assert elapsed < 120.0


def test_criterion_03_logreg_ensemble_bound():
    spec = LogReg(d=3)
    start = time.perf_counter()
    records = run_replicates(spec, PriorEnsemble(size=4096), 200, 500, _stream(103))
    curve = aggregate_error_curve(records, [200])
    emp, se = float(curve.mean_error[0]), float(curve.std_err[0])
    bound = bnd.logreg_error_upper(3, 200).value
    elapsed = time.perf_counter() - start
    ok = emp <= bound + 3 * se and elapsed < 300.0
    _line(3, "logistic ensemble loss below closed-form bound", ok,
          f"emp={emp:.4f} bound={bound:.4f} se={se:.4f}, {elapsed:.0f}s")
    assert emp <= bound + 3 * se
    assert elapsed < 300.0


def test_criterion_04_deepnet_ensemble_bound():
    spec = DeepNet(d=2, width=3, depth=3, noise_var=1.0)
    start = time.perf_counter()
    records = run_replicates(spec, PriorEnsemble(size=4096), 100, 300, _stream(104))
    curve = aggregate_error_curve(records, [100])
    emp, se = float(curve.mean_error[0]), float(curve.std_err[0])
    bound = bnd.deepnet_error_upper(2, 3, 3, 1.0, 100).value
    elapsed = time.perf_counter() - start
    ok = emp <= bound + 3 * se and elapsed < 600.0
    _line(4, "deep-net ensemble loss below parameter-count bound", ok,
          f"emp={emp:.4f} bound={bound:.4f} se={se:.4f}, {elapsed:.0f}s")
    assert emp <= bound + 3 * se
    assert elapsed < 600.0


def test_criterion_05_ark_ensemble_bound():
    spec = harness.parse_process({"kind": "ark", "d": 2, "context": 2})
    start = time.perf_counter()
    records = run_replicates(spec, PriorEnsemble(size=4096), 200, 500, _stream(105))
    curve = aggregate_error_curve(records, [200])
    emp, se = float(curve.mean_error[0]), float(curve.std_err[0])
    bound = bnd.ark_error_upper(2, 2, 200).value
    elapsed = time.perf_counter() - start
    ok = emp <= bound + 3 * se and elapsed < 300.0
    _line(5, "binary autoregressive ensemble loss below bound", ok,
          f"emp={emp:.4f} bound={bound:.4f} se={se:.4f}, {elapsed:.0f}s")
    assert emp <= bound + 3 * se
    assert elapsed < 300.0


def test_criterion_06_misspecification_decomposition():
    # exact route: finite model, residual at machine precision and the
    # misspecification term controlled by the prior KL
    gen = np.random.default_rng(106)
    exact_ok = True
    worst_res = 0.0
    for _ in range(5):
        prior = gen.dirichlet(np.ones(3))
        cond = gen.dirichlet(np.ones(2), size=3)
        q = gen.dirichlet(np.ones(3))
        rep = misspec_decomposition(EnumerationModel(prior=prior, cond=cond), q, 4)
        worst_res = max(worst_res, abs(rep.residual))
        exact_ok &= abs(rep.residual) <= 1e-9
        exact_ok &= rep.misspecification_term <= rep.prior_kl_bound + 1e-12
    # Monte-Carlo route: mean-shifted Gaussian prior, excess below |mu|^2/(2T)
    d, s2 = 5, 0.25
    spec = LinReg(d=d, noise_var=s2, prior_var=1.0)
    mu = np.ones(d) / math.sqrt(d)
    true_kind = ConjugateLinReg(np.zeros(d), np.eye(d), s2)
    mis_kind = MisspecifiedConjugate(mu, np.eye(d), s2)
    reps = 2000
    stream = _stream(1062)
    diffs = np.empty((reps, 100))
    for i in range(reps):
        rec_true = run_replicate(spec, true_kind, 100, stream.derive(("rep", i)))
        rec_mis = run_replicate(spec, mis_kind, 100, stream.derive(("rep", i)))
        diffs[i] = rec_mis.losses - rec_true.losses
    mc_ok = True
    details = [f"max residual={worst_res:.1e}"]
    for T in (10, 100):
        per = np.cumsum(diffs, axis=1)[:, T - 1] / T
        mean = float(np.mean(per))
        se = float(np.std(per, ddof=1) / math.sqrt(reps))
        bound = bnd.misspec_mean_upper(1.0, T).value
        mc_ok &= mean <= bound + 3 * se
        details.append(f"T={T}: excess={mean:.5f} bound={bound:.5f} se={se:.5f}")
    ok = exact_ok and mc_ok
    _line(6, "misspecification decomposition exact and mean-shift bound", ok,
          "; ".join(details))
    assert exact_ok
    assert mc_ok


def test_criterion_07_missing_feature_bound():
    d, s2, T = 4, 1.0, 2000
    spec = LinReg(d=d, noise_var=s2)
    diag = np.full(d, spec.prior_var)
    diag[-1] = 0.0
    kind = MisspecifiedConjugate(np.zeros(d), np.diag(diag), s2)
    start = time.perf_counter()
    records = run_replicates(spec, kind, T, 1000, _stream(107))
    curve = aggregate_error_curve(records, [T])
    emp, se = float(curve.mean_error[0]), float(curve.std_err[0])
    rep, floor = bnd.missing_feature_upper(d, s2, T)
    elapsed = time.perf_counter() - start
    ok = emp <= rep.value + 3 * se
    _line(7, "missing-feature loss below bound with persistent floor", ok,
          f"emp={emp:.4f} bound={rep.value:.4f} floor={floor:.4f} se={se:.4f}, {elapsed:.0f}s")
    assert ok


def test_criterion_08_dirichlet_multinomial_facts():
    gen = np.random.default_rng(108)
    mc_ok = True
    details = []
    for n, K, N in ((2, 2.0, 4), (5, 1.0, 8), (10, 2.0, 16), (3, 4.0, 8)):
        p = gen.dirichlet(np.full(N, K / N), size=10**5)
        counts = gen.multinomial(n, p)
        uniq = (counts > 0).sum(axis=1)
        mean = float(np.mean(uniq))
        se = float(np.std(uniq, ddof=1) / math.sqrt(len(uniq)))
        ref = dirmult_expected_unique(n, K, N)
        mc_ok &= abs(mean - ref) <= 3 * se
        details.append(f"(n={n},K={K:g},N={N}): mc={mean:.4f} exact={ref:.4f}")
    slack_ok = True
    for n in range(1, 51):
        for K in (1.0, 2.0, 4.0, 8.0):
            for N in (4, 16, 64, 256):
                val = dirmult_expected_unique(n, K, N)
                slack_ok &= val <= K * math.log1p(n / K) + 1.0 + 1e-12
    counter = dirmult_expected_unique(2, 2.0, 4)
    counter_ok = abs(counter - 1.5) <= 1e-12 and counter > 2.0 * math.log(2.0)
    ok = mc_ok and slack_ok and counter_ok
    _line(8, "expected-unique formula, +1 slack bound, and counterexample", ok,
          "; ".join(details) + f"; counterexample 1.5 > 2 ln 2 = {2 * math.log(2):.4f}")
    assert mc_ok
    assert slack_ok
    assert counter_ok


def test_criterion_09_width_reduction_bounds():
    start = time.perf_counter()
    spec3 = DirichletNet(d=3, scale=2.0, noise_var=1.0)
    stream = _stream(109)
    raw_ok = True
    details = []
    for m in (8, 32, 128):
        mean, se = qt.width_reduction_distortion(spec3, m, stream.derive(("m", m)))
        raw_ok &= mean <= spec3.scale / m + 3 * se
        details.append(f"m={m}: gap={mean:.4f} bound={spec3.scale / m:.4f}")
    d, K, n, eps = 2, 2.0, 32, 0.3
    spec2 = DirichletNet(d=d, scale=K, noise_var=1.0)
    mean, se = qt.width_reduction_distortion(spec2, n, stream.derive(("snap", 0)), eps=eps)
    snap_bound = 3.0 * K * (1.0 + d * eps**2) / n
    snap_ok = mean <= snap_bound + 3 * se
    elapsed = time.perf_counter() - start
    ok = raw_ok and snap_ok and elapsed < 300.0
    _line(9, "width reduction and eps-snapped distortion bounds", ok,
          "; ".join(details) + f"; snapped gap={mean:.4f} bound={snap_bound:.4f}, {elapsed:.0f}s")
    assert raw_ok
    assert snap_ok
    assert elapsed < 300.0


def test_criterion_10_scaling_slope_and_cap():
    start = time.perf_counter()
    sweep = harness.sweep_scaling(4, 4.0, 1e6, 1e10, 9)
    cap_ok = all(
        n * 4 <= math.sqrt(3.0 * c) for n, c in zip(sweep.n_star, sweep.c_values)
    )
    slope_ok = abs(sweep.slope - 0.5) <= 0.05
    elapsed = time.perf_counter() - start
    ok = slope_ok and cap_ok and elapsed < 10.0
    _line(10, "compute-optimal width: slope 0.5 +- 0.05 and analytic cap", ok,
          f"slope={sweep.slope:.4f}, cap={'ok' if cap_ok else 'violated'}, {elapsed:.1f}s")
    assert cap_ok
    assert elapsed < 10.0
    # the fitted slope carries an intrinsic logarithmic correction of about
    # 1/ln(C) at these budgets, so 0.5 is approached only as C grows without
    # bound; asserted at the stated tolerance regardless
    assert slope_ok, (
        f"slope {sweep.slope:.4f} outside 0.5 +- 0.05; the exact integer "
        "optimizer follows n* ~ sqrt(C) only up to a log correction, which at "
        "C in [1e6, 1e10] shifts the fitted slope to about 0.44"
    )


def test_criterion_11_invariant_suites():
    # representative randomized re-run of the property invariants that the
    # dedicated unit suites (test_info, test_processes, test_estimators)
    # cover in depth
    gen = np.random.default_rng(111)
    ok = True
    for _ in range(100):
        joint = gen.dirichlet(np.ones(12)).reshape(3, 4)
        px, py = joint.sum(1), joint.sum(0)
        mi = entropy_pmf(px) + entropy_pmf(py) - entropy_pmf(joint.ravel())
        ok &= mi >= -1e-12  # nonnegativity
        ok &= entropy_pmf(joint.ravel()) <= entropy_pmf(px) + entropy_pmf(py) + 1e-12
    for _ in range(20):
        prior = gen.dirichlet(np.ones(4))
        cond = gen.dirichlet(np.ones(3), size=4)
        steps = per_step_info(EnumerationModel(prior=prior, cond=cond), 4)
        ok &= bool(np.all(np.diff(steps) <= 1e-12))  # iid info is nonincreasing
        mi, _ = exact_mi_enumeration(EnumerationModel(prior=prior, cond=cond), 4)
        ok &= abs(float(np.sum(steps)) - mi) <= 1e-9  # chain rule
    _line(11, "randomized invariant spot checks (full suites in unit tests)", ok)
    assert ok


def test_criterion_12_meta_learning_split_and_icl_bound():
    spec = LinRep(d=6, r=2, tasks=8)
    start = time.perf_counter()
    split = meta_error_split(spec, 64, 200, _stream(112), ensemble_size=4096)
    closure = abs(split.total[0] - split.intra[0] - split.meta[0])
    intra_bound = bnd.linrep_intra_term(2, 64)
    total_bound = bnd.linrep_error_upper(6, 2, 8, 64).value
    closure_ok = closure <= 1e-12 + 3 * math.sqrt(
        split.total[1] ** 2 + split.intra[1] ** 2
    )
    intra_ok = split.intra[0] <= intra_bound + 3 * split.intra[1]
    total_ok = split.total[0] <= total_bound + 3 * split.total[1]
    icl = bnd.icl_error_upper(8, 4, 2, 4, 2.0, 16, 32, 64)
    icl_ok = icl.valid and math.isfinite(icl.value) and icl.value > math.log(16) / 64
    elapsed = time.perf_counter() - start
    ok = closure_ok and intra_ok and total_ok and icl_ok
    _line(12, "meta split closure, term bounds, and in-context bound", ok,
          f"total={split.total[0]:.4f}<= {total_bound:.4f}, "
          f"intra={split.intra[0]:.4f}<= {intra_bound:.4f}, "
          f"meta={split.meta[0]:.4f}, icl bound={icl.value:.4f}, {elapsed:.0f}s")
    assert closure_ok
    assert intra_ok
    assert total_ok
    assert icl_ok
