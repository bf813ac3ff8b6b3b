"""Tests for closed-form bound evaluation: spot values, domains, and shape."""

import math
import re

import numpy as np
import pytest

from infolab import bounds as bnd


# ---------------------------------------------------------------------------
# estimation-error bounds: spot values and validity domains
# ---------------------------------------------------------------------------


def test_linreg_lower_requires_d_gt_2():
    rep = bnd.linreg_error_lower(2, 1.0, 10)
    assert not rep.valid and rep.value is None
    assert bnd.linreg_error_lower(3, 1.0, 10).valid


def test_linreg_upper_clamp_value():
    # T <= sigma^2 d clamps the first term; remainder is (1/2T) ln(1 + d/T)
    rep = bnd.linreg_error_upper(5, 1.0, 5)
    assert rep.value == pytest.approx(0.1 * math.log(2), abs=1e-12)


def test_logreg_spot_value():
    rep = bnd.logreg_error_upper(4, 16)
    assert rep.value == pytest.approx(0.125 * (1 + math.log(2)), abs=1e-12)


def test_deepnet_param_count():
    assert bnd._deepnet_param_count(4, 8, 2) == 8 + 32  # L=2: N + dN
    assert bnd._deepnet_param_count(2, 3, 3) == 9 + 3 + 6


def test_ark_spot_value_and_k1_matches_logreg():
    rep = bnd.ark_error_upper(2, 2, 16)
    assert rep.value == pytest.approx((4 / 32) * (1 + math.log(2)), abs=1e-12)
    for d in (1, 2, 5):
        for T in (8, 64, 512):
            assert bnd.ark_error_upper(d, 1, T).value == pytest.approx(
                bnd.logreg_error_upper(d, T).value, abs=1e-14
            )


def test_transformer_bound_nonincreasing_in_T():
    vals = [
        bnd.transformer_error_upper(6, 4, 2, 3, T).value for T in (4, 8, 32, 128, 1024)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_linrep_bound_limits_and_monotonicity():
    d, r, T = 6, 2, 64
    huge_m = bnd.linrep_meta_term(d, r, 10**9, T)
    intra = bnd.linrep_intra_term(r, T)
    assert huge_m < 1e-3 * intra
    vals = [bnd.linrep_error_upper(d, r, M, T).value for M in (2, 4, 8, 16, 32)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_icl_third_term_and_domain():
    rep = bnd.icl_error_upper(8, 4, 2, 4, 2.0, 16, 32, 64)
    t3 = math.log(16) / 64
    rm = 4 * max(4, 8)
    lnm = math.log1p(32 / 2.0)
    t1 = rm * 2.0 * 4 * lnm * math.log(8 * 4 * math.e * (1 + 16 * 4)) / (32 * 64)
    t2 = rm * 2.0 * 2 * lnm * math.log(2 * 4 * 32 * 64**2 / 2) / (32 * 64)
    assert rep.value == pytest.approx(t1 + t2 + t3, rel=1e-12)
    assert not bnd.icl_error_upper(8, 4, 2, 4, 20.0, 16, 32, 64).valid


def test_misspec_bounds():
    assert bnd.misspec_mean_upper(0.0, 5).value == 0.0
    assert bnd.misspec_mean_upper(2.0, 4).value == pytest.approx(0.25)
    rep, floor = bnd.missing_feature_upper(4, 1.0, 10**9)
    assert floor == pytest.approx(1 / 8)
    assert rep.value == pytest.approx(floor, rel=1e-6)
    bad, _ = bnd.missing_feature_upper(1, 1.0, 10)
    assert not bad.valid


def test_lower_below_upper_when_samples_dominate_noise():
    # consistency holds once T >= 8 * noise_var * d; closer to the clamp
    # threshold the upper formula goes vacuous while the Lambert-W lower
    # bound stays positive, so the pair is only meaningful in this regime
    for d in (3, 5, 9, 17, 33, 64):
        for s2 in (0.1, 0.25, 1.0, 4.0):
            for T in np.geomspace(1, 10**5, 11).astype(int):
                if T < 8 * s2 * d:
                    continue
                lo = bnd.linreg_error_lower(d, s2, int(T)).value
                hi = bnd.linreg_error_upper(d, s2, int(T)).value
                assert lo <= hi + 1e-12


def test_clamped_upper_goes_vacuous_in_high_noise_regime():
    # documented artifact: at d=64, noise_var=4, T=100 the clamped upper
    # evaluates below both the lower bound and the Monte-Carlo loss, so the
    # formula pair must not be trusted for T below ~8 * noise_var * d
    lo = bnd.linreg_error_lower(64, 4.0, 100).value
    hi = bnd.linreg_error_upper(64, 4.0, 100).value
    assert hi < lo


def test_bounds_nonincreasing_in_T_where_unclamped():
    grids = {
        lambda T: bnd.logreg_error_upper(5, T).value: None,
        lambda T: bnd.deepnet_error_upper(3, 4, 3, 1.0, T).value: None,
        lambda T: bnd.ark_error_upper(2, 3, T).value: None,
    }
    for f in grids:
        vals = [f(T) for T in (8, 32, 128, 512, 2048)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_bound_report_validation():
    with pytest.raises(ValueError):
        bnd.BoundReport("x", "sideways", {}, 1.0, True)
    with pytest.raises(ValueError):
        bnd.BoundReport("x", "upper", {}, -1.0, True)
    with pytest.raises(ValueError):
        bnd.BoundReport("x", "upper", {}, math.nan, True)


# ---------------------------------------------------------------------------
# rate-distortion bounds
# ---------------------------------------------------------------------------


def test_linreg_rd_upper_zero_rate_threshold():
    s2 = 0.25
    thr = 0.5 * math.log1p(1.0 / s2)
    assert bnd.linreg_rd_upper(5, s2, thr) == 0.0
    assert bnd.linreg_rd_upper(5, s2, thr * 1.01) == 0.0
    assert bnd.linreg_rd_upper(5, s2, thr * 0.5) > 0.0
    with pytest.raises(ValueError):
        bnd.linreg_rd_upper(5, s2, 0.0)


def test_linreg_rd_lower_domain():
    with pytest.raises(ValueError):
        bnd.linreg_rd_lower(2, 1.0, 0.1)
    assert bnd.linreg_rd_lower(5, 0.25, 1e-3) > 0


def test_rd_curves_nonincreasing_in_eps():
    eps = np.geomspace(1e-5, 5.0, 50)
    for f in (
        lambda e: bnd.linreg_rd_upper(5, 0.25, e),
        lambda e: bnd.linreg_rd_lower(5, 0.25, e),
        lambda e: bnd.logreg_rd_upper(4, e),
        lambda e: bnd.ark_rd_upper(2, 2, e),
        lambda e: bnd.deepnet_rd_upper(2, 3, 3, 1.0, e),
    ):
        vals = [f(float(e)) for e in eps]
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= 1e-6 or vals[-1] < vals[0]


def test_logreg_rd_reproduces_error_bound_at_analytic_eps():
    d, T = 4, 128
    eps = d / (2.0 * T)
    rate = bnd.logreg_rd_upper(d, eps)
    combined = rate / T + eps
    target = bnd.logreg_error_upper(d, T).value
    assert combined == pytest.approx(target, rel=1e-12)


def test_linreg_rd_sandwich_consistency():
    d, s2, T = 5, 0.25, 100
    upper = bnd.linreg_error_upper(d, s2, T).value
    val, eps_star = bnd.rd_sandwich_upper("linreg_upper", {"d": d, "noise_var": s2}, T)
    # the grid infimum is a looser upper bound than the direct formula, but
    # only by a modest constant, and its argmin sits near d/(2T)
    assert upper <= val <= 1.5 * upper
    assert 0.3 * d / (2 * T) <= eps_star <= 3 * d / (2 * T)
    low = bnd.rd_sandwich_lower("linreg_lower", {"d": d, "noise_var": s2}, T)
    direct_low = bnd.linreg_error_lower(d, s2, T).value
    assert 0.9 * direct_low <= low <= direct_low * (1 + 1e-9)
    assert low <= val


def test_rd_dispatch_kinds():
    params = {
        "linreg_upper": {"d": 5, "noise_var": 0.25},
        "linreg_lower": {"d": 5, "noise_var": 0.25},
        "logreg": {"d": 3},
        "deepnet": {"d": 2, "width": 3, "depth": 3, "noise_var": 1.0},
        "dirichlet": {"d": 3, "K": 2.0, "noise_var": 1.0},
        "ark": {"d": 2, "K": 2},
        "transformer": {"d": 6, "r": 4, "L": 2, "K": 3, "T": 64},
        "linrep_meta": {"d": 6, "r": 2, "M": 8, "T": 64},
        "linrep_intra": {"r": 2},
        "icl": {"d": 6, "r": 4, "L": 2, "K": 3, "R": 2.0, "N": 8, "M": 16, "T": 64},
    }
    for kind, p in params.items():
        [report] = bnd.evaluate_bound(f"rd_{kind}", {**p, "eps": 0.01})
        assert math.isfinite(report.value) and report.value >= 0
    with pytest.raises(KeyError, match="unknown bound_id: rd_nope"):
        bnd.evaluate_bound("rd_nope", {"eps": 0.1})


def test_eps_grid_endpoints():
    grid = bnd.EPS_GRID
    assert len(grid) == 7 * 64 + 1 and np.all(np.diff(grid) > 0)
    assert grid[0] == pytest.approx(1e-6) and grid[-1] == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# compute-optimal scaling
# ---------------------------------------------------------------------------


def test_scaling_bound_domain_and_limits():
    assert not bnd.scaling_bound_eval(4, 4.0, 2, 100.0).valid
    assert not bnd.scaling_bound_eval(4, 1.0, 10, 100.0).valid
    # T -> infinity: bound approaches the 3K/n misspecification floor
    v = bnd.scaling_bound_eval(4, 4.0, 100, 10.0**12).value
    assert v == pytest.approx(3 * 4.0 / 100, rel=1e-3)
    huge = bnd.scaling_bound_eval(4, 4.0, 10**9, 10.0**12).value
    assert math.isfinite(huge) and huge > 0


def test_scaling_bound_unimodal_along_budget():
    d, K, C = 4, 4.0, 10.0**8
    ns = np.arange(3, int(C / (3 * d)))[:20000]
    vals = np.array([bnd.scaling_bound_eval(d, K, int(n), C / (d * n)).value for n in ns])
    i_min = int(np.argmin(vals))
    assert 0 < i_min < len(vals) - 1
    assert np.all(np.diff(vals[: i_min + 1]) <= 1e-12)
    assert np.all(np.diff(vals[i_min:]) >= -1e-12)


def test_scaling_optimal_width_matches_brute_force():
    d, K, C = 4, 4.0, 10.0**7
    n_star, t_star, value = bnd.scaling_optimal_width(d, K, C)
    # scan a window that safely brackets the optimum (cap is sqrt(3C)/d ~ 1369)
    ns = np.arange(3, 20001)
    vals = np.array([bnd.scaling_bound_eval(d, K, int(n), C / (d * n)).value for n in ns])
    assert n_star == int(ns[np.argmin(vals)])
    assert value == pytest.approx(float(np.min(vals)), rel=1e-12)
    assert t_star == pytest.approx(C / (d * n_star))


def test_scaling_optimal_width_cap_and_monotonicity():
    K = 4.0
    prev = None
    for C in np.geomspace(1e6, 1e10, 9):
        n_star, _, _ = bnd.scaling_optimal_width(4, K, float(C))
        assert n_star * 4 <= math.sqrt(3.0 * C)
        if prev is not None:
            assert n_star >= prev
        prev = n_star
    # doubling d at fixed C shrinks the optimal width
    n4, _, _ = bnd.scaling_optimal_width(4, K, 1e8)
    n8, _, _ = bnd.scaling_optimal_width(8, K, 1e8)
    assert n8 < n4
    with pytest.raises(ValueError):
        bnd.scaling_optimal_width(100, K, 500.0)


# ---------------------------------------------------------------------------
# name dispatch
# ---------------------------------------------------------------------------


def test_evaluate_bound_dispatch():
    reps = bnd.evaluate_bound("linreg_error", {"d": 5, "noise_var": 0.25, "T": 100})
    assert {r.side for r in reps} == {"lower", "upper"}
    rd = bnd.evaluate_bound("rd_logreg", {"d": 3, "eps": 0.01})
    assert rd[0].side == "upper" and rd[0].value > 0
    with pytest.raises(KeyError):
        bnd.evaluate_bound("not_a_bound", {})


def test_bound_report_csv_row():
    import csv
    import io

    from infolab.harness import bounds_csv

    rep = bnd.logreg_error_upper(3, 100)
    header, row = csv.reader(io.StringIO(bounds_csv([rep])))
    assert header == ["bound_id", "side", "params_json", "value", "valid"]
    assert row[0] == "logreg_error" and row[1] == "upper" and row[4] == "true"
    assert row[3] == f"{rep.value:.17g}"
    assert float(row[3]) == rep.value


# (params, (upper value, argmin eps), lower value) at T = 100, recorded
# before the distortion grid became one constant.
RD_SANDWICH_PINS = {
    "linreg_upper": ({"d": 5, "noise_var": 0.25}, (0.1339154919075471, 0.025482967479793464),
                     0.07824833346765074),
    "linreg_lower": ({"d": 5, "noise_var": 0.25}, (0.0639701661138028, 0.024582440689201974),
                     0.03219214700899444),
    "logreg": ({"d": 3}, (0.048424288311997604, 0.01333521432163324), 0.026190690417966643),
    "deepnet": ({"d": 2, "width": 3, "depth": 2, "noise_var": 1.0},
                (0.18554788771467218, 0.043714448126110896), 0.1036632928437698),
    "dirichlet": ({"d": 3, "K": 2.0, "noise_var": 1.0},
                  (0.9895317319180389, 0.46975888167064916), 0.48701584413685006),
    "ark": ({"d": 2, "K": 2}, (0.05944465783859747, 0.01778279410038923), 0.03162277660168379),
    "transformer": ({"d": 3, "r": 3, "L": 1, "K": 2, "T": 100},
                    (1.5455328514592355, 0.08976871324473142), 1.2193894962739782),
    "linrep_meta": ({"d": 6, "r": 2, "M": 8, "T": 64},
                    (0.0008191809374875387, 0.00011547819846894582), 0.0005232991146814947),
    "linrep_intra": ({"r": 2}, (0.0561512051684126, 0.01), 0.03398208328942559),
    "icl": ({"d": 8, "r": 4, "L": 2, "K": 4, "R": 2.0, "N": 16, "M": 32, "T": 64},
            (90.44781068001419, 3.651741272548377), 10.0),
}


@pytest.mark.parametrize("kind", sorted(RD_SANDWICH_PINS))
def test_rd_sandwich_equals_recorded_values(kind):
    params, upper, lower = RD_SANDWICH_PINS[kind]
    assert bnd.rd_sandwich_upper(kind, params, 100) == upper
    assert bnd.rd_sandwich_lower(kind, params, 100) == lower


# (parameter, refused value, message) for linreg's d: int and noise_var: float.
BAD_PARAMETERS = [
    ("noise_var", math.nan, "nan is not a finite number"),
    ("noise_var", math.inf, "inf is not a finite number"),
    ("noise_var", -math.inf, "-inf is not a finite number"),
    ("noise_var", True, "True is not a finite number"),
    ("d", 5.7, "5.7 is not an integer"),
    ("d", True, "True is not an integer"),
    ("d", math.nan, "nan is not an integer"),
    ("d", -math.inf, "-inf is not an integer"),
]

# Every function that reads bound parameters by name, on linreg's parameters.
READ_BY_NAME = {
    "evaluate_bound": lambda p: bnd.evaluate_bound("linreg_error", {**p, "T": 100}),
    "evaluate_bound_rd": lambda p: bnd.evaluate_bound("rd_linreg_upper", {**p, "eps": 0.01}),
    "evaluate_bound_rd_lower": lambda p: bnd.evaluate_bound("rd_linreg_lower", {**p, "eps": 0.01}),
    "rd_sandwich_upper": lambda p: bnd.rd_sandwich_upper("linreg_upper", p, 100),
    "rd_sandwich_lower": lambda p: bnd.rd_sandwich_lower("linreg_lower", p, 100),
}


@pytest.mark.parametrize("reader", sorted(READ_BY_NAME))
@pytest.mark.parametrize("name, value, message", BAD_PARAMETERS)
def test_bad_bound_parameter_is_refused_by_name(reader, name, value, message):
    params = {"d": 5, "noise_var": 0.25, name: value}
    with pytest.raises(ValueError, match=f"^parameter '{name}': {re.escape(message)}$"):
        READ_BY_NAME[reader](params)


def test_bound_parameters_echo_as_given_or_as_the_int_they_equal():
    upper = bnd.evaluate_bound("linreg_error", {"d": 5.0, "noise_var": 1, "T": "100"})[1]
    assert upper.params == {"d": 5, "noise_var": 1, "T": 100}
    assert [type(v) for v in upper.params.values()] == [int, int, int]
    assert upper == bnd.linreg_error_upper(5, 1, 100)
    with pytest.raises(ValueError, match="^parameter 'eps': nan is not a finite number$"):
        bnd.evaluate_bound("rd_logreg", {"d": 3, "eps": math.nan})


def test_declared_bounds_keep_their_signatures():
    import inspect

    assert str(inspect.signature(bnd.linreg_error_upper)) == (
        "(d: 'int', noise_var: 'float', T: 'int') -> 'BoundReport'"
    )
    by_keyword = bnd.linreg_error_upper(d=5, T=100, noise_var=0.25)
    assert by_keyword == bnd.linreg_error_upper(5, 0.25, 100)
    report, floor = bnd.missing_feature_upper(4, 1.0, 100)
    assert report.bound_id == "missing_feature" and floor == 1.0 / 8.0


# Every estimation-error family, at parameters where it is defined (without T).
ERROR_FAMILIES = {
    "linreg_error": {"d": 5, "noise_var": 0.25},
    "logreg_error": {"d": 3},
    "deepnet_error": {"d": 2, "width": 3, "depth": 3, "noise_var": 1.0},
    "dirichlet_error": {"d": 3, "K": 2.0, "noise_var": 1.0},
    "ark_error": {"d": 2, "K": 2},
    "transformer_error": {"d": 8, "r": 4, "L": 2, "K": 4},
    "linrep_error": {"d": 6, "r": 2, "M": 8},
    "icl_error": {"d": 8, "r": 4, "L": 2, "K": 4, "R": 2.0, "N": 16, "M": 32},
    "misspec_mean": {"mu_sq_norm": 1.0},
    "missing_feature": {"d": 4, "noise_var": 1.0},
    "scaling_loss": {"d": 4, "K": 4.0, "n": 10},
}


@pytest.mark.parametrize("bound_id, name", [
    (bound_id, name) for bound_id, params in sorted(ERROR_FAMILIES.items())
    for name in ("T", "d") if name in {**params, "T": 100}
])
@pytest.mark.parametrize("value", [0, -3])
def test_a_horizon_or_dimension_below_one_gets_a_domain_note(bound_id, name, value):
    params = {**ERROR_FAMILIES[bound_id], "T": 100}
    reports = bnd.evaluate_bound(bound_id, {**params, name: value})
    assert reports and all(not r.valid and r.value is None for r in reports)
    assert {r.note for r in reports} == {f"requires {name} >= 1"}


@pytest.mark.parametrize("kind, params", [
    ("transformer", {"d": 8, "r": 4, "L": 2, "K": 4, "T": 0}),
    ("linrep_meta", {"d": 6, "r": 2, "M": 8, "T": 0}),
    ("logreg", {"d": 0}),
])
def test_a_rate_below_one_step_or_dimension_is_refused(kind, params):
    name = "T" if "T" in params else "d"
    with pytest.raises(ValueError, match=f"^requires {name} >= 1$"):
        bnd.evaluate_bound(f"rd_{kind}", {**params, "eps": 0.1})
    with pytest.raises(ValueError, match=f"^requires {name} >= 1$"):
        bnd.rd_sandwich_upper(kind, params, 100)


@pytest.mark.parametrize("kind, params, eps, name", [
    ("ark", {"d": 2, "K": 2}, 0.0, "eps"),
    ("icl", {"d": 6, "r": 4, "L": 2, "K": 3, "R": 2.0, "N": 8, "M": 16, "T": 64}, -1.0, "eps"),
    ("dirichlet", {"d": 3, "K": 2.0, "noise_var": 0.0}, 0.1, "noise_var"),
])
def test_a_rate_with_a_parameter_at_or_below_zero_is_refused(kind, params, eps, name):
    with pytest.raises(ValueError, match=f"^requires {name} > 0$"):
        bnd.evaluate_bound(f"rd_{kind}", {**params, "eps": eps})


@pytest.mark.parametrize("C", [math.inf, math.nan, -math.inf])
def test_scaling_optimal_width_refuses_a_budget_that_is_not_finite(C):
    with pytest.raises(ValueError, match=r"^budget C must be a finite number, not -?(inf|nan)$"):
        bnd.scaling_optimal_width(4, 4.0, C)
