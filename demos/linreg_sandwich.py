"""Linear regression: Monte-Carlo estimation error inside the analytic sandwich.

Runs the conjugate Bayes predictor on the Gaussian linear model at a reduced
desk scale and compares the empirical per-step excess loss with the Lambert-W
lower bound and the logarithmic upper bound, plus the direct mutual
information estimate that the loss must match.
"""

import numpy as np

from infolab import bounds as bnd
from infolab.estimators import aggregate_error_curve, linreg_mi_mc
from infolab.harness import excess_over_omniscient
from infolab.predictors import ConjugateLinReg
from infolab.processes import LinReg
from infolab.rng import RngStream, SeedSpec


def main() -> None:
    d, noise_var = 5, 0.25
    horizons = [20, 100, 500]
    replicates = 400
    spec = LinReg(d=d, noise_var=noise_var)
    kind = ConjugateLinReg(
        prior_mean=np.zeros(d),
        prior_cov=spec.prior_var * np.eye(d),
        noise_var=noise_var,
    )
    stream = RngStream(SeedSpec(7, (("demo", 0),)))
    excess = excess_over_omniscient(spec, kind, max(horizons), replicates, stream)
    curve = aggregate_error_curve(excess, horizons)

    print(f"linear regression, d={d}, noise_var={noise_var}, {replicates} replicates")
    print(f"{'T':>5} {'lower':>10} {'empirical':>12} {'upper':>10} {'MI/T':>10}")
    for i, T in enumerate(horizons):
        lo = bnd.linreg_error_lower(d, noise_var, T).value
        hi = bnd.linreg_error_upper(d, noise_var, T).value
        mi, _ = linreg_mi_mc(d, noise_var, T, 200, stream.derive(("mi", T)))
        emp = curve.mean_error[i]
        print(f"{T:>5} {lo:>10.4f} {emp:>12.4f} {hi:>10.4f} {mi / T:>10.4f}")


if __name__ == "__main__":
    main()
