from types import SimpleNamespace

import numpy as np
import pytest

from scipy.linalg.lapack import dpotrf

from hdte import LinearModelConfig, LinearModelGenerator, wlasso
from hdte.data import TrialDataset, aggregate_columns, covariate_coefficients
from hdte.errors import DataError, NumericalError
from hdte.estimators import adjusted_estimate
from hdte.wlasso import (
    EnetConfig,
    WeightedProblem,
    _cd_solve,
    _kkt_violation,
    _min_ratio,
    _path_grid,
    fit_weighted_enet,
    lambda_max,
    level_problems,
    propensity_weights,
    regularization_path,
)


def soft_threshold(x, threshold):
    """Shrink ``x`` toward zero by ``threshold``, clipping at zero: the
    reference solver's coordinate update."""
    return np.sign(x) * np.maximum(np.abs(x) - threshold, 0.0)


def random_dataset(seed, n=40, p=6, m=0, effect=1.0):
    rng = np.random.default_rng(seed)
    t = np.zeros(n, dtype=int)
    t[: n // 2] = 1
    rng.shuffle(t)
    x = rng.standard_normal((n, m)) if m else None
    y = rng.standard_normal((n, p))
    y[:, 0] += effect * t
    if m:
        y += x @ rng.standard_normal((m, p)) * 0.5
    return TrialDataset(t, y, x)


def test_propensity_weights_hand_example():
    w = propensity_weights([1, 0, 0, 0])
    np.testing.assert_allclose(w, [16.0, 16.0 / 9.0, 16.0 / 9.0, 16.0 / 9.0])
    # weighted mean of the treatment indicator is n_c / n
    assert (w * [1, 0, 0, 0]).sum() / w.sum() == pytest.approx(0.75)


def test_propensity_weights_need_both_arms():
    with pytest.raises(DataError, match="both arms"):
        propensity_weights([1, 1, 1])
    with pytest.raises(DataError, match="both arms"):
        propensity_weights([0, 0, 0])


def test_weight_moment_identities():
    """The weighted first moments of the regression reproduce arm-size ratios
    and the difference in means exactly."""
    ds = random_dataset(3, n=50, p=4)
    w = propensity_weights(ds.treatments)
    t = ds.treatments.astype(float)
    n, n_t = ds.n, ds.n_treated
    n_c = n - n_t
    assert (w * t).sum() / n == pytest.approx(n / n_t, rel=1e-12)
    yc = ds.outcomes - ds.outcomes.mean(axis=0)
    est = adjusted_estimate(ds, "dim")
    lhs = yc.T @ (w * t) / n
    np.testing.assert_allclose(lhs, (n_c / n_t) * est.tau_hat, rtol=1e-10)
    c = n_c / n_t + n_t / n_c - 1.0
    moment = (yc * w[:, None]).T @ yc / n
    np.testing.assert_allclose(
        moment, est.sigma_hat + c * np.outer(est.tau_hat, est.tau_hat), rtol=1e-9
    )


def test_soft_threshold():
    assert soft_threshold(3.0, 1.0) == 2.0
    assert soft_threshold(-3.0, 1.0) == -2.0
    assert soft_threshold(0.5, 1.0) == 0.0
    np.testing.assert_allclose(
        soft_threshold(np.array([-2.0, 0.3, 2.0]), 0.5), [-1.5, 0.0, 1.5]
    )


def test_unpenalized_fit_matches_normal_equations():
    ds = random_dataset(10, n=60, p=5)
    w = propensity_weights(ds.treatments)
    fit = fit_weighted_enet(ds, EnetConfig(lam=0.0, tol=1e-12))
    yc = ds.outcomes - ds.outcomes.mean(axis=0)
    t = ds.treatments.astype(float)
    gram = (yc * w[:, None]).T @ yc / ds.n
    rhs = yc.T @ (w * t) / ds.n
    expected = np.linalg.solve(gram, rhs)
    np.testing.assert_allclose(fit.beta, expected, rtol=1e-8, atol=1e-10)
    assert fit.converged


def test_unpenalized_fit_with_covariates_matches_joint_wls():
    """At lam = 0 the concentrated solver must agree with one joint weighted
    least squares on [outcomes, covariates], both centered, no intercept."""
    ds = random_dataset(11, n=80, p=4, m=3)
    w = propensity_weights(ds.treatments)
    fit = fit_weighted_enet(ds, EnetConfig(lam=0.0, tol=1e-12))
    yc = ds.outcomes - ds.outcomes.mean(axis=0)
    xc = ds.covariates - ds.covariates.mean(axis=0)
    design = np.hstack([yc, xc])
    sw = np.sqrt(w)
    coef = np.linalg.lstsq(design * sw[:, None], sw * ds.treatments, rcond=None)[0]
    np.testing.assert_allclose(fit.beta, coef[: ds.p], rtol=1e-7, atol=1e-9)
    np.testing.assert_allclose(fit.alpha_cov, coef[ds.p :], rtol=1e-7, atol=1e-9)


def kkt_gap(ds, fit, lam, l1_ratio):
    """Largest stationarity violation recomputed from raw data."""
    w = propensity_weights(ds.treatments)
    yc = ds.outcomes - ds.outcomes.mean(axis=0)
    t = ds.treatments.astype(float)
    if ds.m:
        xc = ds.covariates - ds.covariates.mean(axis=0)
        r = t - yc @ fit.beta - xc @ fit.alpha_cov
        # stationarity of the unpenalized block
        cov_grad = xc.T @ (w * r) / ds.n
        worst = float(np.max(np.abs(cov_grad)))
    else:
        r = t - yc @ fit.beta
        worst = 0.0
    grad = -2.0 * yc.T @ (w * r) / ds.n
    lam1 = lam * l1_ratio
    for j in range(ds.p):
        if fit.beta[j] != 0.0:
            res = grad[j] + 2.0 * lam1 * np.sign(fit.beta[j]) \
                + 4.0 * lam * (1.0 - l1_ratio) * fit.beta[j]
            worst = max(worst, abs(res))
        else:
            worst = max(worst, max(0.0, abs(grad[j]) - 2.0 * lam1))
    return worst


def test_kkt_conditions_hold_at_solution():
    rng = np.random.default_rng(17)
    for case in range(20):
        n = int(rng.integers(30, 80))
        p = int(rng.integers(2, 9))
        m = int(rng.integers(0, 3))
        ds = random_dataset(int(rng.integers(1 << 30)), n=n, p=p, m=m,
                            effect=float(rng.uniform(0.0, 2.0)))
        l1 = float(rng.choice([1.0, 0.5, 0.8]))
        top = lambda_max(ds, l1_ratio=l1)
        lam = float(rng.uniform(0.05, 0.9)) * top
        fit = fit_weighted_enet(ds, EnetConfig(lam=lam, l1_ratio=l1, tol=1e-10))
        assert fit.converged, f"case {case} did not converge"
        assert kkt_gap(ds, fit, lam, l1) < 1e-6, f"case {case} violates stationarity"


def test_beta_is_zero_at_and_above_lambda_max():
    ds = random_dataset(5, n=50, p=6, effect=1.5)
    top = lambda_max(ds)
    for lam in (top, 1.5 * top):
        fit = fit_weighted_enet(ds, EnetConfig(lam=lam))
        assert fit.active_set == ()
    below = fit_weighted_enet(ds, EnetConfig(lam=0.95 * top))
    assert len(below.active_set) >= 1


def test_lambda_max_matches_cross_moment_oracle():
    ds = random_dataset(9, n=45, p=7)
    w = propensity_weights(ds.treatments)
    yc = ds.outcomes - ds.outcomes.mean(axis=0)
    t = ds.treatments.astype(float)
    expected = np.max(np.abs(yc.T @ (w * t) / ds.n))
    assert lambda_max(ds) == pytest.approx(expected, rel=1e-12)
    # scaling: halving l1_ratio doubles the threshold exactly
    assert lambda_max(ds, l1_ratio=0.5) == 2.0 * lambda_max(ds)


def test_lambda_max_with_covariates_uses_residualized_response():
    ds = random_dataset(14, n=70, p=5, m=2)
    w = propensity_weights(ds.treatments)
    yc = ds.outcomes - ds.outcomes.mean(axis=0)
    xc = ds.covariates - ds.covariates.mean(axis=0)
    t = ds.treatments.astype(float)
    sw = np.sqrt(w)
    theta = np.linalg.lstsq(xc * sw[:, None], sw * t, rcond=None)[0]
    r = t - xc @ theta
    expected = np.max(np.abs(yc.T @ (w * r) / ds.n))
    assert lambda_max(ds) == pytest.approx(expected, rel=1e-10)
    fit = fit_weighted_enet(ds, EnetConfig(lam=lambda_max(ds)))
    assert fit.active_set == ()


def test_enet_pulls_duplicate_columns_together():
    """With a strictly convex ridge share, identical columns get identical
    coefficients; the pure lasso picks one arbitrarily."""
    rng = np.random.default_rng(23)
    n = 60
    t = np.array([1, 0] * (n // 2))
    base = rng.standard_normal(n) + 1.2 * t
    y = np.column_stack([base, base, rng.standard_normal(n)])
    ds = TrialDataset(t, y)
    lam = 0.3 * lambda_max(ds, l1_ratio=0.5)
    fit = fit_weighted_enet(ds, EnetConfig(lam=lam, l1_ratio=0.5, tol=1e-12))
    assert fit.beta[0] != 0.0
    assert abs(fit.beta[0] - fit.beta[1]) < 1e-6


def test_path_structure_and_warm_start_agreement():
    ds = random_dataset(29, n=50, p=8, effect=1.0)
    path = regularization_path(ds, n_lambdas=25)
    lambdas = [fit.lam for fit in path.fits]
    assert lambdas[0] == lambda_max(ds)
    assert np.all(np.diff(lambdas) < 0)
    first = path.fits[0]
    assert first.active_set == () and first.iterations == 0 and first.converged
    # a cold start at an interior grid point reproduces the warm-started fit
    k = 12
    cold = fit_weighted_enet(ds, EnetConfig(lam=lambdas[k]))
    np.testing.assert_allclose(path.fits[k].beta, cold.beta, atol=1e-7)
    # rss decreases as the penalty relaxes
    rss = [f.weighted_rss for f in path.fits]
    assert all(a >= b - 1e-12 for a, b in zip(rss, rss[1:]))



@pytest.mark.parametrize("l1_ratio", [1.0, 0.5])
def test_walk_path_reads_a_lassos_knots_and_descends_an_elastic_nets_grid(l1_ratio):
    """``walk_path`` takes its walk from the penalty, on the grid of
    ``regularization_path``: a lasso yields the exact knot walk, at fewer
    points than the grid has; an elastic net yields coordinate descent at
    every grid point. Both bit for bit."""
    ds = random_dataset(29, n=50, p=12, m=2)
    config = EnetConfig(l1_ratio=l1_ratio)
    problem, grid = path_problem(ds, config, 30)
    reference = (wlasso._knot_path(problem, grid) if l1_ratio == 1.0
                 else wlasso._walk_path(problem, grid, config))
    want = [(lam, beta.tobytes(), sweeps, converged)
            for lam, beta, sweeps, converged in reference]
    got = [(lam, beta.tobytes(), sweeps, converged) for lam, beta, sweeps, converged
           in WeightedProblem.from_dataset(ds).walk_path(30, config=config)]
    assert got == want
    lams = [lam for lam, *_ in got]
    assert set(lams) <= set(grid.tolist()) and lams == sorted(lams, reverse=True)
    assert (len(lams) < grid.size) if l1_ratio == 1.0 else lams == grid.tolist()

@pytest.mark.parametrize("l1_ratio, knots", [(1.0, False), (0.5, False), (1.0, True)])
def test_a_walk_never_reads_the_betas_it_yields(l1_ratio, knots):
    """Each yielded ``beta`` is the caller's: overwriting every one as it
    arrives changes none of the points after it, warm starts included. A
    lasso's ``walk_path`` reads the knots; its coordinate-descent walk is
    ``hdte path``'s."""
    ds = random_dataset(29, n=50, p=12, m=2)
    config = EnetConfig(l1_ratio=l1_ratio)

    def walk():
        if knots or l1_ratio < 1.0:
            return WeightedProblem.from_dataset(ds).walk_path(30, config=config)
        return wlasso._walk_path(*path_problem(ds, config, 30), config)
    want = [(lam, beta.tobytes(), sweeps) for lam, beta, sweeps, _ in walk()]
    got = []
    for lam, beta, sweeps, _ in walk():
        got.append((lam, beta.tobytes(), sweeps))
        beta[:] = 1.0
    assert len(got) > 5 and got == want


@pytest.fixture
def sweep_log(monkeypatch):
    """Record every iteration of ``_cd_solve`` in order: ``("block", taken)``
    for an exact step, followed by ``("crossing", (left, flipped))`` where a
    taken one set ``left`` coefficients to zero and flipped the sign of
    ``flipped``, and by ``("entered", n)`` where ``n`` zero coordinates
    entered it; ``("scalar", n)`` for a scalar sweep that flipped the sign of
    ``n`` coefficients (nonzero to nonzero of the other sign)."""
    log = []
    block_step, scalar_sweep = wlasso._Block.step, wlasso._scalar_sweep

    def block(self, beta, lam1, direction):
        before = beta.copy()
        taken, q = block_step(self, beta, lam1, direction)
        log.append(("block", taken))
        left = int(np.sum((before != 0.0) & (beta == 0.0)))
        flipped = int(np.sum(before * beta < 0.0))
        if left or flipped:
            log.append(("crossing", (left, flipped)))
        entered = int(np.sum((before == 0.0) & (beta != 0.0)))
        if entered:
            log.append(("entered", entered))
        return taken, q

    def scalar(work, beta, *args):
        before = np.sign(beta)
        delta = scalar_sweep(work, beta, *args)
        log.append(("scalar", int(np.sum(before * np.sign(beta) < 0))))
        return delta

    monkeypatch.setattr(wlasso._Block, "step", block)
    monkeypatch.setattr(wlasso, "_scalar_sweep", scalar)
    return log


def lazy_gram(z):
    """The on-demand Gram ``(1/n) z'z`` of an ``(n, p)`` matrix."""
    n = z.shape[0]
    return wlasso._Gram(z, np.einsum("ij,ij->j", z, z) / n, n)


def dense_gram(gram):
    """Every column of an on-demand Gram, as the ``(p, p)`` matrix."""
    return gram.rows(np.arange(gram.diag.shape[0]))


def path_problem(ds, config, n_lambdas):
    """The concentrated problem of ``ds`` and the penalty grid a path walk
    over it uses."""
    problem = WeightedProblem.from_dataset(ds).prepare()[0]
    ratio = _min_ratio(ds.n, ds.p, n_lambdas, None)
    return problem, _path_grid(problem, config, n_lambdas, ratio)


def reference_cd_solve(problem, config, lam, beta0=None):
    """The plain one-coordinate-at-a-time loop, with ``_cd_solve``'s sweep
    schedule, stopping rule and ``soft_threshold`` update: ``_cd_solve``
    reproduces it bit for bit below ``_BLOCK_MIN`` nonzero coefficients and
    must reach its optimum (:data:`TIGHT`) above."""
    gram, ty = dense_gram(problem.gram), problem.ty
    lam1 = lam * config.l1_ratio
    ridge = 2.0 * lam * (1.0 - config.l1_ratio)
    diag = gram.diagonal().copy()
    denom = diag + ridge
    full_set = np.flatnonzero(problem.penalized)
    beta = np.zeros(ty.shape[0]) if beta0 is None else np.array(beta0, dtype=np.float64)
    beta[~problem.penalized] = 0.0
    nonzero = np.flatnonzero(beta)
    q = beta[nonzero] @ gram[nonzero]
    kkt_tol = 10.0 * config.tol * max(1.0, float(np.max(np.abs(ty), initial=0.0)),
                                      float(diag.max(initial=0.0)))
    sweeps, on_full_set = 0, True
    while sweeps < config.max_iter:
        work = full_set if on_full_set else np.flatnonzero(beta)
        delta = 0.0
        for j in work:
            b_old = beta[j]
            b_new = soft_threshold(ty[j] - q[j] + diag[j] * b_old, lam1) / denom[j]
            if b_new != b_old:
                q += gram[j] * (b_new - b_old)
                beta[j] = b_new
                delta = max(delta, abs(b_new - b_old))
        sweeps += 1
        if delta < config.tol:
            if on_full_set:
                if _kkt_violation(beta, q, ty, lam1, ridge, problem.penalized) <= kkt_tol:
                    return beta, sweeps, True
            else:
                on_full_set = True
        else:
            on_full_set = False
    return beta, sweeps, False


# The plain loop run this tightly is the oracle for the solution itself:
# exact steps reach the same optimum by another route, so sweep counts differ.
# Started from the solver's answer, it certifies that answer in few sweeps
# or moves away from it.
TIGHT = EnetConfig(tol=1e-12)


@pytest.mark.parametrize("m", [0, 3])
def test_on_demand_gram_is_exact_symmetric_and_matches_the_dense_moments(m):
    """Columns read in any order form an exactly symmetric matrix whose
    diagonal is bit for bit ``gram.diag``, equal to the dense weighted
    moments ``(1/n) Yr' W Yr`` up to rounding."""
    ds = random_dataset(53, n=50, p=37, m=m)
    problem = WeightedProblem.from_dataset(ds).prepare()[0]
    order = np.random.default_rng(0).permutation(ds.p)
    for j in order[:5]:
        problem.gram[int(j)]
    gram = dense_gram(problem.gram)
    assert gram.tobytes() == gram.T.tobytes()
    assert gram.diagonal().tobytes() == problem.gram.diag.tobytes()
    w = propensity_weights(ds.treatments)
    yr = ds.outcomes - ds.outcomes.mean(axis=0)
    if m:
        xc = ds.covariates - ds.covariates.mean(axis=0)
        sw = np.sqrt(w)[:, None]
        yr = yr - xc @ np.linalg.lstsq(xc * sw, yr * sw, rcond=None)[0]
    dense = (yr * w[:, None]).T @ yr / ds.n
    np.testing.assert_allclose(gram, dense, rtol=1e-10, atol=1e-12)


def test_a_gram_block_is_mirrored_in_place_as_the_triangles_sum():
    """A block's lower triangle, mirrored in place from its upper one, holds
    the bits of the sum of the upper triangle, its transpose and the
    diagonal matrix: a -0.0 anywhere off the diagonal reads +0.0."""
    rng = np.random.default_rng(5)
    for k in (1, 2, 7, 30):
        square = rng.standard_normal((k, k))
        square[rng.random((k, k)) < 0.3] = -0.0
        diag = np.abs(rng.standard_normal(k))
        diag[::3] = 0.0
        upper = np.triu(square, 1)
        want = upper + upper.T + np.diag(diag)
        wlasso._mirror(square, diag)
        assert square.tobytes() == want.tobytes()
        assert not (np.signbit(square) & (square == 0.0)).any()


def test_sparse_full_sweep_is_the_scalar_sweep_bit_for_bit():
    """From random states with a few nonzero coefficients, where zero
    coordinates sometimes enter mid-sweep: the same ``beta``, ``q`` and
    largest change, bit for bit."""
    rng = np.random.default_rng(8)
    n, p = 30, 120
    entered = 0
    for _ in range(100):
        gram = lazy_gram(rng.standard_normal((n, p)))
        full = np.arange(p)
        beta = np.zeros(p)
        nonzero = np.sort(rng.choice(p, int(rng.integers(0, 5)), replace=False))
        beta[nonzero] = rng.standard_normal(nonzero.size)
        q = beta[nonzero] @ gram.rows(nonzero)
        ty = rng.standard_normal(p) * 0.5
        lam1 = float(rng.uniform(0.8, 2.0))
        args = (gram, ty.tolist(), gram.diag.tolist(), (gram.diag + 0.1).tolist(), lam1)
        block = wlasso._Block(SimpleNamespace(gram=gram, ty=ty, penalized=full >= 0))
        b_ref, q_ref = beta.copy(), q.copy()
        d_ref = wlasso._scalar_sweep(full.tolist(), b_ref, q_ref, *args)
        d = wlasso._sparse_full_sweep(nonzero, beta, q, block, args)
        assert (d, beta.tobytes(), q.tobytes()) == (d_ref, b_ref.tobytes(), q_ref.tobytes())
        entered += np.count_nonzero(beta) > nonzero.size
    assert 10 < entered < 90


@pytest.mark.parametrize("case", ["one entry", "two entries", "nan"])
def test_sparse_full_sweep_resumes_its_run_test_after_an_entry(case, monkeypatch):
    """A zero coordinate that fails the run test is updated alone, and the
    test resumes after it on the updated ``q``; an unpenalized one (10) is
    passed over, as the full list leaves it out. ``beta``, ``q`` and the
    largest change are those of the scalar sweep over the full list, bit for
    bit, and the scalar loop never visits more than one coordinate at once."""
    rng = np.random.default_rng(3)
    p = 100
    gram = lazy_gram(rng.standard_normal((30, p)))
    penalized = np.arange(p) != 10
    ty = np.zeros(p)
    ty[[10, 20]] = 5.0   # 20 enters in the run before the nonzero 50
    if case == "two entries":
        ty[[60, 80]] = 5.0, -5.0
    if case == "nan":
        ty[70] = np.nan
    beta, nonzero = np.zeros(p), np.array([50])
    beta[50] = 0.1
    q = beta[nonzero] @ gram.rows(nonzero)
    args = (gram, ty.tolist(), gram.diag.tolist(), (gram.diag + 0.1).tolist(), 1.0)
    block = wlasso._Block(SimpleNamespace(gram=gram, ty=ty, penalized=penalized))
    b_ref, q_ref = beta.copy(), q.copy()
    d_ref = wlasso._scalar_sweep(np.flatnonzero(penalized).tolist(), b_ref, q_ref, *args)
    visits, scalar = [], wlasso._scalar_sweep

    def one_at_a_time(work, *rest):
        visits.append(len(work))
        return scalar(work, *rest)

    monkeypatch.setattr(wlasso, "_scalar_sweep", one_at_a_time)
    d = wlasso._sparse_full_sweep(nonzero, beta, q, block, args)
    assert (d, beta.tobytes(), q.tobytes()) == (d_ref, b_ref.tobytes(), q_ref.tobytes())
    assert set(visits) == {1} and beta[10] == 0.0 and beta[20] != 0.0
    if case == "two entries":
        assert beta[60] > 0.0 > beta[80]
    if case == "nan":
        assert np.isnan(beta[70:]).all() and len(visits) >= 30


def factor_dataset(seed, n=80, p=30):
    """Outcomes driven by three shared factors, so columns are correlated."""
    rng = np.random.default_rng(seed)
    t = np.zeros(n, dtype=int)
    t[: n // 2] = 1
    rng.shuffle(t)
    y = rng.standard_normal((n, 3)) @ rng.standard_normal((3, p))
    y += 0.5 * rng.standard_normal((n, p))
    y[:, :3] += 0.7 * t[:, None]
    return TrialDataset(t, y)


def test_deep_path_matches_scalar_reference(sweep_log):
    """Past 50 active columns the exact steps, on a factor carried from
    point to point as a path walk carries it, reach the plain loop's
    solutions: at every grid point the active set and convergence of the
    loop run to 1e-12, coefficients within 1e-8, in at most a fifth of the
    sweeps the loop takes at the default tolerance."""
    ds = random_dataset(7, n=60, p=100)
    config = EnetConfig()
    problem, grid = path_problem(ds, config, 30)
    block = wlasso._Block(problem)
    beta = loose = np.zeros(ds.p)
    sweeps = loose_sweeps = largest = 0
    for lam in grid[1:]:
        beta, n_sweeps, converged = _cd_solve(problem, config, lam, beta0=beta, block=block)
        loose, n_loose, _ = reference_cd_solve(problem, config, lam, loose)
        tight, _, tight_converged = reference_cd_solve(problem, TIGHT, lam, beta)
        assert converged == tight_converged
        np.testing.assert_array_equal(np.flatnonzero(beta), np.flatnonzero(tight))
        assert np.max(np.abs(beta - tight)) <= 1e-8
        sweeps, loose_sweeps = sweeps + n_sweeps, loose_sweeps + n_loose
        largest = max(largest, np.count_nonzero(beta))
    assert largest > 50
    assert 5 * sweeps <= loose_sweeps
    assert ("block", True) in sweep_log


def test_sign_flip_mid_solve_falls_back_to_scalar_sweep(sweep_log):
    """A warm start far from the solution: an exact step that would flip
    signs stops at the first zero crossing, where exactly one coordinate
    leaves and no sign flips; a step not taken (a coordinate would enter
    with the wrong sign) is redone by the scalar loop; the fit is the tight
    reference's."""
    ds = factor_dataset(1)
    config = EnetConfig()
    problem = WeightedProblem.from_dataset(ds).prepare()[0]
    top = lambda_max(ds)
    start, _, _ = _cd_solve(problem, config, 0.3 * top)
    assert np.count_nonzero(start) >= wlasso._BLOCK_MIN
    sweep_log.clear()
    beta, sweeps, converged = _cd_solve(problem, config, 1e-3 * top, beta0=start)
    ref, _, ref_converged = reference_cd_solve(problem, TIGHT, 1e-3 * top, beta)
    _, loose_sweeps, _ = reference_cd_solve(problem, config, 1e-3 * top, start)
    crossings = [value for kind, value in sweep_log if kind == "crossing"]
    assert crossings and set(crossings) == {(1, 0)}
    rejected = sweep_log.index(("block", False))
    assert sweep_log[rejected + 1][0] == "scalar"
    assert converged and ref_converged
    np.testing.assert_array_equal(np.flatnonzero(beta), np.flatnonzero(ref))
    assert np.max(np.abs(beta - ref)) <= 1e-8
    assert 5 * sweeps <= loose_sweeps


def test_single_full_sweep_matches_reference_from_random_states(sweep_log):
    """One full step from random states: an exact step that keeps every
    active sign by construction, then the full-set check. It lands on the
    restricted solution and no zero coordinate moves; where no zero
    coordinate violates, that is the fit, the tight reference's solution,
    and otherwise the violators would enter next."""
    rng = np.random.default_rng(5)
    p, k = 16, 12
    one_step = EnetConfig(max_iter=1)
    outcomes = set()
    for _ in range(200):
        root = rng.standard_normal((p, p)) + 1.0
        lazy = lazy_gram(root)
        gram = dense_gram(lazy)
        active = np.sort(rng.choice(p, k, replace=False))
        signs = rng.choice([-1.0, 1.0], k)
        b_old = signs * rng.uniform(0.5, 2.0, k)
        b_new = signs * rng.uniform(0.5, 2.0, k)
        lam = rng.uniform(4.0, 12.0)
        ty = rng.standard_normal(p) * 3.0
        ty[active] = gram[np.ix_(active, active)] @ b_new + lam * signs
        beta0 = np.zeros(p)
        beta0[active] = b_old
        problem = SimpleNamespace(gram=lazy, ty=ty, penalized=np.ones(p, dtype=bool))
        sweep_log.clear()
        beta, sweeps, converged = _cd_solve(problem, one_step, lam, beta0=beta0)
        assert sweep_log == [("block", True)] and sweeps == 1
        np.testing.assert_array_equal(np.flatnonzero(beta), active)
        assert np.max(np.abs(beta[active] - b_new)) <= 1e-8
        violators = (np.abs(ty - gram @ beta) > lam) & (beta == 0.0)
        assert converged == (not violators.any())
        if converged:
            ref, _, ref_converged = reference_cd_solve(problem, TIGHT, lam, beta)
            assert ref_converged
            np.testing.assert_array_equal(np.flatnonzero(beta), np.flatnonzero(ref))
            assert np.max(np.abs(beta - ref)) <= 1e-8
        outcomes.add(converged)
    assert outcomes == {True, False}


def test_exact_steps_from_random_states_reach_the_solution(sweep_log):
    """Warm starts with random signs, so exact steps cross zero and some
    coordinates that left must enter again: every solve ends at the tight
    reference's solution."""
    rng = np.random.default_rng(6)
    p, k = 16, 12
    for _ in range(100):
        lazy = lazy_gram(rng.standard_normal((2 * p, p)))
        beta0 = np.zeros(p)
        beta0[rng.choice(p, k, replace=False)] = rng.standard_normal(k)
        ty = rng.standard_normal(p)
        problem = SimpleNamespace(gram=lazy, ty=ty, penalized=np.ones(p, dtype=bool))
        lam = float(rng.uniform(0.05, 0.5)) * np.abs(ty).max()
        # tol as tight as the check, for solves that end on the scalar loop
        beta, _, converged = _cd_solve(problem, EnetConfig(tol=1e-10), lam, beta0=beta0)
        ref, _, ref_converged = reference_cd_solve(problem, TIGHT, lam, beta)
        assert converged and ref_converged
        np.testing.assert_array_equal(np.flatnonzero(beta), np.flatnonzero(ref))
        assert np.max(np.abs(beta - ref)) <= 1e-8
    assert ("crossing", (1, 0)) in sweep_log


def test_a_coordinate_that_left_is_tested_on_full_steps():
    """With ``G = I``: the exact step from all-positive coefficients crosses
    zero at coordinate 0, whose solution is negative; the next step holds it
    at zero in the same factor, the check after that finds it violating, and
    it enters again with its own sign, still without a new factor."""
    p = 12
    lazy = lazy_gram(np.sqrt(p) * np.eye(p))
    active = np.arange(8)
    ty = np.zeros(p)
    ty[active] = 1.0
    ty[0] = -0.3
    beta = np.zeros(p)
    beta[active] = 1.0
    block = wlasso._Block(SimpleNamespace(gram=lazy, ty=ty, penalized=np.ones(p, dtype=bool)))
    assert block.cover(active, 0.0)
    factor = block.factor
    assert block.step(beta, 0.2, np.sign(beta)) == (True, None)
    assert beta[0] == 0.0 and np.all(beta[1:8] > 0.0)
    assert block.cover(np.flatnonzero(beta), 0.0) and block.factor is factor
    taken, q = block.step(beta, 0.2, np.sign(beta))
    np.testing.assert_allclose(beta[:8], [0.0] + [0.8] * 7)
    np.testing.assert_allclose(q, beta)
    assert abs(ty[0] - q[0]) > 0.2
    direction = np.sign(beta)
    direction[0] = -1.0
    assert block.cover(np.flatnonzero(direction), 0.0) and block.factor is factor
    taken, q = block.step(beta, 0.2, direction)
    np.testing.assert_allclose(beta[:8], [-0.1] + [0.8] * 7)
    assert np.all(np.abs(ty - q)[8:] <= 0.2)


def singular_start(seed):
    """A problem with ``n = 24`` rows, ``m = 2`` covariates and ``p = 40``
    outcomes, a warm start with ``|A| = n - m`` nonzero coefficients (so the
    active Gram is singular) and a penalty well below ``lambda_max``."""
    ds = random_dataset(seed, n=24, p=40, m=2)
    problem = WeightedProblem.from_dataset(ds).prepare()[0]
    rng = np.random.default_rng(seed)
    active = np.sort(rng.choice(ds.p, ds.n - ds.m, replace=False))
    beta0 = np.zeros(ds.p)
    beta0[active] = rng.standard_normal(active.size) * 0.1
    return problem, active, beta0, 0.05 * lambda_max(ds)


def test_singular_active_gram_falls_back_to_scalar_sweeps(sweep_log):
    """The singular active Gram's factorization fails, or leaves a pivot at
    rounding level, so there is no exact step; the scalar loop runs and the
    fit converges to the tight reference's solution."""
    for seed in range(8):
        problem, active, beta0, lam = singular_start(seed)
        assert not wlasso._Block(problem).cover(active, 0.0)
        sweep_log.clear()
        beta, _, converged = _cd_solve(problem, EnetConfig(), lam, beta0=beta0)
        ref, _, ref_converged = reference_cd_solve(problem, TIGHT, lam, beta)
        assert sweep_log[0][0] == "scalar"
        assert converged and ref_converged
        np.testing.assert_array_equal(np.flatnonzero(beta), np.flatnonzero(ref))
        assert np.max(np.abs(beta - ref)) <= 1e-8


def test_a_step_that_would_raise_the_objective_is_not_taken(monkeypatch):
    """With the pivot test loosened to 1e-10, factors of numerically singular
    active Grams pass it, and a step on one can raise the objective (by
    1.6e-3 at seed 6 without the test). Such a step is not taken: the factor
    is built afresh, or the scalar loop runs. The objective never rises and
    every fit reaches the tight reference's solution."""
    monkeypatch.setattr(wlasso, "_PIVOT_MIN", 1e-10)
    for seed in range(8):
        problem, _, beta0, lam = singular_start(seed)
        trace = []
        beta, _, converged = _cd_solve(problem, EnetConfig(), lam, beta0=beta0,
                                       objective_trace=trace)
        ref, _, ref_converged = reference_cd_solve(problem, TIGHT, lam, beta)
        assert converged and ref_converged
        np.testing.assert_array_equal(np.flatnonzero(beta), np.flatnonzero(ref))
        assert np.max(np.abs(beta - ref)) <= 1e-8
        assert np.all(np.diff(trace) <= 1e-12)


def test_extensions_give_the_factor_of_one_fresh_factorization():
    """Coordinates appended to a factor in several extensions, on a random
    SPD Gram with a ridge: the factor, and the columns of its inverse that
    hold coordinates at zero, equal those of one LAPACK factorization of the
    same ordered set to 1e-12 relative."""
    rng = np.random.default_rng(12)
    p, ridge = 40, 0.3
    lazy = lazy_gram(rng.standard_normal((60, p)))
    block = wlasso._Block(SimpleNamespace(gram=lazy, ty=np.zeros(p),
                                          penalized=np.ones(p, dtype=bool)))
    first = np.sort(rng.choice(p, 10, replace=False))
    assert block.cover(first, ridge) and block.cover(np.delete(first, [2, 7]), ridge)
    rest = rng.permutation(np.setdiff1d(np.arange(p), first))
    for new in np.split(rest[:20], [3, 4, 12]):
        assert block.extend(new)
    order = block.order
    np.testing.assert_array_equal(order, np.concatenate([first, rest[:20]]))
    fresh, info = dpotrf(dense_gram(lazy)[np.ix_(order, order)] + ridge * np.eye(order.size),
                         lower=1)
    assert info == 0
    factor = np.tril(block.factor)
    assert np.linalg.norm(factor - fresh) <= 1e-12 * np.linalg.norm(fresh)
    held = np.linalg.solve(fresh, np.eye(order.size)[:, [2, 7]])
    assert np.linalg.norm(block.basis - held) <= 1e-12 * np.linalg.norm(held)


def test_an_entering_copy_of_an_active_column_falls_back_to_scalar_sweeps(sweep_log):
    """A column twice an active one violates by ``lam1`` once the active set
    is solved, and its extension fails the pivot test (its Schur complement
    is zero), as does a fresh factor of the set: the scalar loop runs, and
    the fit is the tight reference's."""
    ds = factor_dataset(2)
    lam = 0.05 * lambda_max(ds)
    problem = WeightedProblem.from_dataset(ds).prepare()[0]
    start, _, _ = _cd_solve(problem, EnetConfig(), lam)
    active = np.flatnonzero(start)
    assert active.size >= wlasso._BLOCK_MIN
    copied = int(active[0])
    wide = TrialDataset(ds.treatments, np.column_stack([ds.outcomes,
                                                        2.0 * ds.outcomes[:, copied]]))
    problem = WeightedProblem.from_dataset(wide).prepare()[0]
    assert not wlasso._Block(problem).cover(np.append(active, ds.p), 0.0)
    sweep_log.clear()
    beta, _, converged = _cd_solve(problem, EnetConfig(), lam, beta0=np.append(start, 0.0))
    assert sweep_log[:2] == [("block", True), ("scalar", 0)]
    ref, _, ref_converged = reference_cd_solve(problem, TIGHT, lam, beta)
    assert converged and ref_converged
    np.testing.assert_array_equal(np.flatnonzero(beta), np.flatnonzero(ref))
    assert np.max(np.abs(beta - ref)) <= 1e-8


def test_a_failed_check_after_a_final_exact_step_hands_over_to_the_scalar_loop(sweep_log):
    """With ``tol`` far below rounding the stationarity check fails after an
    exact step that leaves no violator; repeating that step would change
    nothing, so the scalar loop runs until ``max_iter``. The factor passed
    its tests and is kept: the next solve on the same block steps on it
    without factoring again."""
    ds = factor_dataset(1)
    problem = WeightedProblem.from_dataset(ds).prepare()[0]
    lam = 0.05 * lambda_max(ds)
    start, _, converged = _cd_solve(problem, EnetConfig(), lam)
    assert converged and np.count_nonzero(start) >= wlasso._BLOCK_MIN
    block = wlasso._Block(problem)
    sweep_log.clear()
    beta, sweeps, converged = _cd_solve(problem, EnetConfig(tol=1e-300, max_iter=6), lam,
                                        beta0=start, block=block)
    assert not converged and sweeps == 6
    assert sweep_log[0] == ("block", True)
    assert [kind for kind, _ in sweep_log[1:]] == ["scalar"] * 5
    assert block.ridge == 0.0 and block.failed is None
    factor = block.factor
    sweep_log.clear()
    _, _, converged = _cd_solve(problem, EnetConfig(), lam, beta0=beta, block=block)
    assert converged and sweep_log[0] == ("block", True) and block.factor is factor


@pytest.mark.parametrize("design", ["scalar", "exact"])
def test_solves_sharing_a_block_return_what_they_return_on_a_fresh_one(sweep_log, design):
    """A block carries what every solve on its problem reads, keyed on what
    it depends on: solves that share one block but differ in ``tol`` and
    ``l1_ratio`` (so in the ridge) give the ``beta``, sweeps and convergence
    each gives on a fresh block, bit for bit. Each solve starts from the last
    solution at its ``l1_ratio``. Below ``_BLOCK_MIN`` only the scalar loop
    runs. On the wider design exact steps run on the shared block, whose
    factor each change of ridge builds afresh, and at ``tol = 1e-300`` an
    exact step that leaves no violator hands over to the scalar loop."""
    ds = (random_dataset(23, n=50, p=wlasso._BLOCK_MIN - 1, m=2) if design == "scalar"
          else factor_dataset(1))
    problem = WeightedProblem.from_dataset(ds).prepare()[0]
    lam = 0.05 * lambda_max(ds)
    shared = wlasso._Block(problem)
    starts, outcomes, handed_over = {}, set(), False
    for config in (EnetConfig(), EnetConfig(l1_ratio=0.5),
                   EnetConfig(tol=1e-300, max_iter=6), EnetConfig(l1_ratio=0.5, tol=1e-12),
                   EnetConfig(tol=1e-3)):
        beta0 = starts.get(config.l1_ratio)
        sweep_log.clear()
        got = _cd_solve(problem, config, lam, beta0=beta0, block=shared)
        kinds = [kind for kind, _ in sweep_log]
        assert ("block" in kinds) == (design == "exact")
        handed_over |= kinds[:2] == ["block", "scalar"]
        want = _cd_solve(problem, config, lam, beta0=beta0, block=wlasso._Block(problem))
        assert (got[0].tobytes(), *got[1:]) == (want[0].tobytes(), *want[1:])
        starts[config.l1_ratio] = got[0]
        outcomes.add(got[2])
    assert outcomes == {True, False} and handed_over == (design == "exact")


@pytest.mark.parametrize("extra", [0, 1])
def test_a_small_gram_is_computed_whole_at_its_first_read(monkeypatch, extra):
    """Where ``n p^2`` is at most ``_GRAM_WHOLE_MAX`` the first read of the
    Gram computes every column in one product, and the rest of a selection
    walk computes none; above it, columns are computed as the solves read
    them."""
    products = []
    slots = wlasso._Gram._slots

    def counted(self, idx):
        before = self._count
        out = slots(self, idx)
        if self._count > before:
            products.append((before, self._count))
        return out

    monkeypatch.setattr(wlasso._Gram, "_slots", counted)
    n = 80
    p = int(np.sqrt(wlasso._GRAM_WHOLE_MAX / n)) + extra
    walk = WeightedProblem.from_dataset(random_dataset(31, n=n, p=p)).walk_path(30, 0.2)
    assert all(converged for *_, converged in walk)
    if not extra:
        assert products == [(0, p)]
    else:
        assert len(products) > 1 and products[-1][1] < p


def criterion_6_design():
    """Replicate 0 of criterion 6's linear model: n = 200, p = 500, m = 50."""
    config = LinearModelConfig(n=200, p=500, m=50, s_tau=5, alpha=0.4, pi=0.3, seed=0)
    return LinearModelGenerator(config).replicate(0)[0]


def test_enet_path_on_criterion_6_design_matches_the_tight_reference():
    """With ``l1_ratio = 0.5`` the ridge changes at every grid point, so the
    walk builds one factor per point and extends it within the point: at
    every point the fit has the tight reference's active set and
    coefficients within 1e-8."""
    config = EnetConfig(l1_ratio=0.5)
    tight = EnetConfig(l1_ratio=0.5, tol=1e-12)
    problem, grid = path_problem(criterion_6_design(), config, 100)
    largest = 0
    for lam, beta, _, converged in list(wlasso._walk_path(problem, grid, config))[1:]:
        ref, _, ref_converged = reference_cd_solve(problem, tight, lam, beta)
        assert converged and ref_converged
        np.testing.assert_array_equal(np.flatnonzero(beta), np.flatnonzero(ref))
        assert np.max(np.abs(beta - ref)) <= 1e-8
        largest = max(largest, np.count_nonzero(beta))
    assert largest > 100


def test_the_walk_carries_its_factor_down_the_path(monkeypatch, sweep_log):
    """On the benchmark's path design (criterion 6's) the lasso's factor does
    not depend on the penalty, so the walk builds fewer full factorizations
    than it has grid points and appends entering coordinates instead; an
    entering coordinate seldom takes the wrong sign, which leaves its step
    to the scalar loop."""
    sizes, calls = [], []
    extend, factorize = wlasso._Block.extend, wlasso.dpotrf

    def counted_extend(self, new):
        sizes.append(self.order.size)
        return extend(self, new)

    def counted_dpotrf(*args, **kwargs):
        calls.append(sizes[-1])
        return factorize(*args, **kwargs)

    monkeypatch.setattr(wlasso._Block, "extend", counted_extend)
    monkeypatch.setattr(wlasso, "dpotrf", counted_dpotrf)
    config = EnetConfig()
    problem, grid = path_problem(criterion_6_design(), config, 100)
    points = list(wlasso._walk_path(problem, grid, config))
    assert all(converged for *_, converged in points)
    full = sum(size == 0 for size in calls)
    assert 0 < full < len(grid) and len(calls) - full > len(grid) / 2
    assert 5 * sweep_log.count(("block", False)) <= len(calls) - full


@pytest.mark.parametrize("l1_ratio, m", [(1.0, 0), (0.5, 2)])
def test_small_problem_stays_bit_identical_to_scalar_reference(sweep_log, l1_ratio, m):
    """Below ``_BLOCK_MIN`` nonzero coefficients only the scalar loop runs,
    and its float arithmetic gives the reference loop's exact bits. Both
    read one problem, hence one set of Gram entries."""
    ds = random_dataset(19, n=50, p=wlasso._BLOCK_MIN - 1, m=m)
    config = EnetConfig(l1_ratio=l1_ratio)
    problem, grid = path_problem(ds, config, 30)
    ref = np.zeros(ds.p)
    points = list(wlasso._walk_path(problem, grid, config))
    for (lam, beta, iterations, _), ref_lam in zip(points[1:], grid[1:]):
        ref, sweeps, _ = reference_cd_solve(problem, config, ref_lam, ref)
        assert iterations == sweeps
        assert beta.tobytes() == ref.tobytes()
    assert {kind for kind, _ in sweep_log} == {"scalar"}


def test_objective_never_increases_within_a_solve(sweep_log):
    """Holds on the scalar loop and, with ``q`` refreshed lazily, on block
    steps too."""
    cases = [
        (random_dataset(31, n=40, p=10, effect=0.8), 0.2, False),
        (random_dataset(7, n=60, p=100), 0.05, True),
    ]
    for ds, ratio, takes_block_steps in cases:
        problem = WeightedProblem.from_dataset(ds).prepare()[0]
        lam = ratio * lambda_max(ds)
        trace = []
        sweep_log.clear()
        _cd_solve(problem, EnetConfig(tol=1e-10), lam, objective_trace=trace)
        assert len(trace) >= 2
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-12)
        assert (("block", True) in sweep_log) == takes_block_steps


def test_constant_outcome_column_is_pinned_at_zero():
    rng = np.random.default_rng(41)
    n = 40
    t = np.array([1, 0] * (n // 2))
    y = rng.standard_normal((n, 3))
    y[:, 1] = 7.0  # zero variance
    y[:, 0] += t
    ds = TrialDataset(t, y)
    fit = fit_weighted_enet(ds, EnetConfig(lam=0.01))
    assert fit.beta[1] == 0.0
    assert np.all(np.isfinite(fit.beta))
    assert 1 not in fit.active_set


def test_the_penalty_grid_is_geomspace_bit_for_bit():
    """The path's grid skips ``np.geomspace``'s argument handling and keeps
    its values bit for bit."""
    rng = np.random.default_rng(0)
    for _ in range(300):
        top, ratio = float(10 ** rng.uniform(-8, 6)), float(rng.uniform(1e-8, 0.999))
        n = int(rng.integers(2, 400))
        moments = SimpleNamespace(penalized=np.array([True]), ty=np.array([top]))
        grid = _path_grid(moments, EnetConfig(), n, ratio)
        assert grid[0] == top
        np.testing.assert_array_equal(grid, np.geomspace(top, top * ratio, n))


def test_subset_rss_hand_example():
    """T = (1,1,0,0), Y = (3,5,1,1): empty-set rss is 2 and the one-column
    rss is 13/11, both exact."""
    ds = TrialDataset([1, 1, 0, 0], [[3.0], [5.0], [1.0], [1.0]])
    problem = WeightedProblem.from_dataset(ds)
    assert problem.subset_weighted_rss([]) == pytest.approx(2.0, rel=1e-14)
    assert problem.subset_weighted_rss([0]) == pytest.approx(13.0 / 11.0, rel=1e-12)


def test_subset_rss_matches_unpenalized_fit_on_full_set():
    ds = random_dataset(43, n=50, p=4)
    fit = fit_weighted_enet(ds, EnetConfig(lam=0.0, tol=1e-12))
    rss = WeightedProblem.from_dataset(ds).subset_weighted_rss(range(ds.p))
    assert fit.weighted_rss == pytest.approx(rss, rel=1e-9)


def test_subset_rss_validation():
    ds = random_dataset(44, n=20, p=5)
    problem = WeightedProblem.from_dataset(ds)
    with pytest.raises(DataError, match="duplicate"):
        problem.subset_weighted_rss([1, 1])
    with pytest.raises(DataError, match="out of range"):
        problem.subset_weighted_rss([5])
    small = random_dataset(45, n=5, p=5)
    with pytest.raises(DataError, match="exceeds"):
        WeightedProblem.from_dataset(small).subset_weighted_rss([0, 1, 2, 3])
    dup = TrialDataset(
        ds.treatments, np.column_stack([ds.outcomes[:, 0], ds.outcomes[:, 0]])
    )
    with pytest.raises(NumericalError, match="singular"):
        WeightedProblem.from_dataset(dup).subset_weighted_rss([0, 1])


def test_config_validation():
    with pytest.raises(DataError, match="lam"):
        EnetConfig(lam=-0.1)
    with pytest.raises(DataError, match="l1_ratio"):
        EnetConfig(l1_ratio=0.0)
    with pytest.raises(DataError, match="l1_ratio"):
        EnetConfig(l1_ratio=1.2)
    with pytest.raises(DataError, match="tol"):
        EnetConfig(tol=0.0)
    with pytest.raises(DataError, match="max_iter"):
        EnetConfig(max_iter=0)


def collinear_dataset(seed, n=200, p=4, spread=1e-6):
    """Covariates in the outcomes' layout whose first two columns differ by
    ``spread`` times noise, so the weighted covariate block is nearly
    singular (condition number about ``1 / spread``); ``spread=0`` makes it
    singular."""
    rng = np.random.default_rng(seed)
    t = np.array([1, 0] * (n // 2))
    rng.shuffle(t)
    x = rng.standard_normal((n, p))
    x[:, 1] = x[:, 0] + spread * rng.standard_normal(n)
    y = rng.standard_normal((n, p)) + x @ rng.uniform(0.2, 0.8, (p, p))
    y[:, 0] += 0.8 * t
    return TrialDataset(t, y, x)


def test_level_problems_keep_the_conditioning_of_the_row_wise_moments():
    """With covariates of condition number about 1e6, a level's moments,
    path and subset RSS from the shared factor agree to 1e-8 with
    the row-wise projection on the aggregated dataset."""
    ds = collinear_dataset(61)
    levels = [[(0,), (1,), (2,), (3,)], [(0, 2), (1, 3)]]
    config = EnetConfig()
    for grouping, level in zip(levels, level_problems(ds, levels)):
        agg = aggregate_columns(ds, grouping)
        want = WeightedProblem.from_dataset(agg).prepare()[0]
        got = level.prepare()[0]
        np.testing.assert_array_equal(got.penalized, want.penalized)
        for name in ("ty", "tt"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-8)
        np.testing.assert_allclose(dense_gram(got.gram), dense_gram(want.gram),
                                   rtol=1e-8, atol=1e-8 * want.gram.diag.max())
        for (lam_g, beta_g, _, _), (lam_w, beta_w, _, _) in zip(
                level.walk_path(20, config=config),
                WeightedProblem.from_dataset(agg).walk_path(20, config=config)):
            assert lam_g == pytest.approx(lam_w, rel=1e-8)
            np.testing.assert_allclose(beta_g, beta_w, rtol=0, atol=1e-8)
        assert level.subset_weighted_rss([0, 1]) == pytest.approx(
            WeightedProblem.from_dataset(agg).subset_weighted_rss([0, 1]), rel=1e-8)
    fine = aggregate_columns(ds, levels[0])
    xc = (fine.covariates - fine.covariates.mean(axis=0)) * np.sqrt(
        propensity_weights(fine.treatments))[:, None]
    assert 1e5 < np.linalg.cond(xc) < 1e7


@pytest.mark.parametrize("gather_bytes", [None, 3 * 8 * 9 + 5, 8])
@pytest.mark.parametrize("m", [0, 9])
def test_problems_of_rows_are_those_of_the_taken_rows_bit_for_bit(monkeypatch, gather_bytes, m):
    """Rows gathered from the dataset into the weighted columns, in one
    chunk, in chunks of 3 rows with a short last one, or a row at a time,
    give the problems of ``take_rows`` of them bit for bit: the weighted
    columns, each level's factor and their row counts."""
    if gather_bytes is not None:
        monkeypatch.setattr(wlasso, "_GATHER_BYTES", gather_bytes)
    ds = random_dataset(71, n=90, p=9, m=m)
    levels = [[(0, 1, 2), (3, 4, 5), (6, 7, 8)], [(j,) for j in range(9)]]
    for seed in range(4):
        rows = np.sort(np.random.default_rng(seed).choice(ds.n, 40 + seed, replace=False))
        half = ds.take_rows(rows)
        got, want = WeightedProblem.from_dataset(ds, rows), WeightedProblem.from_dataset(half)
        assert got.rows.tobytes() == want.rows.tobytes() and got.n == want.n == rows.size
        for got, want in zip(level_problems(ds, levels, rows), level_problems(half, levels)):
            assert got.rows.tobytes() == want.rows.tobytes()
            assert (got.n, got.m, got.p) == (want.n, want.m, want.p)


def project_columns(design, columns, what):
    """The reference covariate regression: the slopes of ``columns`` on the
    centered ``design`` and their residuals ``C - Q Q' C``, formed whole."""
    q, coef, slopes = covariate_coefficients(design, columns, what)
    return slopes, columns - q @ coef


def reference_rss(weighted, m, p, subset):
    """The restricted weighted RSS read straight off the weighted columns
    ``sqrt(w) [Xc | Yc | t]``, in their own layout."""
    n, idx = weighted.shape[0], np.asarray(subset, dtype=np.intp)
    t = weighted[:, m + p]
    if idx.size == 0:
        return float(t @ t / n)
    cols = weighted[:, m + idx]
    beta = np.linalg.solve(cols.T @ cols / n, cols.T @ t / n)
    residual = t - cols @ beta
    return float(residual @ residual / n)


@pytest.mark.parametrize("gather_bytes", [None, 3 * 8 * 30 + 5, 8])
@pytest.mark.parametrize("half", [False, True])
def test_a_concentration_in_place_has_the_bits_of_project_columns(monkeypatch, gather_bytes, half):
    """A dataset's problem gives its weighted columns up and reads them
    again, in one chunk, in chunks of 3 rows with a short last one, or a row
    at a time: its slopes and concentrated rows are ``project_columns``'s of
    the weighted columns bit for bit, for the whole dataset and for rows."""
    if gather_bytes is not None:
        monkeypatch.setattr(wlasso, "_GATHER_BYTES", gather_bytes)
    ds = random_dataset(73, n=90, p=30, m=4)
    rows = np.sort(np.random.default_rng(5).choice(ds.n, 41, replace=False)) if half else None
    problem = WeightedProblem.from_dataset(ds, rows)
    weighted = problem.rows
    want_slopes, want_rows = project_columns(weighted[:, :4], weighted[:, 4:],
                                             "weighted covariate block")
    _, slopes, got_rows = problem.prepare()
    assert problem.rows is None
    assert slopes.tobytes() == want_slopes.tobytes()
    assert got_rows.tobytes() == want_rows.tobytes()
    assert got_rows.shape == want_rows.shape and got_rows.flags.c_contiguous


@pytest.mark.parametrize("route", ["fresh", "walk", "fit"])
@pytest.mark.parametrize("m", [0, 4])
def test_subset_rss_has_the_bits_of_the_weighted_columns(route, m):
    """A subset regression reads its columns and the treatment again from the
    dataset where the problem has covariates: its RSS is the one read off the
    weighted columns bit for bit, for the empty subset too, before the
    problem is prepared, after a path walk and after a fit."""
    ds = random_dataset(75, n=80, p=25, m=m)
    rows = np.sort(np.random.default_rng(6).choice(ds.n, 43, replace=False))
    subsets = [[], [3], [0, 7, 2], list(range(0, 25, 2))]
    for problem in (WeightedProblem.from_dataset(ds), WeightedProblem.from_dataset(ds, rows)):
        weighted = problem.rows
        if route == "walk":
            list(problem.walk_path(20))
        elif route == "fit":
            problem.fit(EnetConfig(lam=0.05))
        for subset in subsets:
            want = reference_rss(weighted, m, ds.p, subset)
            assert problem.subset_weighted_rss(subset).hex() == want.hex()


def test_a_problem_concentrates_once(monkeypatch):
    """A second ``prepare`` reads what the first concentrated, with no second
    concentration; slopes a walk did not keep are concentrated again, with
    the bits they would have had."""
    calls = []

    def counted(*args):
        calls.append(args[0].shape)
        return covariate_coefficients(*args)

    monkeypatch.setattr(wlasso, "covariate_coefficients", counted)
    ds = random_dataset(77, n=60, p=20, m=3)
    problem = WeightedProblem.from_dataset(ds)
    want_slopes = project_columns(problem.rows[:, :3], problem.rows[:, 3:], "block")[0]
    first, second = problem.prepare(), problem.prepare()
    assert len(calls) == 1
    assert first[1] is second[1] and first[2] is second[2]
    assert first[0].ty.tobytes() == second[0].ty.tobytes()
    walked = WeightedProblem.from_dataset(ds)
    assert walked.prepare(slopes=False)[1] is None and len(calls) == 2
    _, slopes, rows = walked.prepare()
    assert len(calls) == 3 and walked.prepare()[1] is slopes
    assert slopes.tobytes() == want_slopes.tobytes() and rows.tobytes() == first[2].tobytes()


def test_level_problems_reject_a_duplicated_covariate_as_prepare_does():
    ds = collinear_dataset(62, spread=0.0)
    grouping = [(0,), (1,), (2,), (3,)]
    (level,) = level_problems(ds, [grouping])
    message = "singular weighted covariate block \\(rank 3 < m=4\\)"
    with pytest.raises(NumericalError, match=message):
        WeightedProblem.from_dataset(aggregate_columns(ds, grouping)).prepare()
    with pytest.raises(NumericalError, match=message):
        level.walk_path()
    with pytest.raises(NumericalError, match=message):
        level.fit(EnetConfig(lam=0.1))
    # the subset regression leaves covariates out, on both routes
    assert level.subset_weighted_rss([2]) == pytest.approx(
        WeightedProblem.from_dataset(aggregate_columns(ds, grouping)).subset_weighted_rss([2]),
        rel=1e-12)


def test_a_level_fit_reports_the_covariate_block_and_rss_of_the_aggregated_dataset():
    """A level's concentration gives the slopes and rows a fit reports:
    ``alpha_cov`` and the RSS match :func:`fit_weighted_enet` on the
    aggregated dataset, as ``beta`` does."""
    ds = collinear_dataset(63, spread=0.5)
    levels = [[(0,), (1,), (2,), (3,)], [(0, 2), (1, 3)]]
    for grouping, level in zip(levels, level_problems(ds, levels)):
        agg = aggregate_columns(ds, grouping)
        for scale in (0.0, 0.05):
            config = EnetConfig(lam=scale * lambda_max(agg), tol=1e-12)
            got, want = level.fit(config), fit_weighted_enet(agg, config)
            assert got.active_set == want.active_set and len(got.alpha_cov) == agg.m
            np.testing.assert_allclose(got.beta, want.beta, rtol=0, atol=1e-10)
            np.testing.assert_allclose(got.alpha_cov, want.alpha_cov, rtol=1e-10)
            assert got.weighted_rss == pytest.approx(want.weighted_rss, rel=1e-12)
