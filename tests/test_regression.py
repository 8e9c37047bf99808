import logging
import re
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from elastishape.errors import InputError, ParseError, RankDeficiencyError
from elastishape.regression import (
    COVARIATE_COLUMNS,
    CovariateTable,
    ModelSpec,
    RegressionFit,
    StepwiseResult,
    _criterion_value,
    _qr_pivoted,
    design_matrix,
    ols_fit,
    stepwise_bidirectional,
    suite_specs,
    t_tail_p,
    term_parts,
)
from elastishape.synthetic import CohortSpec, gen_regression_cohort


def _table(n=40, seed=0):
    rng = np.random.default_rng(seed)
    return CovariateTable(
        ids=[f"s{i:03d}" for i in range(n)],
        age=rng.uniform(20, 60, n),
        bdi=rng.uniform(0, 30, n),
        icv=rng.uniform(1200, 1700, n),
        pss=rng.uniform(5, 35, n),
        ctqtot=rng.uniform(30, 90, n),
        label=rng.integers(0, 2, n).astype(float),
    )


def test_term_parts():
    assert term_parts("age") == (None, None, None)
    assert term_parts("ps(hippo,3)") == (None, "hippo", 3)
    assert term_parts("age*ps(hippo,2)") == ("age", "hippo", 2)
    with pytest.raises(ValueError):
        term_parts("icv*ps(hippo,1)")


def test_model_spec_validation():
    with pytest.raises(ValueError, match="response"):
        ModelSpec(response="bdi", terms=["intercept"])
    with pytest.raises(ValueError, match="duplicate"):
        ModelSpec(response="pss", terms=["age", "age"])
    spec = ModelSpec(
        response="pss", terms=["intercept", "age", "ps(h,1)", "age*ps(h,1)"]
    )
    assert spec.forced_terms() == ["intercept", "age"]


@pytest.mark.parametrize("term", ["ps(h,0)", "age*ps(h,0)"])
def test_model_spec_rejects_a_zero_score_index_by_name(term):
    # ps(h,0) would otherwise read the last score column
    with pytest.raises(ValueError, match=rf"'{re.escape(term)}': ps index must be at least 1"):
        ModelSpec(response="pss", terms=["intercept", term])


def test_covariate_csv_round_trip(tmp_path):
    table = _table()
    path = tmp_path / "cov.csv"
    table.to_csv(path)
    back = CovariateTable.from_csv(path)
    assert back.ids == table.ids
    assert_allclose(back.age, table.age)
    assert_allclose(back.ctqtot, table.ctqtot)


def test_covariate_csv_validation(tmp_path):
    path = tmp_path / "cov.csv"
    path.write_text("id,age,bdi\ns0,30,5\n")
    with pytest.raises(ParseError, match="missing required columns"):
        CovariateTable.from_csv(path)

    header = ",".join(COVARIATE_COLUMNS)
    path.write_text(f"{header}\ns0,30,5,1500,20,abc,0\n")
    with pytest.raises(ParseError, match="ctqtot"):
        CovariateTable.from_csv(path)

    path.write_text(f"{header}\ns0,30,5,1500,20,60,2\n")
    with pytest.raises(InputError, match="label"):
        CovariateTable.from_csv(path)

    # bdi above its declared ceiling: rejected strict, kept lenient
    path.write_text(f"{header}\ns0,30,99,1500,20,60,0\n")
    with pytest.raises(InputError, match="bdi"):
        CovariateTable.from_csv(path)
    table = CovariateTable.from_csv(path, strict=False)
    assert table.bdi[0] == 99.0


def test_design_matrix_columns():
    table = _table(n=10)
    rng = np.random.default_rng(1)
    scores = {"h": rng.standard_normal((10, 4))}
    spec = ModelSpec(
        response="pss",
        terms=["intercept", "age", "ps(h,2)", "age*ps(h,1)"],
    )
    x, names = design_matrix(spec, table, scores)
    assert names == spec.terms
    assert_allclose(x[:, 0], 1.0)
    assert_allclose(x[:, 1], table.age)
    assert_allclose(x[:, 2], scores["h"][:, 1])
    assert_allclose(x[:, 3], table.age * scores["h"][:, 0])


def test_design_matrix_score_errors():
    table = _table(n=10)
    spec = ModelSpec(response="pss", terms=["intercept", "ps(h,3)"])
    with pytest.raises(ValueError, match="no scores"):
        design_matrix(spec, table, {})
    with pytest.raises(ValueError, match="only"):
        design_matrix(spec, table, {"h": np.zeros((10, 2))})
    # stepwise builds the full design up front, so a term it cannot
    # build is an error, not a candidate quietly skipped
    with pytest.raises(ValueError, match=r"ps\(h,3\)"):
        stepwise_bidirectional(spec, table, {"h": np.zeros((10, 2))})


@pytest.mark.parametrize("term", ["ps(h,16)", "bdi*ps(h,16)"])
def test_design_matrix_rejects_a_score_index_past_the_table(term):
    table = _table(n=10)
    spec = ModelSpec(response="pss", terms=["intercept", term])
    with pytest.raises(ValueError, match=rf"term '{re.escape(term)}': structure 'h' "
                                         "provides only 15 score components"):
        design_matrix(spec, table, {"h": np.zeros((10, 15))})


def test_t_tail_p_matches_reference():
    t = np.array([0.0, 1.0, -2.5, 4.0])
    assert_allclose(t_tail_p(t, 17), 2 * stats.t.sf(np.abs(t), 17), rtol=1e-10)


def test_ols_recovers_exact_coefficients():
    rng = np.random.default_rng(3)
    n = 50
    x = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
    beta = np.array([2.0, -1.5, 0.75])
    y = x @ beta
    fit = ols_fit(x, y, ["intercept", "a", "b"])
    assert_allclose(fit.coefficients, beta, atol=1e-10)
    assert fit.r_squared > 1.0 - 1e-12
    assert fit.df_resid == 47


def test_ols_inference_against_reference():
    rng = np.random.default_rng(9)
    n = 80
    x = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
    y = x @ np.array([1.0, 0.5, 0.0]) + rng.standard_normal(n)
    fit = ols_fit(x, y)
    xtx_inv = np.linalg.inv(x.T @ x)
    coef = xtx_inv @ x.T @ y
    resid = y - x @ coef
    sigma2 = resid @ resid / (n - 3)
    se = np.sqrt(sigma2 * np.diag(xtx_inv))
    assert_allclose(fit.coefficients, coef, atol=1e-10)
    assert_allclose(fit.std_errors, se, rtol=1e-10)
    assert_allclose(fit.p_values, 2 * stats.t.sf(np.abs(coef / se), n - 3), rtol=1e-8)


def test_ols_std_errors_on_a_near_collinear_design():
    # x = [1, a, c] with c = a + 2^-20 w (cond about 4e6).  c - a is exact
    # (Sterbenz), so x = z @ m exactly for the well-conditioned
    # z = [1, a, (c - a) / 2^-20], and m's inverse is exact because the
    # scale is a power of two: cov(x) = m^-1 cov(z) m^-T is the reference.
    rng = np.random.default_rng(21)
    n = 60
    scale = 2.0**-20
    a = 1.0 + rng.uniform(0.0, 1.0, n)
    c = a + scale * rng.standard_normal(n)
    x = np.column_stack([np.ones(n), a, c])
    z = np.column_stack([np.ones(n), a, (c - a) / scale])
    m_inv = np.array(
        [[1.0, 0.0, 0.0], [0.0, 1.0, -1.0 / scale], [0.0, 0.0, 1.0 / scale]]
    )
    y = z @ np.array([1.0, 2.0, -0.5]) + rng.standard_normal(n)
    ztz_inv = np.linalg.inv(z.T @ z)
    z_coef = ztz_inv @ z.T @ y
    resid = y - z @ z_coef
    sigma2 = resid @ resid / (n - 3)
    se = np.sqrt(np.diag(sigma2 * m_inv @ ztz_inv @ m_inv.T))
    fit = ols_fit(x, y)
    assert np.linalg.cond(x) > 1e6
    assert_allclose(fit.std_errors, se, rtol=1e-8)
    assert_allclose(fit.coefficients, m_inv @ z_coef, rtol=1e-8)


def test_rank_deficiency_names_columns():
    n = 30
    rng = np.random.default_rng(5)
    a = rng.standard_normal(n)
    x = np.column_stack([np.ones(n), a, 2.0 * a])
    with pytest.raises(RankDeficiencyError) as exc:
        ols_fit(x, rng.standard_normal(n), ["intercept", "a", "double_a"])
    assert "double_a" in exc.value.columns or "a" in exc.value.columns


def test_underdetermined_is_rejected():
    with pytest.raises(ValueError, match="underdetermined"):
        ols_fit(np.ones((3, 4)), np.zeros(3))


def test_ols_rejects_non_finite_data():
    x = np.column_stack([np.ones(6), np.arange(6.0)])
    for bad_x, bad_y in ((x, np.array([0, 1, np.nan, 3, 4, 5.0])),
                         (np.where(x == 2.0, np.inf, x), np.arange(6.0))):
        with pytest.raises(ValueError, match="non-finite"):
            ols_fit(bad_x, bad_y)


def test_stepwise_recovers_a_planted_predictor():
    rng = np.random.default_rng(1234)
    n = 120
    table = _table(n=n, seed=1234)
    scores = {"h": 0.3 * rng.standard_normal((n, 4))}
    table.pss = np.clip(
        10.0 + 0.05 * table.age + 20.0 * scores["h"][:, 0] + 0.3 * rng.standard_normal(n),
        0.0,
        42.0,
    )
    spec = ModelSpec(
        response="pss",
        terms=["intercept", "age", "bdi"]
        + [f"ps(h,{k})" for k in range(1, 5)]
        + [f"age*ps(h,{k})" for k in range(1, 3)],
    )
    result = stepwise_bidirectional(spec, table, scores, criterion="bic")
    assert "ps(h,1)" in result.fit.terms
    assert "intercept" in result.fit.terms
    # the fit on a slice of the full design matches a fresh design of the
    # selected terms (a slice may round differently in the last bit)
    chosen = ModelSpec(response="pss", terms=result.fit.terms)
    x, names = design_matrix(chosen, table, scores)
    direct = ols_fit(x, table.pss, names)
    for attr in ("coefficients", "std_errors", "p_values", "adj_r_squared"):
        assert_allclose(getattr(result.fit, attr), getattr(direct, attr), rtol=1e-12)
    # criterion trace improves monotonically after the start
    values = [v for _, _, v in result.trace]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_stepwise_keeps_forced_terms():
    n = 60
    table = _table(n=n, seed=7)
    rng = np.random.default_rng(7)
    scores = {"h": 0.2 * rng.standard_normal((n, 3))}
    spec = ModelSpec(
        response="ctqtot",
        terms=["intercept", "age", "bdi"] + [f"ps(h,{k})" for k in range(1, 4)],
    )
    result = stepwise_bidirectional(spec, table, scores, criterion="bic")
    for term in ("intercept", "age", "bdi"):
        assert term in result.fit.terms


def test_suite_specs_structure():
    specs = suite_specs(["h", "t"], n_ps=3, n_interact_ps=2)
    assert sorted(specs) == list(range(1, 11))
    for mid in (1, 2, 3, 4, 9):
        assert specs[mid].response == "pss"
    for mid in (5, 6, 7, 8, 10):
        assert specs[mid].response == "ctqtot"
    assert specs[3].terms == ["intercept", "age", "bdi"]
    assert specs[4].terms[0] == "intercept"
    assert all(term_parts(t)[2] is not None for t in specs[4].terms[1:])
    assert "icv" in specs[9].terms and "icv" in specs[10].terms
    assert "icv" not in specs[1].terms
    # full specs carry both structures' score and interaction blocks
    assert "ps(t,3)" in specs[1].terms
    assert "bdi*ps(t,2)" in specs[1].terms
    assert "age*ps(h,3)" not in specs[1].terms


def _reference_criterion_value(name: str, x, y, terms):
    fit = ols_fit(x, y, terms)
    n = fit.n_obs
    ssr = max(fit.residual_variance * fit.df_resid, 1e-300)
    k = len(terms)
    if name == "aic":
        value = n * np.log(ssr / n) + 2 * k
    elif name == "bic":
        value = n * np.log(ssr / n) + np.log(n) * k
    else:
        raise ValueError(f"unknown criterion '{name}'")
    return value, fit


def _reference_stepwise(spec_full, cov, scores, criterion):
    """The search that refits every candidate move with `ols_fit`.

    A copy of the loop that QR-update scoring replaced, kept as the
    reference; it also returns each skipped add as (term, reason).
    """
    x_full, names = design_matrix(spec_full, cov, scores)
    y = cov.response(spec_full.response)
    column = {t: j for j, t in enumerate(names)}

    def fit_terms(terms):
        x = x_full[:, [column[t] for t in terms]]
        return _reference_criterion_value(criterion, x, y, terms)

    forced = spec_full.forced_terms()
    selected = list(forced)
    value, fit = fit_terms(selected)
    trace = [(None, None, value)]
    skipped = []

    while True:
        best = None
        candidates = [("add", t) for t in spec_full.terms if t not in selected]
        candidates += [("drop", t) for t in selected if t not in forced]
        for action, term in candidates:
            if action == "add":
                terms = [t for t in spec_full.terms if t in selected or t == term]
            else:
                terms = [t for t in selected if t != term]
            try:
                cand_value, cand_fit = fit_terms(terms)
            except RankDeficiencyError:
                skipped.append((term, "rank deficient"))
                continue
            except ValueError:
                skipped.append((term, "underdetermined"))
                continue
            if cand_value < value and (best is None or cand_value < best[0]):
                best = (cand_value, action, term, terms, cand_fit)
        if best is None:
            break
        value, action, term, selected, fit = best
        trace.append((action, term, value))

    return fit, trace, skipped


def _assert_matches_reference(spec, table, scores, criterion, caplog):
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="elastishape.regression"):
        result = stepwise_bidirectional(spec, table, scores, criterion)
    fit, trace, skipped = _reference_stepwise(spec, table, scores, criterion)
    assert [t[:2] for t in result.trace] == [t[:2] for t in trace]
    assert result.fit.terms == fit.terms
    for attr in ("coefficients", "std_errors", "p_values"):
        assert np.array_equal(getattr(result.fit, attr), getattr(fit, attr)), attr
    # A criterion is n log(rss / n) plus a penalty: a relative error of
    # 1e-12 in rss moves it by n * 1e-12, and a value near zero has no
    # relative precision of its own.
    assert_allclose(
        [t[2] for t in result.trace],
        [t[2] for t in trace],
        rtol=1e-12,
        atol=1e-12 * table.n_subjects,
    )
    logged = [r.args for r in caplog.records if r.msg.startswith("skipped add")]
    assert logged == skipped
    assert result.skipped_rank == sum(r == "rank deficient" for _, r in skipped)
    assert result.skipped_underdetermined == sum(
        r == "underdetermined" for _, r in skipped
    )
    return result, skipped


def _planted_cohort(n, seed, n_ps=6):
    rng = np.random.default_rng(seed)
    table = _table(n=n, seed=seed)
    scores = {s: 0.3 * rng.standard_normal((n, n_ps)) for s in ("h", "t")}
    table.pss = (10.0 + 0.05 * table.age + 8.0 * scores["h"][:, 0]
                 + 0.2 * table.bdi * scores["t"][:, 1] + rng.standard_normal(n))
    table.ctqtot = 50.0 + 0.4 * table.bdi - 10.0 * scores["t"][:, 2] \
        + 3.0 * rng.standard_normal(n)
    return table, scores


@pytest.mark.parametrize("criterion", ["aic", "bic"])
@pytest.mark.parametrize("seed", [101, 202, 303])
def test_stepwise_matches_the_per_candidate_refits(seed, criterion, caplog):
    table, scores = _planted_cohort(150, seed)
    specs = suite_specs(["h", "t"], n_ps=6, n_interact_ps=3)
    moves = 0
    for spec in specs.values():
        result, skipped = _assert_matches_reference(
            spec, table, scores, criterion, caplog
        )
        assert skipped == []
        moves += len(result.trace) - 1
    assert moves > 10


@pytest.mark.parametrize("criterion", ["aic", "bic"])
def test_stepwise_skips_a_duplicated_score_column_like_ols_fit(criterion, caplog):
    table, scores = _planted_cohort(80, 7)
    scores["h"][:, 1] = scores["h"][:, 0]
    spec = ModelSpec(
        response="pss",
        terms=["intercept", "age", "bdi"]
        + [f"ps(h,{k})" for k in range(1, 5)]
        + [f"age*ps(h,{k})" for k in range(1, 3)],
    )
    result, skipped = _assert_matches_reference(
        spec, table, scores, criterion, caplog
    )
    assert "ps(h,1)" in result.fit.terms
    assert ("ps(h,2)", "rank deficient") in skipped
    assert result.skipped_rank > 0


@pytest.mark.parametrize("criterion", ["aic", "bic"])
def test_stepwise_skips_underdetermined_adds_like_ols_fit(criterion, caplog):
    table, scores = _planted_cohort(9, 5, n_ps=8)
    table.pss = table.pss + 40.0 * scores["t"][:, 3]
    spec = ModelSpec(
        response="pss",
        terms=["intercept", "age", "bdi"] + [f"ps(t,{k})" for k in range(1, 9)],
    )
    result, skipped = _assert_matches_reference(
        spec, table, scores, criterion, caplog
    )
    assert result.skipped_underdetermined > 0


def test_stepwise_from_an_empty_baseline(caplog):
    table, scores = _planted_cohort(60, 3)
    spec = ModelSpec(response="ctqtot", terms=[f"ps(t,{k})" for k in range(1, 7)])
    assert spec.forced_terms() == []
    result, _ = _assert_matches_reference(spec, table, scores, "bic", caplog)
    assert len(result.trace) > 1


def test_stepwise_rejects_non_finite_data():
    table, scores = _planted_cohort(40, 1)
    spec = ModelSpec(response="pss", terms=["intercept", "age", "ps(h,1)"])
    scores["h"][3, 0] = np.nan
    with pytest.raises(ValueError, match=r"non-finite.*ps\(h,1\)"):
        stepwise_bidirectional(spec, table, scores)
    scores["h"][3, 0] = 0.0
    table.pss[0] = np.inf
    with pytest.raises(ValueError, match="non-finite.*pss"):
        stepwise_bidirectional(spec, table, scores)


# The scipy-based `t_tail_p`, `ols_fit` and `stepwise_bidirectional` that the
# numpy implementations replaced, copied literally (docstrings shortened),
# as oracles.
logger = logging.getLogger(__name__)


def _scipy_t_tail_p(t: np.ndarray, df: int) -> np.ndarray:
    """`t_tail_p` as it was with scipy."""
    from scipy.special import betainc

    t = np.asarray(t, dtype=float)
    x = df / (df + t * t)
    return betainc(df / 2.0, 0.5, x)


def _scipy_ols_fit(x: np.ndarray, y: np.ndarray, terms: list | None = None) -> RegressionFit:
    """`ols_fit` as it was with scipy."""
    from scipy.linalg import qr, solve_triangular

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    n, p = x.shape
    if terms is None:
        terms = [f"x{j}" for j in range(p)]
    if y.shape[0] != n:
        raise ValueError("row counts of X and y differ")
    if n < p + 1:
        raise ValueError(f"underdetermined system: {n} rows for {p} columns")

    q_fac, r_fac, pivot = qr(x, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r_fac))
    tol = max(n, p) * np.finfo(float).eps * (diag[0] if diag.size else 0.0)
    rank = int((diag > tol).sum())
    if rank < p:
        raise RankDeficiencyError([terms[j] for j in sorted(pivot[rank:])])

    coef = np.empty(p)
    coef[pivot] = solve_triangular(r_fac, q_fac.T @ y)
    resid = y - x @ coef
    ssr = float(resid @ resid)
    sst = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ssr / max(sst, 1e-300)
    df_resid = n - p
    sigma2 = ssr / df_resid
    r_inv = solve_triangular(r_fac, np.eye(p))
    se = np.empty(p)
    se[pivot] = np.sqrt(sigma2 * (r_inv**2).sum(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        tstat = np.where(se > 0, coef / se, np.inf * np.sign(coef))
    pvals = _scipy_t_tail_p(np.where(np.isfinite(tstat), tstat, 1e300), df_resid)

    p_excl = p - (1 if "intercept" in terms else 0)
    adj = 1.0 - (1.0 - r2) * (n - 1) / max(n - p_excl - 1, 1)
    return RegressionFit(
        terms=list(terms),
        coefficients=coef,
        std_errors=se,
        t_stats=tstat,
        p_values=pvals,
        r_squared=r2,
        adj_r_squared=adj,
        residual_variance=sigma2,
        n_obs=n,
        df_resid=df_resid,
    )


# The reference projects its add candidates this many columns at a time.
_ADD_BLOCK = 8


def _scipy_stepwise_bidirectional(
    spec_full: ModelSpec,
    cov: CovariateTable,
    scores: dict,
    criterion: str = "aic",
) -> StepwiseResult:
    """`stepwise_bidirectional` as it was with scipy."""
    x_full, names = design_matrix(spec_full, cov, scores)
    y = cov.response(spec_full.response)
    finite = np.isfinite(x_full).all(axis=0)
    if not finite.all():
        bad = ", ".join(t for t, ok in zip(names, finite) if not ok)
        raise ValueError(f"non-finite values in design column(s): {bad}")
    if not np.isfinite(y).all():
        raise ValueError(f"non-finite values in response '{spec_full.response}'")

    column = {t: j for j, t in enumerate(names)}
    n = x_full.shape[0]
    col_norms = np.sqrt(np.einsum("ij,ij->j", x_full, x_full))
    eps = np.finfo(float).eps

    def columns(terms):
        return [column[t] for t in terms]

    forced = spec_full.forced_terms()
    selected = list(forced)
    fit = _scipy_ols_fit(x_full[:, columns(selected)], y, selected)
    value = _criterion_value(
        criterion, fit.residual_variance * fit.df_resid, n, len(selected)
    )
    trace = [(None, None, value)]
    skipped_rank = skipped_under = 0
    # Imported once the baseline fit has loaded scipy.  numpy bundles a LAPACK
    # of its own; factoring with that one instead raised a regress run's peak
    # RSS by a further 0.7 MB.
    from scipy.linalg import qr, solve_triangular

    while True:
        k = len(selected)
        sel = columns(selected)
        q, r = qr(x_full[:, sel], mode="economic", check_finite=False)
        qty = q.T @ y
        e = y - q @ qty
        rss = float(e @ e)
        best = None

        adds = [t for t in spec_full.terms if t not in selected]
        if n < k + 2:
            skipped_under += len(adds)
            for term in adds:
                logger.debug("skipped add %s: %s", term, "underdetermined")
            adds = []
        norm_s = col_norms[sel].max() if k else 0.0
        for start in range(0, len(adds), _ADD_BLOCK):
            block = adds[start:start + _ADD_BLOCK]
            idx = columns(block)
            z = x_full[:, idx]
            z -= q @ (q.T @ z)
            zz = np.einsum("ij,ij->j", z, z)
            again = zz < 0.25 * col_norms[idx] ** 2
            if again.any():
                z[:, again] -= q @ (q.T @ z[:, again])
                zz[again] = np.einsum("ij,ij->j", z[:, again], z[:, again])
            tol = max(n, k + 1) * eps * np.maximum(norm_s, col_norms[idx])
            ze = e @ z
            for term, zz_j, ze_j, tol_j in zip(block, zz, ze, tol):
                if zz_j <= tol_j * tol_j:
                    skipped_rank += 1
                    logger.debug("skipped add %s: %s", term, "rank deficient")
                    continue
                rss_add = rss - ze_j * ze_j / zz_j
                cand = _criterion_value(criterion, rss_add, n, k + 1)
                if cand < value and (best is None or cand < best[0]):
                    best = (cand, "add", term)

        r_inv = solve_triangular(r, np.eye(k), check_finite=False)
        b = r_inv @ qty
        rss_drop = rss + b * b / np.einsum("ij,ij->i", r_inv, r_inv)
        for j, term in enumerate(selected):
            if term in forced:
                continue
            cand = _criterion_value(criterion, float(rss_drop[j]), n, k - 1)
            if cand < value and (best is None or cand < best[0]):
                best = (cand, "drop", term)

        if best is None:
            break
        value, action, term = best
        if action == "add":
            selected = [t for t in spec_full.terms if t in selected or t == term]
        else:
            selected = [t for t in selected if t != term]
        trace.append((action, term, value))

    if len(trace) > 1:
        fit = _scipy_ols_fit(x_full[:, columns(selected)], y, selected)
    return StepwiseResult(
        fit=fit,
        trace=trace,
        skipped_rank=skipped_rank,
        skipped_underdetermined=skipped_under,
    )


def _generic_design(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 400))
    p = int(rng.integers(1, min(n - 1, 53)))
    return rng.standard_normal((n, p)) * rng.uniform(0.1, 10, p) + rng.uniform(-3, 3, p)


def _near_collinear_design():
    # The design of test_ols_std_errors_on_a_near_collinear_design.
    rng = np.random.default_rng(21)
    a = 1.0 + rng.uniform(0.0, 1.0, 60)
    return np.column_stack([np.ones(60), a, a + 2.0**-20 * rng.standard_normal(60)])


def test_pivoted_qr_matches_lapack_dgeqp3():
    from scipy.linalg import qr

    designs = [_generic_design(seed) for seed in range(40)] + [_near_collinear_design()]
    for x in designs:
        y = np.arange(x.shape[0], dtype=float)
        r, pivot, qty = _qr_pivoted(x, y)
        q_ref, r_ref, pivot_ref = qr(x, mode="economic", pivoting=True)
        assert np.array_equal(pivot, pivot_ref)
        assert np.array_equal(r, np.triu(r))
        # Rows of R (and entries of Q^T y) may differ in sign.  Measured: |R|
        # within 9.1e-16 of max |R|, and Q^T y within 0.23 eps cond(X) |y|,
        # since the near-collinear column's direction is only known that well.
        assert np.abs(np.abs(r) - np.abs(r_ref)).max() <= 4e-15 * np.abs(r_ref).max()
        eps = np.finfo(float).eps
        assert_allclose(np.abs(qty), np.abs(q_ref.T @ y), rtol=0,
                        atol=2 * eps * np.linalg.cond(x) * np.linalg.norm(y))


def _rank_error(fit, x, y):
    with pytest.raises(RankDeficiencyError) as exc:
        fit(x, y, [f"c{j}" for j in range(x.shape[1])])
    return exc.value.columns


@pytest.mark.parametrize("seed", range(8))
def test_rank_deficient_designs_name_the_columns_the_scipy_fit_named(seed):
    rng = np.random.default_rng(seed)
    n = 40
    a, b, c = rng.standard_normal((3, n))
    ones = np.ones(n)
    y = rng.standard_normal(n)
    designs = {
        "double": [ones, a, 2.0 * a],
        "zero": [ones, a, np.zeros(n), b],
        "constant": [ones, a, 3.0 * ones],
        "scaled pair": [a, b, c, 0.5 * b, 4.0 * c],
        "sum of three": [ones, a, b, c, a + b + 2.0 * c],
    }
    for name, cols in designs.items():
        x = np.column_stack(cols)
        assert _rank_error(ols_fit, x, y) == _rank_error(_scipy_ols_fit, x, y), name
    # Where two columns tie in exact arithmetic, rounding picks the one named,
    # in either implementation (on 300 such designs scipy named the earlier
    # copy of a duplicated column 5 times); only the choice set is fixed.
    ties = {
        "duplicate": ([ones, a, b, a], [["c1"], ["c3"]]),
        "sum": ([ones, a, b, a + b, c], [["c1"], ["c2"]]),
        "difference": ([a, b, c, a - c, 0.5 * b], [["c0", "c4"], ["c2", "c4"]]),
    }
    for name, (cols, allowed) in ties.items():
        x = np.column_stack(cols)
        assert _rank_error(ols_fit, x, y) in allowed, name
        assert _rank_error(_scipy_ols_fit, x, y) in allowed, name


@pytest.mark.parametrize("seed", range(8))
def test_rank_deficient_designs_name_the_whole_dependent_set(seed):
    rng = np.random.default_rng(seed)
    n = 40
    a, b, c, d = rng.standard_normal((4, n))
    ones = np.ones(n)
    y = rng.standard_normal(n)
    designs = {
        "sum": ([ones, a, b, a + b, c], {"c1", "c2", "c3"}),
        "difference": ([ones, a, c, a - c, d], {"c1", "c2", "c3"}),
        "duplicate": ([ones, a, b, a], {"c1", "c3"}),
    }
    for name, (cols, dependent) in designs.items():
        with pytest.raises(RankDeficiencyError) as exc:
            ols_fit(np.column_stack(cols), y, [f"c{j}" for j in range(len(cols))])
        err = exc.value
        assert len(err.columns) == 1 and err.columns[0] in dependent, name
        assert err.dependent_sets == [sorted(dependent)], name
        assert "{%s}" % ", ".join(sorted(dependent)) in str(err), name


def test_dependent_sets_of_seeded_designs_with_one_planted_dependency():
    """DEPENDENT_SHARE_TOL (1e-8) was set between the shares |z_j| |x_j| / |x_k|
    measured on 2000 seeded designs like these (half of them with an
    intercept column, the combination at a random position; condition
    numbers up to 1.5e6): non-members reached 1.3e-10 and members fell to
    1.5e-5.  With column scales 0.1-10 in place of 1e-3-1e3 (3000 designs)
    they were 3.1e-14 and 3.2e-3."""
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 400))
        k = int(rng.integers(2, min(n // 2, 30)))
        base = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-3, 3, k) + rng.uniform(-3, 3, k)
        m = int(rng.integers(1, min(k, 4) + 1))
        gens = rng.choice(k, m, replace=False)
        coef = rng.uniform(0.1, 10, m) * rng.choice([-1, 1], m)
        x = np.column_stack([base, base[:, gens] @ coef])
        with pytest.raises(RankDeficiencyError) as exc:
            ols_fit(x, rng.standard_normal(n))
        assert exc.value.dependent_sets == [[f"x{j}" for j in sorted([*gens, k])]], seed


def test_independent_rank_deficiencies_get_one_set_each():
    rng = np.random.default_rng(9)
    n = 40
    a, b = rng.standard_normal((2, n))
    x = np.column_stack([np.ones(n), a, 2.0 * a, np.zeros(n), b])
    with pytest.raises(RankDeficiencyError) as exc:
        ols_fit(x, rng.standard_normal(n), ["intercept", "a", "double_a", "zero", "b"])
    assert exc.value.columns in (["a", "zero"], ["double_a", "zero"])
    assert exc.value.dependent_sets == [["a", "double_a"], ["zero"]]


@pytest.mark.parametrize("df", [1, 2, 3, 5, 30, 117, 2490, 10**5])
def test_t_tail_p_against_scipy_betainc(df):
    from scipy.special import betainc, betaincc

    z = np.random.default_rng(df).standard_normal(200)
    special = [0.0, 1e-300, -1e-300, 1e3, 1e150, np.inf, -np.inf]
    t = np.concatenate([special, z, 5 * z, 50 * z])
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        p = t_tail_p(t, df)
    assert p[:3].tolist() == [1.0, 1.0, 1.0]
    assert p[5:7].tolist() == [0.0, 0.0]
    # scipy gets the smaller of x and 1 - x, each formed directly: given x
    # alone, it loses digits where x is near 1 (3e-9 relative at df 1e5).
    with np.errstate(over="ignore", invalid="ignore"):
        x, y = df / (df + t * t), t * t / (df + t * t)
    ref = np.where(x <= y, betainc(df / 2, 0.5, x), betaincc(0.5, df / 2, y))
    ref[np.isinf(t)] = 0.0
    normal = ref > 1e-290
    # Measured on these values up to 8e-14 relative for df <= 117, 3.0e-13 at
    # df 2490 and 1.1e-11 at df 1e5, where the fraction's terms near
    # |t| = 1.7 round against x close to 1.
    assert_allclose(p[normal], ref[normal], rtol=2e-13 * max(1, df / 1000))
    assert np.abs(p[~normal]).max() <= 1e-290


def test_t_tail_p_edge_values():
    assert np.isnan(t_tail_p(np.array([np.nan]), 4)).all()
    with pytest.raises(ValueError, match="df >= 1"):
        t_tail_p(np.array([1.0]), 0)
    t = np.geomspace(1e-320, 1e308, 400)
    t = np.concatenate([-t, t])
    for df in (1, 2, 7, 2490, 10**9):
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            p = t_tail_p(t, df)
        assert ((p >= 0.0) & (p <= 1.0)).all()
        assert (np.diff(p[400:]) <= 0.0).all()


REG_STRUCTURES = ("shape", "hippocampus", "amygdala")


def _suite_cohort(seed, n=2500, n_ps=15):
    """The regress benchmark's cohort: pss and ctqtot each follow a planted
    rule on the first structure's scores; two more structures are noise."""
    spec = CohortSpec(n_subjects=n, n_u=8, n_v=8, n_directions=n_ps,
                      structure=REG_STRUCTURES[0], noise_sigma=0.5, seed=seed)
    cohort = gen_regression_cohort(spec)
    table = cohort.covariates
    table.ctqtot = gen_regression_cohort(replace(
        spec, response="ctqtot", true_terms=("bdi", "ps(shape,2)"),
        true_coefficients=(0.5, 40.0), intercept=65.0, noise_sigma=3.0,
    )).covariates.ctqtot
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    scores = {REG_STRUCTURES[0]: cohort.truth.scores[REG_STRUCTURES[0]]}
    for struct in REG_STRUCTURES[1:]:
        scores[struct] = 0.2 * rng.standard_normal((n, n_ps))
    return table, scores


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_stepwise_suite_matches_the_scipy_implementation(seed):
    table, scores = _suite_cohort(seed)
    specs = suite_specs(sorted(scores))
    for criterion in ("aic", "bic"):
        for model_id, spec in specs.items():
            got = stepwise_bidirectional(spec, table, scores, criterion)
            ref = _scipy_stepwise_bidirectional(spec, table, scores, criterion)
            where = (criterion, model_id)
            assert [m[:2] for m in got.trace] == [m[:2] for m in ref.trace], where
            assert got.fit.terms == ref.fit.terms, where
            assert got.skipped_rank == ref.skipped_rank, where
            assert got.skipped_underdetermined == ref.skipped_underdetermined, where
            assert_allclose([m[2] for m in got.trace], [m[2] for m in ref.trace],
                            rtol=1e-14, err_msg=str(where))
            # Largest differences measured on 312 such cohorts (written to CSV):
            # 1.4e-10 relative for coefficients, on ones far smaller than their
            # SE (on 18 cohorts in memory 1.4e-12 of an SE); 9.1e-11 for
            # p-values down to 1e-292; 2.0e-15 for SEs (18 cohorts).
            fit, fit_ref = got.fit, ref.fit
            assert (np.abs(fit.coefficients - fit_ref.coefficients)
                    <= 1e-11 * fit_ref.std_errors).all(), where
            assert_allclose(fit.std_errors, fit_ref.std_errors, rtol=1e-14,
                            err_msg=str(where))
            assert_allclose(fit.p_values, fit_ref.p_values, rtol=5e-10,
                            err_msg=str(where))
            assert_allclose(fit.adj_r_squared, fit_ref.adj_r_squared, rtol=1e-14)
