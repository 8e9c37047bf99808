import logging

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from elastishape.errors import InputError, ParseError, RankDeficiencyError
from elastishape.regression import (
    COVARIATE_COLUMNS,
    CovariateTable,
    ModelSpec,
    design_matrix,
    ols_fit,
    run_model_suite,
    stepwise_bidirectional,
    suite_specs,
    t_tail_p,
    term_parts,
)


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
    with pytest.raises(ValueError, match="ps index"):
        ModelSpec(response="pss", terms=["ps(h,16)"], n_ps=15)
    with pytest.raises(ValueError, match="interactions"):
        ModelSpec(response="pss", terms=["age*ps(h,6)"], n_ps=15, n_interact_ps=5)
    spec = ModelSpec(
        response="pss", terms=["intercept", "age", "ps(h,1)", "age*ps(h,1)"]
    )
    assert spec.forced_terms() == ["intercept", "age"]


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
        n_ps=4,
        n_interact_ps=2,
    )
    x, names = design_matrix(spec, table, scores)
    assert names == spec.terms
    assert_allclose(x[:, 0], 1.0)
    assert_allclose(x[:, 1], table.age)
    assert_allclose(x[:, 2], scores["h"][:, 1])
    assert_allclose(x[:, 3], table.age * scores["h"][:, 0])


def test_design_matrix_score_errors():
    table = _table(n=10)
    spec = ModelSpec(response="pss", terms=["intercept", "ps(h,3)"], n_ps=3)
    with pytest.raises(ValueError, match="no scores"):
        design_matrix(spec, table, {})
    with pytest.raises(ValueError, match="only"):
        design_matrix(spec, table, {"h": np.zeros((10, 2))})
    # stepwise builds the full design up front, so a term it cannot
    # build is an error, not a candidate quietly skipped
    with pytest.raises(ValueError, match=r"ps\(h,3\)"):
        stepwise_bidirectional(spec, table, {"h": np.zeros((10, 2))})


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
        n_ps=4,
        n_interact_ps=2,
    )
    result = stepwise_bidirectional(spec, table, scores, criterion="bic")
    assert "ps(h,1)" in result.fit.terms
    assert "intercept" in result.fit.terms
    # the fit on a slice of the full design matches a fresh design of the
    # selected terms (a slice may round differently in the last bit)
    chosen = ModelSpec(
        response="pss", terms=result.fit.terms, n_ps=4, n_interact_ps=2
    )
    x, names = design_matrix(chosen, table, scores)
    direct = ols_fit(x, table.pss, names)
    for attr in ("coefficients", "std_errors", "p_values", "adj_r_squared"):
        assert_allclose(getattr(result.fit, attr), getattr(direct, attr), rtol=1e-12)
    # criterion trace improves monotonically after the start
    values = [v for _, _, v in result.trace]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert result.criterion == "bic"


def test_stepwise_keeps_forced_terms():
    n = 60
    table = _table(n=n, seed=7)
    rng = np.random.default_rng(7)
    scores = {"h": 0.2 * rng.standard_normal((n, 3))}
    spec = ModelSpec(
        response="ctqtot",
        terms=["intercept", "age", "bdi"] + [f"ps(h,{k})" for k in range(1, 4)],
        n_ps=3,
        n_interact_ps=1,
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


def test_run_model_suite_report_rows():
    n = 50
    table = _table(n=n, seed=11)
    rng = np.random.default_rng(11)
    scores = {"h": 0.2 * rng.standard_normal((n, 3))}
    report = run_model_suite(table, scores, n_ps=3, n_interact_ps=1, criterion="bic")
    assert [row["model_id"] for row in report] == list(range(1, 11))
    for row in report:
        assert row["response"] in ("pss", "ctqtot")
        assert isinstance(row["adj_r_squared"], float)
        assert row["n_terms"] >= 1
        for sel in row["selected"]:
            assert sel["term"] != "intercept"
            assert sel["sign"] in "+-"
            assert 0.0 <= sel["p_value"] <= 1.0
            assert np.sign(sel["coefficient"]) >= 0 or sel["sign"] == "-"


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
        n_ps=4,
        n_interact_ps=2,
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
        n_ps=8,
    )
    result, skipped = _assert_matches_reference(
        spec, table, scores, criterion, caplog
    )
    assert result.skipped_underdetermined > 0


def test_stepwise_from_an_empty_baseline(caplog):
    table, scores = _planted_cohort(60, 3)
    spec = ModelSpec(response="ctqtot", terms=[f"ps(t,{k})" for k in range(1, 7)],
                     n_ps=6)
    assert spec.forced_terms() == []
    result, _ = _assert_matches_reference(spec, table, scores, "bic", caplog)
    assert len(result.trace) > 1


def test_stepwise_rejects_non_finite_data():
    table, scores = _planted_cohort(40, 1)
    spec = ModelSpec(response="pss", terms=["intercept", "age", "ps(h,1)"], n_ps=6)
    scores["h"][3, 0] = np.nan
    with pytest.raises(ValueError, match=r"non-finite.*ps\(h,1\)"):
        stepwise_bidirectional(spec, table, scores)
    scores["h"][3, 0] = 0.0
    table.pss[0] = np.inf
    with pytest.raises(ValueError, match="non-finite.*pss"):
        stepwise_bidirectional(spec, table, scores)
