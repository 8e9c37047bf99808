"""Covariate/shape-score regressions with stepwise model selection.

Implements the ten-model comparison suite relating symptom scores to
age, depression score, intracranial volume, per-structure principal
scores, and covariate-by-score interactions.  Selection is bidirectional
stepwise search from a forced baseline, scored by information criterion.
Each stepwise call builds its full design once.  Each step of the search
factors the current model's columns once (`np.linalg.qr`), projects every
add candidate against that factor in one array, and scores all add and
drop moves as arrays by the textbook residual-sum-of-squares updates and
one criterion function (`_criterion_value`); the move taken is the first
minimum.  A move that would make the design rank deficient or
underdetermined is skipped and counted.  Full inference (`ols_fit`) runs
only for the baseline and for the selected model.
`run_model_suite` returns each model's spec and `StepwiseResult`, so a
caller reads the selected terms and coefficients from the fit itself.

The linear algebra and the t distribution are numpy and the standard
library only:

- `ols_fit` factors its design by Householder QR with column pivoting
  (Golub & Van Loan, *Matrix Computations*, 4th ed., Algorithm 5.4.1),
  choosing the largest remaining column norm, first index on ties, as
  LAPACK's dgeqp3 does;
- triangular systems R x = b go through `np.linalg.solve`: the LU of an
  upper-triangular R with a nonzero diagonal swaps no rows, so that is
  back-substitution;
- `t_tail_p` evaluates the regularized incomplete beta function by its
  continued fraction (Numerical Recipes, 3rd ed., Section 6.4, modified
  Lentz).
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from itertools import compress
from pathlib import Path

import numpy as np

from .errors import InputError, NumericalError, ParseError, RankDeficiencyError
from .fileio import read_numeric_table, write_csv

logger = logging.getLogger(__name__)

RESPONSES = ("pss", "ctqtot")
COVARIATE_COLUMNS = ("id", "age", "bdi", "icv", "pss", "ctqtot", "label")
_RANGES = {"bdi": (0.0, 63.0), "pss": (0.0, 42.0), "ctqtot": (25.0, 125.0)}

# The suite's default depths: the scores each structure enters with, and
# the first of them that also enter times age and times bdi.
SUITE_N_PS = 15
SUITE_N_INTERACT_PS = 5

_PS_RE = re.compile(r"^(?:(age|bdi)\*)?ps\(([^,()]+),(\d+)\)$")

__all__ = [
    "CovariateTable",
    "ModelSpec",
    "RegressionFit",
    "StepwiseResult",
    "design_matrix",
    "ols_fit",
    "t_tail_p",
    "stepwise_bidirectional",
    "suite_specs",
    "run_model_suite",
]


@dataclass
class CovariateTable:
    """Per-subject covariates and responses."""

    ids: list
    age: np.ndarray
    bdi: np.ndarray
    icv: np.ndarray
    pss: np.ndarray
    ctqtot: np.ndarray
    label: np.ndarray

    def __post_init__(self):
        n = len(self.ids)
        for name in ("age", "bdi", "icv", "pss", "ctqtot", "label"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise ValueError(f"column '{name}' length does not match id count")
            setattr(self, name, arr)

    @property
    def n_subjects(self) -> int:
        return len(self.ids)

    def response(self, name: str) -> np.ndarray:
        if name not in RESPONSES:
            raise ValueError(f"unknown response '{name}'")
        return getattr(self, name)

    @classmethod
    def from_csv(cls, path, strict: bool = True) -> "CovariateTable":
        """Ingest a covariate CSV.

        Every field but the id must be a finite number.  Declared score
        ranges are enforced when strict; otherwise violations are logged
        and kept.  Labels must be 0 or 1 either way.

        `read_numeric_table` parses the table in numpy's C parser; the
        Python path reads it instead when a check fails, and diagnoses a
        malformed table by file, line and field.
        """
        path = Path(path)

        def columns(header):
            missing = [c for c in COVARIATE_COLUMNS if c not in header]
            if missing:
                raise ParseError(f"{path}: missing required columns: {', '.join(missing)}")
            index = [header.index(c) for c in COVARIATE_COLUMNS]
            return index[0], index[1:]

        ids, values = read_numeric_table(path, columns)
        table = cls(ids, **dict(zip(COVARIATE_COLUMNS[1:], np.ascontiguousarray(values.T))))
        bad_label = ~np.isin(table.label, (0.0, 1.0))
        if bad_label.any():
            line = int(np.argmax(bad_label)) + 2
            raise InputError(f"{path}: line {line}, field 'label': must be 0 or 1")
        for name, (lo, hi) in _RANGES.items():
            vals = getattr(table, name)
            outside = (vals < lo) | (vals > hi)
            if outside.any():
                msg = (
                    f"{path}: column '{name}' outside declared range "
                    f"[{lo:g}, {hi:g}] in {int(outside.sum())} row(s)"
                )
                if strict:
                    raise InputError(msg)
                logger.warning("%s (lenient ingestion, kept)", msg)
        return table

    def to_csv(self, path) -> None:
        columns = (self.age, self.bdi, self.icv, self.pss, self.ctqtot)
        write_csv(path, COVARIATE_COLUMNS, zip(self.ids, *columns, self.label.astype(int)))


def term_parts(term: str):
    """Split a term name into (interacting covariate or None, structure, k).

    Plain covariate terms return (None, None, None) with kind taken from
    the term itself.
    """
    if term in ("intercept", "age", "bdi", "icv"):
        return None, None, None
    match = _PS_RE.match(term)
    if not match:
        raise ValueError(f"unrecognized term '{term}'")
    inter, struct, k = match.groups()
    return inter, struct, int(k)


@dataclass
class ModelSpec:
    """One regression model: a response plus an ordered term list.  Score
    indices start at 1; `design_matrix` checks them against the table."""

    response: str
    terms: list

    def __post_init__(self):
        if self.response not in RESPONSES:
            raise ValueError(f"response must be one of {RESPONSES}")
        seen = set()
        for term in self.terms:
            if term in seen:
                raise ValueError(f"duplicate term '{term}'")
            seen.add(term)
            if term_parts(term)[2] == 0:
                raise ValueError(f"term '{term}': ps index must be at least 1")

    def forced_terms(self) -> list:
        """Baseline terms never dropped by selection (non-shape terms)."""
        return [t for t in self.terms if term_parts(t)[2] is None]


def design_matrix(
    spec: ModelSpec, cov: CovariateTable, scores: dict
) -> tuple[np.ndarray, list]:
    """Design matrix with columns ordered per the spec's term list.

    scores maps structure name to an (n_subjects, n_components) score
    array with a column for every score index the spec names.
    Interaction columns are elementwise products of the raw covariate and
    raw score columns.
    """
    n = cov.n_subjects
    plain = {
        "intercept": np.ones(n),
        "age": cov.age,
        "bdi": cov.bdi,
        "icv": cov.icv,
    }
    columns = []
    for term in spec.terms:
        inter, struct, k = term_parts(term)
        if k is None:
            columns.append(plain[term])
            continue
        if struct not in scores:
            raise ValueError(f"term '{term}': no scores for structure '{struct}'")
        mat = np.asarray(scores[struct], dtype=float)
        if mat.ndim != 2 or mat.shape[0] != n:
            raise ValueError(
                f"scores for structure '{struct}' must be (n_subjects, n_ps)"
            )
        if mat.shape[1] < k:
            raise ValueError(
                f"term '{term}': structure '{struct}' provides only "
                f"{mat.shape[1]} score components"
            )
        col = mat[:, k - 1]
        if inter is not None:
            col = plain[inter] * col
        columns.append(col)
    return np.column_stack(columns), list(spec.terms)


# Stirling-series coefficients B_2k / (2k (2k - 1)) of ln Gamma(z) - ln of
# Stirling's formula, k = 1..5; from z = 16 the next term is below 1.1e-16.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)
# Stands in for a zero denominator in `t_tail_p`'s continued fraction
# (Numerical Recipes' FPMIN).
_CF_TINY = 1e-300
_CF_MAX_TERMS = 500
_EPS = float(np.finfo(float).eps)
DEPENDENT_SHARE_TOL = 1e-8  # see ols_fit; measured in the tests


def _stirling_tail(z: float) -> float:
    w = 1.0 / (z * z)
    return sum(c * w**k for k, c in enumerate(_STIRLING)) / z


def _log_gamma_half_ratio(a: float) -> float:
    """ln Gamma(a + 1/2) - ln Gamma(a) for a > 0.

    From a = 16 on, Stirling's formula for both terms leaves
    a log1p(1 / 2a) + ln(a) / 2 - 1/2 plus the difference of the two
    series tails, so the two large log-gammas never cancel.
    """
    if a < 16.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    return (a * math.log1p(0.5 / a) + 0.5 * math.log(a) - 0.5
            + _stirling_tail(a + 0.5) - _stirling_tail(a))


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) = x^a (1-x)^b / (B(a, b) a) * cf.

    Numerical Recipes (3rd ed., Section 6.4) `betacf`, by the modified
    Lentz method.  It converges fast for x < (a + 1) / (a + b + 2).
    """
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) >= _CF_TINY else _CF_TINY)
    h = d
    # The fraction stops at the first term that changes it by at most one
    # rounding: after at most 74 terms for 50000 values of |t| from 1e-12 to
    # 1e12, at each of 19 df from 1 to 1e14.  The bound only guards against
    # a fraction that does not settle.
    for m in range(1, _CF_MAX_TERMS + 1):
        for num in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) >= _CF_TINY else _CF_TINY)
            c = 1.0 + num / c
            c = c if abs(c) >= _CF_TINY else _CF_TINY
            step = d * c
            h *= step
        if abs(step - 1.0) <= _EPS:
            return h
    raise NumericalError(f"incomplete beta fraction did not converge at a={a}, x={x}")


def t_tail_p(t: np.ndarray, df: int) -> np.ndarray:
    """Two-sided tail probability of Student's t via the incomplete beta.

    P(|T| > |t|) = I_x(df / 2, 1/2) with x = df / (df + t^2) and
    1 - x = t^2 / (df + t^2), both formed directly.  The regularized
    incomplete beta comes from its continued fraction (`_beta_fraction`);
    where x >= (a + 1) / (a + b + 2) the symmetry
    I_x(a, b) = 1 - I_{1-x}(b, a) is used instead, so that the fraction
    converges in O(sqrt(max(a, b))) terms.  ln B(df / 2, 1/2) comes from
    `_log_gamma_half_ratio`.  t = 0 gives 1 and an infinite |t| gives 0
    without evaluating the fraction.
    """
    t = np.asarray(t, dtype=float)
    if df < 1:
        raise ValueError(f"t_tail_p needs df >= 1, got {df}")
    a = df / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        tt = t * t
        x = df / (df + tt)
        y = tt / (df + tt)
    # y underflows to 0 only for |t| < 1e-150, where p rounds to 1; x is 0
    # for an infinite or overflowing t^2, where p is 0 or underflows.
    p = np.where(y == 0.0, 1.0, np.where(x == 0.0, 0.0, np.nan))
    inner = (x > 0.0) & (y > 0.0)
    x, y = x[inner], y[inner]
    ln_beta = 0.5 * math.log(math.pi) - _log_gamma_half_ratio(a)
    # ln x as -log1p(t^2 / df): log(x) would lose digits where x is near 1.
    front = np.exp(-a * np.log1p(tt[inner] / df) + 0.5 * np.log(y) - ln_beta)
    switch = (a + 1.0) / (a + 2.5)
    p[inner] = [
        1.0 - f * _beta_fraction(0.5, a, yi) / 0.5 if xi >= switch
        else f * _beta_fraction(a, 0.5, xi) / a
        for f, xi, yi in zip(front.tolist(), x.tolist(), y.tolist())
    ]
    return p


@dataclass
class RegressionFit:
    terms: list
    coefficients: np.ndarray
    std_errors: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    r_squared: float
    adj_r_squared: float
    residual_variance: float
    n_obs: int
    df_resid: int


def _qr_pivoted(x: np.ndarray, y: np.ndarray):
    """Householder QR with column pivoting of x, with Q^T applied to y.

    Golub & Van Loan, Algorithm 5.4.1: step j moves the column of largest
    remaining norm (the first on ties, as LAPACK's dgeqp3) into place j and
    reflects x[j:, j] onto the axis.  y rides along as an extra column that
    is never pivoted.  Returns (R, pivot, Q^T y) with x[:, pivot] = Q R, R
    upper triangular p x p, and the first p entries of Q^T y.  When the
    remaining columns are all zero, their rows of R stay zero.
    """
    n, p = x.shape
    work = np.column_stack([x, y])
    pivot = np.arange(p)
    for j in range(min(n, p)):
        rest = work[j:, j:p]
        norms = np.einsum("ij,ij->j", rest, rest)
        k = j + int(np.argmax(norms))
        if norms[k - j] == 0.0:
            break
        work[:, [j, k]] = work[:, [k, j]]
        pivot[[j, k]] = pivot[[k, j]]
        v = work[j:, j].copy()
        alpha = -math.copysign(math.sqrt(norms[k - j]), v[0])
        v[0] -= alpha
        tail = work[j:, j + 1:]
        tail -= np.outer(v, (2.0 / (v @ v)) * (v @ tail))
        work[j, j] = alpha
    return np.triu(work[:p, :p]), pivot, work[:p, p]


def ols_fit(x: np.ndarray, y: np.ndarray, terms: list | None = None) -> RegressionFit:
    """Ordinary least squares with t-based inference.

    One pivoted QR factorization X P = Q R (`_qr_pivoted`) gives
    everything: the rank (a deficient design raises RankDeficiencyError
    naming the dropped columns and their dependent sets), the
    coefficients from R b = Q^T y, and the standard errors from the row
    norms of R^-1, since (X^T X)^-1 = P R^-1 R^-T P^T.  X^T X is never
    formed, so its squared condition number never enters.  The rank is
    the number of diagonal entries of R above max(n, p) eps |R_11|.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    n, p = x.shape
    if terms is None:
        terms = [f"x{j}" for j in range(p)]
    if y.shape[0] != n:
        raise ValueError("row counts of X and y differ")
    if n < p + 1:
        raise ValueError(f"underdetermined system: {n} rows for {p} columns")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("non-finite values in X or y")

    r_fac, pivot, qty = _qr_pivoted(x, y)
    diag = np.abs(np.diag(r_fac))
    tol = max(n, p) * np.finfo(float).eps * (diag[0] if diag.size else 0.0)
    rank = int((diag > tol).sum())
    if rank < p:
        # Dropped column k = X[:, kept] z, R_11 z = R_12[:, k's place], to rounding; kept
        # column j is in its dependent set when |z_j| |x_j| > DEPENDENT_SHARE_TOL |x_k|.
        kept, norms = pivot[:rank], np.linalg.norm(x, axis=0)
        share = np.abs(np.linalg.solve(r_fac[:rank, :rank], r_fac[:rank, rank:]))
        share *= norms[kept, None]
        sets = {int(k): sorted([k, *kept[s > DEPENDENT_SHARE_TOL * norms[k]]])
                for k, s in zip(pivot[rank:], share.T)}
        raise RankDeficiencyError([terms[k] for k in sorted(sets)],
                                  [[terms[j] for j in sets[k]] for k in sorted(sets)])

    coef = np.empty(p)
    coef[pivot] = np.linalg.solve(r_fac, qty)
    resid = y - x @ coef
    ssr = float(resid @ resid)
    sst = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ssr / max(sst, 1e-300)
    df_resid = n - p
    sigma2 = ssr / df_resid
    r_inv = np.linalg.solve(r_fac, np.eye(p))
    se = np.empty(p)
    se[pivot] = np.sqrt(sigma2 * (r_inv**2).sum(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        tstat = np.where(se > 0, coef / se, np.inf * np.sign(coef))
    pvals = t_tail_p(tstat, df_resid)

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


def _criterion_value(name: str, rss, n: int, k: int):
    """AIC or BIC of k-column least-squares fits to n rows with residual sums
    rss, a number or an array of candidates."""
    rss = np.maximum(rss, 1e-300)
    if name == "aic":
        return n * np.log(rss / n) + 2 * k
    if name == "bic":
        return n * np.log(rss / n) + np.log(n) * k
    raise ValueError(f"unknown criterion '{name}'")


@dataclass
class StepwiseResult:
    """The selected model's fit, the criterion trace of the moves that led
    to it, and how many candidate moves were skipped because the design
    would have been rank deficient or underdetermined."""

    fit: RegressionFit
    trace: list
    skipped_rank: int
    skipped_underdetermined: int


def stepwise_bidirectional(
    spec_full: ModelSpec,
    cov: CovariateTable,
    scores: dict,
    criterion: str = "aic",
) -> StepwiseResult:
    """Bidirectional stepwise selection over the full spec's terms.

    Starts from the forced baseline (intercept and plain covariates),
    then repeatedly applies the single add-or-drop move that most
    improves the criterion, breaking ties toward the earlier candidate in
    term order (adds in spec order, then drops), until no move improves.
    The full design is built once; a term whose score column is missing,
    or whose column or response holds a non-finite value, raises
    ValueError.

    Each step factors the current design X_S = Q R (k columns) once and
    scores every move from that factorization, the adds as the columns of
    one n x candidates array, with e = y - Q Q^T y and rss = e.e:

    - adding column c: z = c - Q Q^T c (projected a second time when
      it lost more than half its length), rss_add = rss - (z.e)^2 / z.z;
    - dropping column j, with b = R^-1 Q^T y:
      rss_drop = rss + b_j^2 / |row j of R^-1|^2.

    An add is skipped where `ols_fit` would raise: as underdetermined
    when n < k + 2, and as rank deficient when |z| is at or below
    `ols_fit`'s rank tolerance, max(n, k + 1) eps times the largest
    column norm of the enlarged design.  The two counts are kept on the
    result.  Full inference (`ols_fit`) runs only for the baseline, whose
    rank deficiency raises, and once for the selected terms.
    """
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
    fit = ols_fit(x_full[:, columns(selected)], y, selected)
    value = _criterion_value(
        criterion, fit.residual_variance * fit.df_resid, n, len(selected)
    )
    trace = [(None, None, value)]
    skipped_rank = skipped_under = 0

    while True:
        k = len(selected)
        sel = columns(selected)
        q, r = np.linalg.qr(x_full[:, sel])
        qty = q.T @ y
        e = y - q @ qty
        rss = float(e @ e)

        adds = [t for t in spec_full.terms if t not in selected]
        if n < k + 2:
            skipped_under += len(adds)
            for term in adds:
                logger.debug("skipped add %s: %s", term, "underdetermined")
            adds = []
        idx = columns(adds)
        z = x_full[:, idx]
        z -= q @ (q.T @ z)
        zz = np.einsum("ij,ij->j", z, z)
        again = zz < 0.25 * col_norms[idx] ** 2
        if again.any():
            z[:, again] -= q @ (q.T @ z[:, again])
            zz[again] = np.einsum("ij,ij->j", z[:, again], z[:, again])
        norm_s = col_norms[sel].max() if k else 0.0
        tol = max(n, k + 1) * eps * np.maximum(norm_s, col_norms[idx])
        deficient = zz <= tol * tol
        for term in compress(adds, deficient):
            logger.debug("skipped add %s: %s", term, "rank deficient")
        skipped_rank += int(deficient.sum())
        ze = e @ z
        with np.errstate(divide="ignore", invalid="ignore"):
            add_values = _criterion_value(criterion, rss - ze * ze / zz, n, k + 1)
        add_values[deficient] = np.inf

        r_inv = np.linalg.solve(r, np.eye(k))
        b = r_inv @ qty
        rss_drop = rss + b * b / np.einsum("ij,ij->i", r_inv, r_inv)
        drop_values = _criterion_value(criterion, rss_drop, n, k - 1)
        drop_values[[t in forced for t in selected]] = np.inf

        # The current value comes first, so a move must improve on it
        # strictly, and the first minimum wins a tie: adds in spec order,
        # then drops.
        values = np.concatenate([[value], add_values, drop_values])
        best = int(np.argmin(values)) - 1
        if best < 0:
            break
        value = values[best + 1]
        if best < len(adds):
            action, term = "add", adds[best]
            selected = [t for t in spec_full.terms if t in selected or t == term]
        else:
            action, term = "drop", selected[best - len(adds)]
            selected = [t for t in selected if t != term]
        trace.append((action, term, value))

    if len(trace) > 1:
        fit = ols_fit(x_full[:, columns(selected)], y, selected)
    return StepwiseResult(
        fit=fit,
        trace=trace,
        skipped_rank=skipped_rank,
        skipped_underdetermined=skipped_under,
    )


def suite_specs(
    structures: list, n_ps: int = SUITE_N_PS, n_interact_ps: int = SUITE_N_INTERACT_PS
) -> dict:
    """The ten standard model specifications, keyed by model id.

    Models 1-4 predict the stress score and 5-8 the trauma score from,
    respectively: covariates + scores + interactions, covariates +
    scores, covariates only, and scores only.  Models 9-10 repeat the
    full design with intracranial volume added.  Each structure enters
    with its first n_ps scores, and with its first n_interact_ps scores
    times age and times bdi.
    """
    base = ["intercept", "age", "bdi"]
    ps = [f"ps({s},{k})" for s in structures for k in range(1, n_ps + 1)]
    inter = [f"{c}*ps({s},{k})" for c in ("age", "bdi") for s in structures
             for k in range(1, n_interact_ps + 1)]
    return {
        1: ModelSpec("pss", base + ps + inter),
        2: ModelSpec("pss", base + ps),
        3: ModelSpec("pss", list(base)),
        4: ModelSpec("pss", ["intercept"] + ps),
        5: ModelSpec("ctqtot", base + ps + inter),
        6: ModelSpec("ctqtot", base + ps),
        7: ModelSpec("ctqtot", list(base)),
        8: ModelSpec("ctqtot", ["intercept"] + ps),
        9: ModelSpec("pss", base + ["icv"] + ps + inter),
        10: ModelSpec("ctqtot", base + ["icv"] + ps + inter),
    }


def run_model_suite(
    cov: CovariateTable,
    scores: dict,
    n_ps: int = SUITE_N_PS,
    n_interact_ps: int = SUITE_N_INTERACT_PS,
    criterion: str = "aic",
) -> dict:
    """Run all ten models through stepwise selection.

    Returns {model_id: (spec, StepwiseResult)} in model order: the full
    spec searched and the selected model's fit, with its trace and skip
    counts.  Each model's moves and skips are logged at INFO.
    """
    suite = {}
    for model_id, spec in suite_specs(sorted(scores), n_ps, n_interact_ps).items():
        result = stepwise_bidirectional(spec, cov, scores, criterion)
        logger.info(
            "model %d: %d stepwise moves; skipped %d rank-deficient and %d "
            "underdetermined candidate(s)",
            model_id,
            len(result.trace) - 1,
            result.skipped_rank,
            result.skipped_underdetermined,
        )
        suite[model_id] = (spec, result)
    return suite
