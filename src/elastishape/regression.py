"""Covariate/shape-score regressions with stepwise model selection.

Implements the ten-model comparison suite relating symptom scores to
age, depression score, intracranial volume, per-structure principal
scores, and covariate-by-score interactions.  Selection is bidirectional
stepwise search from a forced baseline, scored by information criterion.
Each stepwise call builds its full design once; every candidate model is
a column slice of it, and each fit takes its rank, coefficients and
standard errors from one pivoted QR factorization.
"""

from __future__ import annotations

import csv
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import qr, solve_triangular
from scipy.special import betainc

from .errors import InputError, ParseError, RankDeficiencyError

logger = logging.getLogger(__name__)

RESPONSES = ("pss", "ctqtot")
COVARIATE_COLUMNS = ("id", "age", "bdi", "icv", "pss", "ctqtot", "label")
_RANGES = {"bdi": (0.0, 63.0), "pss": (0.0, 42.0), "ctqtot": (25.0, 125.0)}

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

        Declared score ranges are enforced when strict; otherwise
        violations are logged and kept.  Labels must be 0 or 1 either way.
        """
        path = Path(path)
        with path.open(newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise ParseError(f"{path}: empty covariate file")
            missing = [c for c in COVARIATE_COLUMNS if c not in reader.fieldnames]
            if missing:
                raise ParseError(
                    f"{path}: missing required columns: {', '.join(missing)}"
                )
            rows = list(reader)
        if not rows:
            raise ParseError(f"{path}: no subject rows")
        cols = {c: [] for c in COVARIATE_COLUMNS}
        for ln, row in enumerate(rows, start=2):
            for c in COVARIATE_COLUMNS:
                value = row[c]
                if c == "id":
                    cols[c].append(value)
                    continue
                try:
                    cols[c].append(float(value))
                except (TypeError, ValueError) as exc:
                    raise ParseError(
                        f"{path}: line {ln}, field '{c}': not numeric ({value!r})"
                    ) from exc
        table = cls(
            ids=cols["id"],
            age=np.array(cols["age"]),
            bdi=np.array(cols["bdi"]),
            icv=np.array(cols["icv"]),
            pss=np.array(cols["pss"]),
            ctqtot=np.array(cols["ctqtot"]),
            label=np.array(cols["label"]),
        )
        bad_label = ~np.isin(table.label, (0.0, 1.0))
        if bad_label.any():
            raise InputError(
                f"{path}: label must be 0 or 1 (row {int(np.argmax(bad_label)) + 2})"
            )
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
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(COVARIATE_COLUMNS)
            for i in range(self.n_subjects):
                writer.writerow(
                    [
                        self.ids[i],
                        f"{self.age[i]:.17g}",
                        f"{self.bdi[i]:.17g}",
                        f"{self.icv[i]:.17g}",
                        f"{self.pss[i]:.17g}",
                        f"{self.ctqtot[i]:.17g}",
                        int(self.label[i]),
                    ]
                )


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
    """One regression model: a response plus an ordered term list."""

    response: str
    terms: list
    n_ps: int = 15
    n_interact_ps: int = 5

    def __post_init__(self):
        if self.response not in RESPONSES:
            raise ValueError(f"response must be one of {RESPONSES}")
        seen = set()
        for term in self.terms:
            if term in seen:
                raise ValueError(f"duplicate term '{term}'")
            seen.add(term)
            inter, _, k = term_parts(term)
            if k is not None:
                if not 1 <= k <= self.n_ps:
                    raise ValueError(f"term '{term}': ps index outside 1..{self.n_ps}")
                if inter is not None and k > self.n_interact_ps:
                    raise ValueError(
                        f"term '{term}': interactions limited to the first "
                        f"{self.n_interact_ps} scores"
                    )

    def forced_terms(self) -> list:
        """Baseline terms never dropped by selection (non-shape terms)."""
        return [t for t in self.terms if term_parts(t)[2] is None]


def design_matrix(
    spec: ModelSpec, cov: CovariateTable, scores: dict
) -> tuple[np.ndarray, list]:
    """Design matrix with columns ordered per the spec's term list.

    scores maps structure name to an (n_subjects, >= n_ps) score array.
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


def t_tail_p(t: np.ndarray, df: int) -> np.ndarray:
    """Two-sided tail probability of Student's t via the incomplete beta.

    The regularized incomplete beta function comes from
    `scipy.special.betainc`, giving
    P(|T| > t) = I_{df/(df+t^2)}(df/2, 1/2).
    """
    t = np.asarray(t, dtype=float)
    x = df / (df + t * t)
    return betainc(df / 2.0, 0.5, x)


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

    def term_index(self, term: str) -> int:
        return self.terms.index(term)


def ols_fit(x: np.ndarray, y: np.ndarray, terms: list | None = None) -> RegressionFit:
    """Ordinary least squares with t-based inference.

    One pivoted QR factorization X P = Q R gives everything: the rank
    (a deficient design raises RankDeficiencyError naming the collinear
    columns), the coefficients from R b = Q^T y, and the standard errors
    from the row norms of R^-1, since (X^T X)^-1 = P R^-1 R^-T P^T.
    X^T X is never formed, so its squared condition number never enters.
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
    pvals = t_tail_p(np.where(np.isfinite(tstat), tstat, 1e300), df_resid)

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


def _criterion_value(name: str, x, y, terms):
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


@dataclass
class StepwiseResult:
    fit: RegressionFit
    trace: list = field(default_factory=list)
    criterion: str = "aic"


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
    term order, until no move improves.  Candidate moves that make the
    design rank deficient or underdetermined are skipped.  The full
    design is built once (a term whose score column is missing raises
    ValueError) and each candidate is fitted on a slice of its columns.
    """
    x_full, names = design_matrix(spec_full, cov, scores)
    y = cov.response(spec_full.response)
    column = {t: j for j, t in enumerate(names)}

    def fit_terms(terms):
        x = x_full[:, [column[t] for t in terms]]
        return _criterion_value(criterion, x, y, terms)

    forced = spec_full.forced_terms()
    selected = list(forced)
    value, fit = fit_terms(selected)
    trace = [(None, None, value)]

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
            except (RankDeficiencyError, ValueError):
                continue
            if cand_value < value and (best is None or cand_value < best[0]):
                best = (cand_value, action, term, terms, cand_fit)
        if best is None:
            break
        value, action, term, selected, fit = best
        trace.append((action, term, value))

    return StepwiseResult(fit=fit, trace=trace, criterion=criterion)


def _ps_block(structures, n_ps):
    return [f"ps({s},{k})" for s in structures for k in range(1, n_ps + 1)]


def _interact_block(structures, n_interact):
    out = []
    for covname in ("age", "bdi"):
        out += [
            f"{covname}*ps({s},{k})"
            for s in structures
            for k in range(1, n_interact + 1)
        ]
    return out


def suite_specs(
    structures: list, n_ps: int = 15, n_interact_ps: int = 5
) -> dict:
    """The ten standard model specifications, keyed by model id.

    Models 1-4 predict the stress score and 5-8 the trauma score from,
    respectively: covariates + scores + interactions, covariates +
    scores, covariates only, and scores only.  Models 9-10 repeat the
    full design with intracranial volume added.
    """
    base = ["intercept", "age", "bdi"]
    ps = _ps_block(structures, n_ps)
    inter = _interact_block(structures, n_interact_ps)

    def spec(response, terms):
        return ModelSpec(
            response=response, terms=terms, n_ps=n_ps, n_interact_ps=n_interact_ps
        )

    return {
        1: spec("pss", base + ps + inter),
        2: spec("pss", base + ps),
        3: spec("pss", list(base)),
        4: spec("pss", ["intercept"] + ps),
        5: spec("ctqtot", base + ps + inter),
        6: spec("ctqtot", base + ps),
        7: spec("ctqtot", list(base)),
        8: spec("ctqtot", ["intercept"] + ps),
        9: spec("pss", base + ["icv"] + ps + inter),
        10: spec("ctqtot", base + ["icv"] + ps + inter),
    }


def run_model_suite(
    cov: CovariateTable,
    scores: dict,
    n_ps: int = 15,
    n_interact_ps: int = 5,
    criterion: str = "aic",
) -> list:
    """Run all ten models through stepwise selection; one report row each."""
    structures = sorted(scores)
    specs = suite_specs(structures, n_ps=n_ps, n_interact_ps=n_interact_ps)
    report = []
    for model_id in sorted(specs):
        result = stepwise_bidirectional(specs[model_id], cov, scores, criterion)
        fit = result.fit
        selected = []
        for j, term in enumerate(fit.terms):
            if term == "intercept":
                continue
            selected.append(
                {
                    "term": term,
                    "coefficient": float(fit.coefficients[j]),
                    "sign": "+" if fit.coefficients[j] >= 0 else "-",
                    "p_value": float(fit.p_values[j]),
                }
            )
        report.append(
            {
                "model_id": model_id,
                "response": specs[model_id].response,
                "adj_r_squared": float(fit.adj_r_squared),
                "n_terms": len(fit.terms),
                "selected": selected,
            }
        )
    return report
