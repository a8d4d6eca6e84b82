"""Growth series, growth-exponent estimation, and structural verifiers.

The growth exponent of a quotient is approached through the filtered
dimension sequence |B^{<=n}|.  A limsup is not computable from finitely
many terms, so the estimator reports a fitted log-log slope over a window
plus diagnostics, never a certified value.  The verifiers check the
structural facts a correct table must satisfy: the termwise two-sided
count inequality against the associative table, the middle-position
generating-set condition, and the three two-variable product identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from statistics import linear_regression

from .presentation import (
    ASSOCIATIVE,
    DIALGEBRA,
    SCHEME_TAGS,
    BasisTable,
    Presentation,
    _key_scheme_pair,
    basis_upto,
    canonical_json,
    json_fields,
    normal_form,  # unused here; perfbench/traced.py wraps growth.normal_form
)

# classification thresholds; the gap band sits strictly inside (1, 2)
GAP_BAND = (1.15, 1.85)
STABLE_RESIDUAL = 0.02
# exact polynomial counts double by 2^d, half the 2^(slope+1) threshold, so
# any suffix fraction is safe for them; 0.10 is low enough that exponential
# series clear it even at small N, where only the last one or two ratios
# beat the threshold inflated by the window-fitted slope
DOUBLING_SUFFIX_FRACTION = 0.10

# identity scan budget: pairs tried per identity before the scan gives up
MAX_IDENTITY_PAIRS = 50000

BOUNDED = "bounded"
POLYNOMIAL = "polynomial"
SUPERPOLYNOMIAL = "superpolynomial"


# ===== the series ==========================================================


@dataclass(frozen=True)
class GrowthSeries:
    """Per-degree basis counts for degrees 1..N; cumulative holds their
    running sums."""

    per_degree: tuple[int, ...]
    mode: str = DIALGEBRA
    fingerprint: str = "synthetic"
    exact: bool = True
    warnings: tuple[str, ...] = ()
    cumulative: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self):
        per = tuple(self.per_degree)
        if not per:
            raise ValueError("per-degree counts must be nonempty")
        for t, p in enumerate(per, start=1):
            if p < 0:
                raise ValueError(f"negative count at degree {t}")
        object.__setattr__(self, "per_degree", per)
        object.__setattr__(self, "warnings", tuple(self.warnings))
        object.__setattr__(self, "cumulative", tuple(accumulate(per)))

    @classmethod
    def from_cumulative(cls, cumulative, mode=DIALGEBRA, fingerprint="synthetic",
                        exact=True, warnings=()):
        cum = tuple(cumulative)
        per = [c - prev for prev, c in zip((0, *cum), cum)]
        return cls(per, mode, fingerprint, exact, warnings)

    @classmethod
    def from_table(cls, table: BasisTable) -> GrowthSeries:
        """The series of an existing table, without saturating again."""
        warnings = ()
        if not table.exact:
            warnings = (
                f"approximate: lower-bound ideal / upper-bound basis (slack {table.slack})",
            )
        return cls(table.counts_by_degree(), table.mode, table.fingerprint, table.exact, warnings)

    @property
    def degree_bound(self) -> int:
        return len(self.per_degree)

    def count(self, n: int) -> int:
        """|B^n|, 1-based."""
        return self.per_degree[n - 1]

    def cumulative_at(self, n: int) -> int:
        """|B^{<=n}|, 1-based."""
        return self.cumulative[n - 1]

    def to_csv(self) -> str:
        lines = ["n,count_n,cumulative_n,mode"]
        for t in range(1, self.degree_bound + 1):
            lines.append(f"{t},{self.per_degree[t-1]},{self.cumulative[t-1]},{self.mode}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return json_fields(self, "degree_bound")

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())


def growth_series(pres: Presentation, N: int, mode: str = DIALGEBRA,
                  slack: int | None = None, max_universe=None) -> GrowthSeries:
    """Filtered dimension counts of the quotient presented by pres."""
    return GrowthSeries.from_table(basis_upto(pres, N, mode, slack, max_universe))


# ===== the estimator =======================================================


@dataclass(frozen=True)
class GkEstimate:
    """Fitted growth exponent with window and diagnostics."""

    slope: float
    window: tuple[int, int]
    classification: str
    degree: float | None
    residual: float
    mode: str = DIALGEBRA
    fingerprint: str = "synthetic"

    def to_json_dict(self) -> dict:
        return json_fields(self)

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())


def default_window(N: int) -> tuple[int, int]:
    return (max(2, N // 4), N)


def fit_window(N: int, window: tuple[int, int] | None = None) -> tuple[int, int]:
    """The fit window for degree bound N: window, or the default; raises
    ValueError unless 2 <= lo < hi <= N."""
    if N < 3:
        raise ValueError(f"no fit window exists below degree 3 (degree bound {N})")
    if window is None:
        window = default_window(N)
    lo, hi = window
    if not (2 <= lo < hi <= N):
        raise ValueError(f"window {window} not within 2..{N}")
    return window


def gk_estimate(series: GrowthSeries, window: tuple[int, int] | None = None) -> GkEstimate:
    """Least-squares slope of log|B^{<=n}| against log n over the window.

    Classification order matters: stabilized counts are bounded; a
    persistently excessive doubling ratio |B^{<=2n}|/|B^{<=n}| marks the
    series superpolynomial before any slope is trusted; what remains is
    polynomial of degree = slope.
    """
    window = fit_window(series.degree_bound, window)
    lo, hi = window
    cum = series.cumulative
    meta = {"mode": series.mode, "fingerprint": series.fingerprint}

    if cum[lo - 1] == cum[hi - 1]:
        return GkEstimate(0.0, window, BOUNDED, 0.0, 0.0, **meta)

    points = [(math.log(n), math.log(cum[n - 1])) for n in range(lo, hi + 1) if cum[n - 1] > 0]
    if len(points) < 2:
        return GkEstimate(0.0, window, BOUNDED, 0.0, 0.0, **meta)
    xs, ys = zip(*points)
    slope, intercept = linear_regression(xs, ys)
    residual = math.sqrt(
        sum((y - (slope * x + intercept)) ** 2 for x, y in points) / len(points)
    )

    if _doubling_exceeds(cum, slope):
        return GkEstimate(slope, window, SUPERPOLYNOMIAL, None, residual, **meta)
    return GkEstimate(slope, window, POLYNOMIAL, slope, residual, **meta)


def _doubling_exceeds(cum, slope: float) -> bool:
    """True when the ratios cum[2n]/cum[n] persistently clear 2^(slope+1).

    Polynomial growth of degree d doubles by about 2^d, half the threshold
    at the fitted slope.  Exponential growth clears it from some n on, so
    the rule asks for a contiguous suffix of excessive ratios covering at
    least a quarter of the available doubling pairs.
    """
    N = len(cum)
    # in logs, so that no count, which may pass 2**1024, becomes a float
    flags = [
        math.log2(cum[2 * n - 1]) - math.log2(cum[n - 1]) > slope + 1.0
        for n in range(2, N // 2 + 1)
        if cum[n - 1] > 0
    ]
    if not flags:
        return False
    suffix = 0
    for f in reversed(flags):
        if not f:
            break
        suffix += 1
    return suffix >= max(1, math.ceil(DOUBLING_SUFFIX_FRACTION * len(flags)))


# ===== termwise count inequality ===========================================


@dataclass(frozen=True)
class TheoremAReport:
    """Termwise |B_A| <= |B_D| <= |X|(|B_A|+1)^2 verification outcome."""

    checked: int
    violation: dict | None
    truncated: bool

    @property
    def ok(self) -> bool:
        return self.violation is None

    @property
    def hard_failure(self) -> bool:
        # on truncated tables a violation is a truncation warning, not a bug
        return self.violation is not None and not self.truncated

    def to_json_dict(self) -> dict:
        return json_fields(self, "ok")


def theorem_a_check(series_d: GrowthSeries, series_a: GrowthSeries,
                    alphabet_size: int) -> TheoremAReport:
    """Check |B_A^{<=n}| <= |B_D^{<=n}| <= |X|(|B_A^{<=n}|+1)^2 for all n."""
    if series_d.mode != DIALGEBRA or series_a.mode != ASSOCIATIVE:
        raise ValueError("need a dialgebra series and an associative series")
    if series_d.fingerprint != series_a.fingerprint:
        raise ValueError("series come from different presentations")
    if series_d.degree_bound != series_a.degree_bound:
        raise ValueError("series have different degree bounds")
    violation = None
    for n in range(1, series_d.degree_bound + 1):
        cd = series_d.cumulative_at(n)
        ca = series_a.cumulative_at(n)
        upper = alphabet_size * (ca + 1) ** 2
        if not ca <= cd:
            violation = {"n": n, "side": "lower", "dialgebra": cd, "associative": ca,
                         "bound": ca}
            break
        if not cd <= upper:
            violation = {"n": n, "side": "upper", "dialgebra": cd, "associative": ca,
                         "bound": upper}
            break
    truncated = not (series_d.exact and series_a.exact)
    return TheoremAReport(series_d.degree_bound, violation, truncated)


# ===== gap band scan =======================================================


@dataclass(frozen=True)
class GapReport:
    """Estimates sitting inside the forbidden growth-exponent band."""

    anomalies: tuple

    @property
    def ok(self) -> bool:
        return not self.anomalies

    def to_json_dict(self) -> dict:
        return json_fields(self, "ok")


def gap_check(estimates) -> GapReport:
    """Flag stable polynomial fits with slope inside the open band (1.15, 1.85).

    No quotient should sustain a growth exponent strictly between 1 and 2,
    so such an estimate is a gap anomaly: finite-size noise or a bug, to be
    re-run at higher degree.  Never reported as a counterexample.
    """
    lo, hi = GAP_BAND
    anomalies = []
    for i, est in enumerate(estimates):
        if (
            est.classification == POLYNOMIAL
            and lo < est.slope < hi
            and est.residual <= STABLE_RESIDUAL
        ):
            anomalies.append(
                (i, est.slope, est.residual,
                 "gap anomaly: fitted exponent inside (1.15, 1.85); re-run at higher degree")
            )
    return GapReport(tuple(anomalies))


# ===== middle-position generating condition ================================


@dataclass(frozen=True)
class SpecialBasisReport:
    """Smallest middle bound m making the two-sided tail condition hold."""

    m: int | None
    degree_bound: int
    prediction: str | None

    @property
    def found(self) -> bool:
        return self.m is not None

    def to_json_dict(self) -> dict:
        return json_fields(self, "found")


def special_basis_check(table_d: BasisTable) -> SpecialBasisReport:
    """Find the least m with every basis monomial [a_1..a_t]@p satisfying
    p <= m or t - p <= m - 1.

    Only monomials of length > 2m can violate the condition, so m is only
    meaningful when 2m < degree_bound; larger m would hold vacuously and
    are not reported.  When an m is found the two growth exponents must
    coincide.
    """
    if table_d.mode != DIALGEBRA:
        raise ValueError("needs a dialgebra-mode table")
    n = table_d.degree_bound
    # [a_1..a_t]@p holds exactly for m >= min(p, t - p + 1)
    split = map(table_d._keys.split, table_d._basis_keys())
    m = max((min(p, t - p + 1) for t, p, _ in split), default=1)
    # witnesses exist only at lengths > 2m; 2m < n keeps that nonvacuous
    if m < (n + 1) // 2:
        return SpecialBasisReport(
            m, n, "growth exponents of the quotient and its associative image coincide"
        )
    return SpecialBasisReport(None, n, None)


# ===== two-variable identity detection =====================================


@dataclass(frozen=True)
class IdentityClassReport:
    """Which of the three product identities the quotient satisfies.

    exhaustive is False when some identity ran into the pair cap before it
    finished or found a witness; such a scan draws no prediction, and
    neither does a scan that found no pair to try.
    """

    holds: dict
    witnesses: dict
    verified_degree: int
    pairs_checked: int
    predictions: tuple[str, ...]
    exhaustive: bool

    def to_json_dict(self) -> dict:
        out = json_fields(self)
        del out["exhaustive"]  # the text output reports it as a WARN line
        return out


def identity_class_check(pres: Presentation, table_d: BasisTable) -> IdentityClassReport:
    """Test x|-y = y|-x, x-|y = y-|x and x|-y = y-|x on basis-monomial pairs.

    Pairs range over basis monomials with total length within the table's
    degree bound (capped at MAX_IDENTITY_PAIRS per identity); each instance must
    reduce to zero.  Holding identities force integer growth exponents
    bounded by the alphabet size.  The scan runs on split keys against the
    table's kernel rows and decodes only a witness.  table_d must come from
    pres, whose relators and schemes the predictions read.
    """
    if table_d.mode != DIALGEBRA:
        raise ValueError("needs a dialgebra-mode table")
    if table_d.fingerprint != pres.fingerprint:
        raise ValueError("table comes from a different presentation")
    n = table_d.degree_bound
    keys = table_d._keys
    basis = table_d._basis_keys()
    split = [keys.split(x) for x in basis]
    holds = {tag: True for tag in SCHEME_TAGS}
    witnesses: dict = {}
    pairs_checked = 0
    exhaustive = True

    def pairs(reflexive):
        for i, (l1, _, _) in enumerate(split):
            for j in range(i if reflexive else i + 1, len(split)):
                # the basis ascends by length, so no later v fits either
                if l1 + split[j][0] > n:
                    break
                yield i, j

    for tag in SCHEME_TAGS:
        seen = 0
        # the cross identity is not symmetric in (u, v); include u = v
        for i, j in pairs(tag == "cross"):
            if seen >= MAX_IDENTITY_PAIRS:
                exhaustive = False
                break
            seen += 1
            m1, m2 = _key_scheme_pair(keys, tag, split[i], split[j])
            if m1 != m2 and table_d._reduce(((m1, 1), (m2, -1)))[1]:
                holds[tag] = False
                u_mono, v_mono = keys.decode(basis[i]), keys.decode(basis[j])
                witnesses[tag] = f"{u_mono.format()}, {v_mono.format()}"
                break
        pairs_checked += seen

    if not exhaustive or not pairs_checked:
        return IdentityClassReport(holds, witnesses, n, pairs_checked, (), exhaustive)
    predictions = []
    names = {"lcomm": "x|-y = y|-x", "rcomm": "x-|y = y-|x", "cross": "x|-y = y-|x"}
    k = table_d.alphabet.size
    for tag in SCHEME_TAGS:
        if holds[tag]:
            predictions.append(
                f"{names[tag]} holds through degree {n}: "
                f"GK(D) = GK(A_D), an integer at most {k}"
            )
    if holds["lcomm"] and holds["rcomm"] and not pres.relators and \
            {"lcomm", "rcomm"} <= set(pres.schemes):
        predictions.append(f"free commutative quotient: GK = {k}")
    return IdentityClassReport(holds, witnesses, n, pairs_checked, tuple(predictions), True)
