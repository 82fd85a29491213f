"""Regime classification and the nonlinear-iteration exponent ladder.

For the parabolic system

    u_t^i - div A^i(grad u) = f^i(x, t, grad u),    i = 1..N,

with p-growth main part and |f| <= c1 |grad u|^w + c2, the sup-norm gradient
bound is driven by a single composite exponent

    M = max(2, p, 2q - p, w + 1, 2w - p + 2)

(for a pure p-Laplacian window, q = p, the 2q - p entry equals p)
and by the iteration denominator

    kappa = s0 + 2 + n (p - M) / 2 ,

where s0 >= the integrability margin of the initial gradient.  The iteration
raises integrability along the ladder

    s_{i+1} + M = p + s_i + (s_i + 2) * 2/n ,

whose closed form is s_i = beta^i (s0 + kappa') - kappa' with beta = 1 + 2/n
and kappa' = 2 + n (p - M) / 2, so s_i / beta^i increases to kappa and the
final estimate carries the exponent 1/kappa.

This module is pure arithmetic: classifiers return reports with named
violated conditions rather than raising, and every strict inequality is
compared exactly (no epsilon slack), so boundary inputs are rejected
deterministically.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields

__all__ = [
    "Theorem",
    "ProblemParams",
    "RegimeReport",
    "ExponentLadder",
    "compute_M_general",
    "kappa",
    "bound_exponent",
    "build_ladder",
    "classify_thm1",
    "thm1_case2_sup",
    "check_thm2",
    "check_thm3",
]


class Theorem(enum.Enum):
    """Which covered regime (if any) applies to a parameter tuple."""

    THM1_CASE1 = "thm1_case1"
    THM1_CASE2 = "thm1_case2"
    THM1_CASE3 = "thm1_case3"
    THM2 = "thm2"
    THM3 = "thm3"
    NOT_COVERED = "not_covered"


def _plain(value):
    """value as JSON holds it: an enum as its value, a tuple as a list, recursively."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


class _Report:
    """Base of every report: its JSON keys are its dataclass fields."""

    def to_dict(self) -> dict:
        """Each field in declaration order; non-finite numbers pass through."""
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True)
class ProblemParams:
    """Structural parameters of one problem instance.

    n, N        spatial dimension and number of components
    p, q        growth window of the flux potential, 1 < p <= q < p + 1
    w           growth exponent of the right-hand side, 0 <= w <= p
    p_tilde     integrability exponent available for grad u (>= p;
                bare existence gives p_tilde = p)
    s0          starting integrability margin of the ladder
    lam, Lam    ellipticity window of the flux Jacobian, 0 < lam <= Lam;
                unset, the pure p-Laplace flux's min(1, p-1) and max(1, p-1)
    c2_zero     whether the constant term c2 of the growth bound vanishes
    """

    n: int
    N: int
    p: float
    q: float | None = None
    w: float = 0.0
    p_tilde: float | None = None
    s0: float = 0.0
    lam: float | None = None
    Lam: float | None = None
    c2_zero: bool = True

    def __post_init__(self):
        if self.q is None:
            object.__setattr__(self, "q", float(self.p))
        if self.p_tilde is None:
            object.__setattr__(self, "p_tilde", float(self.p))
        if self.lam is None:
            object.__setattr__(self, "lam", min(1.0, self.p - 1.0))
        if self.Lam is None:
            object.__setattr__(self, "Lam", max(1.0, self.p - 1.0))
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n}")
        if not isinstance(self.N, int) or self.N < 1:
            raise ValueError(f"N must be an integer >= 1, got {self.N}")
        if not self.p > 1.0:
            raise ValueError(f"need p > 1, got p={self.p}")
        if not (self.p <= self.q < self.p + 1.0):
            raise ValueError(f"need p <= q < p+1, got p={self.p}, q={self.q}")
        if not (0.0 <= self.w <= self.p):
            raise ValueError(f"need 0 <= w <= p, got w={self.w}, p={self.p}")
        if not self.p_tilde >= self.p:
            raise ValueError(f"need p_tilde >= p, got {self.p_tilde}")
        if not (0.0 < self.lam <= self.Lam):
            raise ValueError(f"need 0 < lam <= Lam, got lam={self.lam}, Lam={self.Lam}")


@dataclass(frozen=True)
class RegimeReport(_Report):
    """Outcome of a classification: covered regime or named violations.

    For a covered report violated_conditions is empty and kappa > 0.
    M >= 2 always (every composite-exponent formula contains the entry 2).
    """

    theorem_applied: Theorem
    M: float
    s0_effective: float
    kappa: float
    violated_conditions: tuple[str, ...] = field(default=())

    @property
    def covered(self) -> bool:
        return self.theorem_applied is not Theorem.NOT_COVERED


@dataclass(frozen=True)
class ExponentLadder(_Report):
    """Exponent sequence of the integrability iteration.

    s[i] solves s_{i+1} + M = p + s_i + (s_i + 2) * 2/n; ratios[i] = s_i / beta^i
    converges monotonically to limit = kappa = s0 + 2 + n(p - M)/2.
    """

    beta: float
    s: tuple[float, ...]
    ratios: tuple[float, ...]
    limit: float


def compute_M_general(p: float, q: float, w: float) -> float:
    """Composite exponent max(2, p, 2q - p, w + 1, 2w - p + 2) of the general flux window."""
    return max(2.0, p, 2.0 * q - p, w + 1.0, 2.0 * w - p + 2.0)


def kappa(s0: float, p: float, M: float, n: int) -> float:
    """Iteration denominator s0 + 2 + n (p - M) / 2."""
    return s0 + 2.0 + n * (p - M) / 2.0


def bound_exponent(s0: float, p: float, M: float, n: int) -> float:
    """Exponent 1/kappa carried by the final sup-gradient estimate.

    Errors when kappa <= 0: the iteration does not close there.
    """
    k = kappa(s0, p, M, n)
    if not k > 0.0:
        raise ValueError(f"kappa = {k} <= 0: no bound exponent exists")
    return 1.0 / k


def build_ladder(s0: float, p: float, M: float, n: int, I: int) -> ExponentLadder:
    """Iterate the exponent recursion I times from s0.

    The recursion is evaluated literally (not via the closed form) so that
    independent extended-precision iteration reproduces it to round-off.
    """
    beta = _ladder_beta(n, I)
    k = kappa(s0, p, M, n)
    if not k > 0.0:
        raise ValueError(f"kappa = {k} <= 0: ladder does not increase")
    s = [float(s0)]
    for _ in range(I):
        si = s[-1]
        s.append(p + si + (si + 2.0) * (2.0 / n) - M)
    ratios = [si / beta**i for i, si in enumerate(s)]
    return ExponentLadder(beta=beta, s=tuple(s), ratios=tuple(ratios), limit=k)


def _ladder_beta(n: int, I: int) -> float:
    """beta = 1 + 2/n of an I-step ladder, once n >= 3, I >= 1 and beta^I is a double."""
    if not (isinstance(n, int) and n >= 3):
        raise ValueError(f"ladder needs integer n >= 3, got {n}")
    if not (isinstance(I, int) and I >= 1):
        raise ValueError(f"ladder depth must be an integer >= 1, got {I}")
    beta = 1.0 + 2.0 / n
    try:
        beta**I
    except OverflowError:
        raise ValueError(f"ladder depth {I} overflows beta^I in double precision "
                         f"(beta = {beta})") from None
    return beta


# --- three-case classifier for the 3d p-Laplace system with power forcing ---

_THM1_N = 3  # the three-case classification is stated for n = 3 only


def thm1_case2_sup(p: float, p_tilde: float) -> float:
    """Right endpoint (exclusive) of the case-2 admissible w interval."""
    return (p_tilde + 4.0 * p - 3.0) / 5.0


def classify_thm1(p: float, w: float, p_tilde: float) -> RegimeReport:
    """First-match classification of (p, w, p_tilde) into the three covered cases.

    case 1:  w <= p - 1 and p_tilde = p       (slow growth, prior theory)
    case 2:  w in [p/2, (p_tilde + 4p - 3)/5)
    case 3:  w <= p/2 and p > 2 - (2/3) p_tilde

    Cases 2-3 run the iteration with M = max(2, 2w - p + 2) and
    s0_effective = p_tilde - M; case 1 reports kappa = p_tilde, the
    denominator of its norm-form estimate.  All comparisons are exact.
    """
    if not p > 1.0:
        raise ValueError(f"need p > 1, got {p}")
    if not w >= 0.0:
        raise ValueError(f"need w >= 0, got {w}")
    if not p_tilde >= p:
        raise ValueError(f"need p_tilde >= p, got p_tilde={p_tilde}, p={p}")

    M = max(2.0, 2.0 * w - p + 2.0)
    s0_eff = p_tilde - M
    k = kappa(s0_eff, p, M, _THM1_N)

    if w > p:
        return RegimeReport(Theorem.NOT_COVERED, M, s0_eff, k, ("w_growth",))
    cases = {Theorem.THM1_CASE1: w <= p - 1.0 and p_tilde == p,
             Theorem.THM1_CASE2: p / 2.0 <= w < thm1_case2_sup(p, p_tilde),
             Theorem.THM1_CASE3: w <= p / 2.0 and p > 2.0 - (2.0 / 3.0) * p_tilde}
    for theorem, holds in cases.items():
        if holds:
            return RegimeReport(theorem, M, s0_eff,
                                p_tilde if theorem is Theorem.THM1_CASE1 else k)
    return RegimeReport(Theorem.NOT_COVERED, M, s0_eff, k,
                        tuple(theorem.value.removeprefix("thm1_")
                              for theorem, holds in cases.items() if not holds))


def check_thm2(params: ProblemParams) -> RegimeReport:
    """Admissibility of the general-window regime (q possibly above p).

    Conditions, all strict where written strictly:
      s0 >= 0; kappa > 0; s0 > p - 2 if c2 != 0 else s0 > p - 2w - 2; n >= 3.
    ProblemParams already holds q < p + 1.
    """
    M = compute_M_general(params.p, params.q, params.w)
    k = kappa(params.s0, params.p, M, params.n)
    rules = {"s0_nonneg": params.s0 >= 0.0,
             "kappa_positive": k > 0.0,
             "s0_vs_c2": params.s0 > _s_floor(params),
             "dimension": params.n >= 3}
    return _verdict(Theorem.THM2, params, M, k, rules)


def check_thm3(params: ProblemParams) -> RegimeReport:
    """Admissibility of the pure-window regime q = p (negative s0 allowed).

    Conditions: s0 > max(-lam/Lam, p - 2w - 2); kappa > 0 with the
    pure-window M; n >= 3.  Rejects q != p outright.
    """
    if params.q != params.p:
        raise ValueError(f"pure-window check needs q = p, got q={params.q}, p={params.p}")
    M = compute_M_general(params.p, params.p, params.w)
    k = kappa(params.s0, params.p, M, params.n)
    s0_floor = max(-params.lam / params.Lam, params.p - 2.0 * params.w - 2.0)
    rules = {"s0_lower_bound": params.s0 > s0_floor,
             "kappa_positive": k > 0.0,
             "dimension": params.n >= 3}
    return _verdict(Theorem.THM3, params, M, k, rules)


def _verdict(theorem: Theorem, params: ProblemParams, M: float, k: float,
             rules: dict[str, bool]) -> RegimeReport:
    """theorem's report if every rule holds, else not covered, naming each failed rule in order."""
    violated = tuple(name for name, holds in rules.items() if not holds)
    return RegimeReport(Theorem.NOT_COVERED if violated else theorem, M, params.s0, k, violated)


def _regime_check(params: ProblemParams) -> RegimeReport:
    """The general checks that decide a tuple: the pure window's if q = p, else thm2's."""
    return check_thm3(params) if params.q == params.p else check_thm2(params)


def _s_floor(params: ProblemParams) -> float:
    """Exclusive lower end of the s-range of thm2's s0 and the energy inequality's s."""
    return params.p - 2.0 * params.w - 2.0 if params.c2_zero else params.p - 2.0
