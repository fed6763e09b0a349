"""Screening currents of the first and second kind, with their OPE contracts.

A screening current s must be a weight-1 primary whose OPE with every
current is a total derivative: J_a(z)s(w) = d_w[R_{a}(w)/(z-w)], i.e. the
second-order pole is the witness R_a, the first-order pole is dR_a, and
nothing higher appears.  The first kind uses the screening polynomials
S_{alpha_j}; the second kind raises the same ghost composite to the power
-2t/alpha_j^2 (valid when the highest-root coefficient a^j is 1), while the
B2 direction with a^j = 2 requires a formal bilateral series in n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from .coeffs import Exp, RatFunc
from .currents import CurrentSet, poly_to_fields
from .fields import FieldContext, FieldExpr
from .liealg import Label, RootSystem
from .ope import contract, free_field_tensor
from .series import SeriesExpr


class DirectionError(ValueError):
    """Raised when a construction does not apply in the requested direction."""


@dataclass
class ScreeningCurrent:
    kind: str                      # "first" | "second" | "second-series"
    direction: int                 # simple-root index (0-based)
    expr: Union[FieldExpr, SeriesExpr]
    momentum: tuple[RatFunc, ...]

    @property
    def is_series(self) -> bool:
        return isinstance(self.expr, SeriesExpr)


@dataclass
class GeneratorCheck:
    label: Label
    ok: bool
    witness_text: str = ""
    detail: str = ""


@dataclass
class ScreeningReport:
    checks: list[GeneratorCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[GeneratorCheck]:
        return [c for c in self.checks if not c.ok]


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------

def first_kind_momentum(rs: RootSystem, j: int) -> tuple[RatFunc, ...]:
    """Scaled labels of -alpha_j: exponent is -alpha_j . phi / sqrt(t)."""
    return tuple(RatFunc.of(-x) for x in rs.root_labels(_simple(rs, j)))


def second_kind_momentum(ctx: FieldContext, j: int) -> tuple[RatFunc, ...]:
    """Scaled labels with exponent sqrt(t) phi_j."""
    t = ctx.t()
    return tuple(t * ctx.G[i][j] for i in range(ctx.rank))


def _simple(rs: RootSystem, j: int):
    return tuple(1 if i == j else 0 for i in range(rs.rank))


def screening_composite(cs: CurrentSet, j: int) -> FieldExpr:
    """S_{alpha_j}^sigma(gamma) beta_sigma."""
    polys = cs.polys
    assert polys is not None
    out = FieldExpr.zero()
    for sig in range(cs.rs.n_pos):
        p = polys.S[j][sig]
        if not p.is_zero:
            out = out + poly_to_fields(cs.ctx, p) * FieldExpr.prim(
                cs.ctx.beta_kind(sig), sig
            )
    return out


def first_kind(cs: CurrentSet, j: int) -> ScreeningCurrent:
    mom = first_kind_momentum(cs.rs, j)
    expr = screening_composite(cs, j) * FieldExpr.vertex(mom)
    return ScreeningCurrent("first", j, expr, mom)


def second_kind_mult_one(cs: CurrentSet, j: int) -> ScreeningCurrent:
    aj = cs.rs.theta[j]
    if aj != 1:
        raise DirectionError(
            f"highest-root coefficient a^{j + 1} = {aj} is not 1; "
            "use the series construction (available for B2, direction 2)"
        )
    return _prop1_form(cs, j)


def _prop1_form(cs: CurrentSet, j: int) -> ScreeningCurrent:
    base = screening_composite(cs, j)
    expo = Exp(-Fraction(2) / cs.rs.root_norm2(_simple(cs.rs, j)), 0, 0)
    mom = second_kind_momentum(cs.ctx, j)
    expr = FieldExpr.power(base, expo) * FieldExpr.vertex(mom)
    return ScreeningCurrent("second", j, expr, mom)


def second_kind_b2(cs: CurrentSet) -> ScreeningCurrent:
    """The series current in the multiplicity-two direction of B2."""
    rs = cs.rs
    if rs.name not in ("B2",) and rs.pos_roots != ((1, 0), (0, 1), (1, 1), (1, 2)):
        raise DirectionError("the series construction is provided for B2 only")
    j = 1
    A, B = _b2_bases(cs)
    mom = second_kind_momentum(cs.ctx, j)
    body = (
        FieldExpr.power(A, Exp(0, 0, 1))
        * FieldExpr.power(B, Exp(-2, 0, -2))
        * FieldExpr.vertex(mom)
    )
    return ScreeningCurrent("second-series", j, SeriesExpr(body), mom)


def second_kind_osp22(cs: CurrentSet) -> ScreeningCurrent:
    """Bosonic-direction current of the osp(2|2) fixture."""
    ctx = cs.ctx
    if ctx.root_parity != (0, 1, 1):
        raise DirectionError("the osp current requires the OSP22 fixture")
    t = ctx.t()
    beta = FieldExpr.prim(ctx.beta_kind(0), 0)
    c = FieldExpr.prim(ctx.gamma_kind(1), 1)
    B = FieldExpr.prim(ctx.beta_kind(2), 2)
    pref = beta - (c * B).scale(t * Fraction(1, 2))
    mom = second_kind_momentum(ctx, 0)
    expr = pref * FieldExpr.power(beta, Exp(-1, -1, 0)) * FieldExpr.vertex(mom)
    return ScreeningCurrent("second", 0, expr, mom)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _expr_equal(ctx, got, want, series: bool) -> tuple[bool, str]:
    if series:
        diff = SeriesExpr(got) - want if isinstance(want, SeriesExpr) else SeriesExpr(
            got - want
        )
        res = diff.residual(ctx)
        return res.is_structurally_zero, res.text(ctx)
    diff = got - want
    ok = diff.is_zero
    return ok, "" if ok else diff.text(ctx)


def _check_total_derivative(
    ctx, label, res, witness, series: bool
) -> GeneratorCheck:
    """Pole 2 must equal the witness, pole 1 its derivative, nothing higher."""
    for q in sorted((q for q in res.poles if q > 2), reverse=True):
        ok, txt = _expr_equal(ctx, res.order(q), _zero_like(witness), series)
        if not ok:
            return GeneratorCheck(label, False, detail=f"pole {q}: {txt}")
    wd = witness.derivative(ctx)
    ok2, t2 = _expr_equal(ctx, res.order(2), witness, series)
    if not ok2:
        return GeneratorCheck(label, False, detail=f"pole 2 mismatch: {t2}")
    ok1, t1 = _expr_equal(ctx, res.order(1), wd, series)
    if not ok1:
        return GeneratorCheck(label, False, detail=f"pole 1 mismatch: {t1}")
    wtext = witness.text(ctx) if not _is_zero_like(ctx, witness, series) else "0"
    return GeneratorCheck(label, True, witness_text=wtext)


def _zero_like(witness):
    return SeriesExpr.zero() if isinstance(witness, SeriesExpr) else FieldExpr.zero()


def _is_zero_like(ctx, witness, series: bool) -> bool:
    if isinstance(witness, SeriesExpr):
        return witness.is_zero(ctx)
    return witness.is_zero


def _screening_ope(cs: CurrentSet, J: FieldExpr, s: ScreeningCurrent):
    body = s.expr.body if s.is_series else s.expr
    return contract(cs.ctx, J, body)


def first_kind_witness(cs: CurrentSet, s: ScreeningCurrent, alpha_pos: int) -> FieldExpr:
    """R for F_alpha against a first-kind current: -(2t/alpha_j^2) Q_{-alpha}^{-alpha_j}."""
    polys = cs.polys
    assert polys is not None
    j = s.direction
    aj2 = cs.rs.root_norm2(_simple(cs.rs, j))
    q = polys.Q[alpha_pos][j]
    if q.is_zero:
        return FieldExpr.zero()
    pref = RatFunc.of(-2) * cs.ctx.t() / aj2
    return poly_to_fields(cs.ctx, q).scale(pref) * FieldExpr.vertex(s.momentum)


def prop1_witness(cs: CurrentSet, s: ScreeningCurrent, alpha_pos: int) -> FieldExpr:
    """R_{-alpha} = -(2t/a_j^2) Q_{-alpha}^{-alpha_j} X^{-2t/a_j^2 - 1}."""
    polys = cs.polys
    assert polys is not None
    j = s.direction
    q = polys.Q[alpha_pos][j]
    if q.is_zero:
        return FieldExpr.zero()
    aj2 = cs.rs.root_norm2(_simple(cs.rs, j))
    base = screening_composite(cs, j)
    pref = RatFunc.of(-2) * cs.ctx.t() / aj2
    power = FieldExpr.power(base, Exp(-Fraction(2) / aj2, -1, 0))
    return poly_to_fields(cs.ctx, q).scale(pref) * power * FieldExpr.vertex(s.momentum)


def verify_screening(cs: CurrentSet, s: ScreeningCurrent, witnesses) -> ScreeningReport:
    """Run the full contract: E/H regular, F total derivative, T weight 1.

    ``witnesses`` maps ("f", alpha) labels to the expected second-order pole;
    raising/Cartan labels are expected regular.
    """
    report = ScreeningReport()
    series = s.is_series
    zero = SeriesExpr.zero() if series else FieldExpr.zero()
    for label, J in cs.currents.items():
        res = _screening_ope(cs, J, s)
        want = witnesses.get(label, zero)
        report.checks.append(_check_total_derivative(cs.ctx, label, res, want, series))
    # conformal contract
    T = free_field_tensor(cs.ctx)
    res = contract(cs.ctx, T, s.expr.body if series else s.expr)
    want = s.expr if series else s.expr
    report.checks.append(_check_total_derivative(cs.ctx, ("T", 0), res, want, series))
    return report


def verify_first_kind(cs: CurrentSet, s: ScreeningCurrent) -> ScreeningReport:
    wit = {}
    for a, alpha in enumerate(cs.rs.pos_roots):
        w = first_kind_witness(cs, s, a)
        if not w.is_structurally_zero:
            wit[("f", alpha)] = w
    return verify_screening(cs, s, wit)


def verify_second_kind_mult_one(cs: CurrentSet, s: ScreeningCurrent) -> ScreeningReport:
    wit = {}
    for a, alpha in enumerate(cs.rs.pos_roots):
        w = prop1_witness(cs, s, a)
        if not w.is_structurally_zero:
            wit[("f", alpha)] = w
    return verify_screening(cs, s, wit)


def b2_series_witnesses(cs: CurrentSet, s: ScreeningCurrent) -> dict:
    """The closed-form witnesses of the B2 series verification."""
    ctx = cs.ctx
    rs = cs.rs
    t = ctx.t()
    n = RatFunc.n()
    base_A, base_B = _b2_bases(cs)
    V = FieldExpr.vertex(s.momentum)
    An = FieldExpr.power(base_A, Exp(0, 0, 1))
    An_less = FieldExpr.power(base_A, Exp(0, -1, 1))
    B_less = FieldExpr.power(base_B, Exp(-2, -1, -2))
    B_same = FieldExpr.power(base_B, Exp(-2, 0, -2))
    g1 = FieldExpr.prim(ctx.gamma_kind(0), 0)
    g2 = FieldExpr.prim(ctx.gamma_kind(1), 1)
    g11 = FieldExpr.prim(ctx.gamma_kind(2), 2)
    dg1 = FieldExpr.prim(ctx.gamma_kind(0), 0, 1)
    wit = {}
    wit[("f", (0, 1))] = SeriesExpr((An * B_less * V).scale(-2 * t - 2 * n))
    wit[("f", (1, 1))] = SeriesExpr((g1 * An * B_less * V).scale(2 * t + 2 * n))
    wit[("f", rs.theta)] = SeriesExpr(
        (dg1 * An_less * B_same * V).scale(n)
        + ((g1 * g2).scale(Fraction(1, 2)) + g11) * (An * B_less * V).scale(-2 * t - 2 * n)
    )
    return wit


def _b2_bases(cs: CurrentSet):
    """The bases A (anchor, exponent n) and B (exponent -2t - 2n) of the B2 series."""
    ctx = cs.ctx
    ith = cs.rs.root_index(cs.rs.theta)
    third = Fraction(1, 3)
    A = (
        FieldExpr.prim(ctx.gamma_kind(0), 0, 1) * FieldExpr.prim(ctx.beta_kind(ith), ith)
    ).scale(-2 * third) + (
        FieldExpr.prim(ctx.gamma_kind(0), 0) * FieldExpr.prim(ctx.beta_kind(ith), ith, 1)
    ).scale(third)
    B = screening_composite(cs, 1)
    return A, B


def verify_second_kind_b2(cs: CurrentSet, s: ScreeningCurrent) -> ScreeningReport:
    return verify_screening(cs, s, b2_series_witnesses(cs, s))


def osp22_witnesses(cs: CurrentSet, s: ScreeningCurrent) -> dict:
    ctx = cs.ctx
    t = ctx.t()
    beta = FieldExpr.prim(ctx.beta_kind(0), 0)
    c = FieldExpr.prim(ctx.gamma_kind(1), 1)
    B = FieldExpr.prim(ctx.beta_kind(2), 2)
    V = FieldExpr.vertex(s.momentum)
    wit = {}
    wit[("f", (1, 0))] = (
        (beta - (c * B).scale((t + 1) * Fraction(1, 2)))
        * FieldExpr.power(beta, Exp(-1, -2, 0))
        * V
    ).scale(t)
    wit[("f", (1, 1))] = (c * FieldExpr.power(beta, Exp(-1, -1, 0)) * V).scale(t)
    return wit


def verify_second_kind_osp22(cs: CurrentSet, s: ScreeningCurrent) -> ScreeningReport:
    return verify_screening(cs, s, osp22_witnesses(cs, s))


# ---------------------------------------------------------------------------
# negative control
# ---------------------------------------------------------------------------

@dataclass
class NaiveFailure:
    direction: int
    third_order_pole: FieldExpr
    expected_shape: FieldExpr
    matches_expected_shape: bool

    @property
    def nonvanishing(self) -> bool:
        return not self.third_order_pole.is_zero


def naive_second_kind_failure(cs: CurrentSet, j: int) -> NaiveFailure:
    """Build the Prop-1-form current in a multiplicity > 1 direction and
    exhibit the third-order pole of T(z)s(w); it is proportional to the
    contracted sequence S_j^sigma d_sigma S_j^beta."""
    aj = cs.rs.theta[j]
    if aj <= 1:
        raise DirectionError("the naive construction only fails for multiplicity > 1")
    s = _prop1_form(cs, j)
    T = free_field_tensor(cs.ctx)
    res = contract(cs.ctx, T, s.expr)
    pole3 = res.order(3)
    # expected: p(p-1) (S dS)^tau(gamma) beta_tau X^{p-2} V
    polys = cs.polys
    assert polys is not None
    np_ = cs.rs.n_pos
    aj2 = cs.rs.root_norm2(_simple(cs.rs, j))
    u = -Fraction(2) / aj2
    p = Exp(u, 0, 0).as_ratfunc(cs.ctx.hvee)
    base = screening_composite(cs, j)
    shape = FieldExpr.zero()
    for tau in range(np_):
        acc = None
        for g in range(np_):
            piece = polys.S[j][g] * polys.S[j][tau].deriv(g)
            acc = piece if acc is None else acc + piece
        if acc is not None and not acc.is_zero:
            shape = shape + poly_to_fields(cs.ctx, acc) * FieldExpr.prim(
                cs.ctx.beta_kind(tau), tau
            )
    expected = (
        shape
        * FieldExpr.power(base, Exp(u, -2, 0))
        * FieldExpr.vertex(s.momentum)
    ).scale(p * (p - 1))
    return NaiveFailure(j, pole3, expected, pole3.equals(expected))
