"""Screening currents of the first and second kind, with their OPE contracts.

A screening current s must be a weight-1 primary whose OPE with every
current is a total derivative: J_a(z)s(w) = d_w[R_{a}(w)/(z-w)], i.e. the
second-order pole is the witness R_a, the first-order pole is dR_a, and
nothing higher appears.  The first kind uses the screening polynomials
S_{alpha_j}; the second kind raises the same ghost composite to the power
-2t/alpha_j^2 (valid when the highest-root coefficient a^j is 1), while the
B2 direction with a^j = 2 requires a formal bilateral series in n.

One choice, one loop: ``second_kind`` picks the construction of a
direction (the osp(2|2) current, the multiplicity-one power or the B2
series), ``verify`` picks the witnesses of a current, and
``_check_total_derivative`` stops at the first order, highest first, where
``OpeResult.mismatches`` finds an OPE off {2: R, 1: dR, else 0}.  Only the
current knows whether it is a series: its witnesses are plain summands, and
the poles of a series current are compared by the series residual.

Two routes decide a label.  A first-kind current, every term P_X(gamma) X
V_mu with one rational mu, meets each J_a in closed form over the integers
(``currents.PackedCurrents.refuted_labels`` on ``CurrentSet.packed``) when
the witness is R(gamma, k) V_mu within the packing.  Wick's theorem
(``ope.contract``) decides T, every other label and every other current,
for which no packing is built, and reruns each label the closed form
refutes, so a failure reads as Wick's residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from .coeffs import Exp, RatFunc
from .currents import UNCONFIRMED, CurrentSet, PackedCurrents, current_slots, free_field_image
from .fields import FieldExpr, beta_kind, gamma_kind
from .liealg import Label, RootSystem, build_root_system, build_structure_table
from .ope import contract, free_field_tensor
from .polymat import Poly
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

    @property
    def body(self) -> FieldExpr:
        """The field expression whose OPEs are taken: the summand of a series."""
        return self.expr.body if self.is_series else self.expr


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


def second_kind_momentum(rs: RootSystem, j: int) -> tuple[RatFunc, ...]:
    """Scaled labels with exponent sqrt(t) phi_j."""
    t = RatFunc.t(rs.hvee)
    return tuple(t * rs.G[i][j] for i in range(rs.rank))


def _simple(rs: RootSystem, j: int):
    return tuple(1 if i == j else 0 for i in range(rs.rank))


def _polys(cs: CurrentSet):
    """The realization polynomials the constructions are built from."""
    if cs.polys is None:
        raise DirectionError(
            f"{cs.rs.name} has no realization polynomials; "
            "only its second-kind current is provided"
        )
    return cs.polys


def screening_composite(cs: CurrentSet, j: int) -> FieldExpr:
    """S_{alpha_j}^sigma(gamma) beta_sigma."""
    return free_field_image(cs.rs, _polys(cs).S[j], current_slots(cs.rs))


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
    mom = second_kind_momentum(cs.rs, j)
    expr = FieldExpr.power(base, expo) * FieldExpr.vertex(mom)
    return ScreeningCurrent("second", j, expr, mom)


def second_kind(cs: CurrentSet, j: int) -> ScreeningCurrent:
    """The second-kind current of direction j.

    The osp(2|2) fixture has its one current, in the bosonic direction 1;
    otherwise a^j = 1 gives the power construction and a^j = 2 the B2 series.
    """
    if not cs.rs.bosonic:
        if j:
            raise DirectionError(f"{cs.rs.name} has a second-kind current in direction 1 only")
        return second_kind_osp22(cs)
    if cs.rs.theta[j] == 1:
        return second_kind_mult_one(cs, j)
    return second_kind_b2(cs, j)


def second_kind_b2(cs: CurrentSet, j: int = 1) -> ScreeningCurrent:
    """The series current in the multiplicity-two direction j = 1 of B2.

    Its bases and witnesses are closed forms in the built-in B2 structure
    constants, so a B2 with other extraspecial signs is refused too; any
    other direction is refused with its multiplicity.
    """
    b2 = build_root_system("B2")
    if cs.rs.pos_roots != b2.pos_roots or j != 1:
        raise DirectionError(f"multiplicity {cs.rs.theta[j]} direction without a series construction")
    if cs.tab.f != build_structure_table(b2).f:
        raise DirectionError("the series construction assumes the built-in B2 signs")
    A, B = _b2_bases(cs)
    mom = second_kind_momentum(cs.rs, j)
    body = (
        FieldExpr.power(A, Exp(0, 0, 1))
        * FieldExpr.power(B, Exp(-2, 0, -2))
        * FieldExpr.vertex(mom)
    )
    return ScreeningCurrent("second-series", j, SeriesExpr(body), mom)


def second_kind_osp22(cs: CurrentSet) -> ScreeningCurrent:
    """Bosonic-direction current of the osp(2|2) fixture."""
    rs = cs.rs
    if rs.root_parity != (0, 1, 1):
        raise DirectionError("the osp current requires the OSP22 fixture")
    t = RatFunc.t(rs.hvee)
    beta = FieldExpr.prim(beta_kind(rs, 0), 0)
    c = FieldExpr.prim(gamma_kind(rs, 1), 1)
    B = FieldExpr.prim(beta_kind(rs, 2), 2)
    pref = beta - (c * B).scale(t * Fraction(1, 2))
    mom = second_kind_momentum(rs, 0)
    expr = pref * FieldExpr.power(beta, Exp(-1, -1, 0)) * FieldExpr.vertex(mom)
    return ScreeningCurrent("second", 0, expr, mom)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _check_total_derivative(rs: RootSystem, s: ScreeningCurrent, label, res, witness: FieldExpr) -> GeneratorCheck:
    """Pole 2 must equal the witness, pole 1 its derivative, nothing higher: the first mismatch fails."""
    for q, text in res.mismatches(rs, {2: witness, 1: witness.derivative(rs)}, s.is_series):
        where = f"pole {q}" if q > 2 else f"pole {q} mismatch"
        return GeneratorCheck(label, False, detail=f"{where}: {text}")
    shown = SeriesExpr(witness) if s.is_series else witness
    return GeneratorCheck(label, True, witness_text=shown.text(rs))


def first_kind_witness(cs: CurrentSet, s: ScreeningCurrent, alpha_pos: int) -> FieldExpr:
    """R for F_alpha against a first-kind current: -(2/alpha_j^2) (k + h_vee) Q_{-alpha}^{-alpha_j}."""
    q = _polys(cs).Q[alpha_pos][s.direction].scale(-2 / cs.rs.root_norm2(_simple(cs.rs, s.direction)))
    return free_field_image(cs.rs, [q], [()]).scale(RatFunc.t(cs.rs.hvee)) * FieldExpr.vertex(s.momentum)


def prop1_witness(cs: CurrentSet, s: ScreeningCurrent, alpha_pos: int) -> FieldExpr:
    """R_{-alpha}: the first-kind witness times X^{-2t/a_j^2 - 1}."""
    j = s.direction
    power = Exp(-Fraction(2) / cs.rs.root_norm2(_simple(cs.rs, j)), -1, 0)
    return first_kind_witness(cs, s, alpha_pos) * FieldExpr.power(screening_composite(cs, j), power)


def verify_screening(cs: CurrentSet, s: ScreeningCurrent, witnesses) -> ScreeningReport:
    """Run the full contract: E/H regular, F total derivative, T weight 1.

    ``witnesses`` maps ("f", alpha) labels to the expected second-order pole
    (a summand, for a series current); raising/Cartan labels are expected
    regular.  A body sum_Y Q_Y(gamma) Y V_mu with one rational momentum (a
    first-kind current) is decided by the closed-form poles of ``cs.packed``
    on every label whose witness is R(gamma, k) V_mu within the packing; a
    body of any other shape reads no ``cs.packed``.  Wick's theorem decides
    T, every other label and every label the closed form refutes, so each
    failure's detail is Wick's; only those labels' currents are built.
    """
    rs = cs.rs
    body = PackedCurrents.screening_rows(rs, s.body)
    closed = {} if body is None or cs.packed is None else cs.packed.refuted_labels(body, witnesses)
    report = ScreeningReport()
    for label in cs.labels():
        want = witnesses.get(label, FieldExpr.zero())
        orders = closed.get(label)
        if orders == []:
            report.checks.append(GeneratorCheck(label, True, witness_text=want.text(rs)))
            continue
        check = _check_total_derivative(rs, s, label, contract(rs, cs.current(label), s.body), want)
        if orders and check.ok:
            check = GeneratorCheck(label, False, detail=UNCONFIRMED.format("label"))
        report.checks.append(check)
    # conformal contract
    res = contract(rs, free_field_tensor(rs), s.body)
    report.checks.append(_check_total_derivative(rs, s, ("T", 0), res, s.body))
    return report


def _root_witnesses(cs: CurrentSet, s: ScreeningCurrent, witness) -> dict:
    """The nonzero ``witness(cs, s, alpha_pos)`` of every positive root."""
    wit = {}
    for a, alpha in enumerate(cs.rs.pos_roots):
        w = witness(cs, s, a)
        if not w.is_structurally_zero:
            wit[("f", alpha)] = w
    return wit


def verify(cs: CurrentSet, s: ScreeningCurrent) -> ScreeningReport:
    """Check a current against the closed-form witnesses of its construction."""
    if s.kind == "first":
        wit = _root_witnesses(cs, s, first_kind_witness)
    elif s.is_series:
        wit = b2_series_witnesses(cs, s)
    elif not cs.rs.bosonic:
        wit = osp22_witnesses(cs, s)
    else:
        wit = _root_witnesses(cs, s, prop1_witness)
    return verify_screening(cs, s, wit)


# the names of the per-construction checks; each is ``verify``
verify_first_kind = verify_second_kind_mult_one = verify
verify_second_kind_b2 = verify_second_kind_osp22 = verify


def b2_series_witnesses(cs: CurrentSet, s: ScreeningCurrent) -> dict:
    """The closed-form witnesses of the B2 series verification, as summands."""
    rs = cs.rs
    t = RatFunc.t(rs.hvee)
    n = RatFunc.n()
    base_A, base_B = _b2_bases(cs)
    V = FieldExpr.vertex(s.momentum)
    An = FieldExpr.power(base_A, Exp(0, 0, 1))
    An_less = FieldExpr.power(base_A, Exp(0, -1, 1))
    B_less = FieldExpr.power(base_B, Exp(-2, -1, -2))
    B_same = FieldExpr.power(base_B, Exp(-2, 0, -2))
    g1 = FieldExpr.prim(gamma_kind(rs, 0), 0)
    g2 = FieldExpr.prim(gamma_kind(rs, 1), 1)
    g11 = FieldExpr.prim(gamma_kind(rs, 2), 2)
    dg1 = FieldExpr.prim(gamma_kind(rs, 0), 0, 1)
    wit = {}
    wit[("f", (0, 1))] = (An * B_less * V).scale(-2 * t - 2 * n)
    wit[("f", (1, 1))] = (g1 * An * B_less * V).scale(2 * t + 2 * n)
    wit[("f", rs.theta)] = (dg1 * An_less * B_same * V).scale(n) + (
        (g1 * g2).scale(Fraction(1, 2)) + g11
    ) * (An * B_less * V).scale(-2 * t - 2 * n)
    return wit


def _b2_bases(cs: CurrentSet):
    """The bases A (anchor, exponent n) and B (exponent -2t - 2n) of the B2 series."""
    rs = cs.rs
    ith = rs.root_index(rs.theta)
    third = Fraction(1, 3)
    A = (
        FieldExpr.prim(gamma_kind(rs, 0), 0, 1) * FieldExpr.prim(beta_kind(rs, ith), ith)
    ).scale(-2 * third) + (
        FieldExpr.prim(gamma_kind(rs, 0), 0) * FieldExpr.prim(beta_kind(rs, ith), ith, 1)
    ).scale(third)
    B = screening_composite(cs, 1)
    return A, B


def osp22_witnesses(cs: CurrentSet, s: ScreeningCurrent) -> dict:
    rs = cs.rs
    t = RatFunc.t(rs.hvee)
    beta = FieldExpr.prim(beta_kind(rs, 0), 0)
    c = FieldExpr.prim(gamma_kind(rs, 1), 1)
    B = FieldExpr.prim(beta_kind(rs, 2), 2)
    V = FieldExpr.vertex(s.momentum)
    wit = {}
    wit[("f", (1, 0))] = (
        (beta - (c * B).scale((t + 1) * Fraction(1, 2)))
        * FieldExpr.power(beta, Exp(-1, -2, 0))
        * V
    ).scale(t)
    wit[("f", (1, 1))] = (c * FieldExpr.power(beta, Exp(-1, -1, 0)) * V).scale(t)
    return wit


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
    if j >= cs.rs.rank or cs.rs.theta[j] <= 1:
        raise DirectionError("the naive construction only fails for multiplicity > 1")
    s = _prop1_form(cs, j)
    T = free_field_tensor(cs.rs)
    res = contract(cs.rs, T, s.expr)
    pole3 = res.order(3)
    # expected: p(p-1) (S dS)^tau(gamma) beta_tau X^{p-2} V
    polys = _polys(cs)
    np_ = cs.rs.n_pos
    aj2 = cs.rs.root_norm2(_simple(cs.rs, j))
    u = -Fraction(2) / aj2
    p = Exp(u, 0, 0).as_ratfunc(cs.rs.hvee)
    base = screening_composite(cs, j)
    Sj = polys.S[j]
    contracted = [
        sum((Sj[g] * Sj[tau].deriv(g) for g in range(np_)), Poly.zero(np_)) for tau in range(np_)
    ]
    shape = free_field_image(cs.rs, contracted, current_slots(cs.rs))
    expected = (
        shape
        * FieldExpr.power(base, Exp(u, -2, 0))
        * FieldExpr.vertex(s.momentum)
    ).scale(p * (p - 1))
    return NaiveFailure(j, pole3, expected, pole3.equals(expected))
