"""Wakimoto free-field currents and their algebra verification.

The raising/Cartan/lowering currents come from the realization polynomials
by the substitution d_alpha -> beta_alpha, x^alpha -> gamma^alpha,
L_i -> sqrt(t) d phi_i, plus the anomalous d(gamma) corrections on the
lowering side.  The osp(2|2) current set is entered from its closed form
and validated by the same graded OPE sweep as the generated algebras.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .coeffs import RatFunc
from .fields import PHI, FieldContext, FieldExpr
from .liealg import Label, RootSystem, StructureTable, _invert, osp22_fixture
from .ope import contract, regularized_product
from .polymat import Poly, RealizationPolys, anomalous_term, realization_polynomials


@dataclass
class CurrentSet:
    """All currents of one affine algebra, fully expanded and canonical."""

    rs: RootSystem
    tab: StructureTable
    ctx: FieldContext
    currents: dict[Label, FieldExpr]
    polys: Optional[RealizationPolys] = None

    def labels(self) -> list[Label]:
        return list(self.currents)

    def __getitem__(self, label: Label) -> FieldExpr:
        return self.currents[label]


def poly_to_fields(ctx: FieldContext, p: Poly) -> FieldExpr:
    """Substitute x^alpha -> gamma^alpha (or c^alpha on odd roots)."""
    out = FieldExpr.zero()
    for expo, coef in p.terms.items():
        term = FieldExpr.const(coef)
        for pos, mult in enumerate(expo):
            for _ in range(mult):
                term = term * FieldExpr.prim(ctx.gamma_kind(pos), pos)
        out = out + term
    return out


def build_wakimoto(
    rs: RootSystem, tab: StructureTable, polys: Optional[RealizationPolys] = None
) -> CurrentSet:
    if polys is None:
        polys = realization_polynomials(rs, tab)
    ctx = FieldContext.from_algebra(rs)
    F_anom = anomalous_term(rs, polys)
    np_ = rs.n_pos
    currents: dict[Label, FieldExpr] = {}
    for a, alpha in enumerate(rs.pos_roots):
        expr = FieldExpr.zero()
        for b in range(np_):
            if not polys.V_plus[a][b].is_zero:
                expr = expr + poly_to_fields(ctx, polys.V_plus[a][b]) * FieldExpr.prim(
                    ctx.beta_kind(b), b
                )
        currents[("e", alpha)] = expr
    for i in range(rs.rank):
        expr = FieldExpr.prim(PHI, i)
        for b in range(np_):
            if not polys.V_cartan[i][b].is_zero:
                expr = expr + poly_to_fields(ctx, polys.V_cartan[i][b]) * FieldExpr.prim(
                    ctx.beta_kind(b), b
                )
        currents[("h", i)] = expr
    for a, alpha in enumerate(rs.pos_roots):
        expr = FieldExpr.zero()
        for b in range(np_):
            if not polys.V_minus[a][b].is_zero:
                expr = expr + poly_to_fields(ctx, polys.V_minus[a][b]) * FieldExpr.prim(
                    ctx.beta_kind(b), b
                )
        for j in range(rs.rank):
            if not polys.P[a][j].is_zero:
                expr = expr + poly_to_fields(ctx, polys.P[a][j]) * FieldExpr.prim(PHI, j)
        for b in range(np_):
            if not F_anom[a][b].is_zero:
                expr = expr + poly_to_fields(ctx, F_anom[a][b]) * FieldExpr.prim(
                    ctx.gamma_kind(b), b, 1
                )
        currents[("f", alpha)] = expr
    return CurrentSet(rs, tab, ctx, currents, polys)


@dataclass
class SweepViolation:
    pair: tuple[Label, Label]
    order: int
    detail: str


def expected_ope(cs: CurrentSet, a: Label, b: Label) -> dict[int, FieldExpr]:
    """kappa_ab k at order 2 and f_ab^c J_c at order 1."""
    k = RatFunc.k()
    out: dict[int, FieldExpr] = {}
    kap = cs.tab.kappa_of(a, b)
    if kap:
        out[2] = FieldExpr.const(k * kap)
    first = FieldExpr.zero()
    for c, v in cs.tab.bracket(a, b).items():
        first = first + cs.currents[c].scale(v)
    if not first.is_structurally_zero:
        out[1] = first
    return out


def check_pair(cs: CurrentSet, a: Label, b: Label) -> list[SweepViolation]:
    res = contract(cs.ctx, cs.currents[a], cs.currents[b])
    want = expected_ope(cs, a, b)
    bad = []
    orders = set(res.poles) | set(want)
    for q in sorted(orders, reverse=True):
        got = res.order(q)
        expect = want.get(q, FieldExpr.zero())
        diff = got - expect
        if not diff.is_zero:
            bad.append(SweepViolation((a, b), q, diff.text(cs.ctx)))
    return bad


def verify_current_algebra(cs: CurrentSet, pairs=None) -> list[SweepViolation]:
    """Full pairwise OPE sweep against the structure table."""
    labels = cs.labels()
    bad: list[SweepViolation] = []
    if pairs is None:
        pairs = [(a, b) for a in labels for b in labels]
    for a, b in pairs:
        bad.extend(check_pair(cs, a, b))
    return bad


# ---------------------------------------------------------------------------
# Sugawara construction
# ---------------------------------------------------------------------------

def kappa_inverse(cs: CurrentSet) -> list[tuple[Label, Label, Fraction]]:
    """Triples (a, b, kappa^{ab}) with kappa^{ab} kappa_{bc} = delta^a_c."""
    labels = cs.tab.basis()
    inv = _invert([[Fraction(cs.tab.kappa_of(a, b)) for b in labels] for a in labels])
    return [(a, b, v) for a, row in zip(labels, inv) for b, v in zip(labels, row) if v]


def sugawara_tensor(cs: CurrentSet) -> FieldExpr:
    """(1/2t) kappa^{ab} (J_a J_b) with the point-split product."""
    T = FieldExpr.zero()
    for la, lb, coef in kappa_inverse(cs):
        T = T + regularized_product(cs.ctx, cs.currents[la], cs.currents[lb]).scale(coef)
    return T.scale(RatFunc.of(Fraction(1, 2)) / cs.ctx.t())


# ---------------------------------------------------------------------------
# osp(2|2) currents (distinguished basis), entered from their closed form
# ---------------------------------------------------------------------------

def osp22_currents() -> CurrentSet:
    rs, tab = osp22_fixture()
    ctx = FieldContext.from_algebra(rs)
    k = RatFunc.k()
    half = Fraction(1, 2)

    i1 = 0   # even root alpha_1: (beta, gamma)
    i2 = 1   # odd root alpha_2: (b, c)
    i12 = 2  # odd root alpha_1 + alpha_2: (B, C)

    def gam(d=0, c=1):
        return FieldExpr.prim(ctx.gamma_kind(i1), i1, d, coef=c)

    def bet(d=0, c=1):
        return FieldExpr.prim(ctx.beta_kind(i1), i1, d, coef=c)

    def cf(d=0, c=1):
        return FieldExpr.prim(ctx.gamma_kind(i2), i2, d, coef=c)

    def bf(d=0, c=1):
        return FieldExpr.prim(ctx.beta_kind(i2), i2, d, coef=c)

    def Cf(d=0, c=1):
        return FieldExpr.prim(ctx.gamma_kind(i12), i12, d, coef=c)

    def Bf(d=0, c=1):
        return FieldExpr.prim(ctx.beta_kind(i12), i12, d, coef=c)

    P1 = FieldExpr.prim(PHI, 0)
    P2 = FieldExpr.prim(PHI, 1)

    cur: dict[Label, FieldExpr] = {}
    cur[("h", 0)] = (gam() * bet()).scale(-2) + cf() * bf() - Cf() * Bf() + P1
    cur[("h", 1)] = gam() * bet() + Cf() * Bf() + P2
    cur[("e", (1, 0))] = bet() - (cf() * Bf()).scale(half)
    cur[("f", (1, 0))] = (
        (gam() * gam() * bet()).scale(-1)
        + ((gam() * cf()).scale(half) - Cf()) * bf()
        - (gam() * ((gam() * cf()).scale(half) + Cf()) * Bf()).scale(half)
        + gam() * P1
        + gam(1, k - half)
    )
    cur[("e", (0, 1))] = bf() + (gam() * Bf()).scale(half)
    cur[("f", (0, 1))] = (
        ((gam() * cf()).scale(half) + Cf()) * bet()
        + (cf() * Cf() * Bf()).scale(half)
        + cf() * P2
        + cf(1, k + half)
    )
    cur[("e", (1, 1))] = Bf()
    cur[("f", (1, 1))] = (
        (gam() * ((gam() * cf()).scale(half) + Cf()) * bet()).scale(-1)
        - cf() * Cf() * bf()
        + ((gam() * cf()).scale(half) + Cf()) * P1
        - ((gam() * cf()).scale(half) - Cf()) * P2
        + (gam(1) * cf()).scale((k - 1) * half)
        - (cf(1) * gam()).scale((k + 1) * half)
        + Cf(1, k)
    )
    return CurrentSet(rs, tab, ctx, cur)
