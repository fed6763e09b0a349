"""Wakimoto free-field currents and their algebra verification.

The currents are the free-field image of the differential operators of
``diffop.build_differential_realization`` under the one substitution
``free_field_image``: x^alpha -> gamma^alpha, d_alpha -> beta_alpha,
L_i -> sqrt(t) d phi_i, plus the anomalous d(gamma) corrections on the
lowering side.  Those corrections are where the level k enters: the k-free
part comes from ``polymat.anomalous_term``, the (2k/alpha^2) V_+^{-1} part
is added here.  The screening composites are images under the same
substitution.  The osp(2|2) current set is entered from its closed form
and validated by the same graded OPE sweep as the generated algebras.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from typing import Optional, Sequence

from .coeffs import RatFunc
from .diffop import DiffOp, build_differential_realization
from .fields import PHI, FieldContext, FieldExpr, Prim
from .liealg import Label, RootSystem, StructureTable, _invert, osp22_fixture
from .ope import contract, regularized_product
from .polymat import Poly, RealizationPolys, anomalous_term, realization_polynomials


class CurrentSet:
    """All currents of one affine algebra; each stage of the construction is built on first read.

    The stages are the realization polynomials ``polys``, the differential
    operators ``ops`` and the free-field ``currents``, each built from the one
    before it and the structure table ``tab``.  A ``ctx``, ``polys`` or
    ``currents`` passed in is kept as given, and a built stage lives in the
    instance ``__dict__``, so a pickle carries exactly the built stages.  A
    graded algebra has no ``polys`` or ``ops``; its currents are the
    osp(2|2) closed form.
    """

    def __init__(self, rs: RootSystem, tab: StructureTable, ctx=None, currents=None, polys=None):
        self.rs, self.tab = rs, tab
        given = {"ctx": ctx, "currents": currents, "polys": polys}
        self.__dict__.update((name, stage) for name, stage in given.items() if stage is not None)

    @cached_property
    def ctx(self) -> FieldContext:
        return FieldContext.from_algebra(self.rs)

    @cached_property
    def polys(self) -> Optional[RealizationPolys]:
        return realization_polynomials(self.rs, self.tab) if self.ctx.bosonic else None

    @cached_property
    def ops(self) -> Optional[dict[Label, DiffOp]]:
        """The differential operators the currents realize."""
        return None if self.polys is None else build_differential_realization(self.rs, self.tab, self.polys)

    @cached_property
    def currents(self) -> dict[Label, FieldExpr]:
        """The free-field image of the operators, plus the d gamma corrections.

        The d gamma^b coefficient of F_alpha is (2k/alpha^2) (V_+^{-1})_b^alpha + F_{alpha b}.
        """
        if self.ops is None:
            return _osp22_currents(self.ctx)
        rs, ctx, polys = self.rs, self.ctx, self.polys
        F_anom = anomalous_term(rs, polys)
        k = RatFunc.k()
        np_ = rs.n_pos
        slots = operator_slots(ctx)
        dgamma = [((ctx.gamma_kind(b), b, 1),) for b in range(np_)]
        currents: dict[Label, FieldExpr] = {}
        for lab, op in self.ops.items():
            if lab[0] != "f":
                currents[lab] = free_field_image(ctx, op.coeffs, slots)
                continue
            a = rs.root_index(lab[1])
            level = k * (2 / rs.root_norm2(lab[1]))
            currents[lab] = free_field_image(
                ctx,
                op.coeffs + [polys.V_plus_inv[b][a] for b in range(np_)] + F_anom[a],
                slots + dgamma + dgamma,
                [1] * len(slots) + [level] * np_ + [1] * np_,
            )
        return currents

    def built(self) -> "CurrentSet":
        """This set with every stage built: the currents read all the others."""
        self.currents
        return self

    def labels(self) -> list[Label]:
        return list(self.currents)

    def __getitem__(self, label: Label) -> FieldExpr:
        return self.currents[label]


Slot = tuple[Prim, ...]


def operator_slots(ctx: FieldContext) -> list[Slot]:
    """The free field of each ``DiffOp`` slot: d_beta -> beta_beta, L_j -> sqrt(t) d phi_j."""
    return [((ctx.beta_kind(b), b, 0),) for b in range(ctx.n_pos)] + [
        ((PHI, j, 0),) for j in range(ctx.rank)
    ]


def free_field_image(
    ctx: FieldContext, coeffs: Sequence[Poly], slots: Sequence[Slot], weights: Optional[Sequence] = None
) -> FieldExpr:
    """sum_i weights[i] coeffs[i](gamma) slots[i], canonicalized once.

    x^alpha -> gamma^alpha (c^alpha on odd roots); a slot is a product of
    primitives, () for none; the weights default to 1.
    """
    raw = []
    for p, slot, w in zip(coeffs, slots, repeat(1) if weights is None else weights):
        for expo, c in p.terms.items():
            gammas = tuple(
                (ctx.gamma_kind(pos), pos, 0) for pos, m in enumerate(expo) for _ in range(m)
            )
            raw.append((c * w, gammas + slot, (), None))
    return FieldExpr._from_raw(raw)


def build_wakimoto(
    rs: RootSystem, tab: StructureTable, polys: Optional[RealizationPolys] = None
) -> CurrentSet:
    """``CurrentSet(rs, tab)`` with every stage built now, from ``polys`` if given."""
    return CurrentSet(rs, tab, polys=polys).built()


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
    # one canonicalization over the stored coefficients
    first = FieldExpr._from_raw(
        (coef * v, *term)
        for c, v in cs.tab.bracket(a, b).items()
        for term, coef in cs.currents[c].terms.items()
    )
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
        if not got.equals(expect):
            bad.append(SweepViolation((a, b), q, (got - expect).text(cs.ctx)))
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
    """The osp(2|2) fixture with every stage built now."""
    return CurrentSet(*osp22_fixture()).built()


def _osp22_currents(ctx: FieldContext) -> dict[Label, FieldExpr]:
    k = RatFunc.k()
    half = Fraction(1, 2)

    def ghost(kind, pos):  # c d^d of the ghost at root position pos
        return lambda d=0, c=1: FieldExpr.prim(kind(pos), pos, d, coef=c)

    # root positions: alpha_1 even (beta, gamma), alpha_2 odd (b, c), alpha_1 + alpha_2 odd (B, C)
    gam, cf, Cf = (ghost(ctx.gamma_kind, pos) for pos in range(3))
    bet, bf, Bf = (ghost(ctx.beta_kind, pos) for pos in range(3))

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
    return cur
