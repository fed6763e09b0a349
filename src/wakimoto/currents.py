"""Wakimoto free-field currents and their algebra verification.

The currents are the free-field image of the differential operators of
``diffop.build_differential_realization`` under the one substitution
``free_field_image``: x^alpha -> gamma^alpha, d_alpha -> beta_alpha,
L_i -> sqrt(t) d phi_i, plus the anomalous d(gamma) corrections on the
lowering side.  Those corrections are where the level k enters: the k-free
part comes from ``polymat.anomalous_term``, the (2k/alpha^2) V_+^{-1} part
is added here.  The screening composites are images under the same
substitution.  The osp(2|2) current set is entered from its closed form.

The current-algebra sweep decides a generated (bosonic) set from the
closed-form poles of ``PackedCurrents`` and runs Wick's theorem
(``check_pair``) on the pairs they refute; the osp(2|2) set goes pair by
pair through Wick's theorem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from typing import Optional, Sequence

from .coeffs import RatFunc
from .diffop import DiffOp, _bracket_slot, build_differential_realization
from .fields import GAMMA, PHI, FieldContext, FieldExpr, Prim
from .liealg import Label, RootSystem, StructureTable, _invert, osp22_fixture
from .ope import contract, regularized_product
from .polymat import Packed, Packing, Poly, RealizationPolys, anomalous_term, mul_into, realization_polynomials


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
    """Pairwise OPE sweep against the structure table, in pair order.

    A set that ``PackedCurrents.of`` accepts is decided by the closed-form
    poles, and ``check_pair`` reports each pair they refute; a refuted pair
    that Wick passes is a violation too, since the two routes disagree.  Any
    other set goes pair by pair through ``check_pair``.
    """
    labels = cs.labels()
    if pairs is None:
        pairs = [(a, b) for a in labels for b in labels]
    packed = PackedCurrents.of(cs)
    if packed is None:
        return [v for a, b in pairs for v in check_pair(cs, a, b)]
    bad: list[SweepViolation] = []
    for a, b in pairs:
        orders = packed.refuted_orders(a, b)
        if orders:
            bad.extend(check_pair(cs, a, b) or [SweepViolation(
                (a, b), orders[0], "the closed-form poles refute this pair and Wick's theorem does not"
            )])
    return bad


def sweep_route(cs: CurrentSet) -> str:
    """"packed" when ``verify_current_algebra`` decides ``cs`` in closed form, else "wick"."""
    return "wick" if PackedCurrents._split(cs) is None else "packed"


# ---------------------------------------------------------------------------
# current OPEs in closed form over the integers
# ---------------------------------------------------------------------------

class PackedCurrents:
    """The currents of a bosonic set over the integers, and each pair's poles in closed form.

    Each current is sum_X P_X(gamma, k) X, its slot X one of beta_b, dphi_j
    or d gamma_b, in that order.  For A = sum P_X X and B = sum Q_Y Y, with
    d_b = d/d gamma^b, Wick's theorem closes in a few lines and leaves no
    pole above 2:

    * pole 2 = sum_b (P_{beta_b} Q_{dgamma_b} + P_{dgamma_b} Q_{beta_b})
      + t sum_ij G_ij P_{dphi_i} Q_{dphi_j} - sum_bc d_c P_{beta_b} d_b Q_{beta_c};
    * pole 1 in slot Y = sum_b P_{beta_b} d_b Q_Y - sum_c d_c P_Y Q_{beta_c}
      (``diffop._bracket_slot``), plus, in slot d gamma_d, the pole-2
      integrand with d_d applied to its z-side factor (the Taylor step).

    k is one more packed variable that is never differentiated, so
    t = k + h_vee is a packed polynomial.  The packing's denominator D is
    common to every coefficient and to the table's f and kappa, and g is the
    LCM of the denominators of G: each pole is formed as g D^2 times its
    value, k kappa_ab and sum_c f_ab^c J_c are subtracted in place, and a
    pole holds when every entry is 0.
    """

    def __init__(self, cs: CurrentSet, rows: dict[Label, list[dict]]):
        ctx = self.ctx = cs.ctx
        self.tab, np_ = cs.tab, ctx.n_pos
        terms = [t for comps in rows.values() for comp in comps for t in comp.items()]
        consts = [*(v for out in cs.tab.f.values() for v in out.values()), *cs.tab.kappa.values()]
        denom = math.lcm(*(c.denominator for _, c in terms), *(c.denominator for c in consts))
        emax = max((x for e, _ in terms for x in e[:np_]), default=0)
        kmax = max((e[np_] for e, _ in terms), default=0)
        # no gamma exponent of a product exceeds 2 emax, and no k exponent 2 kmax + 1 (t)
        pk = self.pk = Packing(np_ + 1, max(2 * emax, 2 * kmax + 1) + 1, denom)
        g = self.g = math.lcm(*(x.denominator for row in ctx.G for x in row))
        G = [[int(x * g) for x in row] for row in ctx.G]
        t = {pk.weights[np_]: 1, 0: ctx.hvee}
        self.cur = {lab: self._current([pk.pack(Poly(np_ + 1, comp)) for comp in comps], G, t)
                    for lab, comps in rows.items()}

    @classmethod
    def of(cls, cs: CurrentSet) -> Optional["PackedCurrents"]:
        """The packed currents of ``cs``; None for a graded set or one with a
        term of another shape, which Wick's theorem decides instead."""
        rows = cls._split(cs)
        return None if rows is None else cls(cs, rows)

    @staticmethod
    def _split(cs: CurrentSet) -> Optional[dict[Label, list[dict]]]:
        """Each current's P_X as {gamma exponents + (k power,): rational} per
        slot X, in the order beta_b, dphi_j, d gamma_b; None where
        ``PackedCurrents.of`` is."""
        ctx = cs.ctx
        if not ctx.bosonic:
            return None
        np_ = ctx.n_pos
        slots = [slot for slot, in operator_slots(ctx)] + [(GAMMA, b, 1) for b in range(np_)]
        index = {slot: y for y, slot in enumerate(slots)}
        rows: dict[Label, list[dict]] = {}
        for lab, expr in cs.currents.items():
            comps: list[dict] = [{} for _ in slots]
            for (prims, pfs, vertex), coef in expr.terms.items():
                if pfs or vertex is not None:
                    return None
                expo = [0] * (np_ + 1)
                y = None
                for p in prims:
                    if p[0] == GAMMA and not p[2]:
                        expo[p[1]] += 1
                    elif y is None and p in index:
                        y = index[p]
                    else:
                        return None
                if y is None:
                    return None
                if type(coef) is RatFunc:
                    if coef.den or any(n for _, n in coef.num.terms):
                        return None
                    parts = [(kp, c) for (kp, _), c in coef.num.terms.items()]
                else:
                    parts = [(0, coef)]
                for kp, c in parts:
                    expo[np_] = kp
                    comps[y][tuple(expo)] = c
            rows[lab] = comps
        return rows

    def _current(self, co: list[Packed], G: list[list[int]], t: Packed) -> "_Current":
        pk, g, np_, r = self.pk, self.g, self.ctx.n_pos, self.ctx.rank
        cur = _Current()
        cur.co = co
        cur.jac = [[(s, d) for s in range(np_) if (d := pk.deriv(p, s))] if p else [] for p in co]
        cur.jd = [dict(row) for row in cur.jac[:np_]]
        phi = []
        for j in range(r):
            acc: Packed = {}
            for i in range(r):
                if G[i][j]:
                    mul_into(acc, co[np_ + i], {0: 1}, G[i][j])
            phi.append(mul_into({}, acc, t))
        zside = [{m: g * c for m, c in p.items()} for p in co[np_ + r:]] + phi
        zside += [{m: g * c for m, c in p.items()} for p in co[:np_]]
        cur.zside = [(y, p) for y, p in enumerate(zside) if any(p.values())]
        cur.taylor = {}
        for d in range(np_):
            dz = [(y, q) for y, p in cur.zside if (q := pk.deriv(p, d))]
            ddp = [(b, c, q) for b in range(np_) for c, p in cur.jac[b] if (q := pk.deriv(p, d))]
            if dz or ddp:
                cur.taylor[np_ + r + d] = dz, ddp
        return cur

    def refuted_orders(self, a: Label, b: Label) -> list[int]:
        """The pole orders, highest first, at which J_a(z) J_b(w) differs from
        k kappa_ab at order 2 and sum_c f_ab^c J_c at order 1."""
        A, B = self.cur[a], self.cur[b]
        g, D, np_ = self.g, self.pk.denom, self.ctx.n_pos
        bad = []
        acc: Packed = {}
        for y, p in A.zside:
            mul_into(acc, p, B.co[y])
        for s in range(np_):
            for c, p in A.jac[s]:
                if q := B.jd[c].get(s):
                    mul_into(acc, p, q, -g)
        kap = self.tab.kappa_of(a, b)
        if kap:
            w = self.pk.weights[np_]
            acc[w] = acc.get(w, 0) - kap.numerator * (D // kap.denominator) * D * g
        if any(acc.values()):
            bad.append(2)
        rhs = [(self.cur[c].co, v.numerator * (D // v.denominator) * g) for c, v in self.tab.bracket(a, b).items()]
        pa, pb = (A.co, A.jac), (B.co, B.jac)
        for y in range(len(A.co)):
            acc = _bracket_slot(pa, pb, y, {})
            if g != 1:
                acc = {m: g * c for m, c in acc.items()}
            if y in A.taylor:
                dz, ddp = A.taylor[y]
                for y2, p in dz:
                    mul_into(acc, p, B.co[y2])
                for s, c, p in ddp:
                    if q := B.jd[c].get(s):
                        mul_into(acc, p, q, -g)
            for co, v in rhs:
                mul_into(acc, co[y], {0: 1}, -v)
            if any(acc.values()):
                bad.append(1)
                break
        return bad


class _Current:
    """One current over a ``PackedCurrents`` packing, with what its poles read.

    co[Y] is the D-scaled P_Y; jac[Y] lists (s, d_s P_Y) over the beta slots
    s (the shape of ``diffop._bracket_slot``), and jd[c] maps s to
    d_s P_{beta_c}.  zside lists (Y, R_Y), the g D-scaled z-side factor that
    meets w-side slot Y at pole 2: P_{dgamma_b} at beta_b, t G_ij P_{dphi_i}
    at dphi_j, P_{beta_b} at d gamma_b.  taylor maps the slot of d gamma_d
    to d_d of those factors: (Y, d_d R_Y) and (b, c, d_d d_c P_{beta_b}).
    """

    __slots__ = ("co", "jac", "jd", "zside", "taylor")


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
