"""Wakimoto free-field currents and their algebra verification.

Each current has one source, its rows: its coefficients over
``current_slots`` (beta_b, dphi_j, d gamma_b).  The beta and dphi rows are
the operator's own polynomials in gamma (``diffop``); only the d gamma rows
of a lowering current, its anomalous corrections, are in (gamma, k): the
k-free part is ``polymat.anomalous_term``, the (2k/alpha^2) V_+^{-1} part
is added in ``CurrentSet.rows``.  ``free_field_image`` (x^alpha -> gamma^alpha,
d_alpha -> beta_alpha, L_i -> sqrt(t) d phi_i) maps rows, and screening
composites, to field expressions, and ``PackedCurrents.split`` inverts it.

``check_pair`` decides one pair of a set with rows from the closed-form
poles of ``PackedCurrents``, which packs the rows, and runs Wick's theorem
(``wick_pair``) only on a pair they refute; the osp(2|2) set, entered from
its closed form, and a set built from given currents go straight to Wick's
theorem.  ``CurrentSet.packed`` also decides the first-kind screening
contracts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .coeffs import Pol, RatFunc, canonical
from .diffop import DiffOp, build_differential_realization
from .fields import GAMMA, PHI, FieldExpr, Prim, beta_kind, gamma_kind, vertex_phi_coupling
from .liealg import Label, RootSystem, StructureTable, _invert, osp22_fixture
from .ope import contract, regularized_product
from .polymat import (Packed, Packing, Poly, RealizationPolys, add_into, anomalous_term, bracket_into,
                      mul_into, realization_polynomials)


class CurrentSet:
    """All currents of one affine algebra; each stage of the construction is built on first read.

    The stages are the realization polynomials ``polys``, the differential
    operators ``ops``, the k-free ``anomalous`` term of the lowering currents,
    the ``rows`` and their free-field image ``currents``, each built from
    those before it, ``rs`` and ``tab``; ``current(label)`` builds one current
    without the others.  A ``polys`` or ``currents`` passed in is kept, and
    given currents have no ``rows``; a built stage lives in the instance
    ``__dict__``, so a pickle carries exactly the built stages.  A graded
    algebra has no ``polys``, ``ops`` or ``rows``; its currents are the
    osp(2|2) closed form.  ``ctx`` is ``rs``: the argument is accepted only
    as the set's own root system.
    """

    def __init__(self, rs: RootSystem, tab: StructureTable, ctx=None, currents=None, polys=None):
        if ctx is not None and ctx != rs:
            raise ValueError("a CurrentSet's ctx is its own root system")
        self.rs, self.tab = rs, tab
        given = {"currents": currents, "polys": polys}
        self.__dict__.update((name, stage) for name, stage in given.items() if stage is not None)

    @property
    def ctx(self) -> RootSystem:
        return self.rs

    @cached_property
    def polys(self) -> Optional[RealizationPolys]:
        return realization_polynomials(self.rs, self.tab) if self.rs.bosonic else None

    @cached_property
    def ops(self) -> Optional[dict[Label, DiffOp]]:
        """The differential operators the currents realize."""
        return None if self.polys is None else build_differential_realization(self.rs, self.tab, self.polys)

    @cached_property
    def anomalous(self) -> list[list[Poly]]:
        """The k-free part of the d gamma corrections, ``polymat.anomalous_term``: read by the lowering rows."""
        return anomalous_term(self.rs, self.polys)

    @cached_property
    def rows(self) -> Optional[dict[Label, list[Poly]]]:
        """Each current's coefficients over ``current_slots``: the operator's own polynomials in gamma,
        then d gamma rows, in (gamma, k) on a lowering current and zero in gamma on the others; None
        for given currents (a built ``currents`` stage reads ``rows`` first) and without ``ops``."""
        if "currents" in self.__dict__ or self.ops is None:
            return None
        return {lab: self._rows(lab) for lab in self.ops}

    def _rows(self, label: Label) -> list[Poly]:
        """The operator's coefficients, not copied, then the d gamma rows: on F_alpha
        F_{alpha b} + k (2/alpha^2) (V_+^{-1})_b^alpha, on E and H zero."""
        rs = self.rs
        rows = list(self.ops[label].coeffs)
        if label[0] != "f":
            return rows + [Poly(rs.n_pos)] * rs.n_pos
        a, level = rs.root_index(label[1]), 2 / rs.root_norm2(label[1])
        return rows + [with_k(f) + with_k(v[a].scale(level), 1)
                       for f, v in zip(self.anomalous[a], self.polys.V_plus_inv)]

    @cached_property
    def currents(self) -> dict[Label, FieldExpr]:
        """The free-field image of every current's rows, or the osp(2|2) closed form."""
        if self.rows is None:
            return _osp22_currents(self.rs)
        slots = current_slots(self.rs)
        return {lab: free_field_image(self.rs, rows, slots) for lab, rows in self.rows.items()}

    def current(self, label: Label) -> FieldExpr:
        """One current: read from the ``currents`` stage when it is built or given, else
        the image of its rows, which are built alone unless the ``rows`` stage is."""
        if "currents" in self.__dict__ or not self.rs.bosonic:
            return self.currents[label]
        rows = self.__dict__.get("rows")
        return free_field_image(self.rs, rows[label] if rows else self._rows(label), current_slots(self.rs))

    @cached_property
    def packed(self) -> Optional["PackedCurrents"]:
        """The rows packed over the integers, built on first read and never by ``built()``; None
        for a set without rows (graded, or built from given currents), which Wick's theorem decides."""
        return None if self.rows is None else PackedCurrents(self.rs, self.tab, self.rows)

    def built(self) -> "CurrentSet":
        """This set with every stage built: the currents read all the others."""
        self.currents
        return self

    def labels(self) -> list[Label]:
        """The current labels, read from the rows when the set has them, so listing builds no current."""
        return list(self.currents if self.rows is None else self.rows)

    def __getitem__(self, label: Label) -> FieldExpr:
        return self.currents[label]


Slot = tuple[Prim, ...]


def current_slots(rs: RootSystem) -> list[Slot]:
    """The free field of each row: beta_b (d_b), dphi_j (L_j -> sqrt(t) d phi_j), then d gamma_b."""
    return ([((beta_kind(rs, b), b, 0),) for b in range(rs.n_pos)]
            + [((PHI, j, 0),) for j in range(rs.rank)]
            + [((GAMMA, b, 1),) for b in range(rs.n_pos)])


def with_k(p: Poly, power: int = 0) -> Poly:
    """p(gamma) k^power as a polynomial in (gamma, k), read from p's num and den."""
    return p._like({e + (power,): c for e, c in p.num.items()}, p.den, p.nvars + 1)


def free_field_image(rs: RootSystem, rows: Sequence[Poly], slots: Sequence[Slot]) -> FieldExpr:
    """sum_i rows[i](gamma, k) slots[i], canonicalized once.

    x^alpha -> gamma^alpha (c^alpha on odd roots), an exponent past the n_pos
    gammas, where a row has one, is the power of k, and a slot is a product
    of primitives, () for none.  The integer numerators are taken over the
    LCM L of the denominators, and the sum divided by L once.
    """
    np_ = rs.n_pos
    L = math.lcm(*(p.den for p in rows))
    raw = []
    for p, slot in zip(rows, slots):
        f = L // p.den
        for expo, c in p.num.items():
            gammas = tuple((gamma_kind(rs, pos), pos, 0) for pos, m in enumerate(expo[:np_]) for _ in range(m))
            kp = expo[np_] if len(expo) > np_ else 0
            raw.append((RatFunc(Pol.k(kp).scale(c * f)) if kp else c * f, gammas + slot, (), None))
    return FieldExpr._from_raw(raw, L)


def build_wakimoto(rs: RootSystem, tab: StructureTable) -> CurrentSet:
    """``CurrentSet(rs, tab)`` with every stage built now."""
    return CurrentSet(rs, tab).built()


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


def wick_pair(cs: CurrentSet, a: Label, b: Label) -> list[SweepViolation]:
    """J_a(z) J_b(w) by Wick's theorem, against ``expected_ope``: one violation per differing order."""
    res = contract(cs.rs, cs.currents[a], cs.currents[b])
    return [SweepViolation((a, b), q, text) for q, text in res.mismatches(cs.rs, expected_ope(cs, a, b))]


# the detail of a pair or label the closed-form poles refute and Wick's theorem holds
UNCONFIRMED = "the closed-form poles refute this {} and Wick's theorem does not"


def check_pair(cs: CurrentSet, a: Label, b: Label) -> list[SweepViolation]:
    """The violations of one ordered pair: on a set with ``packed``, none for a pair its
    closed-form poles hold, which builds no field-expression current, and for a pair they
    refute ``wick_pair``'s, or one saying the two disagree; on any other set ``wick_pair``'s."""
    packed = cs.packed
    if packed is None:
        return wick_pair(cs, a, b)
    orders = packed.refuted_orders(a, b)
    return [] if not orders else wick_pair(cs, a, b) or [SweepViolation((a, b), orders[0], UNCONFIRMED.format("pair"))]


def verify_current_algebra(cs: CurrentSet) -> list[SweepViolation]:
    """Pairwise OPE sweep against the structure table: ``check_pair`` on each ordered pair, in pair order.

    A (b, a) whose (a, b) came first and held is not computed when f_ba ==
    s f_ab and kappa_ba == -s kappa_ab, s = 1 for two odd fields and -1
    otherwise: skew-symmetry gives b_(1)a = -s a_(1)b = k kappa_ba, b_(0)a =
    s a_(0)b - s d(k kappa_ab) = f_ba^c J_c and no higher pole.
    """
    labels, tab, held = cs.labels(), cs.tab, set()
    bad: list[SweepViolation] = []
    for a in labels:
        for b in labels:
            s = 1 if tab.label_parity(a) and tab.label_parity(b) else -1
            if ((b, a) in held and tab.bracket(b, a) == {c: s * v for c, v in tab.bracket(a, b).items()}
                    and tab.kappa_of(b, a) == -s * tab.kappa_of(a, b)):
                continue
            found = check_pair(cs, a, b)
            bad.extend(found)
            if not found:
                held.add((a, b))
    return bad


def sweep_route(cs: CurrentSet) -> str:
    """The route of ``check_pair`` on ``cs``: "packed" (Wick's theorem only on refuted pairs) or "wick"."""
    return "wick" if cs.packed is None else "packed"


# ---------------------------------------------------------------------------
# current OPEs in closed form over the integers
# ---------------------------------------------------------------------------

class PackedCurrents:
    """The currents of a bosonic set over the integers, and each pair's poles in closed form.

    Each current is sum_X P_X(gamma, k) X, its slot X one of beta_b, dphi_j
    or d gamma_b, in that order, packed as the pair (co, jac) that
    ``polymat.bracket_into`` reads: co[X] is the D-scaled P_X and jac[X], its
    ``Packing.partials``, maps each beta slot s to d_s P_X, d_s = d/d
    gamma^s.  For A = sum P_X X and B = sum Q_Y Y, Wick's theorem closes in a
    few lines and leaves no pole above 2.  Its contractions (z, w, c), z from
    A and w from B, are

    * the ghost pairs (P_{dgamma_b}, Q_{beta_b}) and (P_{beta_b}, Q_{dgamma_b}), c = 1;
    * the scalar legs (P_{dphi_i}, t Q_{dphi_j}), c = G_ij;
    * the double contraction (d_c P_{beta_s}, d_s Q_{beta_c}), c = -1;

    and the poles are

    * pole 2 = sum c z w;
    * pole 1 in slot Y = sum_b P_{beta_b} d_b Q_Y - sum_c d_c P_Y Q_{beta_c}
      (``polymat.bracket_into`` per slot: the first refuted slot ends the
      check), plus, in slot d gamma_d, the Taylor step sum c (d_d z) w: the
      same contractions with d_d applied to their z side.

    A w-side operand B V_mu with a rational momentum mu (a first-kind
    screening current) adds the vertex channel dphi_i(z) V(w) ~ mu_i/(z-w).
    With M = sum_i mu_i P_{dphi_i} it adds M Q_Y to pole 1 in every slot Y,
    and together with one gamma-beta pair the contraction (d_c M,
    Q_{beta_c}), c = -1, to the list.  Against a witness R(gamma, k) V_mu
    the poles must be R and dR: d_d R in slot d gamma_d, R nu^j in slot
    dphi_j with nu the ``fields.vertex_phi_coupling`` of mu, and 0 in the
    beta slots.  Since t nu^j is rational, pole 1 in the dphi slots is
    multiplied by t.

    k is one more packed variable that is never differentiated, so
    t = k + h_vee is a packed polynomial.  ``Packing.fit`` packs the rows
    alone: D is the common denominator of them and of the table's f and
    kappa, and g is the LCM of the denominators of G; a screening body or
    witness outside that packing goes to Wick's theorem (``_fit``).  Each
    pole is formed as e D^2 times its value, e = g m with m the LCM of the
    denominators of mu and t nu (1 without a vertex); the wanted poles are
    subtracted in place, and a pole holds when every entry is 0.
    """

    def __init__(self, rs: RootSystem, tab: StructureTable, rows: dict[Label, list[Poly]]):
        self.rs, self.tab, np_ = rs, tab, rs.n_pos
        consts = [*(v for out in tab.f.values() for v in out.values()), *tab.kappa.values()]
        pk = self.pk = Packing.fit(np_ + 1, [p for row in rows.values() for p in row], consts)
        g = self.g = math.lcm(*(x.denominator for row in rs.G for x in row))
        self.legs = [(i, j, int(x * g)) for i, row in enumerate(rs.G) for j, x in enumerate(row) if x]
        self.t = {pk.weights[np_]: 1, 0: rs.hvee}
        self.cur = {lab: self._operand([pk.pack(p) for p in row]) for lab, row in rows.items()}

    @staticmethod
    def split(rs: RootSystem, expr: FieldExpr) -> Optional[tuple[list[Poly], Optional[tuple]]]:
        """``expr`` as sum_X P_X(gamma, k) X V_mu: ([P_X per slot X, then P without a slot], mu).

        The inverse of ``free_field_image``: each P_X is a Poly in (gamma, k),
        the slots X those of ``current_slots``; mu is the vertex momentum of
        every term, None for none.  None on a graded algebra and for any other
        shape: a power factor, a factor besides the gammas and one slot, a
        coefficient with n or a denominator, two momenta, or one that is not
        rational."""
        if not rs.bosonic:
            return None
        np_ = rs.n_pos
        slots = [slot for slot, in current_slots(rs)]
        index = {slot: y for y, slot in enumerate(slots)}
        comps: list[dict] = [{} for _ in range(len(slots) + 1)]
        moms = {vertex for _, _, vertex in expr.terms}
        if len(moms) > 1:
            return None
        mu = moms.pop() if moms else None
        if mu is not None and any(type(canonical(c)) is RatFunc for c in mu):
            return None
        for (prims, pfs, _), coef in expr.terms.items():
            if pfs:
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
            if type(coef) is RatFunc:
                if coef.den or any(n for _, n in coef.num.terms):
                    return None
                parts = [(kp, c) for (kp, _), c in coef.num.terms.items()]
            else:
                parts = [(0, coef)]
            for kp, c in parts:
                expo[np_] = kp
                comps[len(slots) if y is None else y][tuple(expo)] = c
        return [Poly(np_ + 1, comp) for comp in comps], mu

    @classmethod
    def screening_rows(cls, rs: RootSystem, body: FieldExpr) -> Optional[tuple[list[Poly], tuple]]:
        """A screening body sum_Y Q_Y Y V_mu, every term with a slot and one rational mu, as
        ([Q_Y per slot Y], mu): the shape ``refuted_labels`` decides; None for any other."""
        parts = cls.split(rs, body)
        return None if parts is None or parts[1] is None or parts[0][-1] else (parts[0][:-1], parts[1])

    def _fit(self, rows: list[Poly]) -> Optional[list[Packed]]:
        """``rows`` packed, or None when a gamma exponent or a denominator lies outside the packing."""
        np_, pk = self.rs.n_pos, self.pk  # ``Packing.fit`` took base 2 emax + 1, two factors
        if any(pk.denom % p.den or any(x > pk.base // 2 for e in p.num for x in e[:np_]) for p in rows):
            return None
        return [pk.pack(p) for p in rows]

    def _operand(self, co: list[Packed]) -> tuple[list[Packed], list[dict[int, Packed]]]:
        """What a pole reads of an operand, current or screening body: (co, jac)."""
        return co, [self.pk.partials(p, self.rs.n_pos) for p in co]

    def refuted_orders(self, a: Label, b: Label) -> list[int]:
        """The pole orders, highest first, at which J_a(z) J_b(w) differs from
        k kappa_ab at order 2 and sum_c f_ab^c J_c at order 1."""
        g, D, np_ = self.g, self.pk.denom, self.rs.n_pos
        kap = self.tab.kappa_of(a, b)
        want2 = {self.pk.weights[np_]: kap.numerator * (D // kap.denominator) * D * g} if kap else {}
        rhs = [(self.cur[c][0], v.numerator * (D // v.denominator) * g) for c, v in self.tab.bracket(a, b).items()]
        return self._refuted(self.cur[a], self.cur[b], want2, rhs)

    def refuted_labels(self, body: tuple[list[Poly], tuple], witnesses: dict) -> dict[Label, list[int]]:
        """For each current J_a whose witness R = ``witnesses.get(a, 0)`` is
        sum P(gamma, k) V_mu and fits the packing: the pole orders, highest
        first, at which J_a(z) s(w) differs from R at order 2 and dR at order
        1.  ``body`` is s's ``screening_rows``; {} unless they fit the packing."""
        comps, mu = body
        co = self._fit(comps)
        if co is None:
            return {}
        B, rs, pk = self._operand(co), self.rs, self.pk
        np_, r, D, g = rs.n_pos, rs.rank, pk.denom, self.g
        mus = [canonical(c) for c in mu]
        tnu = [canonical(x * RatFunc.t(rs.hvee)) for x in vertex_phi_coupling(rs, mu)]
        m = math.lcm(*(Fraction(x).denominator for x in mus + tnu))
        mus, tnu = [int(x * g * m) for x in mus], [int(x * m) for x in tnu]
        out: dict[Label, list[int]] = {}
        for lab, A in self.cur.items():
            parts = self.split(rs, witnesses[lab]) if lab in witnesses else ([Poly(np_ + 1)], None)
            if parts is None or any(parts[0][:-1]) or (parts[0][-1] and parts[1] != mu):
                continue
            R = self._fit(parts[0][-1:])
            if R is None:
                continue
            # pole 2 = R, pole 1 = dR: d_d R at d gamma_d and (t nu^j) R at dphi_j, times t
            dR = [{} for _ in co]
            for j in range(r):
                dR[np_ + j] = {mono: c * D * g * tnu[j] for mono, c in R[0].items()}
            R = {mono: c * D * g * m for mono, c in R[0].items()}
            for d, q in pk.partials(R, np_).items():
                dR[np_ + r + d] = q
            M: Packed = {}
            for i in range(r):
                if mus[i]:
                    add_into(M, A[0][np_ + i], mus[i])
            out[lab] = self._refuted(A, B, R, [(dR, 1)], (m, M, pk.partials(M, np_)))
        return out

    def _refuted(self, A: tuple, B: tuple, want2: Packed, rhs: list, vertex: Optional[tuple] = None) -> list[int]:
        """The pole orders, highest first, at which A(z) B(w) differs from the wanted poles.

        A and B are (co, jac) pairs.  Each pole is formed as e D^2 times its
        value, e = g m: ``want2`` is pole 2 on that scale, and pole 1 in slot
        Y is sum_{(co, v) in rhs} v co[Y].  ``vertex`` is given when B
        carries V_mu: (m, M, {c: d_c M}) with M = e sum_i mu_i P_{dphi_i};
        pole 1 in the dphi slots is then taken times t.  Without it m = 1.

        The contractions are listed once, as (z, {d: d_d z}, w, c) on the
        pole's scale: the ghost pairs with c = e, the scalar legs with c = m
        g G_ij, the double contraction with c = -e and, with a vertex, (d_c
        M, Q_{beta_c}) with c = -1.  Pole 2 is sum c z w, and pole 1 in slot
        d gamma_d adds sum c (d_d z) w, the Taylor step.
        """
        (co, jac), (qo, qjac) = A, B
        pk, np_, r = self.pk, self.rs.n_pos, self.rs.rank
        dg = np_ + r
        m, M, dM = vertex or (1, {}, {})
        e = self.g * m
        tq = [mul_into({}, q, self.t) if q else q for q in qo[np_:dg]]
        contractions = [(co[z], jac[z], qo[w], e)
                        for b in range(np_) for z, w in ((dg + b, b), (b, dg + b)) if co[z] and qo[w]]
        contractions += [(co[np_ + i], jac[np_ + i], tq[j], m * G)
                         for i, j, G in self.legs if co[np_ + i] and tq[j]]
        contractions += [(p, pk.partials(p, np_), q, -e)
                         for s in range(np_) for c, p in jac[s].items() if (q := qjac[c].get(s))]
        contractions += [(p, pk.partials(p, np_), qo[c], -1) for c, p in dM.items()]
        acc: Packed = {}
        pole1: list[Packed] = [{} for _ in co]
        for z, dz, w, c in contractions:
            mul_into(acc, z, w, c)
            for d, h in dz.items():
                mul_into(pole1[dg + d], h, w, c)
        bad = [2] if any(add_into(acc, want2, -1).values()) else []
        tslots = range(np_, dg) if vertex else ()
        for y, acc in enumerate(pole1):
            bracket_into(acc, (co, jac[y]), (qo, qjac[y]), e)
            if M:
                mul_into(acc, M, qo[y])
            if y in tslots:
                acc = mul_into({}, acc, self.t)
            for rco, v in rhs:
                add_into(acc, rco[y], -v)
            if any(acc.values()):
                bad.append(1)
                break
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
        T = T + regularized_product(cs.rs, cs.currents[la], cs.currents[lb]).scale(coef)
    return T.scale(RatFunc.of(Fraction(1, 2)) / RatFunc.t(cs.rs.hvee))


# ---------------------------------------------------------------------------
# osp(2|2) currents (distinguished basis), entered from their closed form
# ---------------------------------------------------------------------------

def osp22_currents() -> CurrentSet:
    """The osp(2|2) fixture with every stage built now."""
    return CurrentSet(*osp22_fixture()).built()


def _osp22_currents(rs: RootSystem) -> dict[Label, FieldExpr]:
    k = RatFunc.k()
    half = Fraction(1, 2)

    def ghost(kind, pos):  # c d^d of the ghost at root position pos
        return lambda d=0, c=1: FieldExpr.prim(kind(rs, pos), pos, d, coef=c)

    # root positions: alpha_1 even (beta, gamma), alpha_2 odd (b, c), alpha_1 + alpha_2 odd (B, C)
    gam, cf, Cf = (ghost(gamma_kind, pos) for pos in range(3))
    bet, bf, Bf = (ghost(beta_kind, pos) for pos in range(3))

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
