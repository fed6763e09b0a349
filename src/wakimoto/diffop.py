"""First-order differential operators realizing the algebra on functions of x.

An operator is sum_beta p^beta(x) d_beta + sum_j q_j(x) L_j, where the L_j
are central symbols (the lowest-weight labels).  It is stored as one vector
of coefficients over the slots (d_beta..., L_j...); since no derivative
touches an L_j, the commutator of two such operators is first order again
and acts on every slot alike, so the whole realization lives in this class.

Brackets are taken over the integers in one ``polymat.Packing`` of all
operators involved: coefficients and structure constants are scaled by their
common denominator D, and an exponent tuple e is packed into one int with
base B = 2 emax + 1 (emax the largest single exponent), so a product of two
coefficients never carries.  An operator's slots are stacked in one dict,
slot i at i B**n_pos, whose partials are tabulated once; one
``polymat.bracket_into`` call forms every slot of a bracket.  Its
a^sig d_sig b - b^sig d_sig a is antisymmetric term by term, so the bracket
of (b, a) is exactly minus that of (a, b), and ``verify_realization`` forms
one per unordered pair for both ordered checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .liealg import Label, RootSystem, StructureTable
from .polymat import Packed, Packing, Poly, RealizationPolys, add_into, bracket_into


@dataclass
class DiffOp:
    """coeffs[beta](x) d_beta + coeffs[n_pos + j](x) L_j in canonical (collected) form."""

    rs: RootSystem
    coeffs: list[Poly]  # n_pos derivative coefficients, then rank weight coefficients

    @property
    def dpart(self) -> list[Poly]:
        return self.coeffs[: self.rs.n_pos]

    @property
    def lpart(self) -> list[Poly]:
        return self.coeffs[self.rs.n_pos:]

    def _zip(self, other: "DiffOp") -> zip:
        if other.rs != self.rs or len(other.coeffs) != len(self.coeffs):
            raise ValueError("operators on different root systems or slot counts")
        return zip(self.coeffs, other.coeffs)

    def __add__(self, other: "DiffOp") -> "DiffOp":
        return DiffOp(self.rs, [a + b for a, b in self._zip(other)])

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return DiffOp(self.rs, [a - b for a, b in self._zip(other)])

    def scale(self, c) -> "DiffOp":
        return DiffOp(self.rs, [p.scale(c) for p in self.coeffs])

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for p in self.coeffs)


def _packed(ops: list[DiffOp], consts=()) -> tuple[Packing, int, list]:
    """Pack ``ops`` over the integers: (packing, T, [(stack, (co, dstack)) per operator]).

    The packing's denominator D is common to every coefficient and constant,
    the coefficients are D-scaled, and stack holds slot i at i T, T = base**n_pos
    (slots may outnumber the base: read them back with divmod); co[sig]
    multiplies d_sig, and dstack maps sig to d_sig stack."""
    np_ = ops[0].rs.n_pos if ops else 0
    pk = Packing.fit(np_, [p for op in ops for _, p in ops[0]._zip(op)], consts)
    T, cos = pk.base**np_, [[pk.pack(p) for p in op.coeffs] for op in ops]
    stacks = [{m + i * T: c for i, p in enumerate(co) for m, c in p.items()} for co in cos]
    return pk, T, [(st, (co[:np_], pk.partials(st, np_))) for co, st in zip(cos, stacks)]


def commutator(a: DiffOp, b: DiffOp) -> DiffOp:
    """[a, b]: out_i = a^sig d_sig b_i - b^sig d_sig a_i on every slot i (the L_j are central)."""
    pk, T, ((_, pa), (_, pb)) = _packed([a, b])
    slots: list[Packed] = [{} for _ in a.coeffs]
    for m, c in bracket_into({}, pa, pb).items():
        slots[m // T][m % T] = c
    return DiffOp(a.rs, [pk.unpack(p, pk.denom**2) for p in slots])


def build_differential_realization(
    rs: RootSystem, tab: StructureTable, polys: RealizationPolys
) -> dict[Label, DiffOp]:
    """Assemble E_alpha, H_i, F_alpha from the realization polynomials of ``tab``."""
    np_, r = rs.n_pos, rs.rank
    no_weight = [Poly.zero(np_)] * r
    ops: dict[Label, DiffOp] = {}
    for a, alpha in enumerate(rs.pos_roots):
        ops[("e", alpha)] = DiffOp(rs, polys.V_plus[a] + no_weight)
    for i in range(r):
        weight = [Poly.const(np_, 1) if j == i else Poly.zero(np_) for j in range(r)]
        ops[("h", i)] = DiffOp(rs, polys.V_cartan[i] + weight)
    for a, alpha in enumerate(rs.pos_roots):
        ops[("f", alpha)] = DiffOp(rs, polys.V_minus[a] + polys.P[a])
    return ops


def verify_realization(ops: dict[Label, DiffOp], tab: StructureTable) -> list[tuple[Label, Label]]:
    """Check D^2 [J_a, J_b] = sum_c (D f_ab^c)(D J_c) on every ordered basis pair; return failures.

    Per unordered pair, acc = [J_a, J_b] - R_ab is formed once in place, over all slots
    stacked, and (a, b) fails iff an entry is nonzero.  ``bracket_into`` is antisymmetric
    term by term, so (b, a) fails iff acc + R_ab + R_ba has one: acc itself when
    f_ba == -f_ab, else R_ab + R_ba is added (the table's antisymmetry is under test),
    each R from its own table entry.  On the diagonal acc = -R_aa.  Failures are row-major."""
    pk, _, packed = _packed(list(ops.values()), [v for out in tab.f.values() for v in out.values()])
    D, labels, stacks = pk.denom, list(ops), {lab: st for lab, (st, _) in zip(ops, packed)}

    def add_rhs(acc: Packed, f: dict, s: int) -> Packed:
        for c, v in f.items():
            add_into(acc, stacks[c], s * D // v.denominator * v.numerator)
        return acc

    bad = []
    for j, (_, pa) in enumerate(packed):
        if any(add_rhs({}, tab.bracket(labels[j], labels[j]), -1).values()):
            bad.append((j, j))
        for k in range(j + 1, len(packed)):
            f_ab, f_ba = tab.bracket(labels[j], labels[k]), tab.bracket(labels[k], labels[j])
            acc = bracket_into(add_rhs({}, f_ab, -1), pa, packed[k][1])
            if any(acc.values()):
                bad.append((j, k))
            if f_ba != {c: -v for c, v in f_ab.items()}:
                acc = add_rhs(add_rhs(acc, f_ab, 1), f_ba, 1)
            if any(acc.values()):
                bad.append((k, j))
    return [(labels[j], labels[k]) for j, k in sorted(bad)]
