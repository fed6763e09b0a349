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
coefficients never carries.  Each operator's partial derivatives
d_sig(coeff_i) are tabulated once; ``polymat.bracket_into`` forms slot i of
the bracket for ``commutator`` and ``verify_realization``.  Its
a^sig d_sig b_i - b^sig d_sig a_i is antisymmetric term by term, so the
bracket of (b, a) is exactly minus that of (a, b), and ``verify_realization``
forms one per unordered pair for both ordered checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .liealg import Label, RootSystem, StructureTable
from .polymat import Packing, Poly, RealizationPolys, add_into, bracket_into


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

    def __add__(self, other: "DiffOp") -> "DiffOp":
        return DiffOp(self.rs, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return DiffOp(self.rs, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, c) -> "DiffOp":
        return DiffOp(self.rs, [p.scale(c) for p in self.coeffs])

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for p in self.coeffs)


def _packed(ops: list[DiffOp], consts=()) -> tuple[Packing, list]:
    """Pack ``ops`` over the integers: (packing, [(coeffs, jac) per operator]).

    The packing's denominator D is common to every coefficient and constant,
    the coefficients are D-scaled, and jac[i] maps sig to each nonzero
    d_sig coeffs[i]."""
    pk = Packing.fit(ops[0].rs.n_pos if ops else 0, [p for op in ops for p in op.coeffs], consts)
    out = []
    for op in ops:
        coeffs = [pk.pack(p) for p in op.coeffs]
        out.append((coeffs, [pk.partials(p, pk.nvars) for p in coeffs]))
    return pk, out


def commutator(a: DiffOp, b: DiffOp) -> DiffOp:
    """[a, b]: out_i = a^sig d_sig b_i - b^sig d_sig a_i on every slot i (the L_j are central)."""
    pk, (pa, pb) = _packed([a, b])
    return DiffOp(a.rs, [pk.unpack(bracket_into({}, pa, pb, i), pk.denom**2) for i in range(len(a.coeffs))])


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
    """Check D^2 [J_a, J_b] = sum_c (D f_ab^c)(D J_c) slot by slot on every ordered basis pair; return failures.

    ``bracket_into`` is antisymmetric term by term, so each unordered pair's
    bracket L is formed once: (a, b) checks L - R_ab = 0 and (b, a) checks
    L + R_ba = 0, each R from its own table entry (the table's antisymmetry is
    under test); [J_a, J_a] = 0 leaves R_aa alone.  Failures are row-major."""
    pk, packed = _packed(list(ops.values()), [v for out in tab.f.values() for v in out.values()])
    D, labels = pk.denom, list(ops)
    rows = {lab: coeffs for lab, (coeffs, _) in zip(labels, packed)}
    bad = []
    for j, pa in enumerate(packed):
        for k in range(j, len(packed)):
            # each ordered pair not yet refuted (one key on the diagonal) -> its signed right-hand side
            todo = {(x, y): [(rows[c], s * D // v.denominator * v.numerator)
                             for c, v in tab.bracket(labels[x], labels[y]).items()]
                    for x, y, s in ((j, k, -1), (k, j, 1))}
            for i in range(len(pa[0])):
                L = bracket_into({}, pa, packed[k], i) if k > j else {}
                for pair, rhs in list(todo.items()):
                    acc = dict(L) if rhs else L
                    for coeffs, v in rhs:
                        add_into(acc, coeffs[i], v)
                    if any(acc.values()):
                        bad.append(pair)
                        del todo[pair]
                if not todo:
                    break
    return [(labels[j], labels[k]) for j, k in sorted(bad)]
