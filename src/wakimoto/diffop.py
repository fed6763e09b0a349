"""First-order differential operators realizing the algebra on functions of x.

An operator is sum_beta p^beta(x) d_beta + sum_j q_j(x) L_j, where the L_j
are central symbols (the lowest-weight labels).  It is stored as one vector
of coefficients over the slots (d_beta..., L_j...); since no derivative
touches an L_j, the commutator of two such operators is first order again
and acts on every slot alike, so the whole realization lives in this class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .liealg import Label, RootSystem, StructureTable
from .polymat import Poly, RealizationPolys, realization_polynomials


@dataclass
class DiffOp:
    """coeffs[beta](x) d_beta + coeffs[n_pos + j](x) L_j in canonical (collected) form."""

    rs: RootSystem
    coeffs: list[Poly]  # n_pos derivative coefficients, then rank weight coefficients

    @staticmethod
    def zero(rs: RootSystem) -> "DiffOp":
        return DiffOp(rs, [Poly.zero(rs.n_pos) for _ in range(rs.n_pos + rs.rank)])

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOp):
            return NotImplemented
        return (self - other).is_zero

    def text(self) -> str:
        names = [self.rs.root_name(a) for a in self.rs.pos_roots]
        slots = [f"d_{n}" for n in names] + [f"L{j + 1}" for j in range(self.rs.rank)]
        bits = [f"({p.text(names)})*{s}" for p, s in zip(self.coeffs, slots) if not p.is_zero]
        return " + ".join(bits) if bits else "0"

    def __repr__(self) -> str:
        return f"DiffOp({self.text()})"


def commutator(a: DiffOp, b: DiffOp) -> DiffOp:
    """[a, b]: out_i = a^sig d_sig b_i - b^sig d_sig a_i on every slot i (the L_j are central)."""
    np_ = a.rs.n_pos
    da = [(sig, p) for sig, p in enumerate(a.coeffs[:np_]) if not p.is_zero]
    db = [(sig, p) for sig, p in enumerate(b.coeffs[:np_]) if not p.is_zero]
    out = []
    for ai, bi in zip(a.coeffs, b.coeffs):
        acc = Poly.zero(np_)
        for sig, pa in da:
            d = bi.deriv(sig)
            if not d.is_zero:
                acc = acc + pa * d
        for sig, pb in db:
            d = ai.deriv(sig)
            if not d.is_zero:
                acc = acc - pb * d
        out.append(acc)
    return DiffOp(a.rs, out)


def build_differential_realization(
    rs: RootSystem, tab: StructureTable, polys: Optional[RealizationPolys] = None
) -> dict[Label, DiffOp]:
    """Assemble E_alpha, H_i, F_alpha from the realization polynomials."""
    if polys is None:
        polys = realization_polynomials(rs, tab)
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


def realized(ops: dict[Label, DiffOp], coeffs: dict[Label, Fraction]) -> DiffOp:
    out = DiffOp.zero(next(iter(ops.values())).rs)
    for lab, c in coeffs.items():
        out = out + ops[lab].scale(c)
    return out


def verify_realization(ops: dict[Label, DiffOp], tab: StructureTable) -> list[tuple[Label, Label]]:
    """Check [J_a, J_b] = f_ab^c J_c on every basis pair; return failures."""
    return [
        (a, b)
        for a in ops
        for b in ops
        if not (commutator(ops[a], ops[b]) - realized(ops, tab.bracket(a, b))).is_zero
    ]
