"""First-order differential operators realizing the algebra on functions of x.

An operator is a derivative part sum_beta p^beta(x) d_beta plus a weight
part sum_j q_j(x) L_j, where the L_j are central symbols (the lowest-weight
labels).  Commutators of two such operators stay first order, so the whole
realization lives in this class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .liealg import Label, RootSystem, StructureTable
from .polymat import Poly, RealizationPolys, realization_polynomials


@dataclass
class DiffOp:
    """p^beta(x) d_beta + q_j(x) L_j in canonical (collected) form."""

    rs: RootSystem
    dpart: list[Poly]   # indexed by positive-root position
    lpart: list[Poly]   # indexed by Cartan index

    @staticmethod
    def zero(rs: RootSystem) -> "DiffOp":
        np_ = rs.n_pos
        return DiffOp(rs, [Poly.zero(np_) for _ in range(np_)], [Poly.zero(np_) for _ in range(rs.rank)])

    def __add__(self, other: "DiffOp") -> "DiffOp":
        return DiffOp(
            self.rs,
            [a + b for a, b in zip(self.dpart, other.dpart)],
            [a + b for a, b in zip(self.lpart, other.lpart)],
        )

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return DiffOp(
            self.rs,
            [a - b for a, b in zip(self.dpart, other.dpart)],
            [a - b for a, b in zip(self.lpart, other.lpart)],
        )

    def scale(self, c) -> "DiffOp":
        return DiffOp(self.rs, [p.scale(c) for p in self.dpart], [p.scale(c) for p in self.lpart])

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for p in self.dpart) and all(p.is_zero for p in self.lpart)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOp):
            return NotImplemented
        return (self - other).is_zero

    def text(self) -> str:
        names = [self.rs.root_name(a) for a in self.rs.pos_roots]
        bits = []
        for b, p in enumerate(self.dpart):
            if not p.is_zero:
                bits.append(f"({p.text(names)})*d_{names[b]}")
        for j, p in enumerate(self.lpart):
            if not p.is_zero:
                bits.append(f"({p.text(names)})*L{j + 1}")
        return " + ".join(bits) if bits else "0"

    def __repr__(self) -> str:
        return f"DiffOp({self.text()})"


def commutator(a: DiffOp, b: DiffOp) -> DiffOp:
    """[a, b]; first order is preserved because weight parts carry no derivatives."""
    rs = a.rs
    np_ = rs.n_pos
    out = DiffOp.zero(rs)
    for sig in range(np_):
        pa = a.dpart[sig]
        pb = b.dpart[sig]
        for beta in range(np_):
            if not pa.is_zero:
                d = b.dpart[beta].deriv(sig)
                if not d.is_zero:
                    out.dpart[beta] = out.dpart[beta] + pa * d
            if not pb.is_zero:
                d = a.dpart[beta].deriv(sig)
                if not d.is_zero:
                    out.dpart[beta] = out.dpart[beta] - pb * d
        for j in range(rs.rank):
            if not pa.is_zero:
                d = b.lpart[j].deriv(sig)
                if not d.is_zero:
                    out.lpart[j] = out.lpart[j] + pa * d
            if not pb.is_zero:
                d = a.lpart[j].deriv(sig)
                if not d.is_zero:
                    out.lpart[j] = out.lpart[j] - pb * d
    return out


def build_differential_realization(
    rs: RootSystem, tab: StructureTable, polys: Optional[RealizationPolys] = None
) -> dict[Label, DiffOp]:
    """Assemble E_alpha, H_i, F_alpha from the realization polynomials."""
    if polys is None:
        polys = realization_polynomials(rs, tab)
    np_ = rs.n_pos
    ops: dict[Label, DiffOp] = {}
    for a, alpha in enumerate(rs.pos_roots):
        op = DiffOp.zero(rs)
        op.dpart = list(polys.V_plus[a])
        ops[("e", alpha)] = op
    for i in range(rs.rank):
        op = DiffOp.zero(rs)
        op.dpart = list(polys.V_cartan[i])
        op.lpart[i] = Poly.const(np_, 1)
        ops[("h", i)] = op
    for a, alpha in enumerate(rs.pos_roots):
        op = DiffOp.zero(rs)
        op.dpart = list(polys.V_minus[a])
        op.lpart = list(polys.P[a])
        ops[("f", alpha)] = op
    return ops


def realized(ops: dict[Label, DiffOp], coeffs: dict[Label, Fraction]) -> DiffOp:
    rs = next(iter(ops.values())).rs
    out = DiffOp.zero(rs)
    for lab, c in coeffs.items():
        out = out + ops[lab].scale(c)
    return out


def verify_realization(ops: dict[Label, DiffOp], tab: StructureTable) -> list[tuple[Label, Label]]:
    """Check [J_a, J_b] = f_ab^c J_c on every basis pair; return failures."""
    bad = []
    labels = list(ops)
    for a in labels:
        for b in labels:
            got = commutator(ops[a], ops[b])
            expected = realized(ops, dict(tab.bracket(a, b))) if tab.bracket(a, b) else DiffOp.zero(got.rs)
            if not (got - expected).is_zero:
                bad.append((a, b))
    return bad
