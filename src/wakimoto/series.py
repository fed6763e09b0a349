"""Formal bilateral series in the shift symbol n.

A SeriesExpr stands for sum_n C_n * (body term)(n), where n runs over an
integer-spaced set and C_n is a formal prefactor subject to one rewrite rule

    (-2t - 2n)(-2t - 2n - 1) C_n = 2 (n + 1) C_{n+1}.

No summation is ever performed: equality means the terms cancel after
reindexing n (anchoring the designated power factor's exponent to exactly n)
and applying the rewrite rule, with power-factor offsets of a common base
expanded as usual.  A final absorption pass recombines complete copies of
the anchor base back into its power, which is the only rewriting the
verification ever needs beyond level expansion.

The zero test is one pass, ``residual``: anchor every term and canonicalize
once, level-expand once, then absorb copies from a worklist of rewritable
terms, lowering only what each rewrite adds against the current class
floors.  ``is_zero`` asks whether that residual is empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .coeffs import Exp, RatFunc
from .fields import (
    BaseKey,
    FieldExpr,
    Term,
    UnsupportedContraction,
    _base_sort_key,
    expand_power_levels,
    lower_to_floors,
    power_floors,
    prim_parity,
)
from .liealg import RootSystem


def _cn_factors(hvee: int) -> tuple[RatFunc, RatFunc, RatFunc]:
    """The recursion's linear factors (-2t-2n), (-2t-2n-1) and 2(n+1)."""
    t = RatFunc.t(hvee)
    n = RatFunc.n()
    return -2 * t - 2 * n, -2 * t - 2 * n - 1, 2 * (n + 1)


def cn_ratio(hvee: int) -> RatFunc:
    """C_{n+1}/C_n from the defining recursion."""
    a, b, c = _cn_factors(hvee)
    return a * b / c


@lru_cache(maxsize=None)
def _cn_shift_factor(hvee: int, j: int) -> RatFunc:
    """C_{n-j} / C_n as a rational function of n (after the reindex)."""
    a, b, c = _cn_factors(hvee)
    out = RatFunc.one()
    if j > 0:
        for i in range(1, j + 1):
            out = out * c.shift_n(-i) / a.shift_n(-i) / b.shift_n(-i)
    else:
        for i in range(0, -j):
            out = out * a.shift_n(i) * b.shift_n(i) / c.shift_n(i)
    return out


def _anchor_of(term: Term) -> Optional[tuple[int, Exp]]:
    for idx, (key, exp) in enumerate(term[1]):
        if exp.w == 1:
            return idx, exp
    return None


@dataclass
class SeriesExpr:
    """Implicit sum over n of C_n times each term of ``body``."""

    body: FieldExpr

    def __sub__(self, other: "SeriesExpr") -> "SeriesExpr":
        return SeriesExpr(self.body - other.body)

    def scale(self, c) -> "SeriesExpr":
        return SeriesExpr(self.body.scale(c))

    def anchored(self, rs: RootSystem) -> "SeriesExpr":
        """Reindex each term so the anchor power sits at exactly n."""
        raw = []
        for term, coef in self.body.terms.items():
            anchor = _anchor_of(term)
            if anchor is None:
                raise ValueError("series term lost its anchor power factor")
            _, exp = anchor
            if exp.u != 0 or exp.v.denominator != 1:
                raise ValueError("anchor exponent must be n plus an integer")
            j = int(exp.v)
            prims, pfs, vertex = term
            if j:
                pfs = tuple((key, e.shift_n(-j)) for key, e in pfs)
                if vertex is not None:
                    vertex = tuple(c.shift_n(-j) for c in vertex)
                coef = RatFunc.of(coef).shift_n(-j) * _cn_shift_factor(rs.hvee, j)
            raw.append((coef, prims, pfs, vertex))
        return SeriesExpr(FieldExpr._from_raw(raw))

    def is_zero(self, rs: RootSystem) -> bool:
        return self.residual(rs).is_structurally_zero

    def equals(self, other: "SeriesExpr", rs: RootSystem) -> bool:
        return (self - other).is_zero(rs)

    def residual(self, rs: RootSystem) -> FieldExpr:
        """What is left after collection; empty means zero."""
        body = expand_power_levels(self.anchored(rs).body)
        return _absorb_anchor_copies(rs, body)

    def text(self, rs: Optional[RootSystem] = None) -> str:
        if self.body.is_structurally_zero:
            return "0"
        return "sum_n C_n [ " + self.body.text(rs) + " ]"


def _multiset_minus(prims: tuple, tau: tuple) -> Optional[tuple]:
    out = list(prims)
    for g in tau:
        try:
            out.remove(g)
        except ValueError:
            return None
    return tuple(out)


def _pivot_monomial(key: BaseKey) -> tuple:
    """The base monomial whose greatest primitive is largest, which orients the
    copy-elimination rewrite: every relation instance touches one pivot key."""
    return max(key, key=lambda it: (max(it[0]), it[0]))[0]


def _rewritable(term: Term) -> Optional[tuple]:
    """(order key, anchor base, pivot, remaining prims) when the copy rewrite applies;
    ``UnsupportedContraction`` when the pivot's greatest primitive occurs in
    another monomial of the anchor base or another power base of the term."""
    anchor = _anchor_of(term)
    if anchor is None:
        return None
    key = term[1][anchor[0]][0]
    if any(prim_parity(g) for prims, _ in key for g in prims):
        return None  # the rewrite is only used for the bosonic series
    pivot = _pivot_monomial(key)
    rest = _multiset_minus(term[0], pivot)
    if rest is None:
        return None
    top, bases = max(pivot), [k for k, _ in term[1] if k is not key]
    if any(top in prims for prims, _ in key if prims != pivot) or any(top in m for k in bases for m, _ in k):
        raise UnsupportedContraction("the series anchor base shares its pivot's greatest primitive")
    return _absorb_order(term), key, pivot, rest


def _rewritable_terms(terms) -> dict:
    return {t: r for t in terms if (r := _rewritable(t)) is not None}


def _absorb_order(term: Term) -> tuple:
    """Total order on terms: prims, then each power factor, then the vertex."""
    prims, pfs, vertex = term
    return (
        prims,
        tuple((_base_sort_key(key), exp.key()) for key, exp in pfs),
        () if vertex is None else tuple(c.key() for c in vertex),
    )


def _floors_hold(body: FieldExpr, pfs: tuple) -> bool:
    """Whether each power factor (at its class floor) still occurs in ``body``."""
    return all(any(pf in t[1] for t in body.terms) for pf in pfs)


def _within_floors(expr: FieldExpr, floors: dict) -> bool:
    """Whether every power factor of ``expr`` lies in a known class at or above its floor."""
    for _, pfs, _ in expr.terms:
        for key, exp in pfs:
            floor = floors.get((key, exp.u, exp.w, exp.v % 1))
            if floor is None or exp.v < floor:
                return False
    return True


def _absorb_anchor_copies(rs: RootSystem, body: FieldExpr) -> FieldExpr:
    """Quotient by :sum_tau c_tau tau m A^n: = :m A^{n+1}: at a common level.

    Works on the anchored, level-expanded representation: the least term
    (``_absorb_order``) whose bare factors contain the pivot monomial of its
    anchor base is rewritten through the relation, and the promoted A^{n+1}
    piece is re-anchored, which applies the C_n rule.  The body stays level
    expanded: the removal terms already sit at the class floors, so only the
    promoted term is lowered, and only the terms the rewrite touched are
    re-examined.  The whole body is expanded again only when the cancellation
    took the last term off a class floor, or when the promoted term leaves
    the known classes or falls below a floor.  What survives is the canonical
    residual; it is empty exactly when the series vanishes.

    It terminates.  Measure a term by the copies among its bare factors of
    g, the pivot's greatest primitive, which ``_rewritable`` finds in no
    other monomial of the anchor base and no other power base.  A rewrite
    replaces a term by terms with fewer copies (the removal terms trade the
    pivot for a monomial without g; re-anchoring and level expansion add
    only copies of the other bases), so the multiset of measures falls in
    the well-founded ordering of Dershowitz and Manna (1979).  A full
    re-expansion, taken when a class floor moves, keeps every count.
    """
    floors = power_floors(body)
    pending = _rewritable_terms(body.terms)
    while pending:
        term = min(pending, key=lambda t: pending[t][0])
        _, key, pivot, rest = pending[term]
        lam = RatFunc.of(body.terms[term]) / dict(key)[pivot]
        prims, pfs, vertex = term
        removal = FieldExpr._from_raw(
            [(lam * ctau, rest + tau, pfs, vertex) for tau, ctau in key]
        )
        aidx = next(i for i, (kk, e) in enumerate(pfs) if e.w == 1)
        bumped = pfs[:aidx] + ((key, pfs[aidx][1] + 1),) + pfs[aidx + 1:]
        promoted = SeriesExpr(FieldExpr._from_raw([(lam, rest, bumped, vertex)])).anchored(rs).body
        body = body - removal
        if _floors_hold(body, pfs) and _within_floors(promoted, floors):
            added = FieldExpr._from_raw(lower_to_floors(promoted.terms.items(), floors))
            body = body + added
            for t in list(removal.terms) + list(added.terms):
                if t not in body.terms:
                    pending.pop(t, None)
                elif t not in pending and (r := _rewritable(t)) is not None:
                    pending[t] = r
        else:
            body = expand_power_levels(body + promoted)
            floors = power_floors(body)
            pending = _rewritable_terms(body.terms)
    return body

