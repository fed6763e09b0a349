"""Operator-product expansions of free-field expressions.

contract(A(z), B(w)) runs the full Wick expansion: every primitive factor of
an A-term either survives (and is Taylor re-expanded about w) or contracts
with a B-primitive, a power factor, or the vertex.  Contractions into a
power factor X^p use the falling-factorial rule: each one multiplies by the
current exponent, decrements it, and releases the struck copy's remainder
fields at the factor's position.  Fermionic crossings contribute signs.

A term pair in which no z-side factor has a contraction partner on the w
side (matching ghost pairs, scalar legs, legs against a vertex, primitives
inside a power-factor base; one set test) has only a regular part, so only
pairs with a partner are walked, unless the regular part is asked for or a
z-side vertex meets a w-side scalar leg.  The walk visits only the z-side
factors with a partner; the others can only survive.  The last walked factor
is not left uncontracted where that pattern stays below the lowest order
asked for with no z-side vertex to raise it.  Each Wick pattern is appended
as a raw term to its pole order, and every order is canonicalized once at
the end.  A pattern at the lowest order asked for is appended as it stands;
only higher ones read the Taylor tower of their surviving z part.  Pair
kernels and Taylor towers are tabulated per call, and each w term's items
are built once per call: every walk restores them.  The walk passes its
running pole order and coefficient product down, and holds no closures, so a
call leaves no reference cycles behind.

Plain rationals travel as ints: each operand's coefficients, stored as
ints and Fractions where they are rational, are scaled by the least common
multiple D of their denominators, so a plain operand coefficient is an int,
and a symbolic one a ``RatFunc`` times D.  Ghost kernels and Taylor levels 0
and 1 are ints; a level m >= 2 divides by m!, which makes a plain
coefficient a Fraction and multiplies a ``RatFunc``'s content denominator,
and power-factor channels carry their base's coefficients.  Only symbolic
values are ``RatFunc``: the t of scalar-leg kernels, vertex momenta, symbolic
coefficients and exponents.  Python's operator dispatch mixes the kinds, so
there is one code path.  Every Wick pattern is linear in the two operand
coefficients, so canonicalization divides each merged output coefficient by
D_A * D_B once.

The result maps pole orders to expressions at w; order 0 (the point-split
normal product) is used for the Sugawara construction.  Its one comparison
with the wanted poles, ``OpeResult.mismatches``, serves ``currents.wick_pair``
and every screening check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import lcm
from typing import Iterator, Optional

from .coeffs import RatFunc, Scalar
from .fields import (
    BETA,
    BGH,
    CGH,
    GAMMA,
    PHI,
    BaseKey,
    FieldExpr,
    Momentum,
    Prim,
    Term,
    UnsupportedContraction,
    beta_kind,
    gamma_kind,
    prim_parity,
)
from .liealg import RootSystem
from .series import SeriesExpr

_FACT = [1]
for _i in range(1, 40):
    _FACT.append(_FACT[-1] * _i)

# Contraction partners.  A z-side factor is keyed by (kind, label); the
# w side of a term lists the keys of every z-side factor that can contract
# with one of its factors.  Scalar legs contract across labels, so their
# keys carry no label.
_PARTNER_KIND = {BETA: GAMMA, GAMMA: BETA, BGH: CGH, CGH: BGH}
_LEG = (PHI, -1)
_VERTEX = (-1, -1)


def pair_kernel(rs: RootSystem, zp: Prim, wp: Prim) -> Optional[tuple[int, Scalar]]:
    """(pole order, coefficient) of <zp(z) wp(w)>, or None; ghost kernels are ints."""
    kz, lz, m = zp
    kw, lw, l = wp
    if kz == PHI:
        if kw != PHI or not rs.G[lz][lw]:
            return None
        return m + l + 2, RatFunc.t(rs.hvee) * (rs.G[lz][lw] * (-1) ** m * _FACT[m + l + 1])
    if kw != _PARTNER_KIND[kz] or lz != lw:
        return None
    coef = (-1) ** m * _FACT[m + l]
    return m + l + 1, -coef if kz == GAMMA and kw == BETA else coef


def vertex_kernel_z(momentum: Momentum, zp: Prim) -> Optional[tuple[int, RatFunc]]:
    """<zp(z) V(w)> for a scalar leg against the vertex."""
    kind, label, m = zp
    if kind != PHI:
        return None
    mu = momentum[label]
    if mu.is_zero:
        return None
    return m + 1, mu * ((-1) ** m * _FACT[m])


def vertex_kernel_w(momentum: Momentum, wp: Prim) -> Optional[tuple[int, RatFunc]]:
    """<V(z) wp(w)> for the vertex on the z side."""
    kind, label, l = wp
    if kind != PHI:
        return None
    mu = momentum[label]
    if mu.is_zero:
        return None
    return l + 1, mu * -_FACT[l]


@dataclass
class OpeResult:
    """Singular part of A(z)B(w): pole order -> coefficient at w."""

    poles: dict[int, FieldExpr] = field(default_factory=dict)

    def order(self, q: int) -> FieldExpr:
        return self.poles.get(q, FieldExpr.zero())

    def is_regular(self) -> bool:
        return all(v.is_zero for v in self.poles.values())

    def nonzero_orders(self) -> list[int]:
        return sorted((q for q, v in self.poles.items() if not v.is_zero), reverse=True)

    def mismatches(self, rs: RootSystem, want: dict, series: bool = False) -> Iterator[tuple[int, str]]:
        """(q, text of got - want) for each order q, highest first, whose pole is not ``want.get(q, 0)``;
        ``series`` poles are summands, compared by the series residual, which is then the text."""
        for q in sorted(set(self.poles) | set(want), reverse=True):
            got, expect = self.order(q), want.get(q, FieldExpr.zero())
            if series:
                res = SeriesExpr(got - expect).residual(rs)
                if not res.is_structurally_zero:
                    yield q, res.text(rs)
            elif not got.equals(expect):
                yield q, (got - expect).text(rs)


# internal w-side entries
_WPRIM, _WPF, _WVERT = 0, 1, 2


class _WItem:
    __slots__ = ("kind", "prim", "base", "exp", "alive", "parity")

    def __init__(self, kind, prim=None, base=None, exp=None):
        self.kind = kind
        self.prim = prim
        self.base = base
        self.exp = exp
        self.alive = True
        self.parity = prim_parity(prim) if kind == _WPRIM else 0


class _ZTerm:
    """A left-hand term: its factors and their partner keys, which of them are
    still uncontracted, and the parity of the odd factors to the right of each one.

    ``coef`` is the term's coefficient times the left operand's common
    denominator (``_scaled_coefs``): an int when the coefficient is rational.
    """

    __slots__ = ("prims", "vertex", "coef", "keys", "keyset", "alive", "odd_after")

    def __init__(self, term: Term, coef: Scalar):
        self.prims, _, self.vertex = term
        self.coef = coef
        self.keys = [_LEG if kind == PHI else (kind, label) for kind, label, _ in self.prims]
        self.keyset = frozenset(self.keys)
        self.alive = [True] * len(self.prims)
        self.odd_after = odd_after = [0] * len(self.prims)
        parity = 0
        for i in range(len(self.prims) - 1, -1, -1):
            odd_after[i] = parity
            parity ^= prim_parity(self.prims[i])


class _WTerm:
    """A right-hand term and its w-side items, built once per contract() call.

    ``coef`` is the term's coefficient times the right operand's common
    denominator (``_scaled_coefs``): an int when the coefficient is rational.
    A walk leaves ``items`` as it found them: every item alive, every
    exponent restored and every inserted remainder removed again.
    """

    __slots__ = ("vertex", "coef", "partners", "items")

    def __init__(self, term: Term, coef: Scalar):
        prims, pfs, self.vertex = term
        self.coef = coef
        self.partners = _w_partners(term)
        self.items = [_WItem(_WPRIM, prim=p) for p in prims]
        self.items += [_WItem(_WPF, base=key, exp=exp) for key, exp in pfs]
        if self.vertex is not None:
            self.items.append(_WItem(_WVERT))


def _pf_channels(kernels: "_Table", base: BaseKey, zp: Prim):
    """Ways zp can strike one copy of the base: (order, coef, remainder prims)."""
    out = []
    for prims, bcoef in base:
        for i, g in enumerate(prims):
            ker = kernels[zp, g]
            if ker is None:
                continue
            # sign to pull g to the front of its copy
            sgn = 1
            if prim_parity(g):
                for h in prims[:i]:
                    if prim_parity(h):
                        sgn = -sgn
            remainder = prims[:i] + prims[i + 1:]
            out.append((ker[0], ker[1] * bcoef * sgn, remainder))
    return out


class _Table(dict):
    """A memo table: a missing key is filled with ``fn(*key)``."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(*key)
        return value


def _w_partners(term: Term) -> set:
    prims, pfs, vertex = term
    out = set()
    for kind, label, _ in prims:
        if kind == PHI:
            out.update((_LEG, _VERTEX))
        else:
            out.add((_PARTNER_KIND[kind], label))
    for key, _ in pfs:
        for bprims, _ in key:
            for kind, label, _ in bprims:
                out.add(_LEG if kind == PHI else (_PARTNER_KIND[kind], label))
    if vertex is not None:
        out.add(_LEG)
    return out


def _scaled_coefs(expr: FieldExpr) -> tuple[int, list[Scalar]]:
    """D, the LCM of the denominators of ``expr``'s rational coefficients, and
    every coefficient times D: an int when it is rational, else a RatFunc."""
    coefs = expr.terms.values()
    D = lcm(*(c.denominator for c in coefs if type(c) is not RatFunc))
    return D, [
        c._scaled(D) if type(c) is RatFunc else c.numerator * (D // c.denominator) for c in coefs
    ]


def contract(
    rs: RootSystem,
    A: FieldExpr,
    B: FieldExpr,
    *,
    min_order: int = 1,
) -> OpeResult:
    """OPE of A(z) with B(w): the pole orders >= min_order.

    With min_order = 0 the regular part (the point-split normal product) is
    included as order 0.
    """
    run = _Contraction(rs, min_order)
    da, a_coefs = _scaled_coefs(A)
    db, b_coefs = _scaled_coefs(B)
    w_terms = [_WTerm(tb, cb) for tb, cb in zip(B.terms, b_coefs)]
    for ta, ca in zip(A.terms, a_coefs):
        if ta[1]:
            raise UnsupportedContraction(
                "symbolic power factors on the left operand are not supported"
            )
        z = _ZTerm(ta, ca)
        for w in w_terms:
            if z.vertex is not None and w.vertex is not None:
                raise UnsupportedContraction("vertex-vertex contraction is out of scope")
            # only factors with a partner can contract; the others survive
            walked = () if z.keyset.isdisjoint(w.partners) else tuple(
                i for i, key in enumerate(z.keys) if key in w.partners
            )
            # with no contraction possible the pair only has an order-0 part
            if min_order >= 1 and not walked and (z.vertex is None or _VERTEX not in w.partners):
                continue
            run.walk(z, w, walked, 0, 0, z.coef * w.coef)
    poles = {}
    for q, raw in run.raw.items():
        expr = FieldExpr._from_raw(raw, da * db)
        if not expr.is_structurally_zero:
            poles[q] = expr
    return OpeResult(poles)


def regularized_product(rs: RootSystem, A: FieldExpr, B: FieldExpr) -> FieldExpr:
    """Point-splitting normal product: the (z-w)^0 part of the full expansion."""
    return contract(rs, A, B, min_order=0).order(0)


class _Contraction:
    """One contract() call: lookup tables, the Wick walk, raw terms per pole order.

    The walk of a term pair is a depth-first search over the contractions of
    the z factors that have a partner on the w side, in order; the others can
    only survive.  Each step passes the running pole order ``q`` and
    coefficient product ``coef`` down, so a leaf emits without multiplying
    the contractions out again.  A pattern at the lowest order asked for
    needs only the surviving z part itself, so it is emitted without a
    Taylor tower.
    """

    def __init__(self, rs: RootSystem, min_order: int):
        self.rs = rs
        self.min_order = min_order
        # (zp, wp) -> pair_kernel(rs, zp, wp); (base, zp) -> _pf_channels(...)
        self.kernels = _Table(partial(pair_kernel, rs))
        self.channels = _Table(partial(_pf_channels, self.kernels))
        self.towers: dict[tuple, tuple[list[FieldExpr], list[list]]] = {}
        self.raw: dict[int, list] = {}

    def taylor(self, prims: tuple[Prim, ...], vertex, top: int) -> list[list]:
        """Levels m = 0..top of the Taylor tower d^m/m! of :prims vertex: as
        (coef, prims) pairs; shorter once a derivative vanishes."""
        tower = self.towers.get((prims, vertex))
        if tower is None:
            # a sub-tuple of a canonical term's factors is canonical
            tower = self.towers[(prims, vertex)] = (
                [FieldExpr({(prims, (), vertex): 1})],
                [[(1, prims)]],
            )
        exprs, levels = tower
        while len(levels) <= top and not exprs[-1].is_structurally_zero:
            exprs.append(exprs[-1].derivative(self.rs))
            levels.append(_level(exprs[-1], _FACT[len(levels)]))
        return levels[: top + 1]

    def walk(
        self, z: _ZTerm, w: _WTerm, walked: tuple[int, ...], j: int, q: int, coef: Scalar
    ) -> None:
        """Contract z factor ``walked[j]`` and the walked ones after it in every way."""
        if j == len(walked):
            if z.vertex is None:
                self.emit(z, w, q, coef)
            else:
                self.vertex_legs(z, w, 0, q, coef)
            return
        iz = walked[j]
        zp = z.prims[iz]
        # leave the factor for Taylor expansion, unless that leaf would fall below min_order
        if j + 1 < len(walked) or q >= self.min_order or z.vertex is not None:
            self.walk(z, w, walked, j + 1, q, coef)
        z.alive[iz] = False
        # both contracted factors are odd or both even; an odd pair picks up
        # a sign from every odd factor crossed in between
        odd = prim_parity(zp)
        crossed = z.odd_after[iz]
        kernels = self.kernels
        items = w.items
        for pos, item in enumerate(items):
            if not item.alive:
                continue
            if item.kind == _WPRIM:
                ker = kernels[zp, item.prim]
                if ker is not None:
                    item.alive = False
                    kc = -ker[1] if odd and crossed else ker[1]
                    self.walk(z, w, walked, j + 1, q + ker[0], coef * kc)
                    item.alive = True
                crossed ^= item.parity
            elif item.kind == _WPF:
                channels = self.channels[item.base, zp]
                if not channels:
                    continue
                pval = item.exp.as_ratfunc(self.rs.hvee)
                if odd and crossed:
                    pval = -pval
                old_exp = item.exp
                item.exp = old_exp - 1
                item.alive = not (item.exp.is_const and item.exp.v == 0)
                for order, kc, remainder in channels:
                    items[pos:pos] = [_WItem(_WPRIM, prim=p) for p in remainder]
                    self.walk(z, w, walked, j + 1, q + order, coef * (kc * pval))
                    del items[pos: pos + len(remainder)]
                item.exp = old_exp
                item.alive = True
            else:  # vertex
                ker = vertex_kernel_z(w.vertex, zp)
                if ker is not None:
                    self.walk(z, w, walked, j + 1, q + ker[0], coef * ker[1])
        z.alive[iz] = True

    def vertex_legs(self, z: _ZTerm, w: _WTerm, widx: int, q: int, coef: Scalar) -> None:
        """Optional contractions of the z vertex with surviving w scalar legs."""
        items = w.items
        if widx == len(items):
            self.emit(z, w, q, coef)
            return
        item = items[widx]
        self.vertex_legs(z, w, widx + 1, q, coef)
        if item.alive and item.kind == _WPRIM and item.prim[0] == PHI:
            ker = vertex_kernel_w(z.vertex, item.prim)
            if ker is not None:
                item.alive = False
                self.vertex_legs(z, w, widx + 1, q + ker[0], coef * ker[1])
                item.alive = True

    def emit(self, z: _ZTerm, w: _WTerm, q: int, coef: Scalar) -> None:
        """Append one Wick pattern: the surviving z part is Taylor-expanded about w."""
        min_order = self.min_order
        if q < min_order:
            return
        rest_prims, rest_pfs = [], []
        for item in w.items:
            if item.alive:
                if item.kind == _WPRIM:
                    rest_prims.append(item.prim)
                elif item.kind == _WPF:
                    rest_pfs.append((item.base, item.exp))
        rest_prims, rest_pfs = tuple(rest_prims), tuple(rest_pfs)
        zleft = tuple(p for p, alive in zip(z.prims, z.alive) if alive)
        vertex = z.vertex if z.vertex is not None else w.vertex
        if q == min_order:
            self.raw.setdefault(q, []).append((coef, zleft + rest_prims, rest_pfs, vertex))
            return
        for m, level in enumerate(self.taylor(zleft, z.vertex, q - min_order)):
            bucket = self.raw.setdefault(q - m, [])
            for tc, tprims in level:
                bucket.append((coef * tc, tprims + rest_prims, rest_pfs, vertex))


def _level(expr: FieldExpr, fact: int) -> list:
    """Terms of ``expr`` divided by ``fact`` as (coef, prims) pairs."""
    inv = Fraction(1, fact)
    return [(c * inv if fact > 1 else c, prims) for (prims, _, _), c in expr.terms.items()]


# ---------------------------------------------------------------------------
# energy-momentum tensors
# ---------------------------------------------------------------------------

def free_field_tensor(rs: RootSystem) -> FieldExpr:
    """T = sum :d(gamma) beta: + (1/2t) G^{ij} :P_i P_j: - (1/t) rho^j dP_j."""
    T = betagamma_tensor(rs)
    t = RatFunc.t(rs.hvee)
    half_over_t = RatFunc.of(Fraction(1, 2)) / t
    for i in range(rs.rank):
        for j in range(rs.rank):
            g = rs.Ginv[i][j]
            if g:
                T = T + (FieldExpr.prim(PHI, i) * FieldExpr.prim(PHI, j)).scale(
                    half_over_t * g
                )
    for j in range(rs.rank):
        r = sum(rs.rho_labels[i] * rs.Ginv[i][j] for i in range(rs.rank))
        if r:
            T = T + FieldExpr.prim(PHI, j, 1, coef=-RatFunc.of(r) / t)
    return T


def betagamma_tensor(rs: RootSystem) -> FieldExpr:
    T = FieldExpr.zero()
    for pos in range(rs.n_pos):
        T = T + FieldExpr.prim(gamma_kind(rs, pos), pos, 1) * FieldExpr.prim(
            beta_kind(rs, pos), pos, 0
        )
    return T


def scalar_tensor(rs: RootSystem) -> FieldExpr:
    return free_field_tensor(rs) - betagamma_tensor(rs)


def central_charge(rs: RootSystem, T: FieldExpr) -> RatFunc:
    """c from the fourth-order pole of T(z)T(w)."""
    four = contract(rs, T, T).order(4)
    c = 0
    for term, coef in four.terms.items():
        if term[0] or term[1] or term[2] is not None:
            raise AssertionError("fourth-order pole of TT is not a scalar")
        c = coef
    return RatFunc.of(c * 2)


def conformal_weight(rs: RootSystem, T: FieldExpr, A: FieldExpr):
    """Weight h with T(z)A(w) = h A/(z-w)^2 + dA/(z-w); (h, None) or (None, info)."""
    res = contract(rs, T, A)
    for q in res.nonzero_orders():
        if q > 2:
            return None, (q, res.order(q))
    pole1 = res.order(1)
    if not pole1.equals(A.derivative(rs)):
        return None, (1, pole1 - A.derivative(rs))
    pole2 = res.order(2)
    if pole2.is_zero:
        return RatFunc.zero(), None
    # h = ratio against any matching term of A
    for term, coef in A.terms.items():
        got = pole2.terms.get(term)
        if got is not None:
            h = RatFunc.of(got) / coef
            if pole2.equals(A.scale(h)):
                return h, None
            return None, (2, pole2 - A.scale(h))
    return None, (2, pole2)
