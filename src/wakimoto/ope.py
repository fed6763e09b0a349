"""Operator-product expansions of free-field expressions.

contract(A(z), B(w)) runs the full Wick expansion: every primitive factor of
an A-term either survives (and is Taylor re-expanded about w) or contracts
with a B-primitive, a power factor, or the vertex.  Contractions into a
power factor X^p use the falling-factorial rule: each one multiplies by the
current exponent, decrements it, and releases the struck copy's remainder
fields at the factor's position.  Fermionic crossings contribute signs.

A term pair in which no z-side factor has a contraction partner on the w
side (matching ghost pairs, scalar legs, legs against a vertex, primitives
inside a power-factor base) has only a regular part, so it is skipped unless
the regular part is asked for.  Each Wick pattern is appended as a raw term
to its pole order, and every order is canonicalized once at the end.  Pair
kernels and the Taylor towers of the surviving z parts are tabulated per
call.

The result maps pole orders to expressions at w; order 0 (the point-split
normal product) is used for the Sugawara construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .coeffs import ONE, RatFunc
from .fields import (
    BETA,
    BGH,
    CGH,
    GAMMA,
    PHI,
    BaseKey,
    FieldContext,
    FieldExpr,
    Momentum,
    Prim,
    Term,
    UnsupportedContraction,
    prim_parity,
)

_FACT = [1]
for _i in range(1, 40):
    _FACT.append(_FACT[-1] * _i)


def pair_kernel(ctx: FieldContext, zp: Prim, wp: Prim) -> Optional[tuple[int, RatFunc]]:
    """(pole order, coefficient) of <zp(z) wp(w)>, or None."""
    kz, lz, m = zp
    kw, lw, l = wp
    if kz == BETA and kw == GAMMA and lz == lw:
        return m + l + 1, RatFunc.of(Fraction((-1) ** m * _FACT[m + l]))
    if kz == GAMMA and kw == BETA and lz == lw:
        return m + l + 1, RatFunc.of(Fraction(-((-1) ** m) * _FACT[m + l]))
    if kz == BGH and kw == CGH and lz == lw:
        return m + l + 1, RatFunc.of(Fraction((-1) ** m * _FACT[m + l]))
    if kz == CGH and kw == BGH and lz == lw:
        return m + l + 1, RatFunc.of(Fraction((-1) ** m * _FACT[m + l]))
    if kz == PHI and kw == PHI:
        g = ctx.G[lz][lw]
        if not g:
            return None
        coef = ctx.t() * Fraction(g * (-1) ** m * _FACT[m + l + 1])
        return m + l + 2, coef
    return None


def vertex_kernel_z(momentum: Momentum, zp: Prim) -> Optional[tuple[int, RatFunc]]:
    """<zp(z) V(w)> for a scalar leg against the vertex."""
    kind, label, m = zp
    if kind != PHI:
        return None
    mu = momentum[label]
    if mu.is_zero:
        return None
    return m + 1, mu * Fraction((-1) ** m * _FACT[m])


def vertex_kernel_w(momentum: Momentum, wp: Prim) -> Optional[tuple[int, RatFunc]]:
    """<V(z) wp(w)> for the vertex on the z side."""
    kind, label, l = wp
    if kind != PHI:
        return None
    mu = momentum[label]
    if mu.is_zero:
        return None
    return l + 1, -mu * Fraction(_FACT[l])


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


def _pf_channels(kernel, base: BaseKey, zp: Prim):
    """Ways zp can strike one copy of the base: (order, coef, remainder prims)."""
    out = []
    for prims, bcoef in base:
        for i, g in enumerate(prims):
            ker = kernel(zp, g)
            if ker is None:
                continue
            # sign to pull g to the front of its copy
            sgn = 1
            if prim_parity(g):
                for h in prims[:i]:
                    if prim_parity(h):
                        sgn = -sgn
            remainder = prims[:i] + prims[i + 1:]
            out.append((ker[0], ker[1] * bcoef * sgn, remainder, prim_parity(g)))
    return out


# Contraction partners.  A z-side factor is keyed by (kind, label); the
# w side of a term lists the keys of every z-side factor that can contract
# with one of its factors.  Scalar legs contract across labels, so their
# keys carry no label.
_PARTNER_KIND = {BETA: GAMMA, GAMMA: BETA, BGH: CGH, CGH: BGH}
_LEG = (PHI, -1)
_VERTEX = (-1, -1)


def _z_keys(term: Term) -> set:
    prims, _, vertex = term
    keys = {_LEG if kind == PHI else (kind, label) for kind, label, _ in prims}
    if vertex is not None:
        keys.add(_VERTEX)
    return keys


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


def contract(
    ctx: FieldContext,
    A: FieldExpr,
    B: FieldExpr,
    *,
    min_order: int = 1,
) -> OpeResult:
    """OPE of A(z) with B(w): the pole orders >= min_order.

    With min_order = 0 the regular part (the point-split normal product) is
    included as order 0.
    """
    run = _Contraction(ctx, min_order)
    w_terms = [(tb, cb, _w_partners(tb)) for tb, cb in B.terms.items()]
    for ta, ca in A.terms.items():
        if ta[1]:
            raise UnsupportedContraction(
                "symbolic power factors on the left operand are not supported"
            )
        z_keys = _z_keys(ta)
        for tb, cb, partners in w_terms:
            if ta[2] is not None and tb[2] is not None:
                raise UnsupportedContraction("vertex-vertex contraction is out of scope")
            # with no contraction possible the pair only has an order-0 part
            if min_order >= 1 and z_keys.isdisjoint(partners):
                continue
            _contract_pair(run, ta, ca, tb, cb)
    poles = {}
    for q, raw in run.raw.items():
        expr = FieldExpr._from_raw(raw)
        if not expr.is_structurally_zero:
            poles[q] = expr
    return OpeResult(poles)


def regularized_product(ctx: FieldContext, A: FieldExpr, B: FieldExpr) -> FieldExpr:
    """Point-splitting normal product: the (z-w)^0 part of the full expansion."""
    return contract(ctx, A, B, min_order=0).order(0)


class _Contraction:
    """State of one contract() call: lookup tables and raw terms per pole order."""

    def __init__(self, ctx: FieldContext, min_order: int):
        self.ctx = ctx
        self.min_order = min_order
        self.kernels: dict[tuple[Prim, Prim], Optional[tuple[int, RatFunc]]] = {}
        self.channels: dict[tuple[BaseKey, Prim], list] = {}
        self.towers: dict[tuple, tuple[list[FieldExpr], list[list]]] = {}
        self.raw: dict[int, list] = {}

    def kernel(self, zp: Prim, wp: Prim) -> Optional[tuple[int, RatFunc]]:
        key = (zp, wp)
        if key not in self.kernels:
            self.kernels[key] = pair_kernel(self.ctx, zp, wp)
        return self.kernels[key]

    def pf_channels(self, base: BaseKey, zp: Prim) -> list:
        key = (base, zp)
        if key not in self.channels:
            self.channels[key] = _pf_channels(self.kernel, base, zp)
        return self.channels[key]

    def taylor(self, prims: tuple[Prim, ...], vertex, top: int) -> list[list]:
        """Levels m = 0..top of the Taylor tower d^m/m! of :prims vertex: as
        (coef, prims, vertex) triples; shorter once a derivative vanishes."""
        tower = self.towers.get((prims, vertex))
        if tower is None:
            expr = FieldExpr._from_raw([(ONE, prims, (), vertex)])
            tower = self.towers[(prims, vertex)] = ([expr], [_level(expr, 1)])
        exprs, levels = tower
        while len(levels) <= top and not exprs[-1].is_structurally_zero:
            exprs.append(exprs[-1].derivative(self.ctx))
            levels.append(_level(exprs[-1], _FACT[len(levels)]))
        return levels[: top + 1]


def _contract_pair(run: _Contraction, ta: Term, ca: RatFunc, tb: Term, cb: RatFunc) -> None:
    """Append every Wick pattern of one term pair to ``run.raw``."""
    ctx = run.ctx
    min_order = run.min_order
    zprims, _, zvertex = ta
    wprims, wpfs, wvertex = tb

    zalive = [True] * len(zprims)
    witems: list[_WItem] = [_WItem(_WPRIM, prim=p) for p in wprims]
    for key, exp in wpfs:
        witems.append(_WItem(_WPF, base=key, exp=exp))
    if wvertex is not None:
        witems.append(_WItem(_WVERT))

    base_coef = ca * cb
    contractions: list[tuple[int, RatFunc]] = []

    def crossing_parity(iz: int, pos: int) -> int:
        odd = 0
        for j in range(iz + 1, len(zprims)):
            if zalive[j] and prim_parity(zprims[j]):
                odd ^= 1
        for item in witems[:pos]:
            if item.alive and item.parity:
                odd ^= 1
        return odd

    def emit() -> None:
        q = sum(o for o, _ in contractions)
        if q < min_order:
            return
        coef = base_coef
        for _, c in contractions:
            coef = coef * c
        if coef.is_zero:
            return
        # surviving w part; the surviving z part is Taylor-expanded about w
        wleft = [item for item in witems if item.alive]
        rest_prims = tuple(item.prim for item in wleft if item.kind == _WPRIM)
        rest_pfs = tuple((item.base, item.exp) for item in wleft if item.kind == _WPF)
        zleft = tuple(p for p, alive in zip(zprims, zalive) if alive)
        for m, level in enumerate(run.taylor(zleft, zvertex, q - min_order)):
            bucket = run.raw.setdefault(q - m, [])
            for tc, tprims, tvertex in level:
                bucket.append((
                    coef * tc,
                    tprims + rest_prims,
                    rest_pfs,
                    tvertex if tvertex is not None else wvertex,
                ))

    def stage_two(widx: int) -> None:
        # optional contractions of the z vertex with surviving scalar legs
        if zvertex is None or widx == len(witems):
            emit()
            return
        item = witems[widx]
        stage_two(widx + 1)
        if item.alive and item.kind == _WPRIM and item.prim[0] == PHI:
            ker = vertex_kernel_w(zvertex, item.prim)
            if ker is not None:
                item.alive = False
                contractions.append(ker)
                stage_two(widx + 1)
                contractions.pop()
                item.alive = True

    def walk(iz: int) -> None:
        if iz == len(zprims):
            stage_two(0)
            return
        zp = zprims[iz]
        # leave the factor for Taylor expansion
        walk(iz + 1)
        zalive[iz] = False
        for pos, item in enumerate(witems):
            if not item.alive:
                continue
            if item.kind == _WPRIM:
                ker = run.kernel(zp, item.prim)
                if ker is None:
                    continue
                # both contracted factors are odd or both even; an odd pair
                # picks up a sign from every odd factor crossed in between
                sgn = -1 if (prim_parity(zp) and crossing_parity(iz, pos)) else 1
                item.alive = False
                contractions.append((ker[0], ker[1] * sgn))
                walk(iz + 1)
                contractions.pop()
                item.alive = True
            elif item.kind == _WPF:
                for order, coef, remainder, gpar in run.pf_channels(item.base, zp):
                    sgn = 1
                    if prim_parity(zp) and crossing_parity(iz, pos):
                        sgn = -1
                    pval = item.exp.as_ratfunc(ctx.hvee)
                    old_exp = item.exp
                    item.exp = old_exp - 1
                    dropped = item.exp.is_const and item.exp.v == 0
                    if dropped:
                        item.alive = False
                    inserted = [_WItem(_WPRIM, prim=p) for p in remainder]
                    for off, it in enumerate(inserted):
                        witems.insert(pos + off, it)
                    contractions.append((order, coef * pval * sgn))
                    walk(iz + 1)
                    contractions.pop()
                    del witems[pos: pos + len(inserted)]
                    item.exp = old_exp
                    item.alive = True
            else:  # vertex
                ker = vertex_kernel_z(wvertex, zp)
                if ker is not None:
                    contractions.append(ker)
                    walk(iz + 1)
                    contractions.pop()
        zalive[iz] = True

    walk(0)


def _level(expr: FieldExpr, fact: int) -> list:
    """Terms of ``expr`` divided by ``fact`` as (coef, prims, vertex) triples."""
    inv = Fraction(1, fact)
    return [(c * inv, prims, vertex) for (prims, _, vertex), c in expr.terms.items()]


# ---------------------------------------------------------------------------
# energy-momentum tensors
# ---------------------------------------------------------------------------

def free_field_tensor(ctx: FieldContext) -> FieldExpr:
    """T = sum :d(gamma) beta: + (1/2t) G^{ij} :P_i P_j: - (1/t) rho^j dP_j."""
    T = betagamma_tensor(ctx)
    t = ctx.t()
    half_over_t = RatFunc.of(Fraction(1, 2)) / t
    for i in range(ctx.rank):
        for j in range(ctx.rank):
            g = ctx.Ginv[i][j]
            if g:
                T = T + (FieldExpr.prim(PHI, i) * FieldExpr.prim(PHI, j)).scale(
                    half_over_t * g
                )
    for j in range(ctx.rank):
        r = sum(Fraction(ctx.rho[i]) * ctx.Ginv[i][j] for i in range(ctx.rank))
        if r:
            T = T + FieldExpr.prim(PHI, j, 1, coef=-RatFunc.of(r) / t)
    return T


def betagamma_tensor(ctx: FieldContext) -> FieldExpr:
    T = FieldExpr.zero()
    for pos in range(ctx.n_pos):
        T = T + FieldExpr.prim(ctx.gamma_kind(pos), pos, 1) * FieldExpr.prim(
            ctx.beta_kind(pos), pos, 0
        )
    return T


def scalar_tensor(ctx: FieldContext) -> FieldExpr:
    return free_field_tensor(ctx) - betagamma_tensor(ctx)


def central_charge(ctx: FieldContext, T: FieldExpr) -> RatFunc:
    """c from the fourth-order pole of T(z)T(w)."""
    four = contract(ctx, T, T).order(4)
    c = RatFunc.zero()
    for term, coef in four.terms.items():
        if term[0] or term[1] or term[2] is not None:
            raise AssertionError("fourth-order pole of TT is not a scalar")
        c = coef
    return c * 2


def conformal_weight(ctx: FieldContext, T: FieldExpr, A: FieldExpr):
    """Weight h with T(z)A(w) = h A/(z-w)^2 + dA/(z-w); (h, None) or (None, info)."""
    res = contract(ctx, T, A)
    for q in res.nonzero_orders():
        if q > 2:
            return None, (q, res.order(q))
    pole1 = res.order(1)
    if not pole1.equals(A.derivative(ctx)):
        return None, (1, pole1 - A.derivative(ctx))
    pole2 = res.order(2)
    if pole2.is_zero:
        return RatFunc.zero(), None
    # h = ratio against any matching term of A
    for term, coef in A.terms.items():
        got = pole2.terms.get(term)
        if got is not None:
            h = got / coef
            if pole2.equals(A.scale(h)):
                return h, None
            return None, (2, pole2 - A.scale(h))
    return None, (2, pole2)
