"""Canonical normal-ordered expressions in the free fields.

A term is an ordered product of primitive factors times a coefficient:

* ghost primitives  d^m gamma^alpha, d^m beta_alpha  (bosonic pairs) and
  d^m c^alpha, d^m b_alpha (fermionic pairs, odd roots only);
* scalar legs  d^m(sqrt(t) d phi_i)  -- the sqrt(t) is folded into the leg
  so that no radical ever appears in a coefficient;
* at most one vertex prefactor exp(mu.phi/sqrt(t)), stored through its scaled
  momentum labels mu_i;
* power factors X^(u t + v + w n) whose base X is an even, vertex-free
  polynomial in the primitives.

Canonical form: factors sorted with graded signs, vanishing squares of odd
factors dropped, vertices merged, power factors with equal bases merged, and
nonnegative-integer constant powers expanded.  Zero-testing expands power
factors of a common base to the least constant offset present, after which
distinct factor structures are linearly independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .coeffs import Exp, RatFunc
from .liealg import RootSystem

# primitive kinds, in canonical factor order
GAMMA, CGH, BGH, BETA, PHI = range(5)
KIND_PARITY = (0, 1, 1, 0, 0)
KIND_WEIGHT = (0, 0, 1, 1, 1)
KIND_NAMES = ("gamma", "c", "b", "beta", "dphi")

Prim = tuple[int, int, int]          # (kind, label, deriv)
BaseKey = tuple                      # sorted tuple of (prims, RatFunc)
PF = tuple[BaseKey, Exp]
Momentum = tuple[RatFunc, ...]
Term = tuple[tuple[Prim, ...], tuple[PF, ...], Optional[Momentum]]


class UnsupportedContraction(ValueError):
    """Raised for contraction requests outside the engine's contract."""


@dataclass(frozen=True)
class FieldContext:
    """Metric data the expression layer needs (built once per algebra)."""

    rank: int
    n_pos: int
    hvee: int
    G: tuple[tuple[Fraction, ...], ...]
    Ginv: tuple[tuple[Fraction, ...], ...]
    rho: tuple[Fraction, ...]               # Dynkin labels of the Weyl vector
    root_parity: tuple[int, ...]            # per positive-root position
    root_names: tuple[str, ...]

    @staticmethod
    def from_algebra(rs: RootSystem) -> "FieldContext":
        return FieldContext(
            rank=rs.rank,
            n_pos=rs.n_pos,
            hvee=rs.hvee,
            G=rs.G,
            Ginv=rs.Ginv,
            rho=rs.rho_labels,
            root_parity=tuple(rs.parity(a) for a in rs.pos_roots),
            root_names=tuple(rs.root_name(a) for a in rs.pos_roots),
        )

    def t(self) -> RatFunc:
        return RatFunc.t(self.hvee)

    @property
    def bosonic(self) -> bool:
        """Whether every positive root is even (no fermionic ghost pairs)."""
        return not any(self.root_parity)

    def beta_kind(self, pos: int) -> int:
        return BGH if self.root_parity[pos] else BETA

    def gamma_kind(self, pos: int) -> int:
        return CGH if self.root_parity[pos] else GAMMA

    def weight_inner(self, lam: Sequence[RatFunc], mu: Sequence[RatFunc]) -> RatFunc:
        total = RatFunc.zero()
        for i in range(self.rank):
            for j in range(self.rank):
                if self.Ginv[i][j]:
                    total = total + lam[i] * mu[j] * self.Ginv[i][j]
        return total

    def vertex_weight(self, momentum: Momentum) -> RatFunc:
        """Delta = (mu, mu + 2 rho) / 2t for a scaled momentum mu."""
        rho = tuple(RatFunc.of(x) for x in self.rho)
        mu2 = self.weight_inner(momentum, momentum)
        murho = self.weight_inner(momentum, rho)
        return (mu2 + 2 * murho) / (2 * self.t())

    def vertex_phi_coupling(self, momentum: Momentum) -> list[RatFunc]:
        """nu^j with d(vertex) = nu^j :P_j vertex:, i.e. mu_i G^{ij} / t."""
        out = []
        for j in range(self.rank):
            acc = RatFunc.zero()
            for i in range(self.rank):
                if self.Ginv[i][j]:
                    acc = acc + momentum[i] * self.Ginv[i][j]
            out.append(acc / self.t())
        return out


def prim_parity(p: Prim) -> int:
    return KIND_PARITY[p[0]]


def _sort_prims(prims: Sequence[Prim]) -> Optional[tuple[int, tuple[Prim, ...]]]:
    """Stable graded sort; None when an odd factor squares to zero."""
    lst = list(prims)
    sign = 1
    # insertion sort, counting odd-odd transpositions
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            if prim_parity(lst[j - 1]) and prim_parity(lst[j]):
                sign = -sign
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            j -= 1
    for a, b in zip(lst, lst[1:]):
        if a == b and prim_parity(a):
            return None
    return sign, tuple(lst)


def _merge_momenta(moms: Sequence[Momentum]) -> Optional[Momentum]:
    if not moms:
        return None
    rank = len(moms[0])
    out = [RatFunc.zero()] * rank
    for m in moms:
        out = [a + b for a, b in zip(out, m)]
    if all(c.is_zero for c in out):
        return None
    return tuple(out)


class FieldExpr:
    """A finite sum of canonical terms with RatFunc coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict[Term, RatFunc]] = None):
        self.terms: dict[Term, RatFunc] = terms or {}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "FieldExpr":
        return FieldExpr()

    @staticmethod
    def const(c) -> "FieldExpr":
        c = RatFunc.of(c)
        if c.is_zero:
            return FieldExpr()
        return FieldExpr({((), (), None): c})

    @staticmethod
    def prim(kind: int, label: int, deriv: int = 0, coef=1) -> "FieldExpr":
        c = RatFunc.of(coef)
        if c.is_zero:
            return FieldExpr()
        return FieldExpr({(((kind, label, deriv),), (), None): c})

    @staticmethod
    def vertex(momentum: Sequence[RatFunc]) -> "FieldExpr":
        mom = tuple(RatFunc.of(c) for c in momentum)
        if all(c.is_zero for c in mom):
            return FieldExpr.const(1)
        return FieldExpr({((), (), mom): RatFunc.one()})

    @staticmethod
    def power(base: "FieldExpr", exp: Exp) -> "FieldExpr":
        key = base_key_of(base)
        return FieldExpr._from_raw([(RatFunc.one(), (), ((key, exp),), None)])

    # -- canonicalization --------------------------------------------------

    @staticmethod
    def _from_raw(
        raw: Iterable[tuple[RatFunc, Sequence[Prim], Sequence[PF], Optional[Momentum]]]
    ) -> "FieldExpr":
        out: dict[Term, RatFunc] = {}
        stack = list(raw)
        while stack:
            coef, prims, pfs, vertex = stack.pop()
            if coef.is_zero:
                continue
            sorted_ = _sort_prims(prims)
            if sorted_ is None:
                continue
            sign, sp = sorted_
            if sign < 0:
                coef = -coef
            # merge power factors sharing a base; expand nonneg integer powers
            grouped: dict[BaseKey, Exp] = {}
            for key, exp in pfs:
                if key in grouped:
                    grouped[key] = grouped[key] + exp
                else:
                    grouped[key] = exp
            kept: list[PF] = []
            expand: Optional[tuple[BaseKey, int]] = None
            for key in sorted(grouped, key=_base_sort_key):
                exp = grouped[key]
                if exp.is_const:
                    if exp.v == 0:
                        continue
                    if exp.v.denominator == 1 and exp.v > 0:
                        expand = (key, int(exp.v))
                        continue
                kept.append((key, exp))
            if expand is not None:
                key, power = expand
                rest = (
                    kept
                    + [(key, Exp.const(power - 1))] * (1 if power > 1 else 0)
                )
                for bprims, bcoef in key:
                    stack.append((coef * bcoef, sp + bprims, tuple(rest), vertex))
                continue
            term: Term = (sp, tuple(kept), vertex)
            cur = out.get(term)
            if cur is None:
                out[term] = coef
            else:
                cur = cur + coef
                if cur.is_zero:
                    del out[term]
                else:
                    out[term] = cur
        return FieldExpr(out)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "FieldExpr") -> "FieldExpr":
        out = dict(self.terms)
        for t, c in other.terms.items():
            cur = out.get(t)
            if cur is None:
                out[t] = c
            else:
                cur = cur + c
                if cur.is_zero:
                    del out[t]
                else:
                    out[t] = cur
        return FieldExpr(out)

    def __neg__(self) -> "FieldExpr":
        return FieldExpr({t: -c for t, c in self.terms.items()})

    def __sub__(self, other: "FieldExpr") -> "FieldExpr":
        return self + (-other)

    def scale(self, c) -> "FieldExpr":
        c = RatFunc.of(c)
        if c.is_zero:
            return FieldExpr()
        return FieldExpr({t: v * c for t, v in self.terms.items()})

    def __mul__(self, other: "FieldExpr") -> "FieldExpr":
        """Normal-ordered (Wick) product: no contractions, graded reordering."""
        raw = []
        for (p1, f1, v1), c1 in self.terms.items():
            for (p2, f2, v2), c2 in other.terms.items():
                vs = [v for v in (v1, v2) if v is not None]
                raw.append((c1 * c2, p1 + p2, f1 + f2, _merge_momenta(vs)))
        return FieldExpr._from_raw(raw)

    # -- calculus ----------------------------------------------------------

    def derivative(self, ctx: FieldContext) -> "FieldExpr":
        raw = []
        for (prims, pfs, vertex), coef in self.terms.items():
            for i, p in enumerate(prims):
                bumped = prims[:i] + ((p[0], p[1], p[2] + 1),) + prims[i + 1:]
                raw.append((coef, bumped, pfs, vertex))
            for i, (key, exp) in enumerate(pfs):
                rest = pfs[:i] + ((key, exp - 1),) + pfs[i + 1:]
                pref = coef * exp.as_ratfunc(ctx.hvee)
                for dprims, dcoef in _base_derivative(key):
                    raw.append((pref * dcoef, prims + dprims, rest, vertex))
            if vertex is not None:
                for j, nu in enumerate(ctx.vertex_phi_coupling(vertex)):
                    if not nu.is_zero:
                        raw.append((coef * nu, prims + ((PHI, j, 0),), pfs, vertex))
        return FieldExpr._from_raw(raw)

    # -- queries -----------------------------------------------------------

    @property
    def is_structurally_zero(self) -> bool:
        return not self.terms

    @property
    def is_zero(self) -> bool:
        """True zero test (expands power-factor offsets of common bases)."""
        if not self.terms:
            return True
        return expand_power_levels(self).is_structurally_zero

    def equals(self, other: "FieldExpr") -> bool:
        return (self - other).is_zero

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldExpr):
            return NotImplemented
        return self.equals(other)

    def __hash__(self):
        raise TypeError("FieldExpr is not hashable; freeze a base instead")

    def weight(self, ctx: FieldContext) -> Optional[RatFunc]:
        """Conformal weight when every term agrees, else None."""
        seen: Optional[RatFunc] = None
        for (prims, pfs, vertex), _ in self.terms.items():
            w = RatFunc.zero()
            for kind, label, deriv in prims:
                w = w + RatFunc.of(KIND_WEIGHT[kind] + deriv)
            for key, exp in pfs:
                bw = _base_weight(key)
                if bw is None:
                    return None
                w = w + exp.as_ratfunc(ctx.hvee) * bw
            if vertex is not None:
                w = w + ctx.vertex_weight(vertex)
            if seen is None:
                seen = w
            elif seen != w:
                return None
        return seen if seen is not None else RatFunc.zero()

    def shift_n(self, delta: int) -> "FieldExpr":
        raw = []
        for (prims, pfs, vertex), coef in self.terms.items():
            npfs = tuple((key, exp.shift_n(delta)) for key, exp in pfs)
            nv = tuple(c.shift_n(delta) for c in vertex) if vertex is not None else None
            raw.append((coef.shift_n(delta), prims, npfs, nv))
        return FieldExpr._from_raw(raw)

    def subs_t(self, ctx: FieldContext, tval) -> "FieldExpr":
        """Specialize t = tval (so k = tval - hvee); integer powers expand."""
        tval = Fraction(tval)
        kval = tval - ctx.hvee
        raw = []
        for (prims, pfs, vertex), coef in self.terms.items():
            npfs = tuple((key, Exp(0, exp.u * tval + exp.v, exp.w)) for key, exp in pfs)
            nv = tuple(c.subs_k(kval) for c in vertex) if vertex is not None else None
            raw.append((coef.subs_k(kval), prims, npfs, nv))
        return FieldExpr._from_raw(raw)

    def text(self, ctx: Optional[FieldContext] = None) -> str:
        if not self.terms:
            return "0"
        bits = []
        for term, coef in sorted(self.terms.items(), key=lambda kv: _term_sort_key(kv[0])):
            bits.append(_term_text(term, coef, ctx))
        return " + ".join(bits).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"FieldExpr({self.text()})"


# ---------------------------------------------------------------------------
# base handling
# ---------------------------------------------------------------------------

def base_key_of(base: FieldExpr) -> BaseKey:
    """Freeze an even, vertex- and power-free expression as a power base."""
    items = []
    for (prims, pfs, vertex), coef in base.terms.items():
        if pfs or vertex is not None:
            raise UnsupportedContraction("power-factor bases must be plain field polynomials")
        if sum(prim_parity(p) for p in prims) % 2:
            raise UnsupportedContraction("power-factor bases must have even parity")
        items.append((prims, coef))
    if not items:
        raise UnsupportedContraction("cannot raise the zero expression to a symbolic power")
    return tuple(sorted(items, key=lambda it: it[0]))


def base_expr(key: BaseKey) -> FieldExpr:
    return FieldExpr._from_raw([(coef, prims, (), None) for prims, coef in key])


def _base_sort_key(key: BaseKey):
    return tuple((prims, coef.key()) for prims, coef in key)


_base_derivative_cache: dict = {}


def _base_derivative(key: BaseKey) -> list[tuple[tuple[Prim, ...], RatFunc]]:
    """The monomials of d(base) as (sorted prims, coefficient) pairs."""
    cached = _base_derivative_cache.get(key)
    if cached is None:
        raw = []
        for prims, coef in key:
            for i, p in enumerate(prims):
                bumped = prims[:i] + ((p[0], p[1], p[2] + 1),) + prims[i + 1:]
                raw.append((coef, bumped, (), None))
        cached = _plain_monomials(FieldExpr._from_raw(raw))
        _base_derivative_cache[key] = cached
    return cached


_base_power_cache: dict = {}


def _base_power(key: BaseKey, m: int) -> list[tuple[tuple[Prim, ...], RatFunc]]:
    """The monomials of :base^m: (m >= 1) as (sorted prims, coefficient) pairs."""
    cached = _base_power_cache.get((key, m))
    if cached is None:
        if m == 1:
            raw = [(coef, prims, (), None) for prims, coef in key]
        else:
            raw = [
                (c1 * c2, p1 + p2, (), None)
                for p1, c1 in _base_power(key, m - 1)
                for p2, c2 in key
            ]
        cached = _plain_monomials(FieldExpr._from_raw(raw))
        _base_power_cache[(key, m)] = cached
    return cached


def _plain_monomials(expr: FieldExpr) -> list[tuple[tuple[Prim, ...], RatFunc]]:
    return [(prims, coef) for (prims, _, _), coef in expr.terms.items()]


def _base_weight(key: BaseKey) -> Optional[RatFunc]:
    seen = None
    for prims, _ in key:
        w = sum(KIND_WEIGHT[k] + d for k, _, d in prims)
        if seen is None:
            seen = w
        elif seen != w:
            return None
    return RatFunc.of(seen if seen is not None else 0)


# ---------------------------------------------------------------------------
# zero testing across power-factor levels
# ---------------------------------------------------------------------------

PowerClass = tuple  # (base, u, w, v mod 1): exponents differing by integers


def power_floors(expr: FieldExpr) -> dict[PowerClass, Fraction]:
    """The least constant offset v present in each power class of ``expr``."""
    floors: dict[PowerClass, Fraction] = {}
    for _, pfs, _ in expr.terms:
        for key, exp in pfs:
            cls = (key, exp.u, exp.w, exp.v % 1)
            cur = floors.get(cls)
            if cur is None or exp.v < cur:
                floors[cls] = exp.v
    return floors


def lower_to_floors(terms: Iterable[tuple[Term, RatFunc]], floors: dict[PowerClass, Fraction]) -> list:
    """Raw terms of ``terms`` with every power factor lowered to its class floor.

    X^(e+s) = :X^s X^e: for a nonnegative integer surplus s, so a term with
    surplus copies becomes one raw term per monomial of the (memoized)
    expanded product of those copies.  Every class of ``terms`` must be in
    ``floors``.
    """
    raw = []
    for (prims, pfs, vertex), coef in terms:
        parts = [(coef, prims)]
        lowered = []
        for key, exp in pfs:
            vmin = floors[(key, exp.u, exp.w, exp.v % 1)]
            surplus = exp.v - vmin
            if surplus.denominator != 1 or surplus < 0:
                raise AssertionError("power offsets within a class must be nonnegative integers")
            if surplus:
                lowered.append((key, Exp(exp.u, vmin, exp.w)))
                power = _base_power(key, int(surplus))
                parts = [(c * pc, p + pp) for c, p in parts for pp, pc in power]
            else:
                lowered.append((key, exp))
        lowered_pfs = tuple(lowered)
        raw.extend((c, p, lowered_pfs, vertex) for c, p in parts)
    return raw


def expand_power_levels(expr: FieldExpr) -> FieldExpr:
    """Rewrite so all powers of one base class share the least constant offset.

    Within a class (base, u, w) the exponents u t + v + w n differ by the
    integers v; X^(e+1) = :X X^e:, so expanding the surplus copies puts every
    term at the common level, after which cancellation is structural.  One
    pass: the floors are found, every term is lowered to raw terms, and the
    result is canonicalized once.
    """
    floors = power_floors(expr)
    if not floors:
        return expr
    return FieldExpr._from_raw(lower_to_floors(expr.terms.items(), floors))


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------

def _term_sort_key(term: Term):
    prims, pfs, vertex = term
    return (len(prims), prims, tuple((_base_sort_key(k), e.key()) for k, e in pfs), vertex is not None)


def prim_text(p: Prim, ctx: Optional[FieldContext] = None) -> str:
    kind, label, deriv = p
    if kind == PHI:
        name = f"dphi{label + 1}"
    else:
        root = ctx.root_names[label] if ctx else str(label)
        name = f"{KIND_NAMES[kind]}[{root}]"
    return ("d" * deriv) + (f"({name})" if deriv and kind != PHI else name)


def _term_text(term: Term, coef: RatFunc, ctx: Optional[FieldContext]) -> str:
    prims, pfs, vertex = term
    bits = []
    for p in prims:
        bits.append(prim_text(p, ctx))
    for key, exp in pfs:
        inner = base_expr(key).text(ctx)
        bits.append(f"({inner})^({exp.text()})")
    if vertex is not None:
        comps = []
        for i, c in enumerate(vertex):
            if not c.is_zero:
                cs = c.text()
                if any(ch in cs[1:] for ch in "+-"):
                    cs = "(" + cs + ")"
                comps.append(f"{cs}*phi{i + 1}")
        bits.append("V[" + " + ".join(comps) + "]")
    body = " ".join(bits) if bits else "1"
    cs = coef.text()
    if cs == "1":
        return body
    if cs == "-1":
        return "-" + body
    if any(ch in cs[1:] for ch in "+-") and not (cs.startswith("(")):
        cs = "(" + cs + ")"
    return f"{cs} {body}" if bits else cs
