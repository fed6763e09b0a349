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
every nonnegative-integer constant power of a term multiplied out.  Zero-testing
expands power factors of a common base to the least constant offset present,
after which distinct factor structures are linearly independent.

The algebra enters through its ``liealg.RootSystem``: the ghost kinds of a
root position (``beta_kind``, ``gamma_kind``) and a vertex's coupling to the
scalar legs and its conformal weight are functions of it, with t = k + h_vee.

A base is an interned ``BaseKey``: equal bases are one object, so they
compare and hash by identity, and the key carries its sort key and the
memoized monomials of its derivative and powers.  A base has no arithmetic
of its own: that memo is filled by ``FieldExpr`` products and derivatives,
a base's weight is ``FieldExpr.weight`` of the base, and canonicalization
multiplies out an integer power through the memo.

Every coefficient stored in a FieldExpr is in the one form of
``coeffs.canonical``: an int or a Fraction when it is rational, a RatFunc
only when k or n appears.  Raw terms handed to ``FieldExpr._from_raw`` may
carry any of the three, all over one common denominator; equal terms are
summed as they come and each result is divided by that denominator once.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Optional, Sequence
from weakref import WeakValueDictionary

from .coeffs import Exp, RatFunc, Scalar, _lean, canonical
from .liealg import RootSystem

# primitive kinds, in canonical factor order
GAMMA, CGH, BGH, BETA, PHI = range(5)
KIND_PARITY = (0, 1, 1, 0, 0)
KIND_WEIGHT = (0, 0, 1, 1, 1)
KIND_NAMES = ("gamma", "c", "b", "beta", "dphi")

Prim = tuple[int, int, int]          # (kind, label, deriv)
PF = tuple["BaseKey", Exp]
Momentum = tuple[RatFunc, ...]
Term = tuple[tuple[Prim, ...], tuple[PF, ...], Optional[Momentum]]


class UnsupportedContraction(ValueError):
    """Raised for contraction requests outside the engine's contract."""


def beta_kind(rs: RootSystem, pos: int) -> int:
    """The kind of the ghost beta_alpha at positive-root position ``pos``: b on an odd root."""
    return BGH if rs.root_parity[pos] else BETA


def gamma_kind(rs: RootSystem, pos: int) -> int:
    """The kind of the ghost gamma^alpha at positive-root position ``pos``: c on an odd root."""
    return CGH if rs.root_parity[pos] else GAMMA


def vertex_weight(rs: RootSystem, momentum: Momentum) -> RatFunc:
    """Delta = (mu, mu + 2 rho) / 2t for a scaled momentum mu."""
    mu2 = rs.weight_inner(momentum, momentum)
    murho = rs.weight_inner(momentum, rs.rho_labels)
    return (mu2 + 2 * murho) / (2 * RatFunc.t(rs.hvee))


def vertex_phi_coupling(rs: RootSystem, momentum: Momentum) -> list[RatFunc]:
    """nu^j with d(vertex) = nu^j :P_j vertex:, i.e. mu_i G^{ij} / t."""
    t = RatFunc.t(rs.hvee)
    out = []
    for j in range(rs.rank):
        acc = RatFunc.zero()
        for i in range(rs.rank):
            if rs.Ginv[i][j]:
                acc = acc + momentum[i] * rs.Ginv[i][j]
        out.append(acc / t)
    return out


def prim_parity(p: Prim) -> int:
    return KIND_PARITY[p[0]]


def _sort_prims(prims: Sequence[Prim]) -> Optional[tuple[int, tuple[Prim, ...]]]:
    """Stable graded sort; None when an odd factor squares to zero."""
    for p in prims:
        if KIND_PARITY[p[0]]:
            break
    else:
        return 1, tuple(sorted(prims))
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
    """A finite sum of canonical terms with ``coeffs.canonical`` coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict[Term, Scalar]] = None):
        self.terms: dict[Term, Scalar] = terms or {}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "FieldExpr":
        return FieldExpr()

    @staticmethod
    def const(c) -> "FieldExpr":
        c = canonical(c)
        if not c:
            return FieldExpr()
        return FieldExpr({((), (), None): c})

    @staticmethod
    def prim(kind: int, label: int, deriv: int = 0, coef=1) -> "FieldExpr":
        c = canonical(coef)
        if not c:
            return FieldExpr()
        return FieldExpr({(((kind, label, deriv),), (), None): c})

    @staticmethod
    def vertex(momentum: Sequence[RatFunc]) -> "FieldExpr":
        mom = tuple(RatFunc.of(c) for c in momentum)
        if all(c.is_zero for c in mom):
            return FieldExpr.const(1)
        return FieldExpr({((), (), mom): 1})

    @staticmethod
    def power(base: "FieldExpr", exp: Exp) -> "FieldExpr":
        key = base_key_of(base)
        return FieldExpr._from_raw([(1, (), ((key, exp),), None)])

    # -- canonicalization --------------------------------------------------

    @staticmethod
    def _from_raw(
        raw: Iterable[tuple[Scalar, Sequence[Prim], Sequence[PF], Optional[Momentum]]],
        denom: int = 1,
    ) -> "FieldExpr":
        """The canonical sum of raw (coef, prims, pfs, vertex) terms, divided
        by ``denom``.

        A raw coefficient is an int, a Fraction or a RatFunc; a constant
        RatFunc is unwrapped, so equal terms are summed as numbers where
        they are rational, and each output coefficient is divided by
        ``denom`` once.  A float is refused with ``TypeError``.
        """
        out: dict[Term, Scalar] = {}
        stack = list(raw)
        while stack:
            coef, prims, pfs, vertex = stack.pop()
            if type(coef) is RatFunc:
                coef = canonical(coef)
            # a RatFunc left by canonical() is not constant, hence not zero
            if not coef:
                continue
            sorted_ = _sort_prims(prims)
            if sorted_ is None:
                continue
            sign, sp = sorted_
            if sign < 0:
                coef = -coef
            kept: tuple[PF, ...] = ()
            if pfs:
                # merge power factors sharing a base; multiply out nonneg integer powers
                grouped: dict[BaseKey, Exp] = {}
                for key, exp in pfs:
                    if key in grouped:
                        grouped[key] = grouped[key] + exp
                    else:
                        grouped[key] = exp
                merged: list[PF] = []
                parts: Optional[list] = None
                for key in sorted(grouped, key=_base_sort_key):
                    exp = grouped[key]
                    if exp.is_const:
                        if exp.v == 0:
                            continue
                        if exp.v.denominator == 1 and exp.v > 0:
                            power = _base_power(key, int(exp.v))
                            parts = [(c * pc, p + pp) for c, p in parts or ((coef, sp),) for pp, pc in power]
                            continue
                    merged.append((key, exp))
                kept = tuple(merged)
                if parts is not None:
                    stack.extend((c, p, kept, vertex) for c, p in parts)
                    continue
            term: Term = (sp, kept, vertex)
            cur = out.get(term)
            if cur is None:
                out[term] = coef
            else:
                cur = cur + coef
                if type(cur) is RatFunc:
                    cur = canonical(cur)
                if cur:
                    out[term] = cur
                else:
                    del out[term]
        inv = Fraction(1, denom)
        return FieldExpr({
            t: (c // denom if not c % denom else Fraction(c, denom)) if type(c) is int
            else c._scaled(inv) if type(c) is RatFunc else _lean(c * inv if denom > 1 else c)
            for t, c in out.items()
        })

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "FieldExpr") -> "FieldExpr":
        out = dict(self.terms)
        for t, c in other.terms.items():
            cur = out.get(t)
            if cur is None:
                out[t] = c
            else:
                cur = canonical(cur + c)
                if cur:
                    out[t] = cur
                else:
                    del out[t]
        return FieldExpr(out)

    def __neg__(self) -> "FieldExpr":
        return FieldExpr({t: -c for t, c in self.terms.items()})

    def __sub__(self, other: "FieldExpr") -> "FieldExpr":
        return self + (-other)

    def scale(self, c) -> "FieldExpr":
        c = canonical(c)
        if not c:
            return FieldExpr()
        return FieldExpr({t: canonical(v * c) for t, v in self.terms.items()})

    def __mul__(self, other: "FieldExpr") -> "FieldExpr":
        """Normal-ordered (Wick) product: no contractions, graded reordering."""
        raw = []
        for (p1, f1, v1), c1 in self.terms.items():
            for (p2, f2, v2), c2 in other.terms.items():
                vs = [v for v in (v1, v2) if v is not None]
                raw.append((c1 * c2, p1 + p2, f1 + f2, _merge_momenta(vs)))
        return FieldExpr._from_raw(raw)

    # -- calculus ----------------------------------------------------------

    def derivative(self, rs: RootSystem) -> "FieldExpr":
        raw = []
        for (prims, pfs, vertex), coef in self.terms.items():
            for i, p in enumerate(prims):
                bumped = prims[:i] + ((p[0], p[1], p[2] + 1),) + prims[i + 1:]
                raw.append((coef, bumped, pfs, vertex))
            for i, (key, exp) in enumerate(pfs):
                rest = pfs[:i] + ((key, exp - 1),) + pfs[i + 1:]
                pref = coef * exp.as_ratfunc(rs.hvee)
                for dprims, dcoef in _base_derivative(key, rs):
                    raw.append((pref * dcoef, prims + dprims, rest, vertex))
            if vertex is not None:
                for j, nu in enumerate(vertex_phi_coupling(rs, vertex)):
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
        """Equal term dicts are equal values.  Other pairs are zero-tested,
        which expands power factors of a common base to one offset."""
        return self.terms == other.terms or (self - other).is_zero

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldExpr):
            return NotImplemented
        return self.equals(other)

    def __hash__(self):
        raise TypeError("FieldExpr is not hashable; freeze a base instead")

    def weight(self, rs: RootSystem) -> Optional[RatFunc]:
        """Conformal weight when every term agrees, else None."""
        seen: Optional[RatFunc] = None
        for (prims, pfs, vertex), _ in self.terms.items():
            w = RatFunc.of(sum(KIND_WEIGHT[kind] + deriv for kind, _, deriv in prims))
            for key, exp in pfs:
                bw = base_expr(key).weight(rs)
                if bw is None:
                    return None
                w = w + exp.as_ratfunc(rs.hvee) * bw
            if vertex is not None:
                w = w + vertex_weight(rs, vertex)
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
            raw.append((RatFunc.of(coef).shift_n(delta), prims, npfs, nv))
        return FieldExpr._from_raw(raw)

    def subs_t(self, rs: RootSystem, tval) -> "FieldExpr":
        """Specialize t = tval (so k = tval - hvee); integer powers expand."""
        tval = _lean(tval)
        kval = tval - rs.hvee
        raw = []
        for (prims, pfs, vertex), coef in self.terms.items():
            npfs = tuple((key, Exp(0, exp.u * tval + exp.v, exp.w)) for key, exp in pfs)
            nv = tuple(c.subs_k(kval) for c in vertex) if vertex is not None else None
            raw.append((RatFunc.of(coef).subs_k(kval), prims, npfs, nv))
        return FieldExpr._from_raw(raw)

    def text(self, rs: Optional[RootSystem] = None) -> str:
        if not self.terms:
            return "0"
        bits = [_term_text(term, self.terms[term], rs) for term in sorted(self.terms, key=term_order)]
        return " + ".join(bits).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"FieldExpr({self.text()})"


# ---------------------------------------------------------------------------
# base handling
# ---------------------------------------------------------------------------

class BaseKey:
    """The base of a power factor, interned: one object per base.

    ``items`` is the sorted tuple of the base's (prims, coefficient) monomials,
    and iterating a key yields them.  ``base_key_of`` builds every key
    through ``_intern``, so equal bases are the same object: equality and
    hashing are by identity, which a term lookup pays once per key instead
    of once per monomial coefficient.  The sort key and the monomials of the
    base's derivative and powers are kept on the key.  The table holds keys
    weakly, and unpickling interns again.
    """

    __slots__ = ("items", "sort_key", "derivative", "powers", "__weakref__")

    def __init__(self, items: tuple):
        self.items = items
        self.sort_key = tuple((prims, RatFunc.of(coef).key()) for prims, coef in items)
        self.derivative: Optional[list] = None
        self.powers: list = []

    def __iter__(self):
        return iter(self.items)

    def __reduce__(self):
        return _intern, (self.items,)


_BASES: WeakValueDictionary = WeakValueDictionary()


def _intern(items: tuple) -> BaseKey:
    key = _BASES.get(items)
    if key is None:
        key = _BASES[items] = BaseKey(items)
    return key


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
    return _intern(tuple(sorted(items, key=lambda it: it[0])))


def base_expr(key: BaseKey) -> FieldExpr:
    return FieldExpr._from_raw([(coef, prims, (), None) for prims, coef in key])


_base_sort_key = attrgetter("sort_key")


def _base_derivative(key: BaseKey, rs: RootSystem) -> list[tuple[tuple[Prim, ...], Scalar]]:
    """The monomials of d(base) as (sorted prims, coefficient) pairs.

    ``FieldExpr.derivative`` reads ``rs`` only for vertices and power
    factors, and a base has neither, so one memo serves every algebra."""
    if key.derivative is None:
        key.derivative = _plain_monomials(base_expr(key).derivative(rs))
    return key.derivative


def _base_power(key: BaseKey, m: int) -> list[tuple[tuple[Prim, ...], Scalar]]:
    """The monomials of :base^m: (m >= 1) as (sorted prims, coefficient) pairs."""
    powers = key.powers
    while len(powers) < m:
        if powers:
            raw = [(c1 * c2, p1 + p2, (), None) for p1, c1 in powers[-1] for p2, c2 in key]
        else:
            raw = [(coef, prims, (), None) for prims, coef in key]
        powers.append(_plain_monomials(FieldExpr._from_raw(raw)))
    return powers[m - 1]


def _plain_monomials(expr: FieldExpr) -> list[tuple[tuple[Prim, ...], Scalar]]:
    return [(prims, coef) for (prims, _, _), coef in expr.terms.items()]


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


def lower_to_floors(terms: Iterable[tuple[Term, Scalar]], floors: dict[PowerClass, Fraction]) -> list:
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
# output order and text rendering
# ---------------------------------------------------------------------------

def term_order(term: Term) -> tuple:
    """The one output order of terms: factor count, factors, each power
    factor's base key and exponent, then the vertex momentum, no vertex first.

    Each part is a structural key, equal exactly when its values are, so no
    two terms tie and equal expressions print alike in every format."""
    prims, pfs, vertex = term
    return (
        len(prims),
        prims,
        tuple((key.sort_key, exp.key()) for key, exp in pfs),
        () if vertex is None else tuple(c.key() for c in vertex),
    )


def prim_text(p: Prim, rs: Optional[RootSystem] = None) -> str:
    kind, label, deriv = p
    if kind == PHI:
        name = f"dphi{label + 1}"
    else:
        root = rs.root_names[label] if rs is not None else str(label)
        name = f"{KIND_NAMES[kind]}[{root}]"
    return ("d" * deriv) + (f"({name})" if deriv and kind != PHI else name)


def _term_text(term: Term, coef: Scalar, rs: Optional[RootSystem]) -> str:
    prims, pfs, vertex = term
    bits = []
    for p in prims:
        bits.append(prim_text(p, rs))
    for key, exp in pfs:
        inner = base_expr(key).text(rs)
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
    cs = coef.text() if type(coef) is RatFunc else str(coef)
    if cs == "1":
        return body
    if cs == "-1":
        return "-" + body
    if any(ch in cs[1:] for ch in "+-") and not (cs.startswith("(")):
        cs = "(" + cs + ")"
    return f"{cs} {body}" if bits else cs
