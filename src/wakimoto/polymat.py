"""Polynomials in triangular coordinates and the realization polynomial families.

The adjoint matrix C(x)_a^b = -x^beta f_{beta a}^b of a generic nilpotent
element is nilpotent, so every power series applied to it truncates.  The
realization polynomial families come out of the Bernoulli generating
function applied to C:

    V_+  = B(C)           (raising sector)
    V_0  = -C             (Cartan sector, linear)
    V_-  = e^{-C} B(-C)   (lowering sector)
    P    = e^{-C}         (Cartan block of the lowering sector)
    Q    = e^{-C}         (negative-negative block)
    S    = -B(-C)         (screening polynomials)

plus the k-free part F of the quantum correction supplying the
normal-ordering terms of the lowering currents.  B(-C) is the Bernoulli
series with its odd coefficients negated.

Only the blocks the families read are computed.  A positive row of C has
only positive columns, so (C^m)[+][+] = (C_++)^m, and the lowering rows
R_m = (C^m)[-] satisfy R_m = R_{m-1} C with R_0 = I[-]; each of the two is
raised to its powers once.  That matrix algebra, V_- and ``anomalous_term``
run over the integers in a ``Packing``: coefficients are scaled by a common
denominator and each exponent tuple is one int.  Each series is an integer
combination of the powers over the LCM of its coefficients' denominators.
The families leave as ``Poly``, integer numerators over one denominator
(the stored form of ``coeffs``); the level k enters only in
``currents.CurrentSet.rows``.  ``diffop`` and ``currents`` share the ``Packing``
and its kernel: ``mul_into``, ``add_into``, ``bracket_into`` (one slot, or all stacked).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence, Union

from .coeffs import SparsePoly
from .liealg import RootSystem, StructureTable

Expo = tuple[int, ...]  # one slot per positive root


class NilpotencyError(RuntimeError):
    """A series argument failed to truncate; signals a convention bug."""


# ---------------------------------------------------------------------------
# sparse polynomials in the x^alpha
# ---------------------------------------------------------------------------

class Poly(SparsePoly):
    """Multivariate polynomial over Q in the triangular coordinates x^alpha.

    Exponent tuples are indexed by the fixed positive-root order; the stored
    form and the arithmetic are those of ``SparsePoly``.
    """

    __slots__ = ("nvars",)

    def __init__(self, nvars: int, terms: Optional[dict[Expo, Union[int, Fraction]]] = None):
        self.nvars = nvars
        super().__init__(terms)

    def _like(self, num: dict, den: int = 1, nvars: Optional[int] = None) -> "Poly":
        out = SparsePoly._like(self, num, den)
        out.nvars = self.nvars if nvars is None else nvars
        return out

    __mul__ = SparsePoly.__mul__

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars)

    @staticmethod
    def const(nvars: int, c) -> "Poly":
        return Poly(nvars, {(0,) * nvars: c})

    @staticmethod
    def var(nvars: int, idx: int, c=1) -> "Poly":
        e = tuple(1 if j == idx else 0 for j in range(nvars))
        return Poly(nvars, {e: c})

    def deriv(self, idx: int) -> "Poly":
        # e -> e - unit(idx) is injective on the terms it keeps, so no two
        # terms collect and no coefficient cancels
        out: dict = {}
        for e, c in self.num.items():
            p = e[idx]
            if p:
                out[e[:idx] + (p - 1,) + e[idx + 1:]] = c * p
        return self._like(out, self.den)

    def sorted_terms(self) -> list[tuple[Expo, Union[int, Fraction]]]:
        """Graded-lex order over the fixed positive-root variable order."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), tuple(-v for v in t[0])))

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {dict(self.sorted_terms())!r})"


# ---------------------------------------------------------------------------
# the adjoint matrix over the full basis (+ roots, Cartan, - roots)
# ---------------------------------------------------------------------------

def adjoint_matrix(tab: StructureTable) -> list[list[Poly]]:
    """C_a^b(x) = -x^beta f_{beta a}^b, summed over positive beta.

    Rows and columns run over ``tab.basis()``: [e_alpha..., h_i..., f_alpha...].
    """
    labels = tab.basis()
    index = {lab: i for i, lab in enumerate(labels)}
    nv = tab.rs.n_pos
    d = len(labels)
    entries = [[Poly.zero(nv)] * d for _ in range(d)]
    for bi, beta in enumerate(tab.rs.pos_roots):
        for a in labels:
            for c, v in tab.bracket(("e", beta), a).items():
                # bracket gives f_{beta a}^c
                entries[index[a]][index[c]] = entries[index[a]][index[c]] + Poly.var(
                    nv, bi, -v
                )
    return entries


# ---------------------------------------------------------------------------
# packed polynomials over the integers
# ---------------------------------------------------------------------------

Packed = dict[int, int]  # packed exponent -> integer coefficient
Mat = list[dict[int, Packed]]  # sparse rows: column -> nonzero packed entry


class Packing:
    """Polynomials over the integers, each exponent tuple packed into one int.

    The tuple e becomes sum_s e_s base^s and a coefficient c becomes the int
    c * denom, so multiplying two monomials adds their packed exponents.
    That is exact as long as no exponent of a product reaches ``base``: the
    base must exceed every single exponent the packing's products can have.
    """

    __slots__ = ("nvars", "base", "denom", "weights", "_expos", "_zero")

    def __init__(self, nvars: int, base: int, denom: int):
        self.nvars = nvars
        self.base = base
        self.denom = denom
        self.weights = [base**s for s in range(nvars)]
        self._expos: dict[int, Expo] = {}
        self._zero = Poly(nvars)  # the shape of every unpacked value

    @classmethod
    def fit(cls, nvars: int, polys: list[Poly], consts=(), factors: int = 2) -> "Packing":
        """The packing of ``polys`` over the common denominator of their
        coefficients and of the rationals ``consts``, with base
        factors * emax + 1 (emax the largest single exponent), so that a
        product of ``factors`` of them, or of their derivatives, never carries."""
        denom = math.lcm(*(p.den for p in polys), *(c.denominator for c in consts))
        emax = max((x for p in polys for e in p.num for x in e), default=0)
        return cls(nvars, factors * emax + 1, denom)

    def pack(self, p: Poly) -> Packed:
        w, f = self.weights, self.denom // p.den
        return {sum(map(mul, e, w)): c * f for e, c in p.num.items()}

    def unpack(self, p: Packed, denom: int) -> Poly:
        """The Poly p / denom, denom >= 1; each packed exponent is unpacked once per packing."""
        B, w, expos = self.base, self.weights, self._expos
        terms = {}
        for m, c in p.items():
            if c:
                e = expos.get(m)
                if e is None:
                    e = expos[m] = tuple(m // x % B for x in w)
                terms[e] = c
        return self._zero._like(terms, denom)

    def partials(self, p: Packed, nvars: int) -> dict[int, Packed]:
        """{s: d p / d x_s} for each s < nvars where p has x_s, in increasing s, in one pass over p;
        digits from base**nvars up (k, or a slot tag) are constants and may exceed the base."""
        B, w, top = self.base, self.weights, self.base**nvars
        out: dict[int, Packed] = {}
        for m, c in p.items():
            r, s = m % top, 0
            while r:
                r, e = divmod(r, B)
                if e:
                    out.setdefault(s, {})[m - w[s]] = c * e
                s += 1
        return dict(sorted(out.items()))


def mul_into(acc: Packed, p: Packed, q: Packed, c: int = 1) -> Packed:
    """Add c p q to acc and return it; a cancelled coefficient stays as a 0."""
    for m1, c1 in p.items():
        c1 *= c
        for m2, c2 in q.items():
            m = m1 + m2
            acc[m] = acc.get(m, 0) + c1 * c2
    return acc


def add_into(acc: Packed, p: Packed, c: int = 1) -> Packed:
    """Add c p to acc and return it; a cancelled coefficient stays as a 0."""
    for m, v in p.items():
        acc[m] = acc.get(m, 0) + c * v
    return acc


def bracket_into(acc: Packed, a: tuple, b: tuple, c: int = 1) -> Packed:
    """Add c (a^s d_s B - b^s d_s A) to acc and return it, for (co, d) pairs a and b:
    co[s] multiplies d_s, d = {s: d_s A} is the ``Packing.partials`` of one slot A or of
    all slots stacked.  The sum is antisymmetric term by term: swapping a and b negates it."""
    for (co, _), (_, d), sign in ((a, b, c), (b, a, -c)):
        for s, dy in d.items():
            mul_into(acc, co[s], dy, sign)
    return acc


def _nonzero(p: Packed) -> Packed:
    return {m: c for m, c in p.items() if c}


def mat_mul(A: Mat, B: Mat) -> Mat:
    """A B over sparse rows; B has a row for every column that A uses."""
    out = []
    for row in A:
        acc: dict[int, Packed] = {}
        for l, p in row.items():
            for j, q in B[l].items():
                mul_into(acc.setdefault(j, {}), p, q)
        out.append({j: t for j, s in acc.items() if (t := _nonzero(s))})
    return out


def matrix_powers(first: Mat, M: Mat, bound: int) -> list[Mat]:
    """[first, first M, first M^2, ...] through the last nonzero product.

    A nonzero first M^m with m > ``bound`` raises NilpotencyError, since the
    block structure guarantees truncation.
    """
    powers = [first]
    power = mat_mul(first, M)
    while any(power):
        if len(powers) > bound:
            raise NilpotencyError("matrix is not nilpotent within the bound")
        powers.append(power)
        power = mat_mul(power, M)
    return powers


def matrix_series(series: Sequence[Fraction], powers: list[Mat], denom: int) -> tuple[Mat, int]:
    """(N, L) with N / L = sum_m series[m] powers[m] / denom^m.

    ``powers[m]`` is denom^m times the m-th power, as ``matrix_powers`` gives
    it for a matrix scaled by denom; L is the LCM of the denominators of the
    weights series[m] / denom^m.
    """
    if len(series) < len(powers):
        raise NilpotencyError("series truncated before the matrix power vanished")
    weights = [Fraction(c) / denom**m for m, c in enumerate(series[: len(powers)])]
    L = math.lcm(*(w.denominator for w in weights))
    out: list[dict[int, Packed]] = [{} for _ in powers[0]]
    for w, power in zip(weights, powers):
        if not w:
            continue
        w = w.numerator * (L // w.denominator)
        for acc, row in zip(out, power):
            for j, p in row.items():
                add_into(acc.setdefault(j, {}), p, w)
    return [{j: t for j, s in row.items() if (t := _nonzero(s))} for row in out], L


# ---------------------------------------------------------------------------
# Bernoulli generating function
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli_series(depth: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Coefficients of u/(e^u - 1) and (e^u - 1)/u through u^depth, computed once per depth."""
    bern = [Fraction(1)]
    for m in range(1, depth + 1):
        # sum_{j<=m} binom(m+1, j) B_j = 0
        acc = Fraction(0)
        binom = 1  # binom(m+1, 0)
        for j in range(m):
            acc += binom * bern[j]
            binom = binom * (m + 1 - j) // (j + 1)
        bern.append(-acc / binom)
    fact = [Fraction(1)]
    for m in range(1, depth + 2):
        fact.append(fact[-1] * m)
    return tuple(bern[m] / fact[m] for m in range(depth + 1)), tuple(1 / fact[m + 1] for m in range(depth + 1))


# ---------------------------------------------------------------------------
# realization polynomials
# ---------------------------------------------------------------------------

@dataclass
class RealizationPolys:
    """The six polynomial families of the differential/free-field realization."""

    V_plus: list[list[Poly]]      # [alpha][beta]
    V_cartan: list[list[Poly]]    # [i][beta]
    V_minus: list[list[Poly]]     # [alpha][beta]
    P: list[list[Poly]]           # [alpha][j]
    Q: list[list[Poly]]           # [alpha][beta]  (row -alpha, col -beta)
    S: list[list[Poly]]           # [alpha][beta]
    V_plus_inv: list[list[Poly]]  # B(C)^{-1} on the raising block


def realization_polynomials(rs: RootSystem, tab: StructureTable) -> RealizationPolys:
    C = adjoint_matrix(tab)
    np_ = rs.n_pos
    r = rs.rank
    d = len(C)
    height_bound = sum(rs.theta) * 2 + 2
    depth = min(d, 2 * sum(rs.theta) + 1) + 1

    bser, binv = bernoulli_series(depth)
    bser_neg = [-c if m % 2 else c for m, c in enumerate(bser)]
    exp_neg = [Fraction((-1) ** m, math.factorial(m)) for m in range(depth + 1)]

    # an entry of C^m is homogeneous of degree m; powers are kept through
    # m = height_bound, so no exponent of V_- = e^{-C} B(-C) reaches the base
    D = math.lcm(*(p.den for row in C for p in row))
    pk = Packing(np_, 2 * height_bound + 1, D)
    N = [{j: pk.pack(p) for j, p in enumerate(row) if not p.is_zero} for row in C]
    pos_powers = matrix_powers([{i: {0: 1}} for i in range(np_)], N[:np_], height_bound)
    neg_powers = matrix_powers([{np_ + r + i: {0: 1}} for i in range(np_)], N, height_bound)
    BC, l_bc = matrix_series(bser, pos_powers, D)
    Bneg, l_bneg = matrix_series(bser_neg, pos_powers, D)
    Binv, l_binv = matrix_series(binv, pos_powers, D)
    lower, l_lower = matrix_series(exp_neg, neg_powers, D)  # rows -alpha of e^{-C}
    # V_minus = (e^{-C})_-^gamma B(-C)_gamma^beta, gamma over positive roots
    V_minus = mat_mul([{j: p for j, p in row.items() if j < np_} for row in lower], Bneg)

    def family(rows: Mat, cols: range, denom: int) -> list[list[Poly]]:
        return [[pk.unpack(row.get(j, {}), denom) for j in cols] for row in rows]

    pos, cartan, neg = range(np_), range(np_, np_ + r), range(np_ + r, d)
    return RealizationPolys(
        V_plus=family(BC, pos, l_bc),
        V_cartan=[[-p for p in row[:np_]] for row in C[np_:np_ + r]],
        V_minus=family(V_minus, pos, l_lower * l_bneg),
        P=family(lower, cartan, l_lower),
        Q=family(lower, neg, l_lower),
        S=[[-p for p in row] for row in family(Bneg, pos, l_bneg)],
        V_plus_inv=family(Binv, pos, l_binv),
    )


def anomalous_term(rs: RootSystem, polys: RealizationPolys) -> list[list[Poly]]:
    """The k-free part of the normal-ordering corrections to the lowering currents.

    F_{alpha beta} = (V_+^{-1})_beta^mu  d_sigma V_mu^gamma  d_gamma V_{-alpha}^sigma;
    the level part (2k/alpha^2) (V_+^{-1})_beta^alpha of the d gamma^beta
    row is added by ``currents.CurrentSet.rows``.  The inner sum over
    (sigma, gamma) is formed once per (alpha, mu), over the integers.
    """
    np_ = rs.n_pos
    fams = (polys.V_plus, polys.V_minus, polys.V_plus_inv)
    pk = Packing.fit(np_, [p for fam in fams for row in fam for p in row], factors=3)
    V_plus, V_minus, V_plus_inv = ([[pk.pack(p) for p in row] for row in fam] for fam in fams)
    # {s: d_s V_+[mu][g]} per (mu, g) and {g: d_g V_-[a][s]} per (a, s)
    dV_plus, dV_minus = ([[pk.partials(p, np_) for p in row] for row in fam] for fam in (V_plus, V_minus))
    out: list[list[Poly]] = []
    for dm in dV_minus:
        inner: dict[int, Packed] = {}
        for mu, dp in enumerate(dV_plus):
            acc: Packed = {}
            for g, row in enumerate(dp):
                for s, p1 in row.items():
                    if p2 := dm[s].get(g):
                        mul_into(acc, p1, p2)
            if acc := _nonzero(acc):
                inner[mu] = acc
        row_out = []
        for row in V_plus_inv:
            acc = {}
            for mu, t in inner.items():
                mul_into(acc, row[mu], t)
            row_out.append(pk.unpack(acc, pk.denom**3))
        out.append(row_out)
    return out
