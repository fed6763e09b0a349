"""Polynomials in triangular coordinates and the nilpotent-matrix machinery.

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

plus the quantum correction F supplying the normal-ordering terms of the
lowering currents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .coeffs import Pol, RatFunc
from .liealg import Label, RootSystem, StructureTable

Expo = tuple[int, ...]  # one slot per positive root


class NilpotencyError(RuntimeError):
    """A series argument failed to truncate; signals a convention bug."""


# ---------------------------------------------------------------------------
# sparse polynomials in the x^alpha
# ---------------------------------------------------------------------------

class Poly:
    """Multivariate polynomial in the triangular coordinates x^alpha.

    Terms map exponent tuples (indexed by the fixed positive-root order) to
    RatFunc coefficients.  No coefficient is ever zero (the zero polynomial
    has no terms), so equality is structural.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[dict[Expo, RatFunc]] = None):
        self.nvars = nvars
        self.terms: dict[Expo, RatFunc] = terms or {}

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars)

    @staticmethod
    def const(nvars: int, c) -> "Poly":
        c = RatFunc.of(c)
        if c.is_zero:
            return Poly(nvars)
        return Poly(nvars, {(0,) * nvars: c})

    @staticmethod
    def var(nvars: int, idx: int, c=1) -> "Poly":
        e = tuple(1 if j == idx else 0 for j in range(nvars))
        c = RatFunc.of(c)
        return Poly(nvars, {e: c} if not c.is_zero else {})

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s.is_zero:
                    del out[e]
                else:
                    out[e] = s
        return Poly(self.nvars, out)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.terms or not other.terms:
            return Poly(self.nvars)
        out: dict[Expo, RatFunc] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = out.get(e)
                if s is None:
                    out[e] = c
                else:
                    s = s + c
                    if s.is_zero:
                        del out[e]
                    else:
                        out[e] = s
        return Poly(self.nvars, out)

    def scale(self, c) -> "Poly":
        c = RatFunc.of(c)
        if c.is_zero:
            return Poly(self.nvars)
        return Poly(self.nvars, {e: v * c for e, v in self.terms.items()})

    def deriv(self, idx: int) -> "Poly":
        out: dict[Expo, RatFunc] = {}
        for e, c in self.terms.items():
            if e[idx]:
                e2 = tuple(v - 1 if j == idx else v for j, v in enumerate(e))
                nc = c * e[idx]
                s = out.get(e2)
                out[e2] = nc if s is None else s + nc
        return Poly(self.nvars, {e: c for e, c in out.items() if not c.is_zero})

    def flip_sign_vars(self) -> "Poly":
        """Substitute x -> -x on every variable."""
        out = {}
        for e, c in self.terms.items():
            out[e] = -c if sum(e) % 2 else c
        return Poly(self.nvars, out)

    def eval_zero(self) -> RatFunc:
        return self.terms.get((0,) * self.nvars, RatFunc.zero())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(sorted((e, c.key()) for e, c in self.terms.items())))

    def sorted_terms(self) -> list[tuple[Expo, RatFunc]]:
        """Graded-lex order over the fixed positive-root variable order."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), tuple(-v for v in t[0])))

    def text(self, var_names: Sequence[str]) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                (f"x{var_names[i]}" if p == 1 else f"x{var_names[i]}^{p}")
                for i, p in enumerate(e)
                if p
            )
            cs = c.text()
            if mono:
                bits.append(mono if cs == "1" else ("-" + mono if cs == "-1" else f"({cs})*{mono}"))
            else:
                bits.append(cs if ("+" not in cs[1:] and "-" not in cs[1:]) else f"({cs})")
        return " + ".join(bits).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Poly({self.text([str(i) for i in range(self.nvars)])})"


# ---------------------------------------------------------------------------
# matrices of Poly over the full basis (+ roots, Cartan, - roots)
# ---------------------------------------------------------------------------

@dataclass
class CMatrix:
    """Adjoint-representation matrix of the generic raising element.

    Rows and columns run over the basis order [e_alpha..., h_i..., f_alpha...].
    """

    rs: RootSystem
    entries: list[list[Poly]]

    @property
    def dim(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> Poly:
        return self.entries[i][j]


def basis_labels(rs: RootSystem) -> list[Label]:
    out: list[Label] = [("e", a) for a in rs.pos_roots]
    out += [("h", i) for i in range(rs.rank)]
    out += [("f", a) for a in rs.pos_roots]
    return out


def adjoint_matrix(tab: StructureTable, rs: RootSystem) -> CMatrix:
    """C_a^b(x) = -x^beta f_{beta a}^b, summed over positive beta."""
    labels = basis_labels(rs)
    index = {lab: i for i, lab in enumerate(labels)}
    nv = rs.n_pos
    d = len(labels)
    entries = [[Poly.zero(nv) for _ in range(d)] for _ in range(d)]
    for bi, beta in enumerate(rs.pos_roots):
        for a in labels:
            for c, v in tab.bracket(("e", beta), a).items():
                # bracket gives f_{beta a}^c
                entries[index[a]][index[c]] = entries[index[a]][index[c]] + Poly.var(
                    nv, bi, -v
                )
    return CMatrix(rs, entries)


def _mat_mul(A: list[list[Poly]], B: list[list[Poly]]) -> list[list[Poly]]:
    n = len(A)
    m = len(B[0])
    kk = len(B)
    out = [[None] * m for _ in range(n)]  # type: ignore[list-item]
    for i in range(n):
        Ai = A[i]
        for j in range(m):
            acc = None
            for l in range(kk):
                if Ai[l].is_zero or B[l][j].is_zero:
                    continue
                p = Ai[l] * B[l][j]
                acc = p if acc is None else acc + p
            out[i][j] = acc if acc is not None else Poly.zero(Ai[0].nvars if Ai else 0)
    return out  # type: ignore[return-value]


def _mat_is_zero(A: list[list[Poly]]) -> bool:
    return all(p.is_zero for row in A for p in row)


def matrix_function(
    series: Sequence[Fraction], M: list[list[Poly]], bound: Optional[int] = None
) -> list[list[Poly]]:
    """Sum series[m] * M^m until M^m vanishes (M must be nilpotent).

    ``bound`` caps the number of powers tried; exceeding it raises
    NilpotencyError since the block structure guarantees truncation.
    """
    d = len(M)
    nv = M[0][0].nvars if d else 0
    bound = bound if bound is not None else d + 1
    out = [
        [Poly.const(nv, series[0]) if i == j else Poly.zero(nv) for j in range(d)]
        for i in range(d)
    ]
    power = None
    for m in range(1, len(series)):
        power = M if power is None else _mat_mul(power, M)
        if _mat_is_zero(power):
            return out
        if m > bound:
            raise NilpotencyError("series argument is not nilpotent within the dimension bound")
        if series[m]:
            for i in range(d):
                for j in range(d):
                    if not power[i][j].is_zero:
                        out[i][j] = out[i][j] + power[i][j].scale(series[m])
    # make sure we actually truncated
    if power is not None and not _mat_is_zero(_mat_mul(power, M)):
        raise NilpotencyError("series truncated before the matrix power vanished")
    return out


# ---------------------------------------------------------------------------
# Bernoulli generating function
# ---------------------------------------------------------------------------

def bernoulli_series(depth: int) -> tuple[list[Fraction], list[Fraction]]:
    """Coefficient lists of u/(e^u - 1) and (e^u - 1)/u through u^depth."""
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
    direct = [bern[m] / fact[m] for m in range(depth + 1)]
    inverse = [Fraction(1) / fact[m + 1] for m in range(depth + 1)]
    return direct, inverse


# ---------------------------------------------------------------------------
# realization polynomials
# ---------------------------------------------------------------------------

@dataclass
class RealizationPolys:
    """The six polynomial families of the differential/free-field realization."""

    rs: RootSystem
    V_plus: list[list[Poly]]      # [alpha][beta]
    V_cartan: list[list[Poly]]    # [i][beta]
    V_minus: list[list[Poly]]     # [alpha][beta]
    P: list[list[Poly]]           # [alpha][j]
    Q: list[list[Poly]]           # [alpha][beta]  (row -alpha, col -beta)
    S: list[list[Poly]]           # [alpha][beta]
    V_plus_inv: list[list[Poly]]  # B(C)^{-1} on the raising block


def realization_polynomials(rs: RootSystem, tab: StructureTable) -> RealizationPolys:
    C = adjoint_matrix(tab, rs)
    np_ = rs.n_pos
    r = rs.rank
    d = C.dim
    height_bound = sum(rs.theta) * 2 + 2
    depth = min(d, 2 * sum(rs.theta) + 1) + 1

    bser, binv = bernoulli_series(depth)
    exp_neg = [Fraction(-1) ** m / _factorial(m) for m in range(depth + 1)]

    BC = matrix_function(bser, C.entries, bound=height_bound)
    negC = [[-p for p in row] for row in C.entries]
    BnegC = matrix_function(bser, negC, bound=height_bound)
    EnegC = matrix_function(exp_neg, C.entries, bound=height_bound)
    Binv = matrix_function(binv, C.entries, bound=height_bound)

    V_plus = [[BC[a][b] for b in range(np_)] for a in range(np_)]
    V_cartan = [[-C.entries[np_ + i][b] for b in range(np_)] for i in range(r)]
    # V_minus = (e^{-C})_-^gamma B(-C)_gamma^beta, gamma over positive roots
    V_minus = []
    P = []
    Q = []
    for ai in range(np_):
        row_idx = np_ + r + ai
        vrow = []
        for b in range(np_):
            acc = Poly.zero(np_)
            for g in range(np_):
                if EnegC[row_idx][g].is_zero or BnegC[g][b].is_zero:
                    continue
                acc = acc + EnegC[row_idx][g] * BnegC[g][b]
            vrow.append(acc)
        V_minus.append(vrow)
        P.append([EnegC[row_idx][np_ + j] for j in range(r)])
        Q.append([EnegC[row_idx][np_ + r + b] for b in range(np_)])
    S = [[-BnegC[a][b] for b in range(np_)] for a in range(np_)]
    V_plus_inv = [[Binv[a][b] for b in range(np_)] for a in range(np_)]
    return RealizationPolys(rs, V_plus, V_cartan, V_minus, P, Q, S, V_plus_inv)


def _factorial(m: int) -> Fraction:
    out = Fraction(1)
    for i in range(2, m + 1):
        out *= i
    return out


def anomalous_term(rs: RootSystem, polys: RealizationPolys) -> list[list[Poly]]:
    """F_{alpha beta}: the normal-ordering corrections to the lowering currents.

    F_{alpha beta} = (2k/alpha^2) (V_+^{-1})_beta^alpha
                     + (V_+^{-1})_beta^mu  d_sigma V_mu^gamma  d_gamma V_{-alpha}^sigma
    """
    np_ = rs.n_pos
    k = RatFunc.k()
    # precompute derivative tables
    dV_plus = [
        [[polys.V_plus[mu][g].deriv(s) for g in range(np_)] for s in range(np_)]
        for mu in range(np_)
    ]
    dV_minus = [
        [[polys.V_minus[a][s].deriv(g) for s in range(np_)] for g in range(np_)]
        for a in range(np_)
    ]
    out: list[list[Poly]] = []
    for a, alpha in enumerate(rs.pos_roots):
        row: list[Poly] = []
        pref = RatFunc.of(2) * k / RatFunc.of(rs.root_norm2(alpha))
        for b in range(np_):
            acc = polys.V_plus_inv[b][a].scale(pref)
            for mu in range(np_):
                if polys.V_plus_inv[b][mu].is_zero:
                    continue
                inner = Poly.zero(np_)
                for s in range(np_):
                    for g in range(np_):
                        p1 = dV_plus[mu][s][g]
                        if p1.is_zero:
                            continue
                        p2 = dV_minus[a][g][s]
                        if p2.is_zero:
                            continue
                        inner = inner + p1 * p2
                if not inner.is_zero:
                    acc = acc + polys.V_plus_inv[b][mu] * inner
            row.append(acc)
        out.append(row)
    return out
