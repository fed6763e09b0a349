"""Exact scalar arithmetic for the whole engine.

``SparsePoly`` is the one sparse polynomial arithmetic over Q; ``Pol`` (in
k and n) and ``polymat.Poly`` (the realization polynomials, which are free
of k) share it.  Every coefficient of the field layer -- OPE pole
coefficients, current coefficients, series prefactors -- is a ``RatFunc``, a
rational function of the level symbol ``k`` and an integer-spaced shift
symbol ``n``.
The derived symbol ``t = k + h_vee`` (root normalization theta^2 = 2, so the
level equals the central extension) is handled as an alias: internally
everything is a polynomial in ``k`` and ``n``; emitters may re-express in
``t`` on demand.

Denominators only ever arise from a handful of explicit divisions (the
Sugawara 1/2t, vertex-derivative 1/t factors and the linear factors
(-2t-2n), (-2t-2n-1) and 2(n+1) of the series prefactor recursion), so they
are kept as an explicit factor list instead of running a general
multivariate gcd.  Every RatFunc is canonical: its denominator is a sorted
tuple of distinct monic *linear* factors with positive powers, none of which
divides the numerator.  Linear forms are irreducible, so two values are
equal exactly when their numerators and denominators are; equality and
hashing are structural, and division by a factor of degree above 1 raises
``ValueError``.

Cancellation is tried only where it can happen.  In a product of canonical
values only one operand's denominator can cancel against the other's
numerator; a sum over an equal denominator only needs cancelling.  Each
factor is divided out by synthetic division (``_divide_linear``, Horner's
rule in the factor's leading variable), and ``_cancel`` divides by each
factor as often as it goes.  Generic long division is kept as the test
oracle (``tests/oracles.py``), with the merge-and-divide route every product
and sum took before.

A polynomial coefficient is an int when integral, else a Fraction with a
denominator above 1: integral coefficients multiply and add as ints, and as
``3 == Fraction(3)`` (equal hash and text) no comparison or output changes.
A float is refused (``TypeError``); coefficient division is ``Fraction(a, b)``.

A field coefficient has one stored form (``canonical``): a rational value
is an int or a Fraction, as a polynomial coefficient is, and a RatFunc only
stores a value in which k or n appears.  A RatFunc mixes with an int or a
Fraction in every arithmetic operation, and a rational RatFunc compares and
hashes as its number, so the two spellings of one value are one dict key.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Optional, Union

Monomial = tuple[int, int]  # (power of k, power of n)

Scalar = Union[int, Fraction, "RatFunc"]


# ---------------------------------------------------------------------------
# sparse polynomials over Q
# ---------------------------------------------------------------------------

def _lean(c) -> Union[int, Fraction]:
    """A rational as an int when it is integral, else as a Fraction; a float
    is inexact and refused with ``TypeError``."""
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError(f"inexact coefficient {c!r}: use an int or a Fraction")
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _lean_terms(terms: dict) -> dict:
    """``terms`` with each integral Fraction replaced by its int, in place:
    one pass per result instead of one check per product."""
    for m, c in terms.items():
        if type(c) is Fraction and c.denominator == 1:
            terms[m] = c.numerator
    return terms


class SparsePoly:
    """Sparse polynomial over Q: exponent tuples mapped to nonzero canonical coefficients.

    The one implementation of the ring arithmetic shared by ``Pol`` (in k and
    n) and ``polymat.Poly`` (in the triangular coordinates).  No coefficient
    is ever zero, so equality and hashing are structural.  Values are never
    mutated after construction.  Each subclass defines ``_like(terms)``, which
    builds a value of its own shape, and names ``__mul__`` in its own
    namespace, where ``perfbench/tracer.py`` wraps it as a separate span.
    """

    __slots__ = ("terms", "_hash")

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return self._like(_lean_terms(out))

    def __neg__(self):
        return self._like({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.terms or not other.terms:
            return self._like({})
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                c = c1 * c2
                s = out.get(m)
                if s is None:
                    out[m] = c
                else:
                    s = s + c
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        return self._like(_lean_terms(out))

    def scale(self, c):
        """Multiply by a rational; a ``RatFunc`` or a float is refused with ``TypeError``."""
        c = _lean(c)
        if not c:
            return self._like({})
        return self._like(_lean_terms({m: v * c for m, v in self.terms.items()}))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        """Nonzero, as for int, Fraction and ``RatFunc``."""
        return bool(self.terms)

    def frozen(self) -> tuple:
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.frozen())
        return self._hash


class Pol(SparsePoly):
    """Sparse bivariate polynomial in the symbols k and n over Q (``SparsePoly``)."""

    __slots__ = ()

    def __init__(self, terms: Optional[dict[Monomial, Union[int, Fraction]]] = None):
        self.terms: dict[Monomial, Union[int, Fraction]] = terms if terms is not None else {}
        self._hash: Optional[int] = None

    def _like(self, terms: dict) -> "Pol":
        return Pol(terms)

    __mul__ = SparsePoly.__mul__

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c) -> "Pol":
        c = _lean(c)
        return Pol({(0, 0): c} if c else {})

    @staticmethod
    def k(power: int = 1) -> "Pol":
        return Pol({(power, 0): 1})

    @staticmethod
    def n(power: int = 1) -> "Pol":
        return Pol({(0, power): 1})

    @staticmethod
    def t(hvee: int) -> "Pol":
        """The shifted level t = k + h_vee."""
        return Pol({(1, 0): 1, (0, 0): _lean(hvee)})

    # -- ring operations ---------------------------------------------------

    def __pow__(self, e: int) -> "Pol":
        out = Pol.const(1)
        for _ in range(e):
            out = out * self
        return out

    # -- queries -----------------------------------------------------------

    @property
    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and (0, 0) in self.terms)

    def const_value(self) -> Union[int, Fraction]:
        if not self.terms:
            return 0
        if not self.is_const:
            raise ValueError("polynomial is not constant: %s" % self)
        return self.terms[(0, 0)]

    # -- substitutions -----------------------------------------------------

    def subs_k(self, value) -> "Pol":
        return self._subs(0, value)

    def subs_n(self, value) -> "Pol":
        return self._subs(1, value)

    def _subs(self, var: int, value) -> "Pol":
        """Substitute ``value`` for k (var 0) or n (var 1)."""
        value = _lean(value)
        out: dict = {}
        for m, c in self.terms.items():
            rest = (0, m[1]) if var == 0 else (m[0], 0)
            out[rest] = out.get(rest, 0) + c * value ** m[var]
        return Pol(_lean_terms({m: c for m, c in out.items() if c}))

    def shift_n(self, delta: int) -> "Pol":
        """Substitute n -> n + delta."""
        if delta == 0:
            return self
        out: dict = {}
        for (a, b), c in self.terms.items():
            # binomial expansion of (n + delta)^b
            binom = 1
            for j in range(b + 1):
                m = (a, b - j)
                out[m] = out.get(m, 0) + c * binom * delta ** j
                binom = binom * (b - j) // (j + 1)
        return Pol(_lean_terms({m: c for m, c in out.items() if c}))

    # -- presentation ------------------------------------------------------

    def leading_coeff(self) -> Union[int, Fraction]:
        if not self.terms:
            return 0
        return self.terms[max(self.terms)]

    def text(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (a, b), c in sorted(self.terms.items(), reverse=True):
            factors = []
            if a:
                factors.append("k" if a == 1 else f"k^{a}")
            if b:
                factors.append("n" if b == 1 else f"n^{b}")
            if not factors:
                body = str(c)
            elif c == 1:
                body = "*".join(factors)
            elif c == -1:
                body = "-" + "*".join(factors)
            else:
                body = str(c) + "*" + "*".join(factors)
            bits.append(body)
        out = bits[0]
        for b in bits[1:]:
            out += ("+" + b) if not b.startswith("-") else b
        return out

    def __repr__(self) -> str:
        return f"Pol({self.text()})"


# ---------------------------------------------------------------------------
# cancellation of monic linear factors
# ---------------------------------------------------------------------------

def _divide_linear(num: Pol, p: Pol) -> Optional[Pol]:
    """num / p for a monic linear p, or None when p leaves a remainder.

    Synthetic division (Horner's rule) in the leading variable x of
    p = x + a y + b, over Q[y]: x = k and y = n when p involves k; otherwise
    x = n with a = 0, which divides the polynomial in n at each power of k.
    """
    t = p.terms
    x = 0 if (1, 0) in t else 1
    a = t.get((0, 1), 0) if x == 0 else 0
    b = t.get((0, 0), 0)
    rows: dict[int, dict] = {}  # power of x -> {power of y: coefficient}
    for m, c in num.terms.items():
        rows.setdefault(m[x], {})[m[1 - x]] = c
    out: dict = {}
    carry: dict = {}
    for i in range(max(rows, default=0), -1, -1):
        cur = dict(rows.get(i, ()))
        for j, c in carry.items():  # cur -= (a y + b) * carry
            if a:
                cur[j + 1] = cur.get(j + 1, 0) - a * c
            if b:
                cur[j] = cur.get(j, 0) - b * c
        carry = {j: c for j, c in cur.items() if c}
        if i:
            for j, c in carry.items():
                out[(i - 1, j) if x == 0 else (j, i - 1)] = c
    # the last carry is the remainder
    return None if carry else Pol(_lean_terms(out))


def _cancel(num: Pol, den) -> tuple[Pol, tuple[tuple[Pol, int], ...]]:
    """Divide ``num`` by each factor of ``den`` (monic linear, with its power)
    as often as it divides; the quotient and the factors left over."""
    left = []
    for p, e in den:
        while e:
            q = _divide_linear(num, p)
            if q is None:
                break
            num, e = q, e - 1
        if e:
            left.append((p, e))
    return num, tuple(left)


def _factor_order(factor: tuple[Pol, int]) -> tuple:
    return factor[0].frozen()


def _merge_den(d1: tuple, d2: tuple) -> tuple:
    """The factor list of the product of two canonical denominators."""
    if not d1 or not d2:
        return d1 or d2
    merged = dict(d1)
    for p, e in d2:
        merged[p] = merged.get(p, 0) + e
    return tuple(sorted(merged.items(), key=_factor_order))


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RatFunc:
    """Quotient of a Pol by a product of monic linear Pol factors.

    ``_make`` puts every value in canonical form (module docstring): the
    factored denominator is merged, made monic, sorted and reduced against
    the numerator by exact division only, without a general gcd.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Pol, den: Optional[tuple[tuple[Pol, int], ...]] = None):
        self.num = num
        self.den = den if den is not None else ()
        self._hash: Optional[int] = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(value) -> "RatFunc":
        if isinstance(value, RatFunc):
            return value
        if isinstance(value, Pol):
            return RatFunc(value)
        return RatFunc(Pol.const(value))

    @staticmethod
    def zero() -> "RatFunc":
        return RatFunc(Pol())

    @staticmethod
    def one() -> "RatFunc":
        return RatFunc(Pol.const(1))

    @staticmethod
    def k() -> "RatFunc":
        return RatFunc(Pol.k())

    @staticmethod
    def n() -> "RatFunc":
        return RatFunc(Pol.n())

    @staticmethod
    def t(hvee: int) -> "RatFunc":
        return RatFunc(Pol.t(hvee))

    @staticmethod
    def _make(num: Pol, den: Iterable[tuple[Pol, int]]) -> "RatFunc":
        if num.is_zero:
            return RatFunc(Pol())
        scale = 1
        merged: dict[Pol, int] = {}
        for p, e in den:
            if e == 0:
                continue
            if p.is_const:
                scale *= p.const_value() ** e
                continue
            if any(a + b > 1 for a, b in p.terms):
                raise ValueError(f"denominator factor {p.text()} is not linear")
            lc = p.leading_coeff()
            if lc != 1:
                scale *= lc ** e
                p = p.scale(Fraction(1, lc))
            merged[p] = merged.get(p, 0) + e
        if scale != 1:
            num = num.scale(Fraction(1, scale))
        return RatFunc(*_cancel(num, sorted(merged.items(), key=_factor_order)))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "RatFunc":
        other = RatFunc.of(other)
        if self.num.is_zero:
            return other
        if other.num.is_zero:
            return self
        if self.den == other.den:
            # the denominator is canonical already: only cancellation is left
            return RatFunc(*_cancel(self.num + other.num, self.den))
        sden, oden = dict(self.den), dict(other.den)
        common: list[tuple[Pol, int]] = []
        lh = Pol.const(1)
        rh = Pol.const(1)
        for p in sden.keys() | oden.keys():
            es, eo = sden.get(p, 0), oden.get(p, 0)
            e = max(es, eo)
            common.append((p, e))
            for _ in range(e - es):
                lh = lh * p
            for _ in range(e - eo):
                rh = rh * p
        return RatFunc._make(self.num * lh + other.num * rh, common)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        return self + (-RatFunc.of(other))

    def __rsub__(self, other) -> "RatFunc":
        return RatFunc.of(other) + (-self)

    def __mul__(self, other) -> "RatFunc":
        if type(other) is int or type(other) is Fraction:
            return self._scaled(other)
        other = RatFunc.of(other)
        if self.num.is_zero or other.num.is_zero:
            return RatFunc(Pol())
        # scaling by a plain constant keeps the other operand canonical
        if other.is_rational:
            return self._scaled(other.num.terms[(0, 0)])
        if self.is_rational:
            return other._scaled(self.num.terms[(0, 0)])
        # both operands are canonical and linear factors are prime, so only
        # one operand's denominator can cancel against the other's numerator
        num, oden = _cancel(self.num, other.den)
        onum, den = _cancel(other.num, self.den)
        return RatFunc(num * onum, _merge_den(den, oden))

    def _scaled(self, c) -> "RatFunc":
        if c == 1:
            return self
        if not c:
            return RatFunc(Pol())
        return RatFunc(self.num.scale(c), self.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = RatFunc.of(other)
        if other.num.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        num = self.num
        for p, e in other.den:
            num = num * p ** e
        return RatFunc._make(num, self.den + ((other.num, 1),))

    def __rtruediv__(self, other) -> "RatFunc":
        return RatFunc.of(other) / self

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        """Nonzero, as for int and Fraction, which coefficients mix with."""
        return not self.num.is_zero

    @property
    def is_rational(self) -> bool:
        return self.num.is_const and not self.den

    def key(self) -> tuple:
        """Sortable structural key; equal exactly when the values are equal."""
        return (self.num.frozen(), tuple((p.frozen(), e) for p, e in self.den))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (RatFunc, Pol, int, Fraction)):
            return NotImplemented
        other = RatFunc.of(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        """A rational value hashes as its int or Fraction, which it equals."""
        if self._hash is None:
            self._hash = hash(canonical(self) if self.is_rational else self.key())
        return self._hash

    # -- substitutions -----------------------------------------------------

    def subs_k(self, value) -> "RatFunc":
        return self._subs(Pol.subs_k, "k", value)

    def subs_n(self, value) -> "RatFunc":
        return self._subs(Pol.subs_n, "n", value)

    def _subs(self, sub, name: str, value) -> "RatFunc":
        den: list[tuple[Pol, int]] = []
        for p, e in self.den:
            q = sub(p, value)
            if q.is_zero:
                raise ZeroDivisionError(f"denominator vanishes at {name} = {value}")
            den.append((q, e))
        return RatFunc._make(sub(self.num, value), den)

    def shift_n(self, delta: int) -> "RatFunc":
        if delta == 0:
            return self
        return RatFunc._make(
            self.num.shift_n(delta), [(p.shift_n(delta), e) for p, e in self.den]
        )

    # -- presentation ------------------------------------------------------

    def text(self) -> str:
        s = self.num.text()
        if not self.den:
            return s
        bits = []
        for p, e in self.den:
            f = "(" + p.text() + ")"
            bits.append(f if e == 1 else f + f"^{e}")
        if len(self.num.terms) > 1:
            s = "(" + s + ")"
        return s + "/(" + "*".join(bits) + ")" if len(bits) > 1 else s + "/" + bits[0]

    def __repr__(self) -> str:
        return f"RatFunc({self.text()})"


def canonical(c) -> Scalar:
    """The stored form of a field coefficient: an int when integral, a
    Fraction with a denominator above 1 when rational, else a RatFunc; a
    float is refused with ``TypeError``."""
    if type(c) is not RatFunc:
        return _lean(c)
    terms = c.num.terms
    if c.den or len(terms) > 1 or (terms and (0, 0) not in terms):
        return c
    return terms.get((0, 0), 0)


# ---------------------------------------------------------------------------
# affine exponents  u*t + v + w*n
# ---------------------------------------------------------------------------

class Exp:
    """Exponent of a symbolic power factor: u*t + v + w*n with rational u, v, w.

    Integral components are ints, as in ``canonical``, and the key and
    hash are computed once: exponents are compared and hashed on every term
    lookup of the field layer.
    """

    __slots__ = ("u", "v", "w", "_key", "_hash")

    def __init__(self, u=0, v=0, w=0):
        self.u = u = _lean(u)
        self.v = v = _lean(v)
        self.w = w = _lean(w)
        self._key = (u, v, w)
        self._hash = hash(self._key)

    @staticmethod
    def const(v) -> "Exp":
        return Exp(0, v, 0)

    def __add__(self, other) -> "Exp":
        if isinstance(other, Exp):
            return Exp(self.u + other.u, self.v + other.v, self.w + other.w)
        return Exp(self.u, self.v + other, self.w)

    def __sub__(self, other) -> "Exp":
        if isinstance(other, Exp):
            return Exp(self.u - other.u, self.v - other.v, self.w - other.w)
        return Exp(self.u, self.v - other, self.w)

    def shift_n(self, delta: int) -> "Exp":
        return Exp(self.u, self.v + self.w * delta, self.w)

    def as_ratfunc(self, hvee: int) -> RatFunc:
        terms = (((1, 0), self.u), ((0, 0), _lean(self.u * hvee + self.v)), ((0, 1), self.w))
        return RatFunc(Pol({m: c for m, c in terms if c}))

    def subs_t(self, value) -> Optional[Union[int, Fraction]]:
        """Numeric value at t = value; None when n still appears."""
        if self.w != 0:
            return None
        return self.u * _lean(value) + self.v

    @property
    def is_const(self) -> bool:
        return not self.u and not self.w

    def key(self) -> tuple:
        return self._key

    def __eq__(self, other) -> bool:
        return type(other) is Exp and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def text(self) -> str:
        bits = []
        if self.u:
            bits.append("t" if self.u == 1 else ("-t" if self.u == -1 else f"{self.u}t"))
        if self.w:
            s = "n" if self.w == 1 else ("-n" if self.w == -1 else f"{self.w}n")
            bits.append(("+" + s) if (bits and not s.startswith("-")) else s)
        if self.v or not bits:
            s = str(self.v)
            bits.append(("+" + s) if (bits and not s.startswith("-")) else s)
        return "".join(bits)

    def __repr__(self) -> str:
        return f"Exp({self.text()})"
