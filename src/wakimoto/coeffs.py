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
factor is divided out by synthetic division over the ints (``_divide_linear``,
Horner's rule in the factor's leading variable), and ``_cancel`` divides by
each factor as often as it goes.  Generic long division is kept as the test
oracle (``tests/oracles.py``), with the merge-and-divide route every product
and sum took before.

A polynomial is stored as its content and primitive part (Knuth, TAOCP
vol. 2, 4.6.1): integer numerators over one ``den`` >= 1 sharing no factor
with all of them, so equal values are structurally equal.  Ring operations
run on ints with one gcd per result; scaling by p/q multiplies the
numerators by p and ``den`` by q.  ``terms`` reads each coefficient as an
int or a Fraction, for text, keys and hashes.  A float is refused.

A field coefficient has one stored form (``canonical``): a rational value
is an int when integral, else a Fraction, and a RatFunc only
stores a value in which k or n appears.  A RatFunc mixes with an int or a
Fraction in every arithmetic operation, and a rational RatFunc compares and
hashes as its number, so the two spellings of one value are one dict key.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, Optional, Union

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


class SparsePoly:
    """Sparse polynomial over Q: the value num / den, never mutated.

    ``num`` maps exponent tuples to nonzero ints and the int ``den`` >= 1 has
    gcd(den, *num.values()) == 1 (module docstring).  The one ring arithmetic
    of ``Pol`` (in k and n) and ``polymat.Poly`` (in the triangular
    coordinates); each subclass names ``__mul__`` in its own namespace, where
    ``perfbench/tracer.py`` wraps it as a separate span.
    """

    __slots__ = ("num", "den", "_terms", "_hash")

    def __init__(self, terms: Optional[dict] = None):
        """The polynomial with the rational coefficients ``terms``; a float raises TypeError."""
        num = terms = {m: _lean(c) for m, c in (terms or {}).items() if c}  # and the terms view
        den = 1
        for c in terms.values():  # den: the lcm of reduced denominators, so gcd(den, *num) == 1
            den = den if type(c) is int else lcm(den, c.denominator)
        if den > 1:
            num = {m: c.numerator * (den // c.denominator) for m, c in terms.items()}
        self.num, self.den, self._terms, self._hash = num, den, terms, None

    def _like(self, num: dict, den: int = 1):
        """A value of this shape holding num / den, for ints num and den >= 1, in lowest terms."""
        if den > 1 and (g := gcd(den, *num.values())) > 1:
            num = {m: c // g for m, c in num.items()}
            den //= g
        out = object.__new__(type(self))
        out.num, out.den, out._terms, out._hash = num, den, None, None
        return out

    @property
    def terms(self) -> dict:
        """num / den as a read-only dict of ints and Fractions, built on first read."""
        if self._terms is None:
            d, num = self.den, self.num
            self._terms = num if d == 1 else {m: Fraction(c, d) if c % d else c // d for m, c in num.items()}
        return self._terms

    def __add__(self, other):
        d1, d2 = self.den, other.den
        den = d1 if d1 == d2 else lcm(d1, d2)
        out = dict(self.num) if den == d1 else {m: c * (den // d1) for m, c in self.num.items()}
        f = den // d2
        for m, c in other.num.items():
            s = out.get(m, 0) + c * f
            if s:
                out[m] = s
            else:
                del out[m]
        return self._like(out, den)

    def __neg__(self):
        return self._like({m: -c for m, c in self.num.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out: dict = {}
        for m1, c1 in self.num.items():
            for m2, c2 in other.num.items():
                m = tuple(map(add, m1, m2))
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
        return self._like(out, self.den * other.den)

    def scale(self, c):
        """Multiply by a rational p/q (num by p, den by q); a ``RatFunc`` or a float is refused."""
        c = _lean(c)
        p = c.numerator
        num = self.num if p == 1 else {m: v * p for m, v in self.num.items()} if p else {}
        return self._like(num, self.den * c.denominator)

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        """Nonzero, as for int, Fraction and ``RatFunc``."""
        return bool(self.num)

    def frozen(self) -> tuple:
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.frozen())
        return self._hash


class Pol(SparsePoly):
    """Sparse polynomial in k and n, over one content denominator (``SparsePoly``)."""

    __slots__ = ()

    __mul__ = SparsePoly.__mul__

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c) -> "Pol":
        return Pol({(0, 0): c})

    @staticmethod
    def k(power: int = 1) -> "Pol":
        return Pol({(power, 0): 1})

    @staticmethod
    def n(power: int = 1) -> "Pol":
        return Pol({(0, power): 1})

    @staticmethod
    def t(hvee: int) -> "Pol":
        """The shifted level t = k + h_vee."""
        return Pol({(1, 0): 1, (0, 0): hvee})

    # -- ring operations ---------------------------------------------------

    def __pow__(self, e: int) -> "Pol":
        if type(e) is not int:
            raise TypeError(f"polynomial exponent {e!r} is not an int")
        if e < 0:
            raise ValueError(f"negative power {e} of a polynomial")
        return reduce(mul, [self] * e, Pol.const(1))

    # -- queries -----------------------------------------------------------

    @property
    def is_const(self) -> bool:
        return not self.num or (len(self.num) == 1 and (0, 0) in self.num)

    def const_value(self) -> Union[int, Fraction]:
        if not self.is_const:
            raise ValueError("polynomial is not constant: %s" % self)
        return self.terms.get((0, 0), 0)

    # -- substitutions -----------------------------------------------------

    def subs_k(self, value) -> "Pol":
        return self._subs(0, value)

    def subs_n(self, value) -> "Pol":
        return self._subs(1, value)

    def _subs(self, var: int, value) -> "Pol":
        """Substitute ``value`` = p/q for k (var 0) or n (var 1), over den q^(top power)."""
        value = _lean(value)
        p, q = value.numerator, value.denominator
        top = max((m[var] for m in self.num), default=0)
        out: dict = {}
        for m, c in self.num.items():
            rest = (0, m[1]) if var == 0 else (m[0], 0)
            out[rest] = out.get(rest, 0) + c * p ** m[var] * q ** (top - m[var])
        return self._like({m: c for m, c in out.items() if c}, self.den * q**top)

    def shift_n(self, delta: int) -> "Pol":
        """Substitute n -> n + delta."""
        if delta == 0:
            return self
        out: dict = {}
        for (a, b), c in self.num.items():
            # binomial expansion of (n + delta)^b
            binom = 1
            for j in range(b + 1):
                m = (a, b - j)
                out[m] = out.get(m, 0) + c * binom * delta ** j
                binom = binom * (b - j) // (j + 1)
        return self._like({m: c for m, c in out.items() if c}, self.den)

    # -- presentation ------------------------------------------------------

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

    Synthetic division (Horner's rule) over the ints, in the leading variable
    x of d p = d x + a y + b (d = p.den): x = k and y = n when p involves k;
    otherwise x = n with a = 0, at each power of k.  By Gauss's lemma an exact
    quotient by the primitive d p is integral, so a row d does not divide is a remainder.
    """
    t, d = p.num, p.den
    x = 0 if (1, 0) in t else 1
    a = t.get((0, 1), 0) if x == 0 else 0
    b = t.get((0, 0), 0)
    rows: dict[int, dict] = {}  # power of x -> {power of y: coefficient}
    for m, c in num.num.items():
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
            if d > 1 and any(c % d for c in carry.values()):
                return None
            for j, c in carry.items():  # num / p = d (num / d p): the row itself
                out[(i - 1, j) if x == 0 else (j, i - 1)] = c
            carry = {j: c // d for j, c in carry.items()} if d > 1 else carry
    # the last carry is the remainder
    return None if carry else num._like(out, num.den)


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
            if any(a + b > 1 for a, b in p.num):
                raise ValueError(f"denominator factor {p.text()} is not linear")
            if (lead := p.num[max(p.num)]) != p.den:  # a leading coefficient lead / den
                scale *= Fraction(lead, p.den) ** e
                p = p.scale(Fraction(p.den, lead))
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
            lh = lh * p ** (e - es) if e > es else lh
            rh = rh * p ** (e - eo) if e > eo else rh
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
            return self._scaled(other.num.const_value())
        if self.is_rational:
            return other._scaled(self.num.const_value())
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
        if len(self.num.num) > 1:
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
    return c.num.const_value() if not c.den and c.num.is_const else c


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
