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

class SparsePoly:
    """Sparse polynomial over Q: exponent tuples mapped to nonzero Fractions.

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
        return self._like(out)

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
        return self._like(out)

    def scale(self, c):
        """Multiply by a rational; a ``RatFunc`` is refused with ``TypeError``."""
        c = Fraction(c)
        if not c:
            return self._like({})
        return self._like({m: v * c for m, v in self.terms.items()})

    @property
    def is_zero(self) -> bool:
        return not self.terms

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
    """Sparse bivariate polynomial in the symbols k and n with Fraction coefficients."""

    __slots__ = ()

    def __init__(self, terms: Optional[dict[Monomial, Fraction]] = None):
        self.terms: dict[Monomial, Fraction] = terms if terms is not None else {}
        self._hash: Optional[int] = None

    def _like(self, terms: dict[Monomial, Fraction]) -> "Pol":
        return Pol(terms)

    __mul__ = SparsePoly.__mul__

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c) -> "Pol":
        c = Fraction(c)
        return Pol({(0, 0): c} if c else {})

    @staticmethod
    def k(power: int = 1) -> "Pol":
        return Pol({(power, 0): Fraction(1)})

    @staticmethod
    def n(power: int = 1) -> "Pol":
        return Pol({(0, power): Fraction(1)})

    @staticmethod
    def t(hvee: int) -> "Pol":
        """The shifted level t = k + h_vee."""
        return Pol({(1, 0): Fraction(1), (0, 0): Fraction(hvee)})

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

    def const_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_const:
            raise ValueError("polynomial is not constant: %s" % self)
        return self.terms[(0, 0)]

    # -- substitutions -----------------------------------------------------

    def subs_k(self, value) -> "Pol":
        value = Fraction(value)
        out: dict[Monomial, Fraction] = {}
        for (a, b), c in self.terms.items():
            v = c * value ** a
            if v:
                m = (0, b)
                s = out.get(m)
                if s is None:
                    out[m] = v
                elif s + v:
                    out[m] = s + v
                else:
                    del out[m]
        return Pol(out)

    def subs_n(self, value) -> "Pol":
        value = Fraction(value)
        out: dict[Monomial, Fraction] = {}
        for (a, b), c in self.terms.items():
            v = c * value ** b
            if v:
                m = (a, 0)
                s = out.get(m)
                if s is None:
                    out[m] = v
                elif s + v:
                    out[m] = s + v
                else:
                    del out[m]
        return Pol(out)

    def shift_n(self, delta: int) -> "Pol":
        """Substitute n -> n + delta."""
        if delta == 0:
            return self
        out = Pol()
        for (a, b), c in self.terms.items():
            # binomial expansion of (n + delta)^b
            row: dict[Monomial, Fraction] = {}
            binom = 1
            for j in range(b + 1):
                row[(a, b - j)] = c * Fraction(binom) * Fraction(delta) ** j
                binom = binom * (b - j) // (j + 1)
            out = out + Pol(row)
        return out

    # -- exact division ----------------------------------------------------

    def divide_exact(self, divisor: "Pol") -> Optional["Pol"]:
        """Return self / divisor when it divides exactly, else None."""
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return Pol()
        if divisor.is_const:
            inv = 1 / divisor.const_value()
            return self.scale(inv)
        rem = Pol(dict(self.terms))
        quo: dict[Monomial, Fraction] = {}
        lead = max(divisor.terms)  # lex on (k-power, n-power)
        lead_c = divisor.terms[lead]
        # each step removes the lex-leading monomial of rem, and lex order
        # well-orders N^2, so the loop ends
        while not rem.is_zero:
            m = max(rem.terms)
            qm = (m[0] - lead[0], m[1] - lead[1])
            if qm[0] < 0 or qm[1] < 0:
                return None
            qc = rem.terms[m] / lead_c
            quo[qm] = quo.get(qm, Fraction(0)) + qc
            rem = rem - Pol({qm: qc}) * divisor
        return Pol({m: c for m, c in quo.items() if c})

    # -- presentation ------------------------------------------------------

    def leading_coeff(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        return self.terms[max(self.terms)]

    def text(self, k_name: str = "k", n_name: str = "n") -> str:
        if not self.terms:
            return "0"
        bits = []
        for (a, b), c in sorted(self.terms.items(), reverse=True):
            factors = []
            if a:
                factors.append(k_name if a == 1 else f"{k_name}^{a}")
            if b:
                factors.append(n_name if b == 1 else f"{n_name}^{b}")
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
        scale = Fraction(1)
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
                p = p.scale(1 / lc)
            merged[p] = merged.get(p, 0) + e
        if scale != 1:
            num = num.scale(1 / scale)
        # cancel factors dividing the numerator
        out_den: list[tuple[Pol, int]] = []
        for p in sorted(merged, key=Pol.frozen):
            e = merged[p]
            while e > 0:
                q = num.divide_exact(p)
                if q is None:
                    break
                num = q
                e -= 1
            if e > 0:
                out_den.append((p, e))
        return RatFunc(num, tuple(out_den))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "RatFunc":
        other = RatFunc.of(other)
        if self.num.is_zero:
            return other
        if other.num.is_zero:
            return self
        if self.den == other.den:
            return RatFunc._make(self.num + other.num, self.den)
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
        other = RatFunc.of(other)
        if self.num.is_zero or other.num.is_zero:
            return RatFunc(Pol())
        # scaling by a plain constant keeps the other operand canonical
        if other.is_rational:
            return self._scaled(other.num.terms[(0, 0)])
        if self.is_rational:
            return other._scaled(self.num.terms[(0, 0)])
        return RatFunc._make(self.num * other.num, self.den + other.den)

    def _scaled(self, c: Fraction) -> "RatFunc":
        if c == 1:
            return self
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
        if self._hash is None:
            self._hash = hash(self.key())
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


ZERO = RatFunc.zero()
ONE = RatFunc.one()


# ---------------------------------------------------------------------------
# affine exponents  u*t + v + w*n
# ---------------------------------------------------------------------------

class Exp:
    """Exponent of a symbolic power factor: u*t + v + w*n with rational u, v, w."""

    __slots__ = ("u", "v", "w", "_hash")

    def __init__(self, u=0, v=0, w=0):
        self.u = Fraction(u)
        self.v = Fraction(v)
        self.w = Fraction(w)
        self._hash: Optional[int] = None

    @staticmethod
    def const(v) -> "Exp":
        return Exp(0, v, 0)

    def __add__(self, other) -> "Exp":
        if isinstance(other, Exp):
            return Exp(self.u + other.u, self.v + other.v, self.w + other.w)
        return Exp(self.u, self.v + Fraction(other), self.w)

    def __sub__(self, other) -> "Exp":
        if isinstance(other, Exp):
            return Exp(self.u - other.u, self.v - other.v, self.w - other.w)
        return Exp(self.u, self.v - Fraction(other), self.w)

    def shift_n(self, delta: int) -> "Exp":
        return Exp(self.u, self.v + self.w * delta, self.w)

    def as_ratfunc(self, hvee: int) -> RatFunc:
        p = Pol.t(hvee).scale(self.u) + Pol.const(self.v) + Pol.n().scale(self.w)
        return RatFunc(p)

    def subs_t(self, value) -> Optional[Fraction]:
        """Numeric value at t = value; None when n still appears."""
        if self.w != 0:
            return None
        return self.u * Fraction(value) + self.v

    @property
    def is_const(self) -> bool:
        return self.u == 0 and self.w == 0

    def key(self) -> tuple:
        return (self.u, self.v, self.w)

    def __eq__(self, other) -> bool:
        return isinstance(other, Exp) and self.key() == other.key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.key())
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
