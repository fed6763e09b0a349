"""Root systems and Cartan-Weyl structure constants for simple Lie algebras.

Positive roots are the nonnegative part of the Weyl orbit of the simple roots.
A ``RootSystem`` is the one object the field layer reads: rank, the metric G
and its inverse, h_vee, the Weyl vector's Dynkin labels ``rho_labels``, and,
derived from the roots, the parity and name of each positive root by position.
Structure constants are fixed in a Chevalley-type basis and stored once, in a
``StructureTable`` whose one writer ``set_pair(a, b, out)`` sets [a, b] and,
by graded antisymmetry, [b, a].  Root-root brackets are filled one non-simple
positive root gamma at a time, in height order: the extraspecial pair of gamma
gets +(p+1), and every other pair a + b = gamma follows from the Jacobi
identity, reading the mixed constants [e_x, f_y] of lower roots back from the
table.  Each pair fixes six brackets at once, through the sign-flip convention
f_{-a,-b}^{-c} = -f_{a,b}^c and invariance of the Killing form.  The choice
is deterministic (ordering below) and a per-root sign override is accepted
for users who want a different convention.

The osp(2|2) superalgebra in its distinguished basis enters as an explicit
fixture rather than through a general super root-system generator.

``verify_jacobi`` decides every basis triple over the integers: the constants
are scaled by their common denominator D into one table F[a][b] = {c: D f_ab^c}
indexed by basis position, so each double bracket is D^2 times the rational one.
On a graded antisymmetric, graded table each multiset of three is evaluated once.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from typing import Optional, Sequence, Union

Root = tuple[int, ...]
# basis labels: ("e", root), ("h", i), ("f", root)
Label = tuple[str, Union[Root, int]]


class CartanTypeError(ValueError):
    """Raised for input matrices that are not of finite type."""


# ---------------------------------------------------------------------------
# built-in Cartan matrices
# ---------------------------------------------------------------------------

def _cartan_matrix(family: str, rank: int) -> list[list[int]]:
    A = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def link(i, j, aij=-1, aji=-1):
        A[i][j] = aij
        A[j][i] = aji

    if family == "A":
        for i in range(rank - 1):
            link(i, i + 1)
    elif family == "B":
        if rank < 2:
            raise CartanTypeError("B requires rank >= 2")
        for i in range(rank - 2):
            link(i, i + 1)
        link(rank - 2, rank - 1, -1, -2)
    elif family == "C":
        if rank < 2:
            raise CartanTypeError("C requires rank >= 2")
        for i in range(rank - 2):
            link(i, i + 1)
        link(rank - 2, rank - 1, -2, -1)
    elif family == "D":
        if rank < 3:
            raise CartanTypeError("D requires rank >= 3")
        for i in range(rank - 3):
            link(i, i + 1)
        link(rank - 3, rank - 2)
        link(rank - 3, rank - 1)
    elif family == "G":
        if rank != 2:
            raise CartanTypeError("G exists only at rank 2")
        link(0, 1, -1, -3)
    elif family == "F":
        if rank != 4:
            raise CartanTypeError("F exists only at rank 4")
        link(0, 1)
        link(1, 2, -2, -1)
        link(2, 3)
    elif family == "E":
        if rank not in (6, 7, 8):
            raise CartanTypeError("E exists only at ranks 6, 7, 8")
        for i in range(1, rank - 1):
            link(i, i + 1)
        link(0, 3)
    else:
        raise CartanTypeError(f"unknown family {family!r}")
    return A


# ---------------------------------------------------------------------------
# root system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootSystem:
    """Finite root system with the metric data used throughout the engine.

    Roots are stored as integer coefficient vectors on the simple roots.
    Norms are normalized so the highest root has length squared 2; weights
    are handled through their Dynkin labels with the inner product
    (L, M) = L_i G^{ij} M_j.
    """

    rank: int
    cartan: tuple[tuple[int, ...], ...]
    norms: tuple[Fraction, ...]                  # alpha_i^2
    pos_roots: tuple[Root, ...]                  # fixed engine order
    theta: Root
    hvee: int
    dim: int
    G: tuple[tuple[Fraction, ...], ...]          # G_ij = (alpha_i^vee, alpha_j^vee)
    Ginv: tuple[tuple[Fraction, ...], ...]
    name: str = ""
    odd_roots: frozenset[Root] = field(default_factory=frozenset)
    rho_override: Optional[tuple[Fraction, ...]] = None

    # -- derived data --------------------------------------------------

    @property
    def n_pos(self) -> int:
        return len(self.pos_roots)

    @property
    def rho_labels(self) -> tuple[Fraction, ...]:
        """Dynkin labels of the Weyl vector (rho . alpha_i^vee = 1)."""
        if self.rho_override is not None:
            return self.rho_override
        return tuple(Fraction(1) for _ in range(self.rank))

    def root_index(self, root: Root) -> int:
        return self.pos_roots.index(root)

    @cached_property
    def _root_data(self) -> dict[Root, tuple[Fraction, tuple[Fraction, ...]]]:
        """(root_norm2, root_labels) of each positive root, computed once."""
        return {a: (self._norm2(a), self._labels(a)) for a in self.pos_roots}

    def root_norm2(self, root: Root) -> Fraction:
        """(root, root) from the simple-root Gram matrix."""
        return self._root_data[root][0] if root in self._root_data else self._norm2(root)

    def root_labels(self, root: Root) -> tuple[Fraction, ...]:
        """Dynkin labels (alpha_i^vee, root) of a root's weight."""
        return self._root_data[root][1] if root in self._root_data else self._labels(root)

    def _norm2(self, root: Root) -> Fraction:
        # (alpha_i, alpha_j) = A_ij alpha_i^2 / 2
        nz = [(i, c) for i, c in enumerate(root) if c]
        return sum((ci * cj * (Fraction(self.cartan[i][j]) * self.norms[i] / 2) for i, ci in nz for j, cj in nz),
                   Fraction(0))

    def _labels(self, root: Root) -> tuple[Fraction, ...]:
        return tuple(sum(Fraction(a) * c for a, c in zip(row, root)) for row in self.cartan)

    def weight_inner(self, lam: Sequence, mu: Sequence):
        """(lam, mu) for weights given by Dynkin labels: ints, Fractions or
        ``coeffs.RatFunc``s alike; a Fraction when every label is rational."""
        total = Fraction(0)
        for i in range(self.rank):
            if not lam[i]:
                continue
            for j in range(self.rank):
                if mu[j] and self.Ginv[i][j]:
                    total = total + lam[i] * self.Ginv[i][j] * mu[j]
        return total

    def rho_norm2(self) -> Fraction:
        return self.weight_inner(self.rho_labels, self.rho_labels)

    def is_root(self, v: Root) -> bool:
        return v in self._roots

    @cached_property
    def _roots(self) -> frozenset[Root]:
        """Every root, positive and negative."""
        return frozenset(self.pos_roots).union(tuple(-c for c in a) for a in self.pos_roots)

    def root_name(self, root: Root) -> str:
        """Short name: '1', '2' for simple roots, digit string otherwise, 'theta' for the top."""
        if root == self.theta:
            return "theta"
        if all(abs(c) <= 9 for c in root):
            return "".join(str(c) for c in root) if sum(root) > 1 else str(root.index(1) + 1)
        return "-".join(str(c) for c in root)

    def parity(self, root: Root) -> int:
        return 1 if root in self.odd_roots else 0

    @cached_property
    def root_parity(self) -> tuple[int, ...]:
        """``parity`` of each positive root, by position."""
        return tuple(self.parity(a) for a in self.pos_roots)

    @cached_property
    def root_names(self) -> tuple[str, ...]:
        """``root_name`` of each positive root, by position."""
        return tuple(self.root_name(a) for a in self.pos_roots)

    @property
    def bosonic(self) -> bool:
        """Whether every positive root is even (no fermionic ghost pairs)."""
        return not self.odd_roots


def _validate_cartan(A: Sequence[Sequence[int]]) -> None:
    r = len(A)
    if r == 0:
        raise CartanTypeError("empty Cartan matrix")
    for i in range(r):
        if len(A[i]) != r:
            raise CartanTypeError("Cartan matrix must be square")
        if A[i][i] != 2:
            raise CartanTypeError(f"diagonal entry A[{i}][{i}] must be 2")
        for j in range(r):
            if i != j:
                if A[i][j] > 0 or A[i][j] < -3:
                    raise CartanTypeError(
                        f"off-diagonal entry A[{i}][{j}]={A[i][j]} outside finite-type range"
                    )
                if (A[i][j] == 0) != (A[j][i] == 0):
                    raise CartanTypeError("zero pattern of Cartan matrix must be symmetric")


def _simple_norms(A: Sequence[Sequence[int]]) -> list[Fraction]:
    """Relative norms from A_ij/A_ji along the diagram, which must be connected (the algebra simple)."""
    r = len(A)
    norms: list[Optional[Fraction]] = [None] * r
    norms[0] = Fraction(2)
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(r):
            if A[i][j] != 0 and norms[j] is None:
                norms[j] = norms[i] * Fraction(A[i][j], A[j][i])
                frontier.append(j)
    if None in norms:
        raise CartanTypeError("Dynkin diagram is disconnected; only simple algebras are supported")
    return norms  # type: ignore[return-value]


def _positive_definite(B: list[list[Fraction]]) -> bool:
    """Whether a symmetric Fraction matrix is positive definite.

    The k-th pivot of elimination without row exchanges is the ratio of the
    k-th to the (k-1)-th leading principal minor, so every minor is positive
    exactly when every pivot is.
    """
    M = [row[:] for row in B]
    for col, prow in enumerate(M):
        if prow[col] <= 0:
            return False
        for row in M[col + 1:]:
            f = row[col] / prow[col]
            if f:
                row[:] = [a - f * b for a, b in zip(row, prow)]
    return True


def _invert(M: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(M)
    A = [row[:] + [Fraction(1) if i == j else Fraction(0) for j in range(n)] for i, row in enumerate(M)]
    for col in range(n):
        pivot = next(row for row in range(col, n) if A[row][col] != 0)
        A[col], A[pivot] = A[pivot], A[col]
        inv = 1 / A[col][col]
        A[col] = [a * inv for a in A[col]]
        for row in range(n):
            if row != col and A[row][col] != 0:
                f = A[row][col]
                A[row] = [a - f * b for a, b in zip(A[row], A[col])]
    return [row[n:] for row in A]


def build_root_system(source: Union[str, Sequence[Sequence[int]]], name: str = "") -> RootSystem:
    """Construct the root system from a built-in label or a Cartan matrix.

    Labels: "A1", "A2", "B2", ... (families A-G).  A matrix input is
    validated and rejected with a diagnostic when it is not of finite type.
    """
    if isinstance(source, str):
        m = re.fullmatch(r"([A-Ga-g])\s*(\d+)", source.strip())
        if not m:
            raise CartanTypeError(f"unrecognized algebra label {source!r}")
        A = _cartan_matrix(m.group(1).upper(), int(m.group(2)))
        name = name or source.strip().upper()
    else:
        A = [[int(x) for x in row] for row in source]
        name = name or "custom"
    _validate_cartan(A)
    r = len(A)
    norms = _simple_norms(A)
    gram = [[Fraction(A[i][j]) * norms[i] / 2 for j in range(r)] for i in range(r)]
    for i in range(r):
        for j in range(r):
            if gram[i][j] != gram[j][i]:
                raise CartanTypeError("Cartan matrix is not symmetrizable")
    if not _positive_definite(gram):
        raise CartanTypeError("symmetrized Cartan matrix is not positive definite (not finite type)")

    # every root is a Weyl image of a simple root: close the simple roots under
    # s_i(b) = b - <b, alpha_i^vee> alpha_i, finite now that the form is positive definite
    simple = [tuple(int(j == i) for j in range(r)) for i in range(r)]
    roots: set[Root] = set(simple)
    frontier = list(simple)
    while frontier:
        b = frontier.pop()
        for i in range(r):
            pairing = sum(A[i][j] * b[j] for j in range(r))
            img = b[:i] + (b[i] - pairing,) + b[i + 1:]
            if img not in roots:
                roots.add(img)
                frontier.append(img)

    # order: by height, then by coefficient vector (earlier simple roots first)
    pos = sorted((v for v in roots if min(v) >= 0), key=lambda v: (sum(v), tuple(-c for c in v)))
    theta = pos[-1]
    if sum(1 for v in pos if sum(v) == sum(theta)) != 1:
        raise CartanTypeError("no unique highest root; matrix is not of simple finite type")

    # normalize norms so theta^2 = 2
    theta2 = Fraction(0)
    for i in range(r):
        for j in range(r):
            theta2 += theta[i] * theta[j] * gram[i][j]
    scale = Fraction(2) / theta2
    norms = [v * scale for v in norms]

    # symmetric since gram is: A_ij alpha_i^2 = A_ji alpha_j^2
    G = [[Fraction(2) * A[i][j] / (norms[j]) for j in range(r)] for i in range(r)]
    Ginv = _invert([row[:] for row in G])

    rs = RootSystem(
        rank=r,
        cartan=tuple(tuple(row) for row in A),
        norms=tuple(norms),
        pos_roots=tuple(pos),
        theta=theta,
        hvee=0,  # placeholder, fixed below
        dim=2 * len(pos) + r,
        G=tuple(tuple(row) for row in G),
        Ginv=tuple(tuple(row) for row in Ginv),
        name=name,
    )
    # h_vee = 1 + (rho, theta) with theta^2 = 2
    rho_theta = rs.weight_inner(rs.rho_labels, rs.root_labels(theta))
    hvee = 1 + rho_theta
    if hvee.denominator != 1:
        raise CartanTypeError("dual Coxeter number did not come out integral")
    object.__setattr__(rs, "hvee", int(hvee))
    return rs


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------

class StructureTable:
    """All f_ab^c and kappa_ab in the Cartan-Weyl basis.

    ``f[(la, lb)]`` maps a pair of basis labels to a dict {lc: coefficient}.
    ``kappa[(la, lb)]`` holds the Killing form.  ``parity`` marks odd basis
    elements (only the osp fixture uses it).  ``signs`` maps each non-simple
    positive root to the extraspecial sign ``build_structure_table`` used.
    Every bracket is written through ``set_pair``, together with its
    graded-antisymmetric partner.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.f: dict[tuple[Label, Label], dict[Label, Fraction]] = {}
        self.kappa: dict[tuple[Label, Label], Fraction] = {}
        self.parity: dict[Label, int] = {}
        self.signs: dict[Root, int] = {}

    # -- basis -----------------------------------------------------------

    def basis(self) -> list[Label]:
        labels: list[Label] = [("e", a) for a in self.rs.pos_roots]
        labels += [("h", i) for i in range(self.rs.rank)]
        labels += [("f", a) for a in self.rs.pos_roots]
        return labels

    def label_parity(self, label: Label) -> int:
        return self.parity.get(label, 0)

    # -- access ------------------------------------------------------------

    def bracket(self, a: Label, b: Label) -> dict[Label, Fraction]:
        return self.f.get((a, b), {})

    def fconst(self, a: Label, b: Label, c: Label) -> Fraction:
        return self.f.get((a, b), {}).get(c, Fraction(0))

    def set_pair(self, a: Label, b: Label, out: dict[Label, Fraction]) -> None:
        """Set [a, b] = out and, by graded antisymmetry, [b, a] = -(-1)^{|a||b|} out."""
        out = {c: v for c, v in out.items() if v}
        if out:
            s = 1 if self.label_parity(a) and self.label_parity(b) else -1
            self.f[(a, b)] = out
            self.f[(b, a)] = {c: s * v for c, v in out.items()}

    def kappa_of(self, a: Label, b: Label) -> Fraction:
        return self.kappa.get((a, b), Fraction(0))


def build_structure_table(
    rs: RootSystem, sign_overrides: Optional[dict[Root, int]] = None
) -> StructureTable:
    """Full Cartan-Weyl table: kappa plus every bracket coefficient.

    Root-root brackets are filled one non-simple positive root gamma at a
    time, in height order.  The extraspecial pair of gamma gets
    (p+1) times its sign (+1 unless overridden); every other pair a + b = gamma follows from the Jacobi
    identity, whose mixed constants [e_x, f_y] belong to lower roots and are
    read back from the table.
    """
    tab = StructureTable(rs)
    r = rs.rank
    pos = rs.pos_roots
    order = {a: i for i, a in enumerate(pos)}

    # kappa
    for a in pos:
        val = Fraction(2) / rs.root_norm2(a)
        tab.kappa[("e", a), ("f", a)] = val
        tab.kappa[("f", a), ("e", a)] = val
    for i in range(r):
        for j in range(r):
            if rs.G[i][j]:
                tab.kappa[("h", i), ("h", j)] = rs.G[i][j]

    # Cartan brackets
    for i in range(r):
        for a in pos:
            lab = rs.root_labels(a)[i]
            tab.set_pair(("h", i), ("e", a), {("e", a): lab})
            tab.set_pair(("h", i), ("f", a), {("f", a): -lab})

    # [e_a, f_a] = h_a expanded on the h_i
    for a in pos:
        covee = [Fraction(2) * lab / rs.root_norm2(a) for lab in rs.root_labels(a)]
        h_a = {("h", j): sum(rs.Ginv[j][i] * covee[i] for i in range(r)) for j in range(r)}
        tab.set_pair(("e", a), ("f", a), h_a)

    def coef(x: Label, y: Label) -> Fraction:
        """The one coefficient of [x, y] for root labels of two different roots."""
        return next(iter(tab.bracket(x, y).values()), Fraction(0))

    def set_root_pair(a: Root, b: Root, gamma: Root, n: Fraction) -> None:
        """The six brackets fixed by [e_a, e_b] = n e_gamma for a + b = gamma."""
        va = n * rs.root_norm2(a) / rs.root_norm2(gamma)
        vb = n * rs.root_norm2(b) / rs.root_norm2(gamma)
        tab.set_pair(("e", a), ("e", b), {("e", gamma): n})
        tab.set_pair(("f", a), ("f", b), {("f", gamma): -n})
        tab.set_pair(("e", gamma), ("f", b), {("e", a): va})
        tab.set_pair(("f", gamma), ("e", b), {("f", a): -va})
        tab.set_pair(("e", gamma), ("f", a), {("e", b): -vb})
        tab.set_pair(("f", gamma), ("e", a), {("f", b): vb})

    for gamma in pos:
        if sum(gamma) == 1:
            continue
        pairs = []
        for a in pos[: order[gamma]]:
            b = tuple(gamma[j] - a[j] for j in range(r))
            if order.get(b, -1) > order[a]:
                pairs.append((a, b))
        (a1, b1), rest = pairs[0], pairs[1:]  # extraspecial pair first
        p = 0  # largest p with b1 - p a1 a root
        while rs.is_root(tuple(b1[j] - (p + 1) * a1[j] for j in range(r))):
            p += 1
        sign = tab.signs[gamma] = (sign_overrides or {}).get(gamma, 1)
        n1 = Fraction(sign) * (p + 1)
        set_root_pair(a1, b1, gamma, n1)
        for a, b in rest:
            # Jacobi on the quadruple (b1, a1, -a, -b)
            term = Fraction(0)
            d1 = tuple(a1[j] - a[j] for j in range(r))
            if rs.is_root(d1):
                term += coef(("e", a1), ("f", a)) * coef(("e", b1), ("f", b)) / rs.root_norm2(_abs_root(d1))
            d2 = tuple(b1[j] - a[j] for j in range(r))
            if rs.is_root(d2):
                term += coef(("f", a), ("e", b1)) * coef(("e", a1), ("f", b)) / rs.root_norm2(_abs_root(d2))
            set_root_pair(a, b, gamma, -rs.root_norm2(gamma) / n1 * term)
    return tab


def _abs_root(v: Root) -> Root:
    return v if all(c >= 0 for c in v) else tuple(-c for c in v)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_jacobi(tab: StructureTable) -> list[tuple[Label, Label, Label]]:
    """Exhaustive (graded) Jacobi check over the integers; returns the violating triples in product order.

    On a graded antisymmetric table, F[b][a] = -(-1)^{|a||b|} F[a][b], that is
    graded, every output of [a, b] of parity |a| + |b|, a transposition of the
    Jacobiator's arguments only changes its sign: it is evaluated on the
    multisets a <= b <= c (J(a, a, c) is nontrivial for an odd a), and a failing
    one fails in every ordering.  Any other table is scanned on every ordered triple."""
    basis = tab.basis()
    pos = {lab: i for i, lab in enumerate(basis)}
    D = math.lcm(*(v.denominator for out in tab.f.values() for v in out.values()))
    F = [[{pos[c]: D // v.denominator * v.numerator for c, v in tab.bracket(a, b).items() if v} for b in basis]
         for a in basis]
    par = [tab.label_parity(a) for a in basis]

    def failing(triples):
        # the triples whose [[a,b],c] - [a,[b,c]] + (-1)^{|a||b|} [b,[a,c]], D^2 times the rational one, is not 0
        for a, b, c in triples:
            acc: dict[int, int] = {}
            for d, v in F[a][b].items():
                for e, w in F[d][c].items():
                    acc[e] = acc.get(e, 0) + v * w
            for d, v in F[b][c].items():
                for e, w in F[a][d].items():
                    acc[e] = acc.get(e, 0) - v * w
            s = -1 if (par[a] and par[b]) else 1
            for d, v in F[a][c].items():
                for e, w in F[b][d].items():
                    acc[e] = acc.get(e, 0) + s * v * w
            if any(acc.values()):
                yield a, b, c

    n = len(basis)
    graded = all(
        F[b][a] == {d: (1 if par[a] and par[b] else -1) * v for d, v in F[a][b].items()}
        and all(par[d] == par[a] ^ par[b] for d in F[a][b])
        for a in range(n) for b in range(a, n)
    )
    if graded:
        bad = sorted({t for m in failing(combinations_with_replacement(range(n), 3)) for t in permutations(m)})
    else:
        bad = list(failing(product(range(n), repeat=3)))
    return [(basis[a], basis[b], basis[c]) for a, b, c in bad]


# ---------------------------------------------------------------------------
# osp(2|2) fixture (distinguished simple roots: alpha_1 even, alpha_2 odd)
# ---------------------------------------------------------------------------

def osp22_fixture() -> tuple[RootSystem, StructureTable]:
    """Rank-2 superalgebra data: roots {a1 even, a2 odd, a1+a2 odd}.

    The metric G doubles as the Cartan matrix; kappa is 1 on every
    root pair; the Weyl vector is -alpha_2; h_vee = 1.
    """
    r = 2
    a1: Root = (1, 0)
    a2: Root = (0, 1)
    a12: Root = (1, 1)
    G = ((Fraction(2), Fraction(-1)), (Fraction(-1), Fraction(0)))
    Ginv = tuple(tuple(row) for row in _invert([list(G[0]), list(G[1])]))
    rs = RootSystem(
        rank=r,
        cartan=((2, -1), (-1, 0)),
        norms=(Fraction(2), Fraction(0)),
        pos_roots=(a1, a2, a12),
        theta=a12,
        hvee=1,
        dim=8,
        G=G,
        Ginv=Ginv,
        name="OSP22",
        odd_roots=frozenset({a2, a12}),
        rho_override=(Fraction(1), Fraction(0)),  # rho = -alpha_2
    )
    tab = StructureTable(rs)
    one = Fraction(1)

    for a in (a1, a2, a12):
        tab.kappa[("e", a), ("f", a)] = one
        sign = -one if rs.parity(a) else one
        tab.kappa[("f", a), ("e", a)] = sign
    for i in range(2):
        for j in range(2):
            if G[i][j]:
                tab.kappa[("h", i), ("h", j)] = G[i][j]

    for lab in tab.basis():
        kind, arg = lab
        if kind in ("e", "f") and rs.parity(arg):  # type: ignore[arg-type]
            tab.parity[lab] = 1

    # Cartan action: root labels are alpha(H_i) = G_ij in this basis
    labels = {a1: (G[0][0], G[1][0]), a2: (G[0][1], G[1][1]), a12: (G[0][0] + G[0][1], G[1][0] + G[1][1])}
    for a, labs in labels.items():
        for i in range(2):
            tab.set_pair(("h", i), ("e", a), {("e", a): labs[i]})
            tab.set_pair(("h", i), ("f", a), {("f", a): -labs[i]})

    tab.set_pair(("e", a1), ("f", a1), {("h", 0): one})
    tab.set_pair(("e", a2), ("f", a2), {("h", 1): one})
    tab.set_pair(("e", a12), ("f", a12), {("h", 0): one, ("h", 1): one})
    tab.set_pair(("e", a1), ("e", a2), {("e", a12): one})
    tab.set_pair(("f", a1), ("f", a2), {("f", a12): -one})
    tab.set_pair(("e", a2), ("f", a12), {("f", a1): one})
    tab.set_pair(("f", a2), ("e", a12), {("e", a1): one})
    tab.set_pair(("e", a1), ("f", a12), {("f", a2): -one})
    tab.set_pair(("f", a1), ("e", a12), {("e", a2): one})
    return rs, tab


# ---------------------------------------------------------------------------
# JSON input
# ---------------------------------------------------------------------------

def load_algebra_json(path: str) -> tuple[RootSystem, StructureTable]:
    """Read {"cartan_matrix": [[...]], "extraspecial_signs": {"<coeffs>": +-1}}.

    Malformed input raises ``CartanTypeError``: invalid JSON, a Cartan entry
    that is not an integer, a ``name`` that is not a string, a sign other
    than +1 or -1, or a sign key that is not a non-simple positive root.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise CartanTypeError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict) or "cartan_matrix" not in data:
        raise CartanTypeError("JSON algebra file must contain 'cartan_matrix'")
    A = data["cartan_matrix"]
    if not isinstance(A, list) or not all(
        isinstance(row, list) and all(type(x) is int for x in row) for row in A
    ):
        raise CartanTypeError("'cartan_matrix' must be a list of rows of integers")
    name = data.get("name", "custom")
    if not isinstance(name, str):
        raise CartanTypeError(f"'name' must be a string, got {name!r}")
    rs = build_root_system(A, name=name)
    signs = data.get("extraspecial_signs", {})
    if not isinstance(signs, dict):
        raise CartanTypeError("'extraspecial_signs' must map root keys to +1 or -1")
    nonsimple = {a for a in rs.pos_roots if sum(a) > 1}
    overrides: dict[Root, int] = {}
    for key, sign in signs.items():
        try:
            coeffs = tuple(int(c) for c in key.replace(",", " ").split())
        except ValueError:
            raise CartanTypeError(f"override key {key!r} is not a list of integers") from None
        if len(coeffs) != rs.rank:
            raise CartanTypeError(f"override key {key!r} has wrong rank")
        if coeffs not in nonsimple:
            raise CartanTypeError(f"override key {key!r} is not a non-simple positive root")
        if type(sign) is not int or sign not in (1, -1):
            raise CartanTypeError(f"override sign {sign!r} for {key!r} must be 1 or -1")
        overrides[coeffs] = sign
    return rs, build_structure_table(rs, overrides or None)


def get_algebra(selector: str) -> tuple[RootSystem, StructureTable]:
    """Resolve a CLI selector: built-in label, OSP22, or a JSON path."""
    s = selector.strip()
    if s.upper() == "OSP22":
        return osp22_fixture()
    if s.lower().endswith(".json"):
        return load_algebra_json(s)
    rs = build_root_system(s)
    return rs, build_structure_table(rs)
