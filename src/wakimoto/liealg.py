"""Root systems and Cartan-Weyl structure constants for simple Lie algebras.

Positive roots are generated from the Cartan matrix by root-string closure.
Structure constants are fixed in a Chevalley-type basis: for each non-simple
positive root the bracket along its extraspecial pair is set to +(p+1), and
every remaining constant follows from antisymmetry, the sign-flip convention
f_{-a,-b}^{-c} = -f_{a,b}^c and invariance of the Killing form.  The choice
is deterministic (ordering below) and a per-root sign override is accepted
for users who want a different convention.

The osp(2|2) superalgebra in its distinguished basis enters as an explicit
fixture rather than through a general super root-system generator.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
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

    def root_norm2(self, root: Root) -> Fraction:
        """(root, root) from the simple-root Gram matrix."""
        total = Fraction(0)
        for i, ci in enumerate(root):
            if not ci:
                continue
            for j, cj in enumerate(root):
                if cj:
                    total += ci * cj * self.simple_gram(i, j)
        return total

    def simple_gram(self, i: int, j: int) -> Fraction:
        """(alpha_i, alpha_j) = A_ij alpha_i^2 / 2."""
        return Fraction(self.cartan[i][j]) * self.norms[i] / 2

    def root_labels(self, root: Root) -> tuple[Fraction, ...]:
        """Dynkin labels (alpha_i^vee, root) of a root's weight."""
        return tuple(
            sum(Fraction(self.cartan[i][j]) * root[j] for j in range(self.rank))
            for i in range(self.rank)
        )

    def weight_inner(self, lam: Sequence, mu: Sequence) -> Fraction:
        """(lam, mu) for weights given by Dynkin labels."""
        total = Fraction(0)
        for i in range(self.rank):
            if not lam[i]:
                continue
            for j in range(self.rank):
                if mu[j]:
                    total += Fraction(lam[i]) * self.Ginv[i][j] * Fraction(mu[j])
        return total

    def rho_norm2(self) -> Fraction:
        return self.weight_inner(self.rho_labels, self.rho_labels)

    def is_root(self, v: Root) -> bool:
        if all(c >= 0 for c in v):
            return v in self._pos_set()
        if all(c <= 0 for c in v):
            return tuple(-c for c in v) in self._pos_set()
        return False

    def _pos_set(self) -> frozenset:
        return frozenset(self.pos_roots)

    def root_name(self, root: Root) -> str:
        """Short name: '1', '2' for simple roots, digit string otherwise, 'theta' for the top."""
        if root == self.theta:
            return "theta"
        if all(abs(c) <= 9 for c in root):
            return "".join(str(c) for c in root if True) if sum(root) > 1 else str(root.index(1) + 1)
        return "-".join(str(c) for c in root)

    def parity(self, root: Root) -> int:
        return 1 if root in self.odd_roots else 0


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
    # connectivity: the algebra must be simple
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(r):
            if j not in seen and A[i][j] != 0:
                seen.add(j)
                frontier.append(j)
    if len(seen) != r:
        raise CartanTypeError("Dynkin diagram is disconnected; only simple algebras are supported")


def _simple_norms(A: Sequence[Sequence[int]]) -> list[Fraction]:
    """Relative norms from A_ij/A_ji along the (connected) diagram."""
    r = len(A)
    norms: list[Optional[Fraction]] = [None] * r
    norms[0] = Fraction(2)
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(r):
            if A[i][j] != 0 and i != j and norms[j] is None:
                norms[j] = norms[i] * Fraction(A[i][j], A[j][i])
                frontier.append(j)
    assert all(v is not None for v in norms)
    return [Fraction(v) for v in norms]  # type: ignore[arg-type]


def _positive_definite(B: list[list[Fraction]]) -> bool:
    """Leading principal minors of a symmetric Fraction matrix."""
    r = len(B)
    M = [row[:] for row in B]
    for s in range(1, r + 1):
        sub = [[M[i][j] for j in range(s)] for i in range(s)]
        det = _det(sub)
        if det <= 0:
            return False
    return True


def _det(M: list[list[Fraction]]) -> Fraction:
    n = len(M)
    M = [row[:] for row in M]
    det = Fraction(1)
    for col in range(n):
        pivot = None
        for row in range(col, n):
            if M[row][col] != 0:
                pivot = row
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            M[col], M[pivot] = M[pivot], M[col]
            det = -det
        det *= M[col][col]
        inv = 1 / M[col][col]
        for row in range(col + 1, n):
            f = M[row][col] * inv
            if f:
                M[row] = [a - f * b for a, b in zip(M[row], M[col])]
    return det


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

    # root-string closure in the coefficient lattice
    simple = [tuple(1 if j == i else 0 for j in range(r)) for i in range(r)]
    roots: set[Root] = set(simple)
    by_height: dict[int, list[Root]] = {1: list(simple)}
    h = 1
    bound = 4 * r * r + 16
    while by_height.get(h):
        nxt: list[Root] = []
        for beta in by_height[h]:
            for i in range(r):
                cand = tuple(beta[j] + simple[i][j] for j in range(r))
                if cand in roots:
                    continue
                # root string: beta + alpha_i is a root iff p - <beta, alpha_i^vee> > 0
                pairing = sum(A[i][j] * beta[j] for j in range(r))
                p = 0
                cur = tuple(beta[j] - simple[i][j] for j in range(r))
                while all(c >= 0 for c in cur) and cur in roots:
                    p += 1
                    cur = tuple(cur[j] - simple[i][j] for j in range(r))
                if p - pairing > 0:
                    roots.add(cand)
                    nxt.append(cand)
        h += 1
        if h > bound:
            raise CartanTypeError("root closure did not terminate; matrix is not finite type")
        if nxt:
            by_height[h] = nxt

    # order: by height, then by coefficient vector (earlier simple roots first)
    pos = sorted(roots, key=lambda v: (sum(v), tuple(-c for c in v)))
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

    G = [[Fraction(2) * A[i][j] / (norms[j]) for j in range(r)] for i in range(r)]
    for i in range(r):
        for j in range(r):
            if G[i][j] != G[j][i]:
                raise CartanTypeError("coroot Gram matrix is not symmetric")
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
    elements (only the osp fixture uses it).
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.f: dict[tuple[Label, Label], dict[Label, Fraction]] = {}
        self.kappa: dict[tuple[Label, Label], Fraction] = {}
        self.parity: dict[Label, int] = {}

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

    def _set(self, a: Label, b: Label, out: dict[Label, Fraction]) -> None:
        out = {c: v for c, v in out.items() if v}
        if out:
            self.f[(a, b)] = out

    def kappa_of(self, a: Label, b: Label) -> Fraction:
        return self.kappa.get((a, b), Fraction(0))


def _pair_sign_table(rs: RootSystem, overrides: Optional[dict[Root, int]]) -> dict[tuple[Root, Root], Fraction]:
    """N_{a,b} for ordered pairs of positive roots with a+b a root."""
    pos = rs.pos_roots
    pos_set = set(pos)
    order = {a: i for i, a in enumerate(pos)}
    N: dict[tuple[Root, Root], Fraction] = {}

    def add(a: Root, b: Root, val: Fraction) -> None:
        N[(a, b)] = val
        N[(b, a)] = -val

    def p_string(a: Root, b: Root) -> int:
        """Largest m with b - m a a root."""
        m = 0
        cur = tuple(b[j] - a[j] for j in range(rs.rank))
        while rs.is_root(cur):
            m += 1
            cur = tuple(cur[j] - a[j] for j in range(rs.rank))
        return m

    def n_pos(a: Root, b: Root) -> Fraction:
        """N for positive roots a, b (0 when a+b not a root)."""
        s = tuple(a[j] + b[j] for j in range(rs.rank))
        if s not in pos_set:
            return Fraction(0)
        return N[(a, b)]

    def n_mixed(a_sign: int, a: Root, b_sign: int, b: Root) -> Fraction:
        """N for e/f labels: sign -1 means the negative root."""
        if a_sign > 0 and b_sign > 0:
            return n_pos(a, b)
        if a_sign < 0 and b_sign < 0:
            return -n_pos(a, b)
        if a_sign > 0:  # (a, -b)
            diff = tuple(a[j] - b[j] for j in range(rs.rank))
            if all(c >= 0 for c in diff) and diff in pos_set:
                # a = b + d: N_{a,-b} = -N_{b,d} d^2 / a^2
                d = diff
                return -n_pos(b, d) * rs.root_norm2(d) / rs.root_norm2(a)
            neg = tuple(-c for c in diff)
            if all(c >= 0 for c in neg) and neg in pos_set:
                # b = a + d: N_{a,-b} = N_{d,a} d^2 / b^2
                d = neg
                return n_pos(d, a) * rs.root_norm2(d) / rs.root_norm2(b)
            return Fraction(0)
        # (-a, b) = -N_{b, -a}
        return -n_mixed(1, b, -1, a)

    for gamma in pos:
        if sum(gamma) == 1:
            continue
        pairs = []
        for a in pos:
            if order[a] >= order[gamma]:
                continue
            b = tuple(gamma[j] - a[j] for j in range(rs.rank))
            if all(c >= 0 for c in b) and b in pos_set and order[a] < order[b]:
                pairs.append((a, b))
        pairs.sort(key=lambda ab: order[ab[0]])
        a1, b1 = pairs[0]  # extraspecial pair
        sign = Fraction((overrides or {}).get(gamma, 1))
        add(a1, b1, sign * (p_string(a1, b1) + 1))
        g2 = rs.root_norm2(gamma)
        for a, b in pairs[1:]:
            # Jacobi on the quadruple (b1, a1, -a, -b), all sums known already
            term = Fraction(0)
            d1 = tuple(a1[j] - a[j] for j in range(rs.rank))
            if rs.is_root(d1):
                term += (
                    n_mixed(1, a1, -1, a) * n_mixed(1, b1, -1, b) / rs.root_norm2(_abs_root(d1))
                )
            d2 = tuple(b1[j] - a[j] for j in range(rs.rank))
            if rs.is_root(d2):
                term += (
                    n_mixed(-1, a, 1, b1) * n_mixed(1, a1, -1, b) / rs.root_norm2(_abs_root(d2))
                )
            val = -g2 / N[(a1, b1)] * term
            add(a, b, val)
    return N


def _abs_root(v: Root) -> Root:
    return v if all(c >= 0 for c in v) else tuple(-c for c in v)


def build_structure_table(
    rs: RootSystem, sign_overrides: Optional[dict[Root, int]] = None
) -> StructureTable:
    """Full Cartan-Weyl table: kappa plus every bracket coefficient."""
    tab = StructureTable(rs)
    r = rs.rank
    N = _pair_sign_table(rs, sign_overrides)
    pos = rs.pos_roots
    pos_set = set(pos)

    def n_pos(a, b):
        return N.get((a, b), Fraction(0))

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
            if lab:
                tab._set(("h", i), ("e", a), {("e", a): lab})
                tab._set(("e", a), ("h", i), {("e", a): -lab})
                tab._set(("h", i), ("f", a), {("f", a): -lab})
                tab._set(("f", a), ("h", i), {("f", a): lab})

    # [e_a, f_a] = h_a expanded on the h_i
    for a in pos:
        covee = [Fraction(2) * lab / rs.root_norm2(a) for lab in rs.root_labels(a)]
        coeffs = {}
        for j in range(r):
            v = sum(rs.Ginv[j][i] * covee[i] for i in range(r))
            if v:
                coeffs[("h", j)] = v
        tab._set(("e", a), ("f", a), coeffs)
        tab._set(("f", a), ("e", a), {c: -v for c, v in coeffs.items()})

    # root-root brackets
    for a in pos:
        for b in pos:
            if a == b:
                continue
            s = tuple(a[j] + b[j] for j in range(r))
            if s in pos_set:
                v = n_pos(a, b)
                tab._set(("e", a), ("e", b), {("e", s): v})
                tab._set(("f", a), ("f", b), {("f", s): -v})
            d = tuple(a[j] - b[j] for j in range(r))
            if all(c >= 0 for c in d) and d in pos_set:
                # [e_a, f_b] with a = b + d
                v = -n_pos(b, d) * rs.root_norm2(d) / rs.root_norm2(a)
                tab._set(("e", a), ("f", b), {("e", d): v})
                tab._set(("f", b), ("e", a), {("e", d): -v})
                # mirrored bracket [f_a, e_b]
                tab._set(("f", a), ("e", b), {("f", d): -v})
                tab._set(("e", b), ("f", a), {("f", d): v})
    return tab


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _bracket_elements(
    tab: StructureTable, x: dict[Label, Fraction], y: dict[Label, Fraction], graded: bool = False
) -> dict[Label, Fraction]:
    out: dict[Label, Fraction] = {}
    for a, ca in x.items():
        for b, cb in y.items():
            for c, v in tab.bracket(a, b).items():
                val = ca * cb * v
                if val:
                    out[c] = out.get(c, Fraction(0)) + val
    return {c: v for c, v in out.items() if v}


def verify_jacobi(tab: StructureTable) -> list[tuple[Label, Label, Label]]:
    """Exhaustive (graded) Jacobi check; returns the violating triples."""
    basis = tab.basis()
    bad = []
    for a in basis:
        pa = tab.label_parity(a)
        for b in basis:
            pb = tab.label_parity(b)
            for c in basis:
                pc = tab.label_parity(c)
                # [[a,b],c] - [a,[b,c]] + (-1)^{|a||b|} [b,[a,c]] = 0
                acc: dict[Label, Fraction] = {}

                def add(coeffs: dict[Label, Fraction], sign: int) -> None:
                    for lab, v in coeffs.items():
                        acc[lab] = acc.get(lab, Fraction(0)) + sign * v

                ab = tab.bracket(a, b)
                add(_bracket_elements(tab, ab, {c: Fraction(1)}), 1)
                bc = tab.bracket(b, c)
                add(_bracket_elements(tab, {a: Fraction(1)}, bc), -1)
                ac = tab.bracket(a, c)
                s = -1 if (pa and pb) else 1
                add(_bracket_elements(tab, {b: Fraction(1)}, ac), s)
                if any(v for v in acc.values()):
                    bad.append((a, b, c))
    return bad


def verify_killing_invariance(tab: StructureTable) -> list[tuple[Label, Label, Label]]:
    """kappa([x,y],z) = kappa(x,[y,z]) on all basis triples."""
    basis = tab.basis()
    bad = []
    for a in basis:
        for b in basis:
            ab = tab.bracket(a, b)
            for c in basis:
                lhs = sum((v * tab.kappa_of(lab, c) for lab, v in ab.items()), Fraction(0))
                bc = tab.bracket(b, c)
                rhs = sum((v * tab.kappa_of(a, lab) for lab, v in bc.items()), Fraction(0))
                if lhs != rhs:
                    bad.append((a, b, c))
    return bad


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
            if labs[i]:
                tab._set(("h", i), ("e", a), {("e", a): labs[i]})
                tab._set(("e", a), ("h", i), {("e", a): -labs[i]})
                tab._set(("h", i), ("f", a), {("f", a): -labs[i]})
                tab._set(("f", a), ("h", i), {("f", a): labs[i]})

    def setpair(a: Label, b: Label, out: dict[Label, Fraction]) -> None:
        tab._set(a, b, out)
        # graded antisymmetry: [b,a] = -(-1)^{|a||b|}[a,b]
        s = -1 if not (tab.label_parity(a) and tab.label_parity(b)) else 1
        tab._set(b, a, {c: s * v for c, v in out.items()})

    setpair(("e", a1), ("f", a1), {("h", 0): one})
    setpair(("e", a2), ("f", a2), {("h", 1): one})
    setpair(("e", a12), ("f", a12), {("h", 0): one, ("h", 1): one})
    setpair(("e", a1), ("e", a2), {("e", a12): one})
    setpair(("f", a1), ("f", a2), {("f", a12): -one})
    setpair(("e", a2), ("f", a12), {("f", a1): one})
    setpair(("f", a2), ("e", a12), {("e", a1): one})
    setpair(("e", a1), ("f", a12), {("f", a2): -one})
    setpair(("f", a1), ("e", a12), {("e", a2): one})
    return rs, tab


# ---------------------------------------------------------------------------
# JSON input
# ---------------------------------------------------------------------------

def load_algebra_json(path: str) -> tuple[RootSystem, StructureTable]:
    """Read {"cartan_matrix": [[...]], "extraspecial_signs": {"<coeffs>": +-1}}.

    Malformed input raises ``CartanTypeError``: invalid JSON, a Cartan entry
    that is not an integer, a sign other than +1 or -1, or a sign key that is
    not a non-simple positive root.
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
    rs = build_root_system(A, name=data.get("name", "custom"))
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
