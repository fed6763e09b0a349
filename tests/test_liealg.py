import copy
import hashlib
import random
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from wakimoto.liealg import (
    CartanTypeError,
    build_root_system,
    build_structure_table,
    get_algebra,
    osp22_fixture,
    verify_jacobi,
)

from oracles import jacobi_failures_fraction, root_string_positive_roots, verify_killing_invariance


def test_b2_root_data():
    rs = build_root_system("B2")
    assert rs.rank == 2
    assert len(rs.pos_roots) == 4
    assert rs.dim == 10
    assert rs.hvee == 3
    assert rs.theta == (1, 2)
    assert set(rs.pos_roots) == {(1, 0), (0, 1), (1, 1), (1, 2)}
    # engine order: height then first-simple-root-first
    assert rs.pos_roots == ((1, 0), (0, 1), (1, 1), (1, 2))
    assert rs.root_norm2((1, 2)) == 2
    assert rs.root_norm2((1, 0)) == 2
    assert rs.root_norm2((0, 1)) == 1
    assert rs.root_norm2((1, 1)) == 1
    assert rs.G == ((2, -2), (-2, 4))


def test_a1_root_data():
    rs = build_root_system("A1")
    assert rs.pos_roots == ((1,),)
    assert rs.dim == 3
    assert rs.theta == (1,)
    assert rs.hvee == 2


def test_a2_closure_matches_oracle():
    rs = build_root_system("A2")
    assert rs.pos_roots == root_string_positive_roots(rs.cartan)
    assert len(rs.pos_roots) == 3
    assert rs.hvee == 3


# Shrinking a failure of the properties below through their oracles is
# slow, so a broken root system or verify_jacobi fails on the first failing
# draw, unshrunk.
_NO_SHRINK = tuple(p for p in Phase if p != Phase.shrink)

_BUILTIN = [f"{family}{r}" for family, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3)) for r in range(low, 9)]
_BUILTIN += ["E6", "E7", "E8", "F4", "G2"]


@pytest.mark.parametrize("label", _BUILTIN)
@settings(max_examples=4, deadline=None, phases=_NO_SHRINK)
@given(data=st.data())
def test_weyl_orbit_roots_match_the_root_string_search(label, data):
    """The positive roots of every built-in type up to rank 8, its simple roots
    relabelled by a drawn permutation, equal the root-string search in set and order."""
    A = build_root_system(label).cartan
    perm = data.draw(st.permutations(range(len(A))))
    relabelled = [[A[p][q] for q in perm] for p in perm]
    assert build_root_system(relabelled).pos_roots == root_string_positive_roots(relabelled)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2"])
def test_strange_formula(label):
    rs = build_root_system(label)
    assert rs.dim == 2 * len(rs.pos_roots) + rs.rank
    # rho^2 = hvee * theta^2 * d / 24 with theta^2 = 2
    assert rs.rho_norm2() == Fraction(rs.hvee * 2 * rs.dim, 24)
    # rho . alpha_i^vee = 1 is built in through the Dynkin labels
    for i in range(rs.rank):
        e_i = [Fraction(1) if j == i else Fraction(0) for j in range(rs.rank)]
        labels = rs.root_labels(tuple(1 if j == i else 0 for j in range(rs.rank)))
        coroot = [2 * x / rs.norms[i] for x in labels]
        assert rs.weight_inner(rs.rho_labels, coroot) == 1


def test_rejects_non_finite_type():
    with pytest.raises(CartanTypeError):
        build_root_system([[2, -2], [-2, 2]])  # affine A1^(1)
    with pytest.raises(CartanTypeError):
        build_root_system([[2, 0], [0, 2]])  # disconnected
    with pytest.raises(CartanTypeError):
        build_root_system([[2, -1], [-5, 2]])
    with pytest.raises(CartanTypeError):
        build_root_system([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])  # affine A2^(1)
    with pytest.raises(CartanTypeError):
        build_root_system([[2, -3], [-3, 2]])  # hyperbolic


def test_b2_structure_constants_match_reference():
    rs = build_root_system("B2")
    tab = build_structure_table(rs)
    a1, a2, a11, th = (1, 0), (0, 1), (1, 1), (1, 2)
    assert tab.fconst(("e", a1), ("e", a2), ("e", a11)) == 1
    assert tab.fconst(("e", a2), ("e", a11), ("e", th)) == 2
    assert tab.fconst(("h", 0), ("e", a11), ("e", a11)) == 1
    assert tab.fconst(("h", 1), ("e", a11), ("e", a11)) == 0
    assert tab.fconst(("h", 0), ("e", th), ("e", th)) == 0
    assert tab.fconst(("h", 1), ("e", th), ("e", th)) == 2
    assert tab.fconst(("e", a11), ("f", a11), ("h", 0)) == 2
    assert tab.fconst(("e", a11), ("f", a11), ("h", 1)) == 1
    assert tab.fconst(("e", th), ("f", th), ("h", 0)) == 1
    assert tab.fconst(("e", th), ("f", th), ("h", 1)) == 1
    # kappa
    for a in rs.pos_roots:
        assert tab.kappa_of(("e", a), ("f", a)) == Fraction(2) / rs.root_norm2(a)
    assert tab.kappa_of(("h", 0), ("h", 0)) == 2
    assert tab.kappa_of(("h", 0), ("h", 1)) == -2


def test_sum_not_root_gives_zero():
    rs = build_root_system("B2")
    tab = build_structure_table(rs)
    assert tab.fconst(("e", (1, 0)), ("e", (1, 1)), ("e", (1, 2))) == 0
    assert tab.bracket(("e", (1, 0)), ("e", (1, 2))) == {}


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "A3", "G2", "D4"])
def test_jacobi_holds(label):
    rs = build_root_system(label)
    tab = build_structure_table(rs)
    assert verify_jacobi(tab) == []
    assert verify_killing_invariance(tab) == []


def test_jacobi_detects_sign_flip():
    rs = build_root_system("B2")
    tab = build_structure_table(rs)
    key = (("e", (1, 0)), ("e", (0, 1)))
    tab.f[key] = {("e", (1, 1)): Fraction(-1)}
    assert verify_jacobi(tab) != []


_TABLES = {label: get_algebra(label)[1] for label in ("B2", "G2", "OSP22")}


@st.composite
def _perturbed_table(draw):
    """One f_ab^c shifted by a nonzero rational, drawn three ways: with its
    graded-antisymmetric partner f_ba^c ("both"), on f_ab alone ("one", so the
    table is not antisymmetric), or, on OSP22, both with c of the wrong parity
    |c| != |a| + |b| ("parity", so the table is not graded)."""
    name = draw(st.sampled_from(sorted(_TABLES)))
    tab = copy.deepcopy(_TABLES[name])
    basis = tab.basis()
    a, b = draw(st.lists(st.sampled_from(basis), min_size=2, max_size=2, unique=True))
    kind = draw(st.sampled_from(["both", "one", "parity"] if name == "OSP22" else ["both", "one"]))
    wrong = [c for c in basis if tab.label_parity(c) != tab.label_parity(a) ^ tab.label_parity(b)]
    c = draw(st.sampled_from(wrong if kind == "parity" else basis))
    delta = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool))
    partner = delta if tab.label_parity(a) and tab.label_parity(b) else -delta
    for x, y, v in ((a, b, delta), (b, a, partner))[: 1 if kind == "one" else 2]:
        out = dict(tab.bracket(x, y))
        out[c] = out.get(c, Fraction(0)) + v
        tab.f[(x, y)] = {lab: w for lab, w in out.items() if w}
    return tab


@settings(deadline=None, max_examples=60, phases=_NO_SHRINK)
@given(_perturbed_table())
def test_verify_jacobi_matches_fraction_oracle(tab):
    bad = verify_jacobi(tab)
    assert bad == jacobi_failures_fraction(tab)
    assert bad


def _shifted(label, a, b, c, sides):
    """The table of ``label`` with 1 added to f_ab^c, and its partner when ``sides`` is 2."""
    tab = copy.deepcopy(_TABLES[label])
    s = 1 if tab.label_parity(a) and tab.label_parity(b) else -1
    for x, y, v in ((a, b, 1), (b, a, s))[:sides]:
        tab.f[(x, y)] = {**tab.bracket(x, y), c: tab.fconst(x, y, c) + v}
    return tab


@pytest.mark.parametrize(
    "tab",
    [
        # antisymmetric, not graded: an even e_alpha1 added to the odd [e_alpha1, e_alpha1+alpha2]
        _shifted("OSP22", ("e", (1, 0)), ("e", (1, 1)), ("e", (1, 0)), 2),
        # graded, not antisymmetric: [e_alpha1, e_alpha2] changed and [e_alpha2, e_alpha1] kept
        _shifted("B2", ("e", (1, 0)), ("e", (0, 1)), ("e", (1, 1)), 1),
    ],
    ids=["wrong-parity", "one-sided"],
)
def test_jacobi_scans_every_ordering_of_a_table_without_both_symmetries(tab):
    """Each symmetry the multiset scan rests on, broken alone: the failing
    triples are not closed under reordering, so no scan of the multisets
    could report them, and the verdict is the oracle's."""
    bad = verify_jacobi(tab)
    assert bad == jacobi_failures_fraction(tab)
    assert {p for t in bad for p in permutations(t)} != set(bad)


def test_sign_override_still_consistent():
    rs = build_root_system("B2")
    tab = build_structure_table(rs, sign_overrides={(1, 1): -1})
    assert tab.fconst(("e", (1, 0)), ("e", (0, 1)), ("e", (1, 1))) == -1
    assert verify_jacobi(tab) == []
    assert verify_killing_invariance(tab) == []


def test_osp22_fixture_values():
    rs, tab = osp22_fixture()
    a1, a2, a12 = (1, 0), (0, 1), (1, 1)
    assert rs.hvee == 1
    assert rs.parity(a2) == 1 and rs.parity(a12) == 1 and rs.parity(a1) == 0
    assert tab.fconst(("e", a12), ("f", a12), ("h", 0)) == 1
    assert tab.fconst(("e", a12), ("f", a12), ("h", 1)) == 1
    assert tab.fconst(("e", a1), ("e", a2), ("e", a12)) == 1
    assert tab.fconst(("f", a1), ("f", a2), ("f", a12)) == -1
    assert tab.fconst(("e", a2), ("f", a12), ("f", a1)) == 1
    assert tab.fconst(("f", a2), ("e", a12), ("e", a1)) == 1
    assert tab.fconst(("e", a1), ("f", a12), ("f", a2)) == -1
    assert tab.fconst(("f", a1), ("e", a12), ("e", a2)) == 1
    assert tab.kappa_of(("e", a2), ("f", a2)) == 1
    assert tab.kappa_of(("f", a2), ("e", a2)) == -1
    # Weyl vector is -alpha_2: rho labels (1, 0) in this basis
    assert rs.weight_inner((1, 0), (1, 0)) == 0  # isotropic


def test_osp22_graded_jacobi():
    rs, tab = osp22_fixture()
    assert verify_jacobi(tab) == []
    assert verify_killing_invariance(tab) == []


def test_get_algebra_selectors(tmp_path):
    rs, tab = get_algebra("B2")
    assert rs.name == "B2"
    rs2, _ = get_algebra("OSP22")
    assert rs2.name == "OSP22"
    p = tmp_path / "cartan.json"
    p.write_text('{"cartan_matrix": [[2, -1], [-2, 2]], "name": "my-b2"}')
    rs3, tab3 = get_algebra(str(p))
    assert rs3.pos_roots == rs.pos_roots
    assert verify_jacobi(tab3) == []


_PINNED = [f"A{r}" for r in range(1, 7)] + [f"B{r}" for r in range(2, 7)] + [f"C{r}" for r in range(2, 7)]
_PINNED += ["D4", "D5", "D6", "E6", "E7", "E8", "F4", "G2", "OSP22"]


def _table_digest(tab):
    """sha256 of the sorted f and kappa items, each Fraction written with ``str``."""
    f = sorted((key, sorted((c, str(v)) for c, v in out.items())) for key, out in tab.f.items())
    kappa = sorted((key, str(v)) for key, v in tab.kappa.items())
    return hashlib.sha256(repr((f, kappa)).encode()).hexdigest()


def _flipped_table(label):
    """The table with the extraspecial sign flipped on a seeded nonempty set of non-simple roots."""
    rs = build_root_system(label)
    nonsimple = [a for a in rs.pos_roots if sum(a) > 1]
    rng = random.Random(label)
    flipped = rng.sample(nonsimple, rng.randint(1, len(nonsimple)))
    return build_structure_table(rs, {a: -1 for a in flipped})


def test_every_structure_table_is_pinned():
    """Each built-in table, and a sign-flipped one per algebra of rank 2 to 4, hashes as stored."""
    digests = {label: _table_digest(get_algebra(label)[1]) for label in _PINNED}
    for label in _PINNED:
        if label != "OSP22" and 2 <= int(label[1:]) <= 4:
            digests[f"{label}-flipped"] = _table_digest(_flipped_table(label))
    lines = (Path(__file__).parent / "golden" / "structure-tables.sha256").read_text().splitlines()
    assert digests == {name: digest for digest, name in (line.split() for line in lines)}
