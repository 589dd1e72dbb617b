import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burchlab.groebner import Ideal, PreconditionError, entry_ideal, ideal_colon, max_ideal, syzygy_matrix
from burchlab.monomial import (
    MonomialIdeal,
    count_m_primary,
    enumerate_m_primary,
    hilbert_burch_matrix,
    mono_colon_m,
    monomial_burch_test,
    staircase_burch_test,
)
from burchlab.poly import RingContext

P = 32003
CTX = RingContext(P, ("x", "y"))


def mono_ideal(*gens):
    return MonomialIdeal.make(CTX, gens)


def test_canonical_antichain():
    I = mono_ideal((2, 0), (2, 1), (0, 3), (1, 2))
    assert I.gens == ((0, 3), (1, 2), (2, 0))
    assert I == mono_ideal((2, 0), (1, 2), (0, 3))


def test_colon_by_max_ideal_adds_socle():
    I = mono_ideal((4, 0), (2, 2), (0, 4))
    assert mono_colon_m(I).gens == ((0, 4), (1, 3), (2, 2), (3, 1), (4, 0))


def test_colon_of_max_ideal_is_unit():
    m = MonomialIdeal.max_ideal(CTX)
    assert mono_colon_m(m).contains_unit


def test_colon_principal_x_cubed():
    cxy = mono_ideal((3, 0))
    assert mono_colon_m(cxy) == cxy


def test_colon_agrees_with_groebner_route():
    m = max_ideal(CTX)
    for mi in enumerate_m_primary(CTX, 4):
        fast = mono_colon_m(mi)
        slow = ideal_colon(mi.to_ideal(), m)
        if fast.contains_unit:
            assert slow.contains_unit
        else:
            assert fast.to_ideal() == slow


def test_burch_criterion_examples():
    assert not monomial_burch_test(mono_ideal((4, 0), (2, 2), (0, 4))).burch
    v = monomial_burch_test(mono_ideal((4, 0), (3, 1), (1, 3), (0, 4)))
    assert v.burch
    m, i = v.witness_monomial, v.witness_variable
    # the witness satisfies the stated divisibility conditions
    assert m[i] > 0
    base = tuple(e - (1 if j == i else 0) for j, e in enumerate(m))
    I = mono_ideal((4, 0), (3, 1), (1, 3), (0, 4))
    for j in range(2):
        shifted = tuple(e + (1 if k == j else 0) for k, e in enumerate(base))
        assert I.contains(shifted)


def test_burch_criterion_one_variable():
    cx = RingContext(P, ("x",))
    v = monomial_burch_test(MonomialIdeal.make(cx, [(3,)]))
    assert v.burch and v.witness_monomial == (3,)


def test_staircase_criterion_examples():
    assert not staircase_burch_test(mono_ideal((4, 0), (2, 2), (0, 4)))
    assert staircase_burch_test(mono_ideal((4, 0), (3, 1), (1, 3), (0, 4)))
    assert staircase_burch_test(mono_ideal((1, 0), (0, 1)))


def test_staircase_criterion_preconditions():
    with pytest.raises(PreconditionError):
        staircase_burch_test(mono_ideal((3, 0)))  # not m-primary
    cx3 = RingContext(P, ("x", "y", "z"))
    with pytest.raises(PreconditionError):
        staircase_burch_test(MonomialIdeal.make(cx3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))


def test_hilbert_burch_bidiagonal():
    M = hilbert_burch_matrix(mono_ideal((4, 0), (2, 2), (0, 4)))
    entries = sorted(str(M.entry(i, j)) for j in range(2) for i in range(3) if not M.entry(i, j).is_zero)
    assert entries == ["-x^2", "-x^2", "y^2", "y^2"]
    assert entry_ideal(M) == Ideal.make(CTX, [CTX.monomial((2, 0)), CTX.monomial((0, 2))])


def test_hilbert_burch_koszul_column():
    M = hilbert_burch_matrix(MonomialIdeal.max_ideal(CTX))
    assert M.shape == (2, 1)
    assert {str(M.entry(0, 0)), str(M.entry(1, 0))} == {"y", "-x"}


def test_hilbert_burch_four_generators():
    M = hilbert_burch_matrix(mono_ideal((4, 0), (3, 1), (1, 3), (0, 4)))
    assert entry_ideal(M) == max_ideal(CTX)


def test_hilbert_burch_matches_general_syzygy_route():
    # the closed-form bidiagonal matrix and the graded kernel computation
    # must generate the same entry ideal
    for mi in enumerate_m_primary(CTX, 4):
        if mi.gens == ((0, 1), (1, 0)):
            pass  # m itself still works
        hb = hilbert_burch_matrix(mi)
        general = syzygy_matrix(mi.to_ideal())
        assert general.shape == hb.shape
        if hb.columns:
            assert entry_ideal(hb) == entry_ideal(general)


def test_minors_of_hilbert_burch_regenerate_ideal():
    # maximal minors of the presentation matrix give back the generators (up
    # to sign): check on a couple of staircases by direct expansion
    for gens in [((4, 0), (2, 2), (0, 4)), ((4, 0), (3, 1), (1, 3), (0, 4))]:
        mi = mono_ideal(*gens)
        by_a_desc = sorted(mi.gens, key=lambda g: -g[0])
        M = hilbert_burch_matrix(mi)
        mu = M.shape[0]
        for drop in range(mu):
            rows = [r for r in range(mu) if r != drop]
            det = _det([[M.entry(r, c) for c in range(mu - 1)] for r in rows])
            assert len(det.terms) == 1
            assert det.lead_exps == by_a_desc[drop]


def _det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    ctx = None
    for row in mat:
        for e in row:
            ctx = e.ctx
            break
        if ctx:
            break
    total = ctx.zero()
    for j, e in enumerate(mat[0]):
        minor = [[row[k] for k in range(n) if k != j] for row in mat[1:]]
        term = e * _det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


# -- enumeration ----------------------------------------------------------------


def test_enumeration_counts():
    # lower sets of the triangle a+b <= d, minus the empty one
    assert count_m_primary(0) == 1
    assert count_m_primary(1) == 4
    assert count_m_primary(2) == 13
    assert count_m_primary(5) == 428


def test_enumeration_d0_is_max_ideal():
    out = list(enumerate_m_primary(CTX, 0))
    assert out == [MonomialIdeal.max_ideal(CTX)]


def test_enumeration_d1_exact_list():
    out = {tuple(mi.gens) for mi in enumerate_m_primary(CTX, 1)}
    assert out == {
        ((0, 1), (1, 0)),
        ((0, 1), (2, 0)),
        ((0, 2), (1, 0)),
        ((0, 2), (1, 1), (2, 0)),
    }


def test_enumeration_unique_and_m_primary():
    seen = set()
    for mi in enumerate_m_primary(CTX, 4):
        assert mi.is_m_primary()
        assert mi.gens not in seen
        seen.add(mi.gens)
        # socle degree bound: m^(d+1) ⊆ I
        assert all(sum(m) <= 4 for m in mi.standard_monomials())
    assert len(seen) == count_m_primary(4)


def test_enumeration_deterministic_order():
    a = [mi.gens for mi in enumerate_m_primary(CTX, 3)]
    b = [mi.gens for mi in enumerate_m_primary(CTX, 3)]
    assert a == b


def test_enumeration_bound_rejected():
    with pytest.raises(PreconditionError) as err:
        list(enumerate_m_primary(CTX, 8))
    assert "4862" in str(err.value) or "too large" in str(err.value)


def test_enumeration_needs_two_variables():
    cx3 = RingContext(P, ("x", "y", "z"))
    with pytest.raises(PreconditionError):
        list(enumerate_m_primary(cx3, 2))


@settings(max_examples=30, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=5))
def test_membership_matches_divisibility(monos):
    I = MonomialIdeal.make(CTX, monos)
    for a in range(7):
        for b in range(7):
            expected = any(a >= g[0] and b >= g[1] for g in monos)
            assert I.contains((a, b)) == expected
