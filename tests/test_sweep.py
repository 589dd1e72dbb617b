"""Module-level oracle sweeps (the acceptance suite runs the d <= 5 version)."""
import pytest

from burchlab.burch import burch_ideal_test, m_full_test, weakly_m_full_test
from burchlab.groebner import ideal_colon, max_ideal
from burchlab.monomial import enumerate_m_primary, mono_colon_m
from burchlab.poly import RingContext
from burchlab.sweep import analyze_ideal, run_sweep

P = 32003
CTX = RingContext(P, ("x", "y"))


@pytest.fixture(scope="module")
def sweep4():
    return run_sweep(4)


def test_counts_and_agreement(sweep4):
    assert sweep4.count == 131
    assert sweep4.counterexamples == []


def test_hilbert_burch_entry_variable_iff_burch(sweep4):
    # in two variables: the minimized presentation matrix has a linear entry
    # exactly for the Burch staircases
    for rec in sweep4.records:
        assert rec.hb_entry_has_variable == rec.burch, rec.staircase


def test_m_squared_zero_rings_are_burch(sweep4):
    # m^2 ⊆ I exactly when the Hilbert function is (1, edim)
    for rec in sweep4.records:
        if rec.length == rec.edim + 1:
            assert rec.burch, rec.staircase


def test_colon_fast_path_agrees_full_enumeration():
    m = max_ideal(CTX)
    for mi in enumerate_m_primary(CTX, 5):
        fast = mono_colon_m(mi)
        slow = ideal_colon(mi.to_ideal(), m)
        if fast.contains_unit:
            assert slow.contains_unit
        else:
            assert fast.to_ideal() == slow


def test_weak_fullness_implies_burch_on_sweep():
    # weakly m-full + depth zero => Burch; m-full => weakly m-full
    for mi in enumerate_m_primary(CTX, 3):
        I = mi.to_ideal()
        weakly = weakly_m_full_test(I)
        if weakly:
            assert burch_ideal_test(I, with_invariants=False).burch
        if m_full_test(I, trials=2).m_full:
            assert weakly


def test_analyze_ideal_builds_one_algebra_of_the_ideal(monkeypatch):
    """The cross-check and the ring invariants of one sweep record share
    one S/I."""
    from burchlab import artinian

    built = []
    real = artinian.QuotientAlgebra.__init__

    def recording(self, ideal):
        built.append(ideal.gens)
        real(self, ideal)

    monkeypatch.setattr(artinian.QuotientAlgebra, "__init__", recording)
    for mi in list(enumerate_m_primary(CTX, 3))[:5]:
        built.clear()
        analyze_ideal(mi)
        assert built.count(mi.to_ideal().gens) == 1
