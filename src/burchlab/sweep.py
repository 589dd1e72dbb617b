"""Oracle sweeps over the enumerated m-primary monomial ideals of k[x,y].

For every ideal the sweep evaluates all decision routes that must agree:
the product definition, the four crosscheck characterizations, the monomial
criterion with witness, the staircase corollary, the generator-count
criterion, positivity of the intrinsic invariant, and (away from the field
case) the second-syzygy splitting.  Any disagreement is returned as a
counterexample record; the expected count is zero.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .artinian import quotient_algebra
from .burch import (
    burch_criteria_crosscheck,
    burch_invariant,
    choi_invariant,
    cube_zero_test,
    mu_growth_test,
)
from .monomial import (
    MonomialIdeal,
    enumerate_m_primary,
    hilbert_burch_matrix,
    monomial_burch_test,
    staircase_burch_test,
)
from .poly import RingContext
from .resolution import k_summand_test, residue_field

ALL_CHECKS = (
    "definition",
    "colon_shift",
    "socle_action",
    "type_count",
    "monomial_witness",
    "staircase",
    "mu_growth",
    "c_positive",
    "omega2_summand",
)


@dataclass
class IdealRecord:
    staircase: tuple
    verdicts: dict
    burch: bool
    length: int
    edim: int
    type: int
    mu_I: int
    mu_mI: int
    choi: int
    c_invariant: int
    beta2: int
    h1_koszul: int
    gorenstein: bool
    cube_zero: bool
    cube_verdict: bool | None
    hb_entry_has_variable: bool

    @property
    def agree(self) -> bool:
        stated = {v for v in self.verdicts.values() if v is not None}
        return len(stated) == 1


@dataclass
class SweepResult:
    max_socle_degree: int
    records: list[IdealRecord] = field(default_factory=list)
    counterexamples: list[IdealRecord] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.records)


def analyze_ideal(mi: MonomialIdeal, checks=ALL_CHECKS) -> IdealRecord:
    I = mi.to_ideal()
    cross = burch_criteria_crosscheck(I)
    verdicts = {name: None for name in ALL_CHECKS}
    for name in ("definition", "colon_shift", "socle_action", "type_count"):
        if name in checks:
            verdicts[name] = cross.verdicts[name]
    if "monomial_witness" in checks:
        verdicts["monomial_witness"] = monomial_burch_test(mi).burch
    if "staircase" in checks:
        verdicts["staircase"] = staircase_burch_test(mi)
    lem = mu_growth_test(I)
    if "mu_growth" in checks:
        verdicts["mu_growth"] = lem.burch

    R = quotient_algebra(I)
    c = burch_invariant(R)
    if "c_positive" in checks:
        verdicts["c_positive"] = c > 0
    k = residue_field(R)
    res = k.resolution(2)
    beta2 = res.betti[2]
    if "omega2_summand" in checks:
        # the syzygy criterion requires R != k (the field presents I = m)
        verdicts["omega2_summand"] = (
            None if R.is_field else k_summand_test(res.syzygy(2)).splits
        )

    cube = R.max_power_basis(3).shape[1] == 0
    cube_verdict = cube_zero_test(R).burch if cube else None
    hb = hilbert_burch_matrix(mi)
    has_var = any(
        h.total_degree() == 1 for col in hb.columns for h in col if not h.is_zero
    )
    return IdealRecord(
        staircase=mi.gens,
        verdicts=verdicts,
        burch=cross.burch,
        length=R.length,
        edim=R.edim,
        type=R.type(),
        mu_I=lem.mu_I,
        mu_mI=lem.mu_mI,
        choi=choi_invariant(I),
        c_invariant=c,
        beta2=beta2,
        h1_koszul=R.koszul_h1,
        gorenstein=R.is_gorenstein(),
        cube_zero=cube,
        cube_verdict=cube_verdict,
        hb_entry_has_variable=has_var,
    )


def run_sweep(max_socle_degree: int, p: int = 32003, checks=ALL_CHECKS) -> SweepResult:
    ctx = RingContext(p, ("x", "y"))
    result = SweepResult(max_socle_degree)
    for mi in enumerate_m_primary(ctx, max_socle_degree):
        rec = analyze_ideal(mi, checks)
        result.records.append(rec)
        if not rec.agree:
            result.counterexamples.append(rec)
    return result
