from burchlab.corpus import ENTRIES, run_corpus


def test_corpus_passes_at_default_prime():
    ok, results = run_corpus()
    failing = {
        name: [r.label for r in rows if not r.ok]
        for name, rows in results.items()
        if not all(r.ok for r in rows)
    }
    assert ok, failing


def test_corpus_verdicts_characteristic_independent():
    # the corpus is monomial/binomial data: rerunning at p = 101 must give
    # byte-identical per-check verdicts
    _, base = run_corpus(32003)
    _, alt = run_corpus(101)
    assert set(base) == set(alt) == {e.name for e in ENTRIES}
    for name in base:
        assert [(r.label, r.ok) for r in base[name]] == [(r.label, r.ok) for r in alt[name]]


def test_corpus_single_entry():
    ok, results = run_corpus(only="e44")
    assert ok and set(results) == {"e44"}


def test_corpus_passes_at_p_2_and_3():
    """The verdicts do not depend on the characteristic, and at p = 2 the
    printed witnesses carry no sign (the coefficient p - 1 is 1 there)."""
    for p in (2, 3):
        ok, results = run_corpus(p)
        assert ok, {name: [r.label for r in rows if not r.ok] for name, rows in results.items()}
