import doctest

from kohnert import bases, diagrams, perms, poly, tableaux


def test_perms_doctests():
    results = doctest.testmod(perms)
    assert results.failed == 0 and results.attempted > 0


def test_poly_doctests():
    results = doctest.testmod(poly)
    assert results.failed == 0 and results.attempted > 0


def test_bases_doctests():
    results = doctest.testmod(bases)
    assert results.failed == 0 and results.attempted > 0


def test_diagrams_doctests():
    results = doctest.testmod(diagrams)
    assert results.failed == 0 and results.attempted > 0


def test_tableaux_doctests():
    results = doctest.testmod(tableaux)
    assert results.failed == 0 and results.attempted > 0
