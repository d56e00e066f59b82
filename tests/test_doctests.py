import doctest

from kohnert import bases, perms, poly


def test_perms_doctests():
    results = doctest.testmod(perms)
    assert results.failed == 0 and results.attempted > 0


def test_poly_doctests():
    results = doctest.testmod(poly)
    assert results.failed == 0 and results.attempted > 0


def test_bases_doctests():
    results = doctest.testmod(bases)
    assert results.failed == 0 and results.attempted > 0
