import ast
import contextlib
import doctest
import io
import re
from pathlib import Path

from kohnert import bases, cli, diagrams, harness, perms, poly, tableaux


README = Path(__file__).resolve().parent.parent / "README.md"


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


def test_harness_doctests():
    results = doctest.testmod(harness)
    assert results.failed == 0 and results.attempted > 0


def test_tableaux_doctests():
    results = doctest.testmod(tableaux)
    assert results.failed == 0 and results.attempted > 0


def test_readme_library_example():
    # run the README's library example as written, so that it cannot rot
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    extracted, j, agrees = out.getvalue().splitlines()
    assert sorted(ast.literal_eval(extracted).values()) == [1, 1, 1, 1]
    assert j.count(" + ") + 1 == 12  # the 12 terms the comment names
    assert agrees == "True"


def test_readme_names_every_cli_bound():
    text = README.read_text()
    bounds = {name for name in vars(cli) if name.startswith("MAX_")}
    # the input-size bounds and exact counts; the cost of the work itself is
    # bounded by the one work budget
    assert bounds == {
        "MAX_DIAGRAM_BOX",
        "MAX_EGLS_LENGTH",
        "MAX_EGLS_LETTER",
        "MAX_EXPAND_VARIABLE",
        "MAX_SPLIT_PARTS",
        "MAX_SPLIT_WEIGHT",
        "MAX_SPLIT_WORDS",
        "MAX_TALPHA_PARTS",
        "MAX_TALPHA_WEIGHT",
    }
    assert [name for name in sorted(bounds | {"WORK_BUDGET"}) if f"cli.{name}" not in text] == []


def test_readme_names_no_missing_module_name():
    # a helper deleted from a module must not live on in the README
    modules = {
        m.__name__.rsplit(".", 1)[1]: m
        for m in (bases, cli, diagrams, harness, perms, poly, tableaux)
    }
    named = {
        (module, name)
        for module, name in re.findall(r"`(?:kohnert\.)?(\w+)\.(\w+)", README.read_text())
        if module in modules
    }
    assert len(named) > 20
    assert [f"{m}.{n}" for m, n in sorted(named) if not hasattr(modules[m], n)] == []
