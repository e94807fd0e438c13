"""Every name ``doilyspace.__all__`` lists is importable from the package, and
used inside it; README's library example prints what its comments say."""

import ast
from pathlib import Path

import doilyspace

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_names_resolve():
    missing = [name for name in doilyspace.__all__ if not hasattr(doilyspace, name)]
    assert missing == []
    assert len(set(doilyspace.__all__)) == len(doilyspace.__all__)


def test_star_import_binds_every_listed_name():
    namespace: dict = {}
    exec("from doilyspace import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(doilyspace.__all__)


# Public names no module of the package uses, each with the reason it stays.
UNUSED_BY_THE_PACKAGE = {
    # the 2^n scan that the tests hold null_space_hyperplanes to, and a layer
    # the benchmark's tracer times by name
    "enumerate_hyperplanes",
}


def test_every_public_name_is_used_inside_the_package():
    # a name counts as used where it is read, by name or as an attribute, in
    # a module other than __init__; importing it is not a use
    src = Path(doilyspace.__file__).parent
    used = set()
    for path in src.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    assert sorted(set(doilyspace.__all__) - used - UNUSED_BY_THE_PACKAGE) == []
    assert UNUSED_BY_THE_PACKAGE <= set(doilyspace.__all__) - used


def test_readme_library_example_prints_what_its_comments_say(capsys):
    # the python block under *Library example*: each print's output is the
    # comment on its line
    section = README.read_text(encoding="utf-8").split("## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(code, {})
    expected = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    assert expected == ["g_146", "235", "31 155"]
    assert capsys.readouterr().out.splitlines() == expected
