"""Every public name of visarch has a caller outside the tests of the name itself.

A name is called when a caller reaches it: a read of the name, bare or as an
attribute, in the benchmark's scripts, in the acceptance tests or in the
package's module-level code (__init__.py aside, which only re-exports), and
then every read in the top-level definition of a name so reached. A read inside
a definition nothing reaches (a scalar helper that only its own dataclass
uses, say) calls nothing. A name with no caller either goes or is listed in
ALLOWED with the reason it stays.
"""

import ast
from pathlib import Path

import visarch

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_FILES = sorted(p for p in (ROOT / "src" / "visarch").glob("*.py")
                       if p.name != "__init__.py")
CALLER_FILES = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

ALLOWED = {
    "config_to_json": "the study runner names its job files by each config's canonical JSON",
    "config_from_json": "reads back the JSON config_to_json writes",
}


def reads(node: ast.AST) -> set:
    """Every name node loads, bare or as an attribute."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            found.add(n.attr)
    return found


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def called_names(package_files=PACKAGE_FILES, caller_files=CALLER_FILES) -> set:
    """Every name the callers reach, as the module docstring defines it."""
    called, defs = set(), {}
    for path in caller_files:
        called |= reads(parse(path))
    for path in package_files:
        for stmt in parse(path).body:
            if isinstance(stmt, DEFINITIONS):
                defs.setdefault(stmt.name, set()).update(reads(stmt))
            else:
                called |= reads(stmt)
    todo = list(called)
    while todo:
        for name in defs.get(todo.pop(), ()):
            if name not in called:
                called.add(name)
                todo.append(name)
    return called


def test_caller_files_exist():
    assert len(PACKAGE_FILES) > 5 and all(p.is_file() for p in CALLER_FILES)
    assert any(p.parent.name == "perfbench" for p in CALLER_FILES)


def test_every_public_name_has_a_caller():
    uncalled = sorted(set(visarch.__all__) - called_names() - set(ALLOWED))
    assert not uncalled, f"public names with no caller: {uncalled}"


def test_allowed_names_are_public_and_still_uncalled():
    # an entry stays only while it is needed
    assert set(ALLOWED) <= set(visarch.__all__)
    assert not set(ALLOWED) & called_names()


def test_a_read_inside_an_unreached_definition_calls_nothing(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("class Sample:\n    pass\n\n\n"
                      "def round_one(x):\n    return Sample()\n\n\n"
                      "def run(x):\n    return helper(x)\n")
    script = tmp_path / "bench.py"
    script.write_text("run(1)\n")
    called = called_names([module], [script])
    assert {"run", "helper"} <= called
    assert not {"round_one", "Sample"} & called
