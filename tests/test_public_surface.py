"""Every public name of visarch has a caller outside the tests of the name itself.

A name is called when a caller reaches it: a read of the name, bare or as an
attribute, in the benchmark's scripts, in the acceptance tests or in the
package's module-level code (__init__.py aside, which only re-exports), and
then every read in the top-level definition of a name so reached. A read inside
a definition nothing reaches (a scalar helper that only its own dataclass
uses, say) calls nothing. A name with no caller either goes or is listed in
ALLOWED with the reason it stays.

Every optional parameter of a reached public function, or of a reached public
class's own __init__, is passed by some call in that same caller code: by
keyword, by position, or through * or **. An option nothing passes goes.

Every public method or property defined in the body of a public class is read
by that same caller code, under the same reach rule. A method nothing reads goes.
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


def parameters(stmt):
    """(positional, optional) parameter names of a function, or of a class's own
    __init__ (self dropped); None for a class without one."""
    if isinstance(stmt, ast.ClassDef):
        inits = [s for s in stmt.body if isinstance(s, ast.FunctionDef) and s.name == "__init__"]
        if not inits:
            return None
        args, skip = inits[0].args, 1
    else:
        args, skip = stmt.args, 0
    positional = [a.arg for a in args.posonlyargs + args.args]
    optional = positional[len(positional) - len(args.defaults):]
    optional += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return positional[skip:], optional


def unpassed_options(public, package_files=PACKAGE_FILES, caller_files=CALLER_FILES) -> list:
    """"name(parameter)" for each optional parameter of a public name the callers
    reach that no call in the calling code passes: the caller files, and the
    package's module-level statements and definitions of the names reached."""
    called = called_names(package_files, caller_files)
    code, signatures = [parse(path) for path in caller_files], {}
    for path in package_files:
        for stmt in parse(path).body:
            if not isinstance(stmt, DEFINITIONS):
                code.append(stmt)
            elif stmt.name in called:
                code.append(stmt)
                if stmt.name in public:
                    signatures[stmt.name] = parameters(stmt)
    passed = {name: set() for name in signatures}
    for node in code:
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if signatures.get(name) is None:
                continue
            positional, optional = signatures[name]
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            passed[name] |= set(positional if starred else positional[:len(call.args)])
            for kw in call.keywords:
                passed[name] |= set(optional) if kw.arg is None else {kw.arg}
    return sorted(f"{name}({p})" for name, sig in signatures.items() if sig
                  for p in sig[1] if p not in passed[name])


def uncalled_methods(public, package_files=PACKAGE_FILES, caller_files=CALLER_FILES) -> list:
    """"Class.method" for each public method or property defined in the body of
    a public class that the callers do not reach."""
    called = called_names(package_files, caller_files)
    return sorted(f"{stmt.name}.{m.name}" for path in package_files for stmt in parse(path).body
                  if isinstance(stmt, ast.ClassDef) and stmt.name in public
                  for m in stmt.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not m.name.startswith("_") and m.name not in called)


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


def test_every_optional_parameter_is_passed():
    # Tensor(data, requires_grad=False, dtype=None) read a positional dtype as
    # requires_grad, and no caller passed requires_grad at all
    unpassed = unpassed_options(visarch.__all__)
    assert not unpassed, f"optional parameters no caller passes: {unpassed}"


def test_a_parameter_is_passed_by_keyword_position_or_star(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def kw(a, b=1, *, c=2):\n    pass\n\n\n"
                      "def pos(a, b=1, c=2):\n    pass\n\n\n"
                      "def star(a, b=1, *, c=2):\n    pass\n\n\n"
                      "class Box:\n    def __init__(self, a, b=1):\n        pass\n\n\n"
                      "class Plain:\n    size: int = 3\n")
    script = tmp_path / "bench.py"
    script.write_text("kw(0, c=3)\npos(0, 1)\nstar(*x, **y)\nBox(0)\nPlain()\n")
    public = ["kw", "pos", "star", "Box", "Plain"]
    assert unpassed_options(public, [module], [script]) == ["Box(b)", "kw(b)", "pos(c)"]


def test_every_public_method_has_a_caller():
    # ParamStore.total_elements was read only by tests of its own
    uncalled = uncalled_methods(visarch.__all__)
    assert not uncalled, f"public methods with no caller: {uncalled}"


def test_a_method_is_called_when_a_caller_reads_it(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("class Box:\n    def used(self):\n        pass\n\n"
                      "    def unused(self):\n        pass\n\n"
                      "    def _private(self):\n        pass\n\n"
                      "    @property\n    def size(self):\n        return 1\n\n\n"
                      "class Hidden:\n    def unused(self):\n        pass\n")
    script = tmp_path / "bench.py"
    script.write_text("Box().used()\nBox().size\n")
    assert uncalled_methods(["Box"], [module], [script]) == ["Box.unused"]
