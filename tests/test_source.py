import ast
import os
import re
import subprocess
import sys
from pathlib import Path

from mutants import MUTANTS

SRC = Path(__file__).resolve().parent.parent / "src" / "loopzip"


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so runtime guards must raise
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    found = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_src_imports_only_the_standard_library():
    # the runtime is stdlib-only: pyproject.toml declares dependencies = []
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert found == []


def test_src_has_no_unused_imports():
    # an imported name is read in its module, or re-exported through __all__
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = {
            name
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [
                    f"{path.name}:{node.lineno}: {name}"
                    for name in ((a.asname or a.name).split(".")[0] for a in node.names)
                    if name not in read | exported
                ]
    assert found == []


def test_every_error_class_is_raised():
    # an error class that no src code raises is dead API
    errors = ast.parse((SRC / "errors.py").read_text())
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert len(classes) >= 10
    assert sorted(classes - raised - {"LoopZipError"}) == []


def test_every_budget_check_compares_a_count_with_a_named_cap():
    # a refusal counts the unit its engine builds against a module-level
    # integer cap: check_budget(<count> <= NAME, ...), and nothing else
    trees = [(path, ast.parse(path.read_text(), filename=str(path)))
             for path in sorted(SRC.glob("*.py"))]
    caps = {
        target.id
        for _, tree in trees
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        and type(node.value.value) is int
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.isupper()
    }
    calls, found, used = 0, [], set()
    for path, tree in trees:
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "check_budget"):
                continue
            calls += 1
            fits = node.args[0] if node.args else None
            if not (isinstance(fits, ast.Compare) and len(fits.ops) == 1
                    and isinstance(fits.ops[0], ast.LtE)
                    and isinstance(fits.comparators[0], ast.Name)
                    and fits.comparators[0].id in caps):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(fits) if fits else None}")
            else:
                used.add(fits.comparators[0].id)
    assert calls >= 2
    assert found == []
    # and every cap is read by a check: a cap that no check compares guards nothing
    assert sorted(cap for cap in caps if cap.endswith("_CAP")) == sorted(used)


def test_every_src_def_is_referenced():
    # a function, method or class that no src code reads by name is API that
    # no command reaches; dunders are called by the interpreter
    defined = {}
    read = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert len(defined) >= 100
    assert sorted(f"{where}: {name}" for name, where in defined.items() if name not in read) == []


def _class_names(path, name):
    """The methods and the __slots__ entries of class `name` in `path`."""
    cls = next(node for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.ClassDef) and node.name == name)
    names = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
    for node in cls.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__slots__":
            names |= set(ast.literal_eval(node.value))
    return names


def test_matrix_entry_protocol_is_what_both_entry_types_share():
    # both entry types define every name of matring's protocol docstring, and
    # share no other public name but the ones listed here, so a method that
    # one class keeps while the matrix code reads the other's name is seen
    doc = ast.get_docstring(ast.parse((SRC / "matring.py").read_text()))
    block = doc.split("against it:\n")[1].split("\nOn it rest")[0]
    protocol = {name for pair in re.findall(r"^  (\w+)(?:\([^)]*\))?(?:, (\w+)\()?", block, re.M)
                for name in pair if name}
    assert {"dot", "sub_mul", "inverse", "zero_at", "one_at", "from_codes"} <= protocol
    laurent = _class_names(SRC / "series.py", "LaurentElt")
    witt = _class_names(SRC / "witt.py", "WittFraction")
    assert sorted(protocol - laurent) == [] and sorted(protocol - witt) == []
    shared = {name for name in laurent & witt if not name.startswith("_")}
    assert sorted(shared) == sorted(protocol | {"one", "zero", "is_integral", "congruent_mod"})


def test_matrix_kernel_reads_its_entries_only_through_the_protocol():
    # matring imports neither entry module and tests no type with isinstance,
    # so Mat.inverse and snf_residues cannot fork on the ring
    tree = ast.parse((SRC / "matring.py").read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for a in node.names}
    assert sorted(imported & {"series", "witt", "loopzip.series", "loopzip.witt"}) == []
    assert "gf" in imported
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "isinstance"] == []


def _code_names() -> set:
    """Every name that the Python files under src/, tests/ and perfbench/
    define or read: module, class, function, argument and keyword names,
    names and attributes, imported names and identifier-like string
    constants."""
    root = SRC.parent.parent
    names = set()
    for top in ("src", "tests", "perfbench"):
        for path in sorted((root / top).rglob("*.py")):
            names |= set(path.relative_to(root / top).with_suffix("").parts)
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names.add(node.name)
                elif isinstance(node, (ast.arg, ast.keyword)):
                    names.add(node.arg)
                elif isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.update(node.name.split("."), [node.asname or node.name])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                        and re.fullmatch(r"\w+", node.value):
                    names.add(node.value)
    return names


def test_readme_names_only_what_the_code_defines_or_reads():
    # every backticked identifier in README.md, dotted or not and with or
    # without an argument list, is a file at the root of the repository or
    # has every part defined or read in the code, so a deleted name is seen
    root = SRC.parent.parent
    names = _code_names()
    spans = re.findall(r"`([^`\n]+)`", (root / "README.md").read_text())
    dotted = [m.group(1) for m in (re.fullmatch(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?",
                                                span) for span in spans) if m]
    assert len(dotted) >= 100
    assert sorted({name for name in dotted if not (root / name).is_file()
                   and any(part not in names for part in name.split("."))}) == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every command pays for the modules `import loopzip.cli` adds to a bare
    # interpreter at start-up; dataclasses alone pulls in inspect, dis, ast
    # and tokenize
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))

    def loaded(statement):
        code = f"{statement}; import sys; print(*sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        return set(out.split())

    added = loaded("import loopzip.cli") - loaded("pass")
    assert "loopzip.cli" in added
    assert sorted(added & {"dataclasses", "inspect"}) == []


def test_cli_import_builds_no_witt_context():
    # a WittCtx builds its ring tables in its constructor; no command that
    # stays off Witt vectors may pay for them at start-up
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = ("import loopzip.cli; from loopzip.witt import WittCtx; "
            "print(WittCtx.get.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["0"]


def _calls(tree, owner, attr):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == attr and isinstance(node.func.value, ast.Name)
            and node.func.value.id == owner]


def test_report_bytes_have_one_writer_and_one_schema_number():
    # every JSON document goes through one json.dumps, every CSV table
    # through one csv.writer, and every "schema" key reads the one SCHEMA
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    dumps = [f"{name}:{node.lineno}" for name, tree in trees.items()
             for node in _calls(tree, "json", "dumps")]
    writers = [f"{name}:{node.lineno}" for name, tree in trees.items()
               for node in _calls(tree, "csv", "writer")]
    assert len(dumps) == 1 and len(writers) == 1, (dumps, writers)
    schema_values = [
        (f"{name}:{key.lineno}", ast.unparse(value))
        for name, tree in trees.items()
        for node in ast.walk(tree) if isinstance(node, ast.Dict)
        for key, value in zip(node.keys, node.values)
        if isinstance(key, ast.Constant) and key.value == "schema"
    ]
    assert len(schema_values) >= 3
    assert [where for where, value in schema_values if value != "SCHEMA"] == []
    numbers = [f"{name}:{node.lineno}" for name, tree in trees.items() for node in tree.body
               if isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "SCHEMA" for t in node.targets)]
    assert len(numbers) == 1


def test_suites_only_list_checks():
    # a check is finished where it is built: suites.py never sets "passed" or
    # "name" on a dict through a subscript, and only run_suites parses the
    # configuration's field and weights
    tree = ast.parse((SRC / "suites.py").read_text())
    found = [
        f"suites.py:{target.lineno}: {ast.unparse(target)}"
        for node in ast.walk(tree) if isinstance(node, (ast.Assign, ast.AugAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Subscript) and isinstance(target.slice, ast.Constant)
        and target.slice.value in ("passed", "name")
    ]
    assert found == []
    parses = [
        f"{func.name}: {ast.unparse(node)}"
        for func in tree.body if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func) if isinstance(node, ast.Call)
        and ast.unparse(node.func) in ("FieldSpec.for_q", "Cocharacter")
        and "cfg" in ast.unparse(node)
    ]
    assert parses == ["run_suites: FieldSpec.for_q(cfg['q'])",
                      "run_suites: Cocharacter(cfg['mu'])"]


def test_every_catalogued_mutant_applies_to_one_place():
    # tests/mutants.py replaces each old text once; a refactor that moves the
    # code must update the catalogue rather than orphan the mutant
    root = SRC.parent.parent
    assert len({m[0] for m in MUTANTS}) == len(MUTANTS) >= 15
    for ident, name, old, _, killers in MUTANTS:
        assert (SRC / name).read_text().count(old) == 1, ident
        for killer in killers:
            path, _, func = killer.partition("::")
            assert f"def {func}(" in (root / path).read_text(), (ident, killer)
