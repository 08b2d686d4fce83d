"""Static checks on the package source, with the standard library's ast, and a
check that the repository's pytest settings let a failing test report."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from dimred.config import DEFAULT_CONFIG_TEXT, parse_kv_text

SRC = Path(__file__).resolve().parents[1] / "src" / "dimred"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads (``from __future__`` excepted)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda i: i[1])
            if name not in used]


def test_unused_imports_detects_a_leftover():
    source = "import math\nimport os.path\nfrom x import a, b as c\nprint(a, os)\n"
    assert unused_imports(source) == ["line 1: math", "line 3: c"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_modules_import_only_what_they_use(path):
    assert unused_imports(path.read_text()) == []


CONFIG_KEYS = set(parse_kv_text(DEFAULT_CONFIG_TEXT)) | {"sequence.points"}


def config_key_literals(source: str) -> list[str]:
    """String literals of a module that are config keys."""
    return [f"line {node.lineno}: {node.value}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value in CONFIG_KEYS]


def test_config_key_literals_detects_a_read():
    source = 'seed = cfg.get("seed")\nprint("seed = 1", f"{seed}.dir")\nd = {"nls.dt": 1}\n'
    assert config_key_literals(source) == ["line 1: seed", "line 3: nls.dt"]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "config.py"),
                         ids=lambda p: p.name)
def test_only_the_config_module_names_config_keys(path):
    # config.ExperimentConfig is the one reader: no other module looks a key up
    assert config_key_literals(path.read_text()) == []


def unreferenced_definitions(sources: dict[str, str], callers=()) -> list[str]:
    """Top-level functions and classes of the modules in ``sources``, and the
    methods and properties of their classes, that neither those modules nor the
    ``callers`` sources name, by a bare name, an attribute or an import, outside
    their own definition.  Dunder methods run without being named and are
    skipped.  Names are matched, not resolved: a member that shares its name
    with anything another object offers (numpy's ``trace``, say) looks used."""

    def names(node):
        counts = Counter()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                counts[sub.id] += 1
            elif isinstance(sub, ast.Attribute):
                counts[sub.attr] += 1
            elif isinstance(sub, ast.alias):
                counts[sub.name] += 1
        return counts

    trees = {module: ast.parse(text) for module, text in sources.items()}
    everywhere = sum((names(tree) for tree in [*trees.values(), *map(ast.parse, callers)]),
                     Counter())

    def unnamed(node):
        return everywhere[node.name] <= names(node)[node.name]

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (*functions, ast.ClassDef)) and unnamed(node):
                found.append(f"{module}: {node.name}")
            if isinstance(node, ast.ClassDef):
                found.extend(f"{module}: {node.name}.{member.name}" for member in node.body
                             if isinstance(member, functions) and unnamed(member)
                             and not member.name.startswith("__"))
    return found


def test_unreferenced_definitions_detects_a_planted_function():
    sources = {
        "a.py": "def used():\n    return 1\n\n\ndef planted(n):\n    return planted(n - 1)\n",
        "b.py": "from .a import used\n\n\nclass Kept:\n    pass\n\n\nprint(used(), Kept)\n",
    }
    assert unreferenced_definitions(sources) == ["a.py: planted"]


def test_unreferenced_definitions_detects_a_planted_method():
    sources = {"a.py": ("class Box:\n    def __init__(self):\n        self.n = self.size\n\n"
                        "    @property\n    def size(self):\n        return 1\n\n"
                        "    def called_outside(self):\n        return 2\n\n"
                        "    def planted(self, k):\n        return self.planted(k - 1)\n\n\n"
                        "BOX = Box()\n")}
    caller = "from a import BOX\n\nprint(BOX.called_outside())\n"
    assert unreferenced_definitions(sources, [caller]) == ["a.py: Box.planted"]
    assert unreferenced_definitions(sources) == ["a.py: Box.called_outside", "a.py: Box.planted"]


# perfbench drives the package from outside, so its reads count as uses
PERFBENCH = SRC.parents[1] / "perfbench"

# reference implementations that only tests call, kept to compare the package against
REFERENCES = {
    # <ab|w|cd> one element at a time: the loop-built H that the sparse H is checked against
    "manybody.py: ModeBasis.w_element",
}


def test_package_defines_only_what_the_package_references():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    callers = [path.read_text() for path in sorted(PERFBENCH.glob("*.py"))]
    assert sorted(set(unreferenced_definitions(sources, callers)) - REFERENCES) == []


def unread_fields(sources: dict[str, str], readers) -> list[str]:
    """Annotated class fields of the modules in ``sources`` that no source in
    ``readers`` reads, by an attribute load or a string constant."""
    read = set()
    for text in readers:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return [f"{module}: {cls.name}.{stmt.target.id}" for module, text in sources.items()
            for cls in ast.walk(ast.parse(text)) if isinstance(cls, ast.ClassDef)
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and stmt.target.id not in read]


def test_unread_fields_detects_a_planted_field():
    source = ("@dataclass\nclass Report:\n    kept: float\n    named: int\n    planted: bool\n"
              "    LIMIT = 3\n\n\ndef f(rep):\n    rep.planted = True\n"
              "    return rep.kept, getattr(rep, 'named')\n")
    assert unread_fields({"a.py": source}, [source]) == ["a.py: Report.planted"]


def test_package_fields_are_all_read():
    tests = Path(__file__).resolve().parent
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readers = [*sources.values(), *(path.read_text() for path in sorted(tests.glob("*.py")))]
    assert unread_fields(sources, readers) == []


# scipy submodules a sweep never needs; each loads scipy.special or scipy.optimize
OFF_THE_SWEEP = ("scipy.integrate", "scipy.interpolate", "scipy.special", "scipy.optimize")


def module_level_imports(source: str, packages) -> list[str]:
    """Imports of ``packages`` or their submodules that run when the module
    loads: any outside a function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [f"{child.module}.{alias.name}" for alias in child.names]
            else:
                visit(child)
                continue
            found.extend(f"line {child.lineno}: {name}" for name in names
                         if any(name == p or name.startswith(p + ".") for p in packages))

    visit(ast.parse(source))
    return found


def test_module_level_imports_detects_a_load_time_import():
    source = ("import scipy.special\nfrom scipy import optimize\nfrom scipy.linalg import eigh\n"
              "def f():\n    from scipy.integrate import quad\n\n"
              "class C:\n    from scipy.interpolate import CubicSpline\n")
    assert module_level_imports(source, OFF_THE_SWEEP) == [
        "line 1: scipy.special", "line 2: scipy.optimize", "line 8: scipy.interpolate.CubicSpline"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_modules_load_no_off_sweep_scipy(path):
    assert module_level_imports(path.read_text(), OFF_THE_SWEEP) == []


def imports_anywhere(source: str, packages) -> list[str]:
    """Imports of ``packages`` or their submodules anywhere in the module,
    function bodies included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found.extend((node.lineno, name) for name in names
                     if any(name == p or name.startswith(p + ".") for p in packages))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_imports_anywhere_detects_an_import_in_a_function():
    source = ("import scipy.linalg\n"
              "def f():\n    def g():\n        from scipy.integrate import quad\n"
              "    from scipy import integrate\n")
    assert imports_anywhere(source, ("scipy.integrate",)) == [
        "line 4: scipy.integrate.quad", "line 5: scipy.integrate"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_modules_never_import_scipy_integrate(path):
    # every integral goes through potentials.gauss_legendre; quad is a test oracle.
    # The transverse correlation is its exact trigonometric interpolant, no spline
    assert imports_anywhere(path.read_text(), ("scipy.integrate", "scipy.interpolate")) == []


def test_a_default_sweep_loads_no_off_sweep_scipy():
    # a fresh interpreter: pytest's own warning filters import scipy.integrate
    default_cfg = SRC.parents[1] / "configs" / "default.cfg"
    code = ("import sys\n"
            "import dimred.cli\n"
            "from dimred import harness\n"
            "from dimred.config import ExperimentConfig\n"
            f"result = harness.run_sweep(ExperimentConfig.from_file({str(default_cfg)!r}))\n"
            "assert result.ok and len(result.rows) == 7\n"
            f"print(sorted(m for m in {OFF_THE_SWEEP!r} if m in sys.modules))\n")
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


PLANTED_HYPOTHESIS_PAIR = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_planted_failure(n):
    assert n < 5


def test_after_it():
    pass
"""


def test_a_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    # on a failure hypothesis's pytest plugin imports libcst to write a patch,
    # and libcst's DeprecationWarning must not become an INTERNALERROR that
    # stops the run before the next test
    (tmp_path / "pyproject.toml").write_text((SRC.parents[1] / "pyproject.toml").read_text())
    (tmp_path / "test_pair.py").write_text(PLANTED_HYPOTHESIS_PAIR)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "test_pair.py"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), run.stdout[-2000:]


def calls_by_definition(sources: dict[str, str], names) -> list[str]:
    """Calls of any of ``names``, by bare name or attribute, as
    ``module.definition: name`` with the enclosing top-level definition
    (``<module>`` outside one)."""
    found = []
    for module, text in sources.items():
        for top in ast.parse(text).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in names:
                    found.append(f"{module.removesuffix('.py')}."
                                 f"{getattr(top, 'name', '<module>')}: {name}")
    return found


TRANSVERSE_SETUP = ("TransverseGrid", "solve_modes")


def test_transverse_setup_calls_detects_a_planted_grid():
    sources = {
        "a.py": ("from .transverse import TransverseGrid, solve_modes\n\n\n"
                 "def f(conf):\n    return solve_modes(conf, TransverseGrid(8.0, 33))\n"),
        "b.py": ("from . import transverse\n\n\nclass K:\n    def g(self, conf, grid):\n"
                 "        return transverse.solve_modes(conf, grid, 2)\n\n\n"
                 "GRID = transverse.TransverseGrid(1.0, 17)\n"),
    }
    assert calls_by_definition(sources, TRANSVERSE_SETUP) == [
        "a.f: solve_modes", "a.f: TransverseGrid", "b.K: solve_modes", "b.<module>: TransverseGrid"]


def test_only_the_harness_sets_up_a_transverse_grid():
    # the sweep solves on the config's grid (harness.sweep_inputs); verify_all's
    # analytic harmonic check is the only other solve
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert sorted(set(calls_by_definition(sources, TRANSVERSE_SETUP))) == [
        "harness.sweep_inputs: TransverseGrid", "harness.sweep_inputs: solve_modes",
        "harness.verify_all: TransverseGrid", "harness.verify_all: solve_modes"]


# the routines that exponentiate or diagonalize a Krylov tridiagonal
KRYLOV_KERNELS = ("dstev", "eigh_tridiagonal", "expm", "expm_multiply")


def test_krylov_kernel_calls_detects_a_planted_exponential():
    sources = {"a.py": ("from scipy.linalg import expm, eigh_tridiagonal\n\n\n"
                        "def step(h, v, dt):\n    def inner(t):\n"
                        "        return eigh_tridiagonal(t, t[1:])\n"
                        "    return expm(-1j * dt * h) @ v\n\n\n"
                        "W = scipy.sparse.linalg.expm_multiply(H, V)\n")}
    assert calls_by_definition(sources, KRYLOV_KERNELS) == [
        "a.step: eigh_tridiagonal", "a.step: expm", "a.<module>: expm_multiply"]


def test_one_lanczos_kernel_exponentiates():
    # every N-body propagation goes through manybody.lanczos_expm;
    # expm_multiply is a test oracle
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert sorted(set(calls_by_definition(sources, KRYLOV_KERNELS))) == [
        "manybody.lanczos_expm: dstev"]


def widened_occupation_tables(source: str) -> list[str]:
    """Calls ``<x>.occupations.astype(...)``: a widened copy of a whole
    occupation table.  A column, ``occupations[:, j].astype``, is not one."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype" and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "occupations"]


def test_widened_occupation_tables_detects_a_planted_copy():
    source = ("occ = fock.occupations.astype(np.int64)\n"
              "col = fock.occupations[:, 0].astype(np.int64)\n"
              "# fock.occupations.astype(float) in a comment\n"
              "big = (state.fock.occupations.astype(float) @ v)\n")
    assert widened_occupation_tables(source) == ["line 1", "line 4"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_never_widens_a_whole_occupation_table(path):
    # the Fock kernels read the occupied entries of each row (manybody._nonzero)
    assert widened_occupation_tables(path.read_text()) == []


def field_operator_builds(sources: dict[str, str]) -> list[str]:
    """Calls of ``one_body_operator``, by bare name or attribute, that pass a
    ``field_matrix`` (name or attribute) as an argument, as ``module: line``."""
    found = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not (isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None))
                    == "one_body_operator"):
                continue
            args = [*node.args, *(k.value for k in node.keywords)]
            if any(getattr(a, "id", getattr(a, "attr", None)) == "field_matrix" for a in args):
                found.append(f"{module}: line {node.lineno}")
    return found


def test_field_operator_builds_detects_a_planted_build():
    sources = {"a.py": ("g = one_body_operator(fock, basis.field_matrix)\n"
                        "h = one_body_operator(fock, basis.one_body(t))\n"
                        "# one_body_operator(fock, basis.field_matrix) in a comment\n"
                        "k = manybody.one_body_operator(sub, h=field_matrix)\n")}
    assert field_operator_builds(sources) == ["a.py: line 1", "a.py: line 4"]


def test_the_field_operator_has_one_home():
    # H(t) = B + (f(t) - f_B) G is formed in manybody._sector_hamiltonian alone
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert len(field_operator_builds(sources)) == 1


# names that hold a transverse or array dimension
DIMENSION_NAMES = ("d", "d_perp", "dimension", "ndim")


def dimension_branches(sources: dict[str, str]) -> list[str]:
    """Functions, as ``module: Class.function``, that compare a dimension (a
    name or attribute in DIMENSION_NAMES) with a literal or a tuple of literals."""

    def literal(node):
        return isinstance(node, ast.Constant) or (
            isinstance(node, (ast.Tuple, ast.List, ast.Set))
            and all(isinstance(e, ast.Constant) for e in node.elts))

    def dimension(node):
        return getattr(node, "id", getattr(node, "attr", None)) in DIMENSION_NAMES

    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, [*scope, child.name])
                continue
            if isinstance(child, ast.Compare):
                sides = [child.left, *child.comparators]
                if any(map(dimension, sides)) and any(map(literal, sides)):
                    found.append(f"{module}: {'.'.join(scope) or '<module>'}")
            visit(child, module, scope)

    for module, text in sources.items():
        visit(ast.parse(text), module, [])
    return list(dict.fromkeys(found))


def test_dimension_branches_detects_a_planted_branch():
    source = ("class Mode:\n    def __post_init__(self):\n        if self.dimension not in (1, 2):\n"
              "            raise ValueError\n\n"
              "    def planted(self, chi):\n        return chi[0] if chi.ndim == 1 else chi[0, 0]\n\n\n"
              "def solve(d, n):\n    if n == 1:\n        return d\n    return d + 1 if 2 > d else d\n\n\n"
              "def loop(d, ndim):\n    return [k for k in range(d) if k != ndim]\n")
    assert dimension_branches({"a.py": source}) == [
        "a.py: Mode.__post_init__", "a.py: Mode.planted", "a.py: solve"]


def test_only_the_rules_whose_mathematics_differ_branch_on_the_dimension():
    # one stencil, summed over the axes, serves every transverse dimension; the
    # offset rule (signed offset or polar radius) and the correlation (its
    # trigonometric sum or the sum's angular mean) differ, the constructors
    # check the range of a dimension or the shape of a table or an input, and
    # the transverse command names its CSV columns
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert dimension_branches(sources) == [
        "cli.py: cmd_transverse", "manybody.py: FockBasis.from_rows",
        "manybody.py: build_grid_matched_basis", "manybody.py: GridOracle.__post_init__",
        "potentials.py: from_table", "potentials.py: from_csv",
        "potentials.py: ScaledInteraction.__post_init__",
        "potentials.py: ConfinementPotential.__post_init__",
        "transverse.py: TransverseMode.correlation", "transverse.py: offset_rule"]
