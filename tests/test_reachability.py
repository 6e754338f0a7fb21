"""Every module-level function and class, and every method, in the package
is run by a program.

A definition that only its own unit test reaches is library surface that no
program uses. This AST check (no linter is assumed installed) builds the
name graph of `src/donorspin`: each module-level function, class or
assignment points at every name its body, decorators and defaults mention,
attribute names included, so `ds.gates.evolve` mentions `evolve`. Each
method of a class other than a dunder is a definition of its own,
`Class.method`, and the class points only at what the rest of its body
mentions. A definition reaches a method by mentioning its name as an
attribute (`x.method`). The roots are `cli.main` and the experiments it
registers, every name that `scripts/*.py` and `benchmark/workloads.py`
mention, and TEST_REFERENCES. `__init__` re-exports are not roots. Names
are matched without their module or class, as in test_options.py.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "donorspin"
PROGRAMS = sorted([*(ROOT / "scripts").glob("*.py"),
                   ROOT / "benchmark" / "workloads.py"])

# definitions that tests use as a reference, with the reason
TEST_REFERENCES = {
    "rwa_hamiltonian": "static part of H~ that the Floquet oracle builds on",
    "frequency_components": "harmonics of H~ that the Floquet oracle builds on",
    "transition_energies": "closed-form lines the H' spectrum is checked "
                           "against",
    "read_columns": "reads back the columns the CLI writes",
    "EulerAngles.compose": "rebuilds the gate in criterion 9's Euler "
                           "round-trip suite",
    "OperatorMatrix.hermiticity_defect": "criterion 9's Hermiticity check of "
                                         "sampled lab Hamiltonians",
}


def _mentions(node):
    """Names and attribute names a node mentions; an attribute `x.a` also
    gives `.a`, the key that reaches every method named `a`."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out |= {n.attr, "." + n.attr}
    return out


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _experiments(tree):
    """Functions of a module registered by an `@experiment(...)` call."""
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(d, ast.Call) and _mentions(d.func)
                    == {"experiment"} for d in node.decorator_list)}


def unreachable(package, programs, references=()):
    """Sorted module-level function and class names and `Class.method`
    names of `package` (module name -> source) that no root reaches; the
    roots are `main` and the experiments of module `cli`, every name the
    `programs` sources mention, and `references`."""
    graph = {}               # name -> names its definitions mention, and
                             # ".m" -> every method "Class.m"
    checked = set()
    roots = set(references)
    for module, source in package.items():
        if module == "__init__":
            continue
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                checked.add(node.name)
                rest = node.bases + node.keywords + node.decorator_list
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not _is_dunder(item.name)):
                        method = f"{node.name}.{item.name}"
                        checked.add(method)
                        graph.setdefault("." + item.name, set()).add(method)
                        graph.setdefault(method, set()).update(
                            _mentions(item))
                    else:
                        rest.append(item)
                graph.setdefault(node.name, set()).update(
                    *(_mentions(part) for part in rest))
                continue
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
                checked.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                graph.setdefault(name, set()).update(_mentions(node))
        if module == "cli":
            roots |= {"main"} | _experiments(tree)
    for source in programs:
        roots |= _mentions(ast.parse(source))

    reached = set()
    todo = list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(graph.get(name, ()))
    return sorted(checked - reached)


def test_detects_unreachable_definitions():
    package = {
        "__init__": "from .a import reexported\n",
        "a": ("TABLE = {1: helper_via_table}\n"
              "def helper_via_table():\n    pass\n"
              "def reexported():\n    pass\n"
              "def chain_end():\n    pass\n"
              "def chain():\n    return chain_end()\n"
              "class Model:\n"
              "    def method(self):\n        return TABLE\n"
              "    def dead(self):\n        return only_tested()\n"
              "def only_tested():\n    pass\n"
              "def oracle_input():\n    pass\n"),
        "cli": ("from .a import chain\n"
                "@experiment('demo', n=(int, 1))\n"
                "def run_demo(m):\n    return chain()\n"
                "def orphan_runner():\n    pass\n"
                "def main():\n    return EXPERIMENTS\n"),
    }
    programs = ["import donorspin as ds\nds.a.Model().method()\n"]
    assert unreachable(package, programs, ["oracle_input"]) == [
        "Model.dead", "only_tested", "orphan_runner", "reexported"]


def test_every_definition_is_run_by_a_program():
    package = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    programs = [p.read_text() for p in PROGRAMS]
    assert unreachable(package, programs, TEST_REFERENCES) == []
