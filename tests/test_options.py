"""Every defaulted parameter and dataclass field in the package is set by
some program.

A keyword option that no call sets is a constant in disguise: its default
is the only value ever used, and every branch it guards is dead. A field
of a config object with a default is an option of the same kind. This AST
inventory (no linter is assumed installed) lists each defaulted parameter
of a function in `src/donorspin`, and each defaulted field of a
`@dataclass` (a parameter of its constructor, which takes the init
fields in order), and looks for a call that sets it. The
callers that count are the programs, as in test_reachability.py: the
package itself (the CLI included), `scripts/` and
`benchmark/workloads.py`. An option that only tests set must be named in
TEST_REFERENCES with its reason, and a test must set it. Calls are matched
to functions by name. A call sets a parameter when it passes it by keyword
or by position, or when it uses `**` (a `*` argument has no known length,
so the positions from it on count as unset). In the package, passing on a
parameter of an enclosing function unchanged (`f(x=x)`, also from a nested
function) sets it only if that enclosing parameter is itself set or
required; a parameter of a test or script helper counts as set.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "donorspin"
PROGRAMS = sorted([*(ROOT / "scripts").glob("*.py"),
                   ROOT / "benchmark" / "workloads.py"])
TESTS = sorted((ROOT / "tests").glob("*.py"))
OPTION_COUNT = 30          # defaulted function parameters in the package
FIELD_COUNT = 13           # defaulted dataclass fields in the package

# options that only tests set, with the reason
TEST_REFERENCES = {
    "cphase_drive_frequency(detuning)": "criterion 8a's square-pulse rate "
                                        "at a chosen detuning",
    "cphase_angle(schedule_2)": "the check with one qubit idle",
    "cphase_angle(noise_dE)": "the test that an offset shifts the phase",
    "cphase_angle(mean_field_passes)": "the test that phi is linear in the "
                                       "coupling",
}


def _functions(tree):
    """(name, positional parameter names, defaulted names, is_method,
    is_dataclass) of every function defined in a module, nested ones
    included, and of every dataclass's constructor."""
    methods = {id(node) for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for node in cls.body}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            yield node.name, *_init_fields(node), False, True
        if not isinstance(node, ast.FunctionDef):
            continue
        a = node.args
        positional = [p.arg for p in a.posonlyargs + a.args]
        defaulted = positional[len(positional) - len(a.defaults):]
        defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                      if d is not None]
        yield node.name, positional, defaulted, id(node) in methods, False


def _is_dataclass(cls):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and _callee(d) == "dataclass"
               for d in cls.decorator_list)


def _init_fields(cls):
    """(constructor parameter names, defaulted names) of a dataclass: its
    annotated fields in order, less those declared field(init=False). A
    field has a default when it is assigned one, or a `field(...)` with a
    default or default_factory."""
    positional, defaulted = [], []
    for item in cls.body:
        if not (isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)):
            continue
        value = item.value
        if isinstance(value, ast.Call) and _callee(value) == "field":
            keywords = {kw.arg: kw.value for kw in value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            has_default = bool({"default", "default_factory"} & set(keywords))
        else:
            has_default = value is not None
        positional.append(item.target.id)
        if has_default:
            defaulted.append(item.target.id)
    return positional, defaulted


def _params_in_scope(stack):
    """Parameter name -> (function name, defaulted?) for the innermost
    enclosing function that declares it."""
    scope = {}
    for fn in stack:
        a = fn.args
        positional = a.posonlyargs + a.args
        n_plain = len(positional) - len(a.defaults)
        for i, p in enumerate(positional):
            scope[p.arg] = (fn.name, i >= n_plain)
        for p, d in zip(a.kwonlyargs, a.kw_defaults):
            scope[p.arg] = (fn.name, d is not None)
    return scope


def _callee(call):
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute):
        return f.attr
    return None


def _calls(tree, forwarding):
    """(callee, call node, parameter scope) for every call in a module; the
    scope is empty unless `forwarding`."""
    out = []

    def visit(node, stack):
        if forwarding and isinstance(node, ast.FunctionDef):
            stack = stack + [node]
        if isinstance(node, ast.Call) and _callee(node):
            out.append((_callee(node), node, _params_in_scope(stack)))
        for child in ast.iter_child_nodes(node):
            visit(child, stack)

    visit(tree, [])
    return out


def option_inventory(package_sources, other_sources):
    """Return (every defaulted function parameter of the package, every
    defaulted dataclass field, the ones of both that no call in the package
    or the other sources sets), each a sorted list of 'function(parameter)'
    or 'Class(field)' names."""
    signatures = {}          # name -> [(positional, defaulted, is_method)]
    options, fields = set(), set()
    for source in package_sources:
        for name, positional, defaulted, method, is_dataclass in _functions(
                ast.parse(source)):
            signatures.setdefault(name, []).append(
                (positional, defaulted, method))
            (fields if is_dataclass else options).update(
                f"{name}({p})" for p in defaulted)

    is_set = set()
    forwarded = {}           # option -> options whose being set sets it
    calls = [c for source in package_sources
             for c in _calls(ast.parse(source), forwarding=True)]
    calls += [c for source in other_sources
              for c in _calls(ast.parse(source), forwarding=False)]
    for callee, call, scope in calls:
        for positional, defaulted, method in signatures.get(callee, ()):
            for param, value in _passed(call, positional, defaulted, method):
                option = f"{callee}({param})"
                source = (scope.get(value.id) if isinstance(value, ast.Name)
                          else None)
                if source is not None and source[1]:
                    forwarded.setdefault(option, set()).add(
                        f"{source[0]}({value.id})")
                else:
                    is_set.add(option)

    changed = True
    while changed:
        changed = False
        for option, sources in forwarded.items():
            if option not in is_set and sources & is_set:
                is_set.add(option)
                changed = True
    return sorted(options), sorted(fields), sorted((options | fields)
                                                   - is_set)


def _passed(call, positional, defaulted, method):
    """(defaulted parameter, argument expression or None) the call sets."""
    slots = positional[1:] if method else positional
    passed = []
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) or i >= len(slots):
            break
        passed.append((slots[i], arg))
    for kw in call.keywords:
        if kw.arg is None:                      # **mapping
            passed += [(p, None) for p in defaulted]
        else:
            passed.append((kw.arg, kw.value))
    return [(p, v) for p, v in passed if p in defaulted]


def test_detects_unset_and_forwarded_options():
    package = ("def f(a, b=1, c=2, d=3, t=4):\n    pass\n"
               "def g(x, e=0, k=5):\n"
               "    f(x, 1, d=x)\n"
               "    def inner():\n"
               "        f(x, c=e, t=k)\n"
               "def h(y=1):\n    pass\n"
               "def r(v=1):\n    pass\n"
               "def s(u=1):\n    pass\n"
               "class C:\n"
               "    def m(self, z=1, w=2):\n        pass\n"
               "@dataclass(frozen=True)\n"
               "class D:\n"
               "    a: int\n"
               "    b: int = 1\n"
               "    c: list = field(default_factory=list)\n"
               "    q: int = field(init=False)\n"
               "    e: int = 2\n"
               "class Plain:\n"
               "    p: int = 1\n")
    programs = ["g(0, k=2)\nh(**opts)\nC().m(3)\ns(*rest)\n",
                "def helper(v=None):\n    r(v=v)\n",
                "D(0, 1, e=3)\nPlain(p=2)\n"]
    tests = ["C().m(w=4)\n"]
    options, fields, unset = option_inventory([package], programs)
    assert options == ["f(b)", "f(c)", "f(d)", "f(t)", "g(e)", "g(k)", "h(y)",
                       "m(w)", "m(z)", "r(v)", "s(u)"]
    # a dataclass's defaulted init fields; a plain class has none
    assert fields == ["D(b)", "D(c)", "D(e)"]
    # b by position, d from the required x, t from k, which a caller sets;
    # c only from the unset e; v from a helper's parameter; w only by a test
    assert unset == ["D(c)", "f(c)", "g(e)", "m(w)", "s(u)"]
    _, _, unset_by_all = option_inventory([package], programs + tests)
    assert unset_by_all == ["D(c)", "f(c)", "g(e)", "s(u)"]


def test_every_option_has_a_caller():
    package = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    programs = [p.read_text() for p in PROGRAMS]
    options, fields, unset = option_inventory(package, programs)
    assert unset == sorted(TEST_REFERENCES)
    assert len(options) == OPTION_COUNT
    assert len(fields) == FIELD_COUNT
    # each test-only option is set by some test
    _, _, unset_by_all = option_inventory(
        package, programs + [p.read_text() for p in TESTS])
    assert unset_by_all == []
