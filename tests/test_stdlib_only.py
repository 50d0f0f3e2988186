"""Static guards over the package source.

The package runs on the standard library alone: every absolute import in
`src/pwtree` names a standard-library module (`sys.stdlib_module_names`,
Python >= 3.10 as pyproject.toml requires).  It also holds no `assert`
statement, since `python -O` strips them and the invariants the proof
relies on must still be checked there.  Exactly one function sets a tree's
parent links (`MetricGraph._links`): the one both samplers share, which is
also the only place in the samplers that builds a `MetricGraph`; exactly
one reads them, `harness._RootedTree.__init__`, and every other reader
takes them from the rooted tree.  Exactly
one function touches a plan's mutable transition table (`_Plan.memo`):
`pw2._realize`, the one walk both samplers share, which reads and fills
it.  Both step rules, `pwk._keep` and `pw2._step`, are pure functions of
their arguments: each stores only into names it binds itself, never into
one of its parameters.  Neither sampler reads a composition's `steps`:
both walk it by `departures`, the one walk over its windows, and no other
loop in `pathwidth` walks the steps with a running window.  One draw path
reads a sample's stream: only `pw2._draw` and `sample_prefix_length` use
the draw rule `pw2._draw_lengths`, only that rule reads a stream's
`random` in the samplers, and no function there that draws reads a
plan's `departures`, so no sampler draws past the plan's last departure
that can vary."""

import ast
import sys
from pathlib import Path

import pwtree


def package_files():
    files = sorted(Path(pwtree.__file__).parent.glob("*.py"))
    assert len(files) >= 8
    return files


def absolute_imports(path):
    """(line, top-level module) of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def assert_lines(path):
    """Line of every assert statement in a source file."""
    return sorted(node.lineno for node in ast.walk(ast.parse(path.read_text(), str(path)))
                  if isinstance(node, ast.Assert))


def nodes_by_function(path, qualified=False):
    """(function, node) for every node of a source file, in depth-first
    order, with the innermost function that holds the node (a function's
    own node counts as inside it); the function is None at module level
    and in a class body.  With `qualified`, a function is named through
    the classes and functions that hold it, as `Class.method`."""
    def visit(node, func, prefix):
        for child in ast.iter_child_nodes(node):
            inner, inner_prefix = func, prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = prefix + child.name if qualified else child.name
                inner_prefix = prefix + child.name + "."
            elif isinstance(child, ast.ClassDef):
                inner_prefix = prefix + child.name + "."
            yield inner, child
            yield from visit(child, inner, inner_prefix)

    return visit(ast.parse(path.read_text(), str(path)), None, "")


def links_writers(path):
    """(function, line) of every statement in a source file that sets a
    `_links` attribute to anything but None, by assignment or `setattr`."""
    found = []
    for func, node in nodes_by_function(path):
        targets, value = [], None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets, value = [node.target], node.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "setattr" and len(node.args) == 3):
            targets, value = [node.args[1]], node.args[2]
        sets = any((isinstance(n, ast.Attribute) and n.attr == "_links")
                   or (isinstance(n, ast.Constant) and n.value == "_links")
                   for t in targets for n in ast.walk(t))
        if sets and not (isinstance(value, ast.Constant) and value.value is None):
            found.append((func, node.lineno))
    return found


def links_loads(path):
    """(qualified function, line) of every node in a source file that
    loads a `_links` attribute: by attribute, in an augmented assignment
    too, or by a `getattr` call naming it."""
    found = []
    for func, node in nodes_by_function(path, qualified=True):
        if isinstance(node, ast.Attribute):
            loads = node.attr == "_links" and isinstance(node.ctx, ast.Load)
        elif isinstance(node, ast.AugAssign):
            loads = isinstance(node.target, ast.Attribute) and node.target.attr == "_links"
        elif isinstance(node, ast.Call):
            loads = (isinstance(node.func, ast.Name) and node.func.id == "getattr"
                     and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
                     and node.args[1].value == "_links")
        else:
            loads = False
        if loads:
            found.append((func, node.lineno))
    return found


def memo_touches(path):
    """(function, line) of every node in a source file that reads or sets
    a `memo` attribute: by attribute, by a `getattr`, `setattr` or
    `delattr` call naming it, or as a keyword argument (`_replace`)."""
    found = []
    for func, node in nodes_by_function(path):
        if isinstance(node, ast.Attribute):
            touches = node.attr == "memo"
        elif isinstance(node, ast.Call):
            named = (isinstance(node.func, ast.Name)
                     and node.func.id in ("getattr", "setattr", "delattr") and len(node.args) > 1
                     and isinstance(node.args[1], ast.Constant) and node.args[1].value == "memo")
            touches = named or any(kw.arg == "memo" for kw in node.keywords)
        else:
            touches = False
        if touches:
            found.append((func, node.lineno))
    return found


def reads_steps(node):
    """Whether `node` reads a `steps` attribute, by attribute or by a
    `getattr` call naming it."""
    if isinstance(node, ast.Attribute):
        return node.attr == "steps"
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "getattr" and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant) and node.args[1].value == "steps")


def steps_reads(path):
    """Sorted lines of every read of a `steps` attribute in a source file."""
    return sorted({node.lineno for node in ast.walk(ast.parse(path.read_text(), str(path)))
                   if reads_steps(node)})


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def scope_nodes(scope):
    """Every node under a module or function, outside the functions nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (*FUNCTIONS, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def stored_names(nodes):
    return {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}


def running_window_loops(path):
    """Sorted (function, line) of every `for` loop in a source file that walks
    a composition's steps with a running state: its iterable reads a
    `steps` attribute, and its body rebinds a name that its function (None
    at module level) also binds outside the loop, as a running window is
    bound to the initial window before the first step."""
    module = ast.parse(path.read_text(), str(path))
    found = []
    for scope in [module, *(n for n in ast.walk(module) if isinstance(n, FUNCTIONS))]:
        nodes = list(scope_nodes(scope))
        for loop in nodes:
            if not (isinstance(loop, (ast.For, ast.AsyncFor))
                    and any(reads_steps(n) for n in ast.walk(loop.iter))):
                continue
            within = {id(n) for n in ast.walk(loop)}
            body = {id(n) for stmt in loop.body for n in ast.walk(stmt)}
            inside = stored_names(n for n in nodes if id(n) in body)
            outside = stored_names(n for n in nodes if id(n) not in within)
            if inside & outside:
                found.append((getattr(scope, "name", None), loop.lineno))
    return sorted(found, key=lambda f: f[1])


def _root(node):
    """The name a subscript or attribute chain starts from, or None."""
    while isinstance(node, (ast.Subscript, ast.Attribute, ast.Starred)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def parameter_stores(path, name):
    """Sorted lines of every store in the function `name` of a source file
    into one of its parameters: a subscript or attribute store or
    deletion, or an augmented assignment, whose root is a parameter; None
    if the file defines no such function."""
    for func in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and func.name == name:
            a = func.args
            params = {p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                      if p is not None}
            return sorted({node.lineno for node in ast.walk(func)
                           if (isinstance(node, ast.AugAssign) and _root(node.target) in params)
                           or (isinstance(node, (ast.Subscript, ast.Attribute))
                               and isinstance(node.ctx, (ast.Store, ast.Del))
                               and _root(node) in params)})
    return None


def name_loads(path, name):
    """(function, line) of every read of `name` in a source file, as a
    plain name or an attribute; an import or a store reads nothing."""
    return [(func, node.lineno) for func, node in nodes_by_function(path)
            if isinstance(getattr(node, "ctx", None), ast.Load)
            and name in (getattr(node, "id", None), getattr(node, "attr", None))]


# the calls that make a new MetricGraph, by plain or dotted name
GRAPH_BUILDERS = {"MetricGraph", "build_metric_graph", "with_edges", "induced"}


def graph_builders(path):
    """(function, line) of every call in a source file that builds a
    `MetricGraph` (`GRAPH_BUILDERS`)."""
    found = []
    for func, node in nodes_by_function(path):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in GRAPH_BUILDERS:
                found.append((func, node.lineno))
    return found


def test_package_imports_only_the_standard_library():
    foreign = [f"{path.name}:{line} imports {module}"
               for path in package_files() for line, module in absolute_imports(path)
               if module not in sys.stdlib_module_names]
    assert foreign == []


def test_guard_sees_every_import_form(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import json, numpy.linalg\nfrom scipy import sparse\n"
                    "from . import graphs\nfrom fractions import Fraction\n"
                    "def f():\n    import yaml\n")
    assert list(absolute_imports(path)) == [
        (1, "json"), (1, "numpy"), (2, "scipy"), (4, "fractions"), (6, "yaml")]


def test_package_has_no_assert():
    found = [f"{path.name}:{line}" for path in package_files() for line in assert_lines(path)]
    assert found == []


def test_assert_guard_sees_every_assert(tmp_path):
    # at top level, in a method and in a loop, with and without a message;
    # the string and the comment hold no statement
    path = tmp_path / "probe.py"
    path.write_text("assert x\nclass C:\n    def f(self):\n        if y:\n"
                    "            assert y, 'message'\n"
                    "s = 'assert z'\n# assert w\n"
                    "def g():\n    for _ in []:\n        assert (1, 2)\n")
    assert assert_lines(path) == [1, 5, 10]


def test_one_function_sets_tree_links():
    # a second way to build sampled trees would set the links elsewhere
    found = [(path.name, func) for path in package_files() for func, _ in links_writers(path)]
    assert found == [("pw2.py", "_sampled_tree")]


def test_one_function_builds_the_samplers_trees():
    # the enumerator used to build its trees a second way, without links:
    # every tree either sampler returns or lists comes from one builder
    found = [(path.name, func) for path in package_files() if path.name in ("pw2.py", "pwk.py")
             for func, _ in graph_builders(path)]
    assert found == [("pw2.py", "_sampled_tree")]


def test_builder_guard_sees_every_form(tmp_path):
    # a constructor by plain and dotted name, the validated builder, both
    # copying methods, in a nested function and at module level; a string,
    # a bare reference and another method build nothing
    path = tmp_path / "probe.py"
    path.write_text("from .graphs import MetricGraph\nfrom . import graphs\n"
                    "def direct(v):\n    return MetricGraph(v, {})\n"
                    "def dotted(v):\n    return graphs.MetricGraph(v, {})\n"
                    "def copied(g):\n    return g.with_edges({})\n"
                    "def built(v):\n    return graphs.build_metric_graph(v, [])\n"
                    "def nested(g):\n    def inner():\n        return g.induced([0])\n"
                    "    return inner\n"
                    "trees = [g.with_edges(e) for g, e in []]\n"
                    "s = 'g.with_edges({})'\nh = MetricGraph\n"
                    "def other(g):\n    return g.edges()\n")
    assert graph_builders(path) == [("direct", 4), ("dotted", 6), ("copied", 8), ("built", 10),
                                    ("inner", 13), (None, 15)]


def test_links_guard_sees_every_form(tmp_path):
    # assignment, chained, unpacked, annotated, augmented and setattr; the
    # None that a constructor starts from, a plain name and a string are no
    # links
    path = tmp_path / "probe.py"
    path.write_text("class G:\n    def __init__(self):\n        self._adj = self._links = None\n"
                    "def build(t):\n    t._links = 1, 2\n"
                    "def copy(a, b):\n    a._links, b._links = b._links, None\n"
                    "def annotated(t):\n    t._links: tuple = ()\n"
                    "def grow(t):\n    t._links += (3,)\n"
                    "def hidden(t):\n    setattr(t, '_links', 4)\n"
                    "_links = 5\ns = 't._links = 6'\nsetattr(G, '_adj', 7)\n"
                    "x = G()\nx._links = 8\n")
    assert links_writers(path) == [("build", 5), ("copy", 7), ("annotated", 9), ("grow", 11),
                                   ("hidden", 13), (None, 18)]


def test_one_function_reads_tree_links():
    # the estimate read a target's links itself to bundle a plan's trees;
    # every reader of a tree's links now takes them from the rooted tree
    found = {(path.name, func) for path in package_files() for func, _ in links_loads(path)}
    assert found == {("harness.py", "_RootedTree.__init__")}


def test_links_load_guard_sees_every_form(tmp_path):
    # a read in a method, in a nested class and function, by getattr with
    # and without a default, by an augmented assignment and at module
    # level; a store, a setattr, a string and another attribute load nothing
    path = tmp_path / "probe.py"
    path.write_text("class T:\n    def __init__(self, t):\n        self.links = t._links\n"
                    "    class Inner:\n        def read(self, t):\n"
                    "            return t._links[0]\n"
                    "def outer(t):\n    def inner():\n        return getattr(t, '_links')\n"
                    "    return inner\n"
                    "def default(t):\n    return getattr(t, '_links', None)\n"
                    "def grow(t):\n    t._links += (1,)\n"
                    "def store(t):\n    t._links = None\n    setattr(t, '_links', 2)\n"
                    "    return getattr(t, '_adj'), t.links, '_links'\n"
                    "x = T(None)._links\n")
    assert links_loads(path) == [("T.__init__", 3), ("T.Inner.read", 6), ("outer.inner", 9),
                                 ("default", 12), ("grow", 14), (None, 19)]


def test_one_function_touches_the_transition_table():
    # the plan is cached and shared, so its one mutable part has one owner
    found = {(path.name, func) for path in package_files() for func, _ in memo_touches(path)}
    assert found == {("pw2.py", "_realize")}


def test_memo_guard_sees_every_form(tmp_path):
    # a read, a write, the three attribute calls and a keyword, at module
    # level too; a field declaration, a plain name, a string and another
    # attribute touch nothing
    path = tmp_path / "probe.py"
    path.write_text("class P:\n    memo: tuple\n"
                    "def read(plan):\n    return plan.memo[0]\n"
                    "def write(plan):\n    plan.memo = ()\n"
                    "def named(plan):\n    return getattr(plan, 'memo')\n"
                    "def hidden(plan):\n    setattr(plan, 'memo', 1)\n    delattr(plan, 'memo')\n"
                    "def swapped(plan):\n    return plan._replace(memo=())\n"
                    "memo = ()\ns = 'plan.memo'\nx = P().memos\n"
                    "y = P().memo\n")
    assert memo_touches(path) == [("read", 4), ("write", 6), ("named", 8), ("hidden", 10),
                                  ("hidden", 11), ("swapped", 13), (None, 17)]


def test_the_samplers_walk_only_departures():
    # each sampler's plan used to keep its own walk over the steps' windows,
    # and the two had drifted: only pwk checked the metric first
    found = [(path.name, line) for path in package_files() if path.name in ("pw2.py", "pwk.py")
             for line in steps_reads(path)]
    assert found == []


def test_steps_guard_sees_every_read(tmp_path):
    # a read in a loop, in a nested function, by getattr and at module
    # level; a plain name, a string, another attribute and the walk itself
    # read none
    path = tmp_path / "probe.py"
    path.write_text("def plan(seq):\n    for x, w in seq.steps:\n        pass\n"
                    "def count(seq):\n    def inner():\n        return len(seq.steps)\n"
                    "    return inner\n"
                    "def named(seq):\n    return getattr(seq, 'steps')\n"
                    "first = SEQ.steps[0]\n"
                    "steps = []\ns = 'seq.steps'\nx = seq.step\n"
                    "def walk(seq):\n    return list(seq.departures())\n")
    assert steps_reads(path) == [2, 6, 9, 10]


def test_one_running_window_walks_the_steps():
    # the constructor's validation kept a second running window over the
    # steps beside the one in `departures`; it now runs that walk
    (path,) = [path for path in package_files() if path.name == "pathwidth.py"]
    assert [func for func, _ in running_window_loops(path)] == ["departures"]


def test_window_guard_sees_every_running_loop(tmp_path):
    # a running window, a running count over getattr, an unpacked state, an
    # enumerate, a loop in a nested function and one at module level; a
    # loop that only calls methods or binds only its own temporaries, a
    # comprehension, another attribute's loop, a loop whose target reuses
    # a name bound before it, and a nested function's name that shadows
    # one of its caller's carry nothing
    path = tmp_path / "probe.py"
    path.write_text("def validate(seq):\n    window = seq.initial\n"
                    "    for v, w in seq.steps:\n        window = w\n"
                    "def count(seq):\n    n = 0\n"
                    "    for _ in getattr(seq, 'steps'):\n        n += 1\n"
                    "def pairs(seq):\n    a = b = 0\n"
                    "    for v, w in seq.steps:\n        a, b = b, v\n"
                    "def indexed(seq):\n    last = None\n"
                    "    for i, (v, w) in enumerate(seq.steps[1:]):\n        last = v\n"
                    "def outer(seq):\n    def inner():\n        prev = 0\n"
                    "        for v, _ in seq.steps:\n            prev = v\n    return inner\n"
                    "window = SEQ.initial\nfor v, w in SEQ.steps:\n    window = w\n"
                    "def calls(seq, out):\n    for v, w in seq.steps:\n        out.append(v)\n"
                    "def temps(seq):\n    for v, w in seq.steps:\n        x = v\n"
                    "def comp(seq):\n    window = 0\n    return [window for v, window in seq.steps]\n"
                    "def bags(seq):\n    window = 0\n    for b in seq.bags:\n        window = b\n"
                    "def target(seq):\n    w = None\n    for v, w in seq.steps:\n        x = v\n"
                    "def shadow(seq):\n    prev = 0\n    def inner():\n"
                    "        for v, _ in seq.steps:\n            prev = v\n    return inner\n")
    assert running_window_loops(path) == [("validate", 3), ("count", 7), ("pairs", 11),
                                          ("indexed", 15), ("inner", 20), (None, 24)]


def test_the_step_rule_stores_into_no_parameter():
    # `_realize` interns the states a rule is given and returns: a rule
    # that wrote into one would change a state the table already holds
    files = {path.name: path for path in package_files()}
    assert parameter_stores(files["pwk.py"], "_keep") == []
    assert parameter_stores(files["pw2.py"], "_step") == []


def test_parameter_guard_sees_every_store(tmp_path):
    # subscript, attribute, nested, sliced and unpacked stores, a deletion
    # and augmented assignments, into positional, starred and keyword
    # parameters; stores into its own names, reads of its parameters and
    # another function's stores are none
    path = tmp_path / "probe.py"
    path.write_text("def _keep(state, d, j, *rest, cap=1):\n"
                    "    state[0] = 1\n"
                    "    d.out = ()\n"
                    "    d.edges[0][1] = 2\n"
                    "    del state[1:]\n"
                    "    state[0] += 1\n"
                    "    j += 1\n"
                    "    a, rest[0] = 1, 2\n"
                    "    cap.x += 1\n"
                    "    ranks = [*state, 0]\n"
                    "    ranks[0] = state[0]\n"
                    "    ranks += [d.out]\n"
                    "    return ranks\n"
                    "def other(state):\n    state[0] = 1\n")
    assert parameter_stores(path, "_keep") == [2, 3, 4, 5, 6, 7, 8, 9]
    assert parameter_stores(path, "missing") is None


def sampler_files():
    return [path for path in package_files() if path.name in ("pw2.py", "pwk.py")]


def test_one_draw_path_reads_the_stream():
    # each sampler drew over every departure of its plan, fixed ones too;
    # a second draw path would read the stream where `_draw` does not
    found = {(path.name, func) for path in package_files()
             for func, _ in name_loads(path, "_draw_lengths")}
    assert found == {("pw2.py", "_draw"), ("pw2.py", "sample_prefix_length")}
    found = {(path.name, func) for path in sampler_files() for func, _ in name_loads(path, "random")}
    assert found == {("pw2.py", "_draw_lengths")}
    drawing = {(path.name, func) for path in sampler_files()
               for name in ("_draw_lengths", "random") for func, _ in name_loads(path, name)}
    found = {(path.name, func) for path in sampler_files()
             for func, _ in name_loads(path, "departures")}
    assert found and not found & drawing


def test_load_guard_sees_every_read(tmp_path):
    # a call, a dotted call, an alias, an argument and a read at module
    # level; the import, a store, a string and another name read nothing
    path = tmp_path / "probe.py"
    path.write_text("from .pw2 import _draw_lengths\nfrom . import pw2\n"
                    "def direct(steps, rng):\n    return _draw_lengths(steps, rng)\n"
                    "def dotted(steps, rng):\n    return pw2._draw_lengths(steps, rng)\n"
                    "def alias():\n    f = _draw_lengths\n    return f\n"
                    "def passed(run):\n    return run(_draw_lengths)\n"
                    "rule = _draw_lengths\n"
                    "def store(plan):\n    plan._draw_lengths = None\n"
                    "s = '_draw_lengths'\n_draw_length = 1\n")
    assert name_loads(path, "_draw_lengths") == [("direct", 4), ("dotted", 6), ("alias", 8),
                                                 ("passed", 11), (None, 12)]
