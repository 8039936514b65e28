"""Every name a module of the package imports is used in that module, and
every function, class, method and record field the package defines is
read by the package or by the benchmark harness.  A record is a dataclass,
a NamedTuple, or a subclass of a record of the same module (a validated
NamedTuple, whose ``__new__`` checks the fields).

Reads count in ``src/`` and in ``chainbench/`` outside ``chainbench/tests/``:
a definition that only tests read belongs in ``tests/``.  A name listed in
``TRACED`` of ``chainbench/spans.py`` counts as read, since the benchmark's
tracer looks it up by name.  ``ALLOWLIST`` holds the definitions that no
command reads yet, each kept for the ROADMAP item that gives it a reader.

Only ``graph.py`` calls or imports ``bfs_levels`` and ``period``: every
other module takes classes and periods from ``graph.classes``.  Only
``graph.py`` imports ``heapq``: ``graph.sinks_first`` is the one
topological sort.  Only ``sft.py`` calls ``Fraction(1, 2 ** k)``: every
other module takes 2^-k from ``sft.dyadic``.

``__init__.py`` is exempt (its imports are the public re-exports), and so is
``from __future__ import annotations``.  With postponed annotations the
annotations are still parsed into name nodes, so a name used only in an
annotation counts as used.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chainscope"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = PACKAGE.parents[1]
READERS = [p for d in ("src", "chainbench") for p in sorted((ROOT / d).rglob("*.py"))
           if "tests" not in p.relative_to(ROOT / d).parts]
ALLOWLIST = {
    "slimit_modulus": "ROADMAP item 2, exact s-limit shadowing",
    "slimit_splice": "ROADMAP item 6, reducible vertex shifts",
    "ProximalPartition.per_delta": "ROADMAP item 3, the global partition",
}


def traced_names() -> set[str]:
    """The names that ``TRACED`` of ``chainbench/spans.py`` lists."""
    tree = ast.parse((ROOT / "chainbench" / "spans.py").read_text())
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["TRACED"])
    return {name for names in ast.literal_eval(value).values() for name in names}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement of ``source`` and never read."""
    tree = ast.parse(source)
    bound: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_are_found():
    source = "import os.path\nfrom typing import Callable, Sequence as Seq\nx: Seq = os\n"
    assert unused_imports(source) == ["Callable"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


# the steps of ``graph.classes``: a module that called them itself would
# keep a second copy of the class kernel
KERNEL_STEPS = {"bfs_levels", "period"}


def kernel_step_uses(source: str) -> set[str]:
    """The ``KERNEL_STEPS`` that ``source`` calls, as a name or an attribute
    (``graph.period(...)``), or imports under any name."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            used.add(getattr(node.func, "id", getattr(node.func, "attr", None)))
        elif isinstance(node, ast.ImportFrom):
            used.update(a.name for a in node.names)
    return used & KERNEL_STEPS


def test_kernel_step_uses_are_found():
    assert kernel_step_uses("graph.bfs_levels(succ, 0)\nm = dec.period\n") == {"bfs_levels"}
    assert kernel_step_uses("from .graph import period as p\n") == {"period"}
    assert kernel_step_uses("from .graph import classes\nclasses(succ, 0)\n") == set()


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "graph.py"],
                         ids=lambda p: p.name)
def test_only_the_graph_kernel_takes_levels_and_periods(path):
    assert kernel_step_uses(path.read_text()) == set()


# the heap of ``graph.sinks_first``: a module that imported it could keep a
# second topological sort
def imports_heapq(source: str) -> bool:
    """Does ``source`` import ``heapq``, as a module or names from it?"""
    return any(isinstance(node, ast.Import) and any(a.name == "heapq" for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "heapq"
               for node in ast.walk(ast.parse(source)))


def test_heapq_imports_are_found():
    assert imports_heapq("import os, heapq as hq\n")
    assert imports_heapq("def f():\n    from heapq import heappush\n")
    assert not imports_heapq("from .graph import sinks_first\nheap = []\n")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_graph_kernel_imports_heapq(path):
    assert imports_heapq(path.read_text()) == (path.name == "graph.py")


# a distance 2^-k is built by ``sft.dyadic`` alone, which keeps one
# Fraction per depth
def dyadic_builds(source: str) -> int:
    """The calls ``Fraction(..., 2 ** ...)`` in ``source``, as a name or an
    attribute (``fractions.Fraction``)."""
    return sum(
        1 for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Fraction"
        and any(isinstance(a, ast.BinOp) and isinstance(a.op, ast.Pow)
                and isinstance(a.left, ast.Constant) and a.left.value == 2
                for a in node.args))


def test_dyadic_builds_are_found():
    assert dyadic_builds("Fraction(1, 2**k)\nfractions.Fraction(1, 2 ** (t + 1))\n") == 2
    assert dyadic_builds("Fraction(1, 2)\nFraction(1, 3**k)\ndyadic(k)\nx = 2**k\n") == 0


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "sft.py"],
                         ids=lambda p: p.name)
def test_only_sft_builds_a_dyadic_distance(path):
    assert dyadic_builds(path.read_text()) == 0


def _reads(node) -> tuple[Counter, Counter]:
    """Counts of the names read (Name nodes) and of the attributes read
    (Attribute nodes) under ``node``; assignments are not reads."""
    names, attrs = Counter(), Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            attrs[n.attr] += 1
    return names, attrs


def unreferenced(sources: dict[str, str], package: list[str]) -> list[str]:
    """Definitions of the ``package`` modules that nothing in ``sources``
    reads outside the definition itself.

    A top-level function or class counts as read by a Name or Attribute node
    of its name (``f(...)``, ``module.f``), a method by an Attribute node
    (``obj.m``); import statements and strings do not count, and dunder
    methods are exempt.  The check goes by name alone, so it cannot see a
    definition whose name something else reads: ``FiniteSystem.orbit``
    beside ``args.orbit``, or ``ChainDigraph.is_edge`` beside
    ``SftGraph.is_edge``, would pass.
    """
    trees = {path: ast.parse(text) for path, text in sources.items()}
    names, attrs = Counter(), Counter()
    for tree in trees.values():
        n, a = _reads(tree)
        names.update(n)
        attrs.update(a)
    out = []
    for path in package:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            n, a = _reads(node)
            if names[node.name] + attrs[node.name] == n[node.name] + a[node.name]:
                out.append(node.name)
            methods = node.body if isinstance(node, ast.ClassDef) else []
            for m in methods:
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("__"):
                    if attrs[m.name] == _reads(m)[1][m.name]:
                        out.append(f"{node.name}.{m.name}")
    return out


def test_unreferenced_definitions_are_found():
    source = ("def used(): pass\n"
              "def unused(): used(); unused()\n"
              "class K:\n"
              "    def m(self): return self.m()\n"
              "    def __init__(self): pass\n"
              "K().n\n")
    other = "from a import unused\nunused = 1\nK.m = 2\n"
    assert unreferenced({"a": source, "b": other}, ["a"]) == ["unused", "K.m"]


def _unread() -> tuple[set[str], set[str]]:
    """(definitions, record fields) of the package that nothing in
    ``READERS`` reads, ``TRACED`` names aside."""
    sources = {str(p): p.read_text() for p in READERS}
    package = [str(p) for p in sorted(PACKAGE.glob("*.py"))]
    return (set(unreferenced(sources, package)) - traced_names(),
            set(unread_fields(sources, package)))


def test_traced_names_come_from_the_benchmark_tracer():
    assert {"cyclic_classes", "verify_partition_laws", "load_system"} <= traced_names()
    assert not any(p.parent.name == "tests" for p in READERS)


# an allowlisted name that gains a reader fails one of the next two tests,
# so the allowlist cannot go stale
def test_every_definition_is_read_somewhere():
    definitions, fields = _unread()
    assert definitions == ALLOWLIST.keys() - fields


def _name(node) -> str | None:
    """The name a decorator or base expression ends in: ``dataclass`` of
    ``dataclasses.dataclass(frozen=True)``, ``NamedTuple`` of
    ``typing.NamedTuple``."""
    f = node.func if isinstance(node, ast.Call) else node
    return getattr(f, "id", getattr(f, "attr", None))


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(_name(d) == "dataclass" for d in node.decorator_list)


def records(tree: ast.Module) -> list[ast.ClassDef]:
    """The top-level record classes of a module, in source order."""
    out, names = [], {"NamedTuple"}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and (
                _is_dataclass(node) or any(_name(b) in names for b in node.bases)):
            out.append(node)
            names.add(node.name)
    return out


def unread_fields(sources: dict[str, str], package: list[str]) -> list[str]:
    """Fields of the records of the ``package`` modules that no Attribute
    node of ``sources`` reads (``obj.field``).

    Like ``unreferenced``, this goes by name alone; assignments and keyword
    arguments are not reads.  A dataclass that calls ``asdict`` reads every
    field of its own.
    """
    trees = {path: ast.parse(text) for path, text in sources.items()}
    attrs = Counter()
    for tree in trees.values():
        attrs.update(_reads(tree)[1])
    out = []
    for path in package:
        for node in records(trees[path]):
            if "asdict" in _reads(node)[0]:
                continue
            out += [f"{node.name}.{st.target.id}" for st in node.body
                    if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)
                    and not attrs[st.target.id]]
    return out


def test_unread_fields_are_found():
    # D is a NamedTuple; E a validated one, with its fields on _EFields and
    # a subclass of a record being a record itself; F subclasses a plain class
    source = ("from dataclasses import asdict, dataclass\n"
              "@dataclass(frozen=True)\n"
              "class A:\n"
              "    read: int\n"
              "    unread: int = 0\n"
              "    def m(self): return self.read\n"
              "@dataclass\n"
              "class B:\n"
              "    echoed: int\n"
              "    def echo(self): return asdict(self)\n"
              "class C:\n"
              "    plain: int\n"
              "class D(NamedTuple):\n"
              "    kept: int\n"
              "    dropped: int = 0\n"
              "class _EFields(typing.NamedTuple):\n"
              "    checked: int\n"
              "    lost: int\n"
              "class E(_EFields):\n"
              "    __slots__ = ()\n"
              "    spare: int\n"
              "    def __new__(cls, *args):\n"
              "        self = super().__new__(cls, *args)\n"
              "        assert self.checked\n"
              "        return self\n"
              "class F(C):\n"
              "    other: int\n")
    other = "a = A(read=1, unread=2)\na.unread = 3\nD(1, 2).kept\n"
    assert unread_fields({"a": source, "b": other}, ["a"]) == [
        "A.unread", "D.dropped", "_EFields.lost", "E.spare"]


def test_every_dataclass_field_is_read_somewhere():
    definitions, fields = _unread()
    assert fields == ALLOWLIST.keys() - definitions


# the records that stay dataclasses: the two whose tests expect
# FrozenInstanceError (both also have cached properties), the config that
# ``asdict`` and class-level default reads need, SftGraph with its private
# fields and PseudoOrbit with its uncompared fields and cached property;
# every other record is a NamedTuple
DATACLASSES = {"FiniteSystem", "ChainDigraph", "AnalysisConfig", "SftGraph", "PseudoOrbit"}


def test_only_the_named_records_are_dataclasses():
    found = {node.name for path in MODULES for node in ast.parse(path.read_text()).body
             if isinstance(node, ast.ClassDef) and _is_dataclass(node)}
    assert found == DATACLASSES


def test_records_are_found():
    names = [node.name for path in MODULES for node in records(ast.parse(path.read_text()))]
    assert DATACLASSES | {"ProximalPartition", "ClassifyParams", "WindowParams",
                          "SftPoint"} <= set(names)


# ``_replace`` and ``_make`` build a NamedTuple without calling its class, so
# a validated record made by them would skip its ``__new__`` checks
def tuple_rebuilds(source: str) -> list[str]:
    return [n.attr for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and n.attr in ("_replace", "_make")]


def test_tuple_rebuilds_are_found():
    assert tuple_rebuilds("p = q._replace(a=1)\nr = P._make(xs)\ns = q.replace(a=1)\n") == [
        "_replace", "_make"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_record_is_rebuilt_past_its_checks(path):
    assert tuple_rebuilds(path.read_text()) == []
