"""Lints read from syntax trees.  Every name a module of the package or of
the tests imports is used in that module; a name listed in the module's
``__all__`` counts as used, as a re-export.  Every private function, method
and class of the package is referenced somewhere in the package.  No module
of the package but ``messages`` names a payload class ``LAYOUT`` lists: a
sender passes a message's kind and fields, and the kind names the class.
Every trace record the package names by a literal passes one value for each
of its ``TRACE_KEYS`` keys.  Every dataclass field and stored attribute of
the package is read somewhere in the package or the benchmark's child.  No
two dataclasses of the package have one shape, the same field names under
the same annotations: one fact gets one class.  ``NamedTuple`` payloads are
not checked, since ``LAYOUT`` tells payloads of one shape apart by their
message kind.  Every exception class of ``errors`` is raised or caught
somewhere in the package, so none stays behind its last use.  Every
parameter of a function of the package is read in its body.  No module of
the package but ``trace`` takes the record format's renderer or schema: an
import from ``json.encoder``, ``TRACE_KEYS`` or ``LINE_FACTORIES``."""

import ast
from pathlib import Path

import pytest

from hmlbn.messages import LAYOUT
from hmlbn.trace import LABEL_PAIR, TRACE_KEYS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "hmlbn").glob("*.py"))
BENCH_CHILD = ROOT / "bench" / "child.py"
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports but never reads, sorted."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # "import a.b" binds "a"
            imported.update(alias.asname or alias.name.partition(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name
                            for alias in node.names if alias.name != "*")
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES,
                         ids=[f"{p.parent.name}/{p.name}" for p in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_what_it_should():
    assert unused_imports(
        "from hmlbn.forwarding import DataPacket, Label\nDataPacket()\n") \
        == ["Label"]
    assert unused_imports("import os.path\nimport json as j\nos.sep\n") \
        == ["j"]
    assert unused_imports(
        "from __future__ import annotations\nfrom .x import a, b as c\n"
        "__all__ = ['a']\nx: c\n") == []


def unreferenced_private(sources: list[str]) -> tuple[set, list[str]]:
    """The ``_``-prefixed functions, methods and classes (dunders aside)
    ``sources`` define, and those of them never referenced there, sorted.
    A reference is a name, an attribute or a string literal: timers and
    ``HANDLERS`` name the methods they call as strings."""
    defined, used = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return defined, sorted(defined - used)


def test_every_private_definition_is_referenced():
    defined, dead = unreferenced_private(
        [path.read_text(encoding="utf-8") for path in PACKAGE])
    assert dead == []
    assert len(defined) > 50  # the walk found the package's definitions


def test_the_dead_code_check_finds_what_it_should():
    source = ("class _A:\n    def _tick(self): pass\n"
              "    def _b(self): return self._c\n"
              "    def _c(self): pass\n"
              "    def __init__(self): pass\n"
              "TIMER = ('_b',)\n_A()\n")
    assert unreferenced_private([source]) == ({"_A", "_tick", "_b", "_c"},
                                              ["_tick"])


PAYLOADS = {cls.__name__ for cls, _ in LAYOUT.values()}
SENDERS = [path for path in PACKAGE if path.name != "messages.py"]


def payload_names(source: str) -> list[str]:
    """The ``PAYLOADS`` classes ``source`` imports or names, sorted."""
    named = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            named.add(node.name)
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    return sorted(named & PAYLOADS)


@pytest.mark.parametrize("path", SENDERS, ids=[p.name for p in SENDERS])
def test_only_messages_names_a_payload_class(path):
    assert payload_names(path.read_text(encoding="utf-8")) == []


def test_the_payload_check_finds_what_it_should():
    assert payload_names(
        "from .messages import MessageKind, UpdatePayload\n"
        "send(MessageKind.BINDING_UPDATE, amrr, binding)\n") \
        == ["UpdatePayload"]
    assert payload_names(
        "from hmlbn import messages\nmessages.RequestPayload(p, 1)\n") \
        == ["RequestPayload"]
    assert payload_names(
        "from .messages import MessageKind\n"
        "send(MessageKind.BINDING_REQUEST, amrr, prefix, area)\n") == []


# record call -> the arguments it takes before the record's values
RECORDERS = {"trace_event": 3, "emit": 1}  # (name, src, dst) and (name,)


def record_arity_problems(source: str) -> tuple[int, list[str]]:
    """How many record calls in ``source`` name their record by a literal,
    and one line for each of them whose value count is not its
    ``TRACE_KEYS`` entry's, a ``LABEL_PAIR`` stack counting as two.  The
    values are positional, so a short record fails only when it is
    rendered and a long one loses its extra values without a word."""
    checked, problems = 0, []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        called = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if called not in RECORDERS or not node.args:
            continue
        first = node.args[0]
        if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
            continue
        checked += 1
        name = first.value
        if name not in TRACE_KEYS:
            problems.append(f"line {node.lineno}: no record {name!r}")
            continue
        wanted = len(TRACE_KEYS[name]) + (name == LABEL_PAIR)
        values = node.args[RECORDERS[called]:]
        if (any(isinstance(v, ast.Starred) for v in values)
                or len(values) != wanted):
            problems.append(f"line {node.lineno}: {name} passes"
                            f" {len(values)} values, wants {wanted}")
    return checked, problems


def test_every_literal_record_passes_one_value_per_key():
    checked = 0
    for path in PACKAGE:
        found, problems = record_arity_problems(path.read_text(encoding="utf-8"))
        assert problems == [], path.name
        checked += found
    assert checked > 20  # the walk found the package's records


def test_the_record_arity_check_finds_what_it_should():
    assert record_arity_problems(
        "sim.trace_event('ctl_drop', src, dst, text)\n"
        "self.services.emit('local_handoff', interface, key)\n"
        "sim.trace_event('data_hop', a, b, flow, seq, top, inner)\n"
        "sim.trace_event(name, a, b, *values)\n") == (3, [
            "line 1: ctl_drop passes 1 values, wants 2"])
    assert record_arity_problems(
        "emit('register', area, interface, label)\n"
        "emit('node_fail', *values)\n"
        "emit('no_such_record')\n") == (3, [
            "line 1: register passes 3 values, wants 4",
            "line 2: node_fail passes 1 values, wants 0",
            "line 3: no record 'no_such_record'"])


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if getattr(decorator, "id", getattr(decorator, "attr", None)) \
                == "dataclass":
            return True
    return False


def unread_attributes(sources: list[str],
                      readers: list[str]) -> tuple[set, list[str]]:
    """The ``@dataclass`` fields and the attributes stored as ``x.attr =``
    (or ``+=``) in ``sources``, and those of them that neither ``sources``
    nor ``readers`` read as ``.attr``, sorted.

    The check goes by name only: a field passes if any object's attribute
    of that name is read.  So it misses a field that repeats another's name,
    such as a record's ``prefix`` beside its binding's ``prefix``, and a
    constructor argument kept as ``self.name`` when another class's
    ``.name`` is read."""
    stored = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                stored.update(stmt.target.id for stmt in node.body
                              if isinstance(stmt, ast.AnnAssign)
                              and isinstance(stmt.target, ast.Name))
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store)):
                stored.add(node.attr)
    read = {node.attr for source in sources + readers
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and not isinstance(node.ctx, ast.Store)}
    return stored, sorted(stored - read)


def test_every_stored_attribute_is_read():
    stored, unread = unread_attributes(
        [path.read_text(encoding="utf-8") for path in PACKAGE],
        [BENCH_CHILD.read_text(encoding="utf-8")])
    assert unread == []
    assert len(stored) > 100  # the walk found the package's fields


def test_the_unread_attribute_check_finds_what_it_should():
    source = ("@dataclass\nclass A:\n    kept: int\n    lost: str\n"
              "@dataclasses.dataclass(slots=True)\nclass B:\n"
              "    benched: int = 0\n"
              "class C:\n    plain: int\n"
              "def f(a, o):\n    o.count += 1\n    o.seen = a.kept\n"
              "    o.total, o.pair = 0, 1\n    return o.total\n")
    readers = ["print(x.benched)\nx.pair = 2\n"]
    assert unread_attributes([source], readers) == (
        {"kept", "lost", "benched", "count", "seen", "total", "pair"},
        ["count", "lost", "pair", "seen"])
    assert unread_attributes([source], []) == (
        {"kept", "lost", "benched", "count", "seen", "total", "pair"},
        ["benched", "count", "lost", "pair", "seen"])


def same_shape_dataclasses(sources: list[str]) -> list[list[str]]:
    """Each group, sorted, of two or more ``@dataclass`` classes in
    ``sources`` whose fields have the same names and annotations, in order;
    the groups sorted too."""
    by_shape = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                shape = tuple((stmt.target.id, ast.unparse(stmt.annotation))
                              for stmt in node.body
                              if isinstance(stmt, ast.AnnAssign)
                              and isinstance(stmt.target, ast.Name))
                by_shape.setdefault(shape, []).append(node.name)
    return sorted(sorted(names) for names in by_shape.values()
                  if len(names) > 1)


def test_no_two_dataclasses_share_a_shape():
    assert same_shape_dataclasses(
        [path.read_text(encoding="utf-8") for path in PACKAGE]) == []


def test_the_shape_check_finds_what_it_should():
    source = ("@dataclass\nclass A:\n    t: float\n    p: str = ''\n"
              "@dataclass(frozen=True)\nclass B:\n    t: float\n    p: str\n"
              "@dataclass\nclass C:\n    t: float\n    p: int\n"
              "@dataclass\nclass D:\n    p: str\n    t: float\n"
              "class E(NamedTuple):\n    t: float\n    p: str\n")
    assert same_shape_dataclasses([source]) == [["A", "B"]]
    assert same_shape_dataclasses(
        [source, "@dataclasses.dataclass\nclass F:\n    p: str\n"
                 "    t: float\n"]) == [["A", "B"], ["D", "F"]]


def _names(node) -> list[str]:
    """The class names a ``raise`` or ``except`` expression names."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Tuple):
        return [name for elt in node.elts for name in _names(elt)]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return [node.id] if isinstance(node, ast.Name) else []


def idle_exceptions(errors: str, sources: list[str]) -> list[str]:
    """The classes ``errors`` defines that no source raises or catches,
    sorted."""
    defined = {node.name for node in ast.walk(ast.parse(errors))
               if isinstance(node, ast.ClassDef)}
    used = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                used.update(_names(node.exc))
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                used.update(_names(node.type))
    return sorted(defined - used)


def test_every_exception_class_is_raised_or_caught():
    assert idle_exceptions(
        (ROOT / "src" / "hmlbn" / "errors.py").read_text(encoding="utf-8"),
        [path.read_text(encoding="utf-8") for path in PACKAGE]) == []


def test_the_exception_check_finds_what_it_should():
    errors = ("class Base(Exception):\n    pass\nclass A(Base):\n    pass\n"
              "class B(Base):\n    pass\nclass C(Base):\n    pass\n"
              "class D(Base):\n    pass\n")
    assert idle_exceptions(errors, [
        "try:\n    raise A('x')\nexcept (errors.B, KeyError):\n    pass\n"
        "except Base:\n    raise\n",
        "raise errors.C\n"]) == ["D"]


def unread_parameters(source: str) -> list[str]:
    """``function(parameter)`` for each parameter of a ``def`` in
    ``source`` that its body never reads, sorted.  ``self``, ``cls`` and
    ``_``-prefixed names are exempt, and so are lambdas: a ``Memo`` maker
    may ignore its key."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *filter(None, (args.vararg, args.kwarg))]
        read = {name.id for stmt in node.body for name in ast.walk(stmt)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
        unread += [f"{node.name}({param.arg})" for param in params
                   if param.arg not in read | {"self", "cls"}
                   and not param.arg.startswith("_")]
    return sorted(unread)


def test_every_parameter_is_read():
    unread = [f"{path.name}: {problem}" for path in PACKAGE
              for problem in unread_parameters(path.read_text(encoding="utf-8"))]
    assert unread == []


def test_the_parameter_check_finds_what_it_should():
    source = ("def f(a, b, *args, c=1, _d=2, **kw):\n"
              "    def g(e):\n        return a + c\n    b = 3\n    return g\n"
              "class A:\n    def m(self, x, y):\n        return lambda z: y\n"
              "    @classmethod\n    def k(cls, n=None):\n        return cls\n"
              "key = lambda unused: 0\n")
    assert unread_parameters(source) == [
        "f(args)", "f(b)", "f(kw)", "g(e)", "k(n)", "m(x)"]


RECORD_FORMAT = {"TRACE_KEYS", "LINE_FACTORIES"}
NOT_TRACE = [path for path in PACKAGE if path.name != "trace.py"]


def record_format_uses(source: str) -> list[str]:
    """Each ``RECORD_FORMAT`` name ``source`` imports or names, and
    ``json.encoder`` if it imports from it or reads it, sorted."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            used.update({node.module} & {"json.encoder"})
        elif isinstance(node, ast.alias):
            used.update({node.name} & (RECORD_FORMAT | {"json.encoder"}))
        elif isinstance(node, ast.Name):
            used.update({node.id} & RECORD_FORMAT)
        elif isinstance(node, ast.Attribute):
            used.update({node.attr} & RECORD_FORMAT)
            if node.attr == "encoder" and getattr(node.value, "id", "") == "json":
                used.add("json.encoder")
    return sorted(used)


@pytest.mark.parametrize("path", NOT_TRACE, ids=[p.name for p in NOT_TRACE])
def test_only_trace_holds_the_record_format(path):
    assert record_format_uses(path.read_text(encoding="utf-8")) == []


def test_the_record_format_check_finds_what_it_should():
    assert record_format_uses(
        "from json.encoder import encode_basestring_ascii\n"
        "from .trace import TRACE_KEYS, render\n") \
        == ["TRACE_KEYS", "json.encoder"]
    assert record_format_uses(
        "import json.encoder\nfrom . import trace\n"
        "trace.LINE_FACTORIES['x']\n") == ["LINE_FACTORIES", "json.encoder"]
    assert record_format_uses(
        "import json\njson.encoder.c_make_encoder\n") == ["json.encoder"]
    assert record_format_uses(
        "import json\nfrom .trace import MSG_TEXT, render\n"
        "json.dumps(MSG_TEXT)  # TRACE_KEYS\n") == []
