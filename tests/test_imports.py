"""Import hygiene: no module imports a name it never uses, every exported
name resolves (the transport names on first use), YAML documents have one
reader and one walker, HTTP lines one reader, dialogues one builder,
model documents one walker and files one opener, both ends of the wire
frame HTTP themselves in ``wire.py`` alone, an in-process run loads no
socket module and a wire run TLS and proxy lookup only when it needs
them, and every function the benchmark's traced round wraps exists."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import Callable

import pytest

import crssim

MODULES = sorted(p for p in Path(crssim.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read afterwards."""
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom json import dumps, loads\n"
                          "loads(os.sep)\n") == ["dumps"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_every_exported_name_resolves():
    missing = [name for name in crssim.__all__ if not hasattr(crssim, name)]
    assert missing == []


@pytest.mark.parametrize("name", ["serve_mock", "MockAgentServer"])
def test_the_mock_server_is_one_object_under_each_of_its_names(name):
    from crssim import mock_agent, wire
    assert (getattr(crssim, name) is getattr(mock_agent, name)
            is getattr(wire, name))


@pytest.mark.parametrize("module", ["crssim", "crssim.mock_agent"])
def test_an_unknown_name_is_still_an_attribute_error(module):
    loaded = importlib.import_module(module)
    assert getattr(loaded, "nope", None) is None
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        loaded.nope


def test_a_star_import_binds_every_exported_name(tmp_path):
    probe = ("from crssim import *\nimport crssim\n"
             "print(all(globals()[name] is getattr(crssim, name) "
             "for name in crssim.__all__))\n")
    result = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path,
                            capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stdout) == (0, "True\n"), result.stderr


def callers(source: str, module: str,
            is_call: Callable[[ast.Call], bool]) -> list[str]:
    """Dotted scopes (``module.function``) holding a call that ``is_call``
    picks."""
    found: list[str] = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(child, ast.Call) and is_call(child):
                found.append(scope)
            visit(child, inner)

    visit(ast.parse(source), module)
    return found


# every PyYAML function that reads YAML text
YAML_READERS = {"load", "safe_load", "full_load", "unsafe_load", "load_all",
                "safe_load_all", "compose", "compose_all", "parse", "scan"}


def yaml_reader_callers(source: str, module: str) -> list[str]:
    """Scopes calling a PyYAML reader, through the module under any name
    (``yaml.compose``) or imported by name (``from yaml import load``)."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "yaml"}
    readers = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "yaml"
               for alias in node.names if alias.name in YAML_READERS}

    def is_reader(call: ast.Call) -> bool:
        func = call.func
        if isinstance(func, ast.Attribute):
            return (func.attr in YAML_READERS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in modules)
        return isinstance(func, ast.Name) and func.id in readers

    return callers(source, module, is_reader)


def test_the_check_sees_every_way_of_calling_a_yaml_reader():
    source = ("import yaml as y\nfrom yaml import safe_load as read\n"
              "class C:\n"
              "    def f(self):\n        return y.compose('a: 1')\n"
              "    def g(self):\n        return read('a: 1')\n"
              "    def h(self):\n        return Simulation.load(self)\n")
    assert yaml_reader_callers(source, "m") == ["m.C.f", "m.C.g"]


def test_one_function_reads_every_yaml_document():
    found = [caller for module in MODULES for caller in yaml_reader_callers(
        module.read_text(encoding="utf-8"), module.stem)]
    assert found == ["domain._yaml_node"]


def unwalked_yaml(source: str, module: str) -> list[str]:
    """Scopes that call ``_yaml_mapping`` but not ``schema.read``, by its
    name or through the module."""
    def calls(name: str) -> set[str]:
        def is_call(call: ast.Call) -> bool:
            func = call.func
            if isinstance(func, ast.Attribute):
                return (func.attr == name and isinstance(func.value, ast.Name)
                        and func.value.id in ("domain", "schema"))
            return isinstance(func, ast.Name) and func.id == name
        return set(callers(source, module, is_call))

    return sorted(calls("_yaml_mapping") - calls("read"))


def test_the_check_sees_yaml_read_past_the_walker():
    source = ("def f(t):\n    return read(D, _yaml_mapping(t, 'a'), 'a')\n"
              "def g(t):\n"
              "    return schema.read(D, domain._yaml_mapping(t, 'b'), 'b')\n"
              "def h(t, s):\n    return s.read(), dict(_yaml_mapping(t, 'c'))\n"
              "def i(t):\n    return lambda: read(D, _yaml_mapping(t, 'd'), 'd')\n")
    assert unwalked_yaml(source, "m") == ["m.h"]


def test_every_yaml_document_is_read_by_the_walker():
    # so no YAML config grows a hand-written reader again
    found = [caller for module in MODULES for caller in unwalked_yaml(
        module.read_text(encoding="utf-8"), module.stem)]
    assert found == []


def hand_written_documents(source: str, module: str) -> list[str]:
    """Methods ``Class.from_dict`` and ``Class.to_dict`` that a class
    defines itself, except the report's ``to_dict``, whose rows are
    packed."""
    return [f"{module}.{node.name}.{item.name}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and (item.name == "from_dict" or item.name == "to_dict"
                 and node.name != "MetricsReport")]


def test_the_check_sees_a_hand_written_document():
    source = ("class A:\n    def to_dict(self):\n        pass\n"
              "    @classmethod\n    def from_dict(cls, d):\n        pass\n"
              "class MetricsReport:\n    def to_dict(self):\n        pass\n"
              "def to_dict():\n    pass\n")
    assert hand_written_documents(source, "m") == ["m.A.to_dict",
                                                   "m.A.from_dict"]


def test_only_the_schema_walker_reads_and_writes_documents():
    # a model class gets both names from schema.Document, so a document
    # cannot grow a reader that skips the walker's checks
    found = [name for module in MODULES if module.stem != "schema"
             for name in hand_written_documents(
                 module.read_text(encoding="utf-8"), module.stem)]
    assert found == []


def readline_callers(source: str, module: str) -> list[str]:
    """Scopes calling a ``readline`` method on anything."""
    return callers(source, module, lambda call: isinstance(
        call.func, ast.Attribute) and call.func.attr == "readline")


def test_the_check_sees_every_readline_call():
    source = ("def f(r):\n    return r.readline(10)\n"
              "class C:\n    def g(self):\n"
              "        return self.rfile.readline()\n"
              "    def h(self, r):\n        return r.readlines()\n")
    assert readline_callers(source, "m") == ["m.f", "m.C.g"]


def test_one_function_reads_http_lines():
    # the transcript reader checks a file ends at its footer; every HTTP
    # line goes through wire._line, so no second HTTP parser grows back
    found = [caller for module in MODULES for caller in readline_callers(
        module.read_text(encoding="utf-8"), module.stem)]
    assert found == ["transcript._records", "wire._line"]


# the ways to open a file by its path: the builtin, and pathlib's methods
OPENERS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}


def opens_files(source: str) -> bool:
    """Does ``source`` call the builtin ``open``, or a method of
    :data:`OPENERS` on anything (``Path(p).open()``, ``io.open(p)``), or
    name ``UnicodeDecodeError``?"""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "UnicodeDecodeError":
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if (func.attr in OPENERS if isinstance(func, ast.Attribute)
                    else isinstance(func, ast.Name) and func.id == "open"):
                return True
    return False


@pytest.mark.parametrize("source, opens", [
    ("def f(p):\n    return open(p).read()\n", True),
    ("import io\nclass C:\n    def g(self, p):\n        return io.open(p)\n",
     True),
    ("from pathlib import Path\nPath('p').read_text()\n", True),
    ("def i(p):\n    with p.open('w') as f:\n        pass\n", True),
    ("def j(b):\n    try:\n        b.decode()\n"
     "    except UnicodeDecodeError:\n        pass\n", True),
    ("def k(p, opened):\n    return os.path.exists(p), opened(p), p.name\n",
     False),
], ids=["builtin", "io", "read-text", "path-open", "decode-error", "none"])
def test_the_check_sees_every_way_of_opening_a_file(source, opens):
    assert opens_files(source) is opens


def test_one_module_opens_every_file():
    # errors._opened, so that an error in any file a run reads is led by
    # its name, and a byte that is not UTF-8 is a ParseError at its line
    found = [module.name for module in MODULES
             if opens_files(module.read_text(encoding="utf-8"))]
    assert found == ["errors.py"]


@pytest.mark.parametrize("called", ["SimulatedUser", "connect_dialogue"])
def test_only_run_user_builds_a_dialogue(called):
    def is_call(call: ast.Call) -> bool:  # by name: m.f() and f() alike
        func = call.func
        return (func.attr if isinstance(func, ast.Attribute)
                else getattr(func, "id", None)) == called

    assert callers(f"class S:\n    def f(self):\n        m.{called}()\n",
                   "m", is_call) == ["m.S.f"]  # the check sees the call
    found = [caller for module in MODULES for caller in callers(
        module.read_text(encoding="utf-8"), module.stem, is_call)]
    assert found == ["runner.Simulation.run_user"]


def imported_modules(source: str, eager: bool = False) -> set[str]:
    """Every module an import statement names, with its parent packages;
    with ``eager``, only those the module imports as it is itself imported,
    outside any function body."""

    def statements(node: ast.AST):
        for child in ast.iter_child_nodes(node):
            if not (eager and isinstance(child, (ast.FunctionDef,
                                                 ast.AsyncFunctionDef))):
                yield child
                yield from statements(child)

    names: set[str] = set()
    for node in statements(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module] + [f"{node.module}.{alias.name}"
                                       for alias in node.names]
        else:
            continue
        for module in modules:
            parts = module.split(".")
            names.update(".".join(parts[:i + 1]) for i in range(len(parts)))
    return names


def test_the_check_sees_a_nested_import():
    assert {"http", "http.client", "http.server", "email"} <= imported_modules(
        "def f():\n    from http import client\n    import email.parser\n"
        "class C:\n    def g(self):\n        from http import server\n")


def test_the_check_tells_eager_imports_from_deferred_ones():
    source = ("import json\nif True:\n    import ssl\n"
              "def f():\n    import urllib.request\n"
              "class C:\n    from email import parser\n"
              "    def g(self):\n        import http.client\n")
    assert imported_modules(source, eager=True) == {
        "json", "ssl", "email", "email.parser"}
    assert {"urllib.request", "http.client"} <= imported_modules(source)


# modules a run that opens no https connection and finds no proxy setting
# never needs; ``email`` and ``http.client`` come with ``urllib.request``
ON_DEMAND = ("ssl", "urllib.request", "http.client", "email")
# modules a run against the in-process mock never needs
TRANSPORT = ("socket", "socketserver", "select", "selectors", "crssim.wire")


def test_no_module_imports_tls_or_proxy_lookup_eagerly():
    package = Path(crssim.__file__).parent
    found = [module.name for module in sorted(package.glob("*.py"))
             if imported_modules(module.read_text(encoding="utf-8"),
                                 eager=True) & {"ssl", "urllib.request"}]
    assert found == []


def test_only_the_wire_module_imports_sockets_eagerly():
    package = Path(crssim.__file__).parent
    found = [module.name for module in sorted(package.glob("*.py"))
             if imported_modules(module.read_text(encoding="utf-8"),
                                 eager=True) & set(TRANSPORT)]
    assert found == ["wire.py"]


def private_wire_imports(source: str) -> list[str]:
    """The ``_``-prefixed names an import statement takes from the wire
    module, relative (``from .wire``) or absolute (``from crssim.wire``)."""
    return [alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.module, node.level) in (("wire", 1),
                                              ("crssim.wire", 0))
            for alias in node.names if alias.name.startswith("_")]


def test_the_check_sees_a_private_wire_import():
    source = ("from .wire import AgentEndpoint, _line\n"
              "def f():\n    from crssim.wire import _headers\n"
              "from .transcript import _encode\n")
    assert private_wire_imports(source) == ["_line", "_headers"]


def test_no_module_imports_a_private_wire_name():
    found = {module.name: names for module in MODULES
             if module.name != "wire.py"
             and (names := private_wire_imports(
                 module.read_text(encoding="utf-8")))}
    assert found == {}


def loaded_after(script: str, tmp_path: Path,
                 watched: tuple[str, ...] = ON_DEMAND) -> list[str]:
    """The ``watched`` modules loaded once ``script`` has run in a fresh
    interpreter, with no ``*_proxy`` variable in its environment."""
    env = {name: value for name, value in os.environ.items()
           if not name.lower().endswith("_proxy")}
    probe = (f"import sys\n{textwrap.dedent(script)}\n"
             f"print(sorted(set({watched!r}) & set(sys.modules)))\n")
    result = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path,
                            capture_output=True, text=True, env=env,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    return ast.literal_eval(result.stdout.splitlines()[-1])


def test_an_in_process_run_loads_no_transport(tmp_path):
    assert loaded_after("""
        from pathlib import Path
        from crssim import run_evaluation, run_simulation, SimulationConfig
        Path("population.yaml").write_text(
            "n_users: 5\\nground_in_ratings: false\\n", encoding="utf-8")
        run_simulation(SimulationConfig(population="population.yaml",
                                        out="out", train=True))
        report = run_evaluation("out/transcripts.jsonl", "out")
        assert report.n_dialogues == 5
    """, tmp_path, ON_DEMAND + TRANSPORT) == []


@pytest.mark.skipif(sys.platform != "linux", reason="elsewhere proxies "
                    "also come from system settings, read by urllib")
def test_a_wire_exchange_without_proxy_settings_loads_neither(tmp_path):
    assert loaded_after("""
        from crssim import (AgentEndpoint, bundled, load_domain,
                            load_item_collection, serve_mock, wire_exchange)
        domain = load_domain(bundled.asset_path(bundled.DOMAIN))
        server = serve_mock(load_item_collection(
            bundled.asset_path(bundled.ITEMS), domain))
        endpoint = AgentEndpoint(server.base_url)
        try:
            reply, _ = wire_exchange(endpoint, "s", "")
        finally:
            endpoint.close()
            server.stop()
        assert reply
    """, tmp_path) == []


def test_the_wire_client_parses_http_itself():
    wire = Path(crssim.__file__).parent / "wire.py"
    found = imported_modules(wire.read_text(encoding="utf-8"))
    assert not found & {"http.client", "email"}


def test_the_mock_server_frames_http_itself():
    package = Path(crssim.__file__).parent
    found = [module.name for module in package.glob("*.py") if "http.server"
             in imported_modules(module.read_text(encoding="utf-8"))]
    assert found == []


def test_every_benchmark_target_resolves():
    layers = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
    tree = ast.parse(layers.read_text(encoding="utf-8"))
    (targets,) = [node.value for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["TARGETS"]]
    names = [(row.elts[0].value, row.elts[1].value) for row in targets.elts]
    assert len(names) > 20
    missing = []
    for module_name, qualname in names:
        owner = importlib.import_module(f"crssim.{module_name}")
        for attr in qualname.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{module_name}.{qualname}")
    assert missing == []
