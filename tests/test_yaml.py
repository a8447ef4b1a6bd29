"""The one YAML reader (``domain._yaml_node``): it reads what PyYAML's
pure-Python ``SafeLoader`` reads, with the same line marks, on libyaml's
parser and on the fallback alike, and no nesting depth crashes it."""

from __future__ import annotations

import importlib.util
import io
import subprocess
import sys

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crssim import (InteractionModel, ParseError, bundled, domain,
                    parse_domain_config, parse_interaction_model,
                    parse_population_config)
from crssim.nlg import load_default_patterns

# every YAML document: its bundled asset, its reader, its name in errors
DOCUMENTS = {
    "domain": (bundled.DOMAIN, parse_domain_config, "domain config"),
    "population": (bundled.POPULATION, parse_population_config,
                   "population config"),
    "interaction-model": (bundled.INTERACTION_MODEL, parse_interaction_model,
                          "interaction config"),
    "default-templates": (bundled.DEFAULT_TEMPLATES,
                          lambda text: load_default_patterns(io.StringIO(text)),
                          "default-template table"),
}


def without_libyaml(monkeypatch: pytest.MonkeyPatch) -> type:
    """The loader ``crssim.domain`` picks where PyYAML has no libyaml,
    from a fresh copy of the module imported with the flag off."""
    name = "crssim._domain_without_libyaml"
    spec = importlib.util.spec_from_file_location(name, domain.__file__)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(yaml, "__with_libyaml__", False)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module._Loader


@pytest.fixture(params=["libyaml", "pure-python"])
def loader(request, monkeypatch):
    """Run a test once on the loader in use and once on the fallback."""
    if request.param == "pure-python":
        fallback = without_libyaml(monkeypatch)
        assert fallback is yaml.SafeLoader
        monkeypatch.setattr(domain, "_Loader", fallback)
    return domain._Loader


needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__,
                                   reason="PyYAML was built without libyaml")


@needs_libyaml
def test_libyaml_parses_where_pyyaml_has_it():
    from yaml.cyaml import CParser
    assert issubclass(domain._Loader, CParser)
    assert domain._Loader.get_node is yaml.composer.Composer.get_node


def marks(node: yaml.Node | None) -> object:
    """A node tree as nested tuples of tag, scalar value and start line."""
    if node is None:
        return None
    if isinstance(node, yaml.ScalarNode):
        value: object = node.value
    elif isinstance(node, yaml.SequenceNode):
        value = [marks(child) for child in node.value]
    else:
        value = [(marks(key), marks(child)) for key, child in node.value]
    return node.tag, value, node.start_mark.line


scalars = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=False) | st.text())
values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4), max_leaves=20)


# the loader fixture holds for every example, so it need not be fresh
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=st.dictionaries(st.text(), values, max_size=5))
def test_dumped_data_loads_back_as_safe_loader_reads_it(loader, doc):
    text = yaml.safe_dump(doc, sort_keys=False)
    # repr tells True from 1 and 1.0, and shows key order
    assert repr(domain._yaml_mapping(text, "doc")) == repr(doc)
    assert marks(domain._yaml_node(text, "doc")) == marks(
        yaml.compose(text, Loader=yaml.SafeLoader))


@pytest.mark.parametrize("variant", ["as-is", "leading-bom", "crlf"])
@pytest.mark.parametrize("document", DOCUMENTS)
def test_bundled_documents_load_as_safe_loader_reads_them(loader, document,
                                                          variant):
    asset, read, what = DOCUMENTS[document]
    text = bundled.asset_path(asset).read_text(encoding="utf-8")
    changed = {"as-is": text, "leading-bom": "\ufeff" + text,
               "crlf": text.replace("\n", "\r\n")}[variant]
    assert domain._yaml_mapping(changed, what) == yaml.load(
        changed, Loader=yaml.SafeLoader)
    assert marks(domain._yaml_node(changed, what)) == marks(
        yaml.compose(changed, Loader=yaml.SafeLoader))
    assert read(changed) == read(text)


# malformed YAML and the line each reader reports it at (None: no line)
MALFORMED = [
    ("a: 1\nb: [\n", 3),             # unclosed flow sequence
    ("a: [1\n\nb: 2\n", 3),
    ("\n\na: [}\n", 3),
    ("a: 1\n  b: 2\n", 2),           # mapping value where none may be
    ("a: b: c\n", 1),
    ("a: 'open\n", 2),               # unclosed quote
    ("a:\n  - 1\n - 2\n", 3),        # bad indentation
    ("a: |\n  x\n y: 1\n", 3),
    ("a: @x\n", 1),                  # reserved indicator
    ("a: *nope\n", 1),               # undefined alias
    ("a: &x 1\nb: &x\n", 2),
    ("a: 1\n---\nb: 2\n", 2),        # a second document
    ("%YAML 1.1\n%YAML 1.1\n---\na: 1\n", 2),
    ("a: !!python/object:os.system x\n", 1),  # tag safe loading refuses
    ("a: {[1]: 2}\n", 1),            # unhashable key
    ("a: \x00\n", None),             # control character
    ("a: \ud800\n", None),           # lone surrogate
    ("[" * (sys.getrecursionlimit() + 1), None),  # nested too deeply
]


@pytest.mark.parametrize("text, line", MALFORMED,
                         ids=[repr(text[:16]) for text, _ in MALFORMED])
@pytest.mark.parametrize("document", DOCUMENTS)
def test_malformed_yaml_is_a_parse_error_at_its_line(loader, document, text,
                                                     line):
    _, read, what = DOCUMENTS[document]
    with pytest.raises(ParseError) as info:
        read(text)
    assert info.value.line == line
    assert f"malformed {what}: " in str(info.value)


# where libyaml parts from PyYAML's pure-Python scanner (README, Data
# formats): the latter rejects the first three and reads the fourth as a
# key '\ufeff  b' beside 'a'; it reads the last three
LIBYAML_ONLY = [
    ("a:\t1\n", {"a": 1}),
    ("a: [g?enre]\n", {"a": ["g?enre"]}),
    ("a: 1\n\ufeff\n", {"a": 1}),
    ("a:\n\ufeff  b: 1\n", {"a": {"b": 1}}),
    ("a: 1\n\ufeffb: 2\n", 2),
    ("a: [x:, y]\n", 1),
    ("%FOO\n---\na: 1\n", 1),
]


@needs_libyaml
@pytest.mark.parametrize("text, read", LIBYAML_ONLY,
                         ids=[repr(text) for text, _ in LIBYAML_ONLY])
def test_libyaml_reads_some_malformed_text_its_own_way(text, read):
    if isinstance(read, dict):
        assert domain._yaml_mapping(text, "doc") == read
    else:
        with pytest.raises(ParseError) as info:
            domain._yaml_mapping(text, "doc")
        assert info.value.line == read


# explicit tags on scalars they cannot convert; PyYAML's safe constructor
# raises KeyError, ValueError, IndexError and AttributeError for these
UNCONVERTIBLE = ["!!bool x", "!!int x", "!!int ''", "!!float _",
                 "!!timestamp x"]


@pytest.mark.parametrize("tagged", UNCONVERTIBLE)
@pytest.mark.parametrize("document", DOCUMENTS)
def test_a_tag_that_does_not_convert_is_a_parse_error_at_its_line(
        loader, document, tagged):
    _, read, what = DOCUMENTS[document]
    with pytest.raises(ParseError) as info:
        read(f"a: 1\nb:\n  - {tagged}\n")
    assert info.value.line == 3
    assert f"malformed {what}: cannot convert" in str(info.value)


@pytest.mark.parametrize("old, new, error", [
    ("name: crsv1\n", "name:\n", "config.name must be text, not None"),
    ("  - UNKNOWN\n", "  - UNKNOWN\n  - NO\n",
     "config.agent_intents\\[\\d+\\] must be text, not False"),
    ("  DONE: {}\n", "  DONE: {}\n  yes: {}\n",
     "config.user_intents\\[\\d+\\] must be text, not True"),
    ("recommendation_intents: [RECOMMEND]",
     "recommendation_intents: [RECOMMEND, 1]",
     "config.recommendation_intents\\[1\\] must be text, not 1"),
    ("  DONE: [BYE]\n", "  DONE: [BYE]\n  1: [BYE]\n",
     "a key of interaction config.expected_responses must be text, not 1"),
    ("terminal_intent: DONE", "terminal_intent: NO",
     "config.terminal_intent must be text, not False"),
    ("accept_intent: ACCEPT", "accept_intent: 1",
     "config.accept_intent must be text, not 1"),
    ("reject_intent: REJECT", "reject_intent: ~",
     "config.reject_intent must be text, not None"),
])
def test_an_interaction_label_yaml_does_not_read_as_text_is_refused(
        old, new, error):
    text = bundled.asset_path(bundled.INTERACTION_MODEL).read_text("utf-8")
    assert old in text
    with pytest.raises(ParseError, match=f"{error}: quote it"):
        parse_interaction_model(text.replace(old, new))


def test_a_required_slots_key_that_is_not_text_is_refused():
    # in YAML a user intent's slots sit under its label, which is checked
    # first; a mapping handed to from_dict can hold any key
    data = parse_interaction_model(
        bundled.asset_path(bundled.INTERACTION_MODEL).read_text("utf-8")
    ).to_dict()
    data["required_slots"] = {1: ["genre"]}
    with pytest.raises(ParseError, match="a key of InteractionModel."
                                         "required_slots must be text, not "
                                         "1: quote it"):
        InteractionModel.from_dict(data)


# 100,000 levels: far past the recursion limit, and past the C stack of a
# composer that recurses in C
DEEP = {
    "flow-sequence": "a: " + "[" * 100_000,
    "flow-mapping": "a: " + "{a: " * 100_000,
    "block-sequence": "- " * 100_000,
}
# the command that reads each document first, and its flag
COMMANDS = {
    "domain": ("train", "--domain"),
    "population": ("simulate", "--population"),
    "interaction-model": ("train", "--interaction-model"),
    "default-templates": ("train", "--default-templates"),
}


@pytest.mark.parametrize("shape", DEEP)
@pytest.mark.parametrize("document", DOCUMENTS)
def test_deep_nesting_exits_one_without_a_crash(tmp_path, document, shape):
    # in a child process, so that a segfault fails this test instead of
    # ending the test run
    path = tmp_path / "deep.yaml"
    path.write_text(DEEP[shape], encoding="utf-8")
    command, flag = COMMANDS[document]
    result = subprocess.run(
        [sys.executable, "-m", "crssim", command, flag, str(path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 1, result.stderr  # a signal is negative
    assert "nested too deeply" in result.stderr
    assert f"malformed {DOCUMENTS[document][2]}" in result.stderr


@pytest.mark.parametrize("tagged", ["!!bool x", "!!int x", "!!timestamp x"])
def test_a_tag_that_does_not_convert_exits_one_without_a_traceback(
        tmp_path, tagged):
    path = tmp_path / "population.yaml"
    path.write_text(f"n_users: {tagged}\n", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "crssim", "simulate", "--population",
         str(path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 1, result.stderr
    assert "Traceback" not in result.stderr
    assert f"{path}: line 1: malformed population config: cannot convert" \
        in result.stderr
