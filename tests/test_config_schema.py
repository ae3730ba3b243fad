"""The in-package schema checker against jsonschema as an oracle.

``cli._validate`` implements the draft 2020-12 keywords ``schema.json``
uses.  jsonschema is a test dependency only: here it decides, for
mutations of every shipped config, what the checker must accept and
which path it must name.
"""

import copy
import json
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcrlab import cli
from qcrlab.errors import ConfigError

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = {p.name: json.loads(p.read_text())
           for p in sorted((ROOT / "configs").glob("*.json"))}
# the configs the benchmark runs, at seed 0 as written
BENCH_CONFIGS = json.loads(
    (ROOT / "bench" / "inputs.json").read_text())["configs"]
SCHEMA = cli._schema()
ORACLE = jsonschema.Draft202012Validator(SCHEMA)

# keys whose value is a map of names to subschemas, not a schema
NAME_MAPS = {"properties", "$defs"}
# keys whose value is an instance, not a schema
INSTANCES = {"default", "const", "enum"}


def schemas(node):
    """Every subschema of ``node``, ``node`` included."""
    yield node
    for key, val in node.items():
        if key in INSTANCES:
            continue
        if key in NAME_MAPS:
            for sub in val.values():
                yield from schemas(sub)
        elif isinstance(val, dict):
            yield from schemas(val)
        elif isinstance(val, list) and key in ("allOf", "anyOf"):
            for sub in val:
                yield from schemas(sub)


def schema_constants():
    # bounds and enum members, and their int/float twins, hit the edges
    out = set()
    for sub in schemas(SCHEMA):
        for key in cli._BOUNDS:
            if key in sub:
                out |= {sub[key], float(sub[key])}
        for member in sub.get("enum", []):
            if isinstance(member, int):
                out |= {member, float(member)}
            out.add(member)
    return sorted(out, key=repr)


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(0, 100),
    st.floats(allow_nan=False, allow_infinity=False), st.floats(0.0, 2.0),
    st.sampled_from(schema_constants()), st.text(max_size=3),
    st.sampled_from(["sweep-bias", "calibrate", "coherent"]))
VALUES = st.one_of(
    SCALARS, SCALARS, st.lists(SCALARS, max_size=2),
    st.dictionaries(st.text(max_size=3), SCALARS, max_size=2),
    st.sampled_from(sorted(CONFIGS)).map(lambda n: CONFIGS[n]))
KEYS = st.one_of(st.text(max_size=4), st.sampled_from(
    sorted({k for sub in schemas(SCHEMA)
            for k in sub.get("properties", {})})))


def objects(cfg):
    yield cfg
    for val in cfg.values():
        if isinstance(val, dict):
            yield from objects(val)


def nudged(val):
    """Values near ``val``: mostly still valid, sometimes past a bound."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return [val]
    return [val, float(val), val / 2, val * 2, -val, 0, int(val)]


@st.composite
def mutated_configs(draw):
    """A shipped config with one to three values set, nudged, deleted or
    added."""
    cfg = copy.deepcopy(CONFIGS[draw(st.sampled_from(sorted(CONFIGS)))])
    for _ in range(draw(st.integers(1, 3))):
        obj = draw(st.sampled_from(list(objects(cfg))))
        op = draw(st.sampled_from(["set", "nudge", "nudge", "delete",
                                   "add"]))
        if op == "add" or not obj:
            obj[draw(KEYS)] = copy.deepcopy(draw(VALUES))
            continue
        key = draw(st.sampled_from(sorted(obj)))
        if op == "delete":
            del obj[key]
        elif op == "nudge":
            obj[key] = draw(st.sampled_from(nudged(obj[key])))
        else:
            obj[key] = copy.deepcopy(draw(VALUES))
    return cfg


def checker_error(cfg):
    try:
        cli._validate(cfg)
    except ConfigError as exc:
        return str(exc)
    return None


def oracle_path(error):
    return error.json_path if error.json_path != "$" else "config root"


DELETE = object()


def _defects(name, *edits):
    cfg = copy.deepcopy(CONFIGS[name])
    for *keys, value in edits:
        obj = cfg
        for key in keys[:-1]:
            obj = obj[key]
        if value is DELETE:
            del obj[keys[-1]]
        else:
            obj[keys[-1]] = value
    return cfg


@settings(max_examples=400)
@given(mutated_configs())
def test_checker_accepts_exactly_what_jsonschema_accepts(cfg):
    errors = list(ORACLE.iter_errors(cfg))
    got = checker_error(cfg)
    assert (got is None) == (not errors), got
    if len(errors) == 1:
        assert got.startswith(
            f"invalid config at {oracle_path(errors[0])}: "), got


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_shipped_configs_are_valid(name):
    assert not list(ORACLE.iter_errors(CONFIGS[name]))
    assert checker_error(CONFIGS[name]) is None


@pytest.mark.parametrize("name", sorted(BENCH_CONFIGS))
def test_benchmark_configs_are_valid(name):
    # a schema change that refused one would fail the benchmark's runs
    assert not list(ORACLE.iter_errors(BENCH_CONFIGS[name]))
    assert checker_error(BENCH_CONFIGS[name]) is None


# JSON, not Python, equality and types: 5.0 is an integer, true is not 1
@pytest.mark.parametrize("keys, value, valid", [
    (("grid", "points"), 5, True), (("grid", "points"), 5.0, True),
    (("grid", "points"), 5.5, False), (("grid", "points"), True, False),
    (("grid", "points"), "5", False), (("device",), {"junctions": 2.0}, True),
    (("device",), {"junctions": True}, False), (("epsrel",), False, False),
    (("command",), "sweep-bias", True), (("out",), "", False),
    (("mode", "rho"), None, True),
])
def test_json_semantics(keys, value, valid):
    cfg = _defects("sweep_bias.json", (*keys, value))
    assert ORACLE.is_valid(cfg) is valid
    assert (checker_error(cfg) is None) is valid


# several defects: the checker names the one jsonschema's best_match did
@pytest.mark.parametrize("cfg, message", [
    # a then-branch `required` beats a typed schema's additionalProperties
    (_defects("calibrate.json", ("bandwidth_hz", DELETE), ("bogus", 1)),
     "config root: 'bandwidth_hz' is a required property"),
    # the shallower defect wins
    (_defects("sweep_bias.json", ("junction", "dynes", 1.0),
              ("grid", DELETE)),
     "config root: 'grid' is a required property"),
    # among siblings, the later path
    (_defects("sweep_bias.json", ("junction", "dynes", 1.0),
              ("mode", "alpha", 2)),
     "$.mode.alpha: 2 is greater than the maximum of 1"),
    # at one path, the type error comes before the bound
    (_defects("sweep_bias.json", ("grid", "points", 0.5)),
     "$.grid.points: 0.5 is not of type 'integer'"),
])
def test_names_the_best_match(cfg, message):
    assert checker_error(cfg) == f"invalid config at {message}"


def test_schema_uses_only_implemented_keywords():
    # a keyword the checker does not know would be silently ignored
    for sub in schemas(SCHEMA):
        assert set(sub) <= cli._KEYWORDS, sorted(set(sub) - cli._KEYWORDS)
        assert set(cli._types(sub)) <= set(cli._JSON_TYPES), sub
        assert sub.get("additionalProperties", False) is False, sub
        if "$ref" in sub:
            assert sub["$ref"].startswith("#/$defs/"), sub["$ref"]
        for member in [*sub.get("enum", []), sub.get("const")]:
            assert not isinstance(member, (list, dict)), member


def _ref(schema):
    if "$ref" in schema:
        return SCHEMA["$defs"][schema["$ref"].removeprefix("#/$defs/")]
    return schema


def _properties(cfg, schema):
    """The property subschemas for ``cfg``: ``schema``'s own, with the
    ``then`` properties of its command's ``allOf`` branch merged in."""
    props = dict(schema.get("properties", {}))
    for branch in schema.get("allOf", []):
        if branch["if"]["properties"]["command"]["const"] == cfg["command"]:
            for name, sub in branch["then"].get("properties", {}).items():
                props[name] = {**props[name], **sub}
    return props


def _without_defaults(cfg, schema=SCHEMA):
    """``cfg`` less every scalar that a schema ``default`` would fill in."""
    props = _properties(cfg, _ref(schema))
    return {k: _without_defaults(v, props[k]) if isinstance(v, dict) else v
            for k, v in cfg.items()
            if isinstance(v, dict) or "default" not in props[k]}


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("strip", [False, True])
def test_resolved_configs_satisfy_the_schema(tmp_path, name, strip):
    # load_and_validate checks the config it reads and fills in the
    # schema's defaults; the resolved config must be valid as well, here
    # also with every default filled in, synthesize's included
    cfg = CONFIGS[name]
    if strip:
        cfg = _without_defaults(cfg)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    errors = list(ORACLE.iter_errors(cli.load_and_validate(str(path))))
    assert not errors, errors


def annotated_defaults():
    """``(where, default, the subschema it annotates)`` for each default;
    a per-command default annotates the root property it extends."""
    for name, block in SCHEMA["$defs"].items():
        for key, sub in block.get("properties", {}).items():
            if "default" in sub:
                yield f"$defs.{name}.{key}", sub["default"], sub
    for branch in SCHEMA["allOf"]:
        command = branch["if"]["properties"]["command"]["const"]
        for key, sub in branch["then"].get("properties", {}).items():
            if "default" in sub:    # a key the command reads, no default
                yield (f"{command}.{key}", sub["default"],
                       {**SCHEMA["properties"][key], **sub})


def test_every_default_is_valid_where_it_sits():
    # neither validator reads `default`: a default the schema forbids
    # would pass unnoticed into every config that leaves the key out
    found = list(annotated_defaults())
    assert len(found) == sum("default" in sub for sub in schemas(SCHEMA))
    for where, default, sub in found:
        oracle = jsonschema.Draft202012Validator(
            {**sub, "$defs": SCHEMA["$defs"]})
        assert oracle.is_valid(default), where
        assert not any(cli._violations(default, sub)), where
