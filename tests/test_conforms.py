"""The schema interpreter ``config._violations`` against jsonschema, its
oracle.

The interpreter alone decides whether a config is accepted and words the
rejection, so it must agree with jsonschema's ``Draft202012Validator`` on
every instance: configs drawn from CONFIG_SCHEMA itself and mutated at every
level (wrong types, bools for numbers, integral floats, NaN, infinities,
huge integers, tuples, non-string keys, unknown and missing keys).  On a
rejected config with string keys only, the named violation is one that
jsonschema reports too, and it is ``best_match``'s where jsonschema finds a
single error.
"""

import random

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridgibbs.config import (
    _ANNOTATIONS,
    _KEYWORDS,
    _TYPES,
    CONFIG_SCHEMA,
    _conforms,
    canonicalize,
)
from hybridgibbs.errors import SchemaError

VALIDATOR = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
NAN, INF = float("nan"), float("inf")

# Values that sit on a boundary of some keyword of the schema.
NUMBERS = [0, 1, 2, -1, 0.0, 0.5, 1.0, 2.0, 1.5, -0.5, NAN, INF, -INF, 10**30, -(10**30), 1e308]
JUNK = [True, False, None, "x", "all", "uniform", "exact", [], {}, (), (1,), {1: "x"}, *NUMBERS]
KEYS = ["0", "1", "0;0", "bogus", 1, None]
# One mutation in about this many draws at each node leaves about half of
# the configs valid.
MUTATE = 40
# The boundary numbers each numeric subschema accepts, by the subschema's id.
VALID_NUMBERS = {}


def near(rnd, schema):
    """A value that conforms to ``schema`` except where it was mutated: about
    one node in MUTATE is replaced by a value of any kind, and a list passed
    as a tuple, a required key left out, or an unknown or non-string key
    added."""
    if isinstance(schema, bool) or rnd.randrange(MUTATE) == 0:
        return rnd.choice(JUNK)
    if "anyOf" in schema:
        return near(rnd, rnd.choice(schema["anyOf"]))
    if "enum" in schema or "const" in schema:
        return rnd.choice(schema.get("enum", [schema.get("const")]))
    kind = schema["type"] if isinstance(schema["type"], str) else rnd.choice(schema["type"])
    if kind == "null":
        return None
    if kind in ("number", "integer"):
        if id(schema) not in VALID_NUMBERS:
            valid = jsonschema.Draft202012Validator(schema).is_valid
            VALID_NUMBERS[id(schema)] = [v for v in NUMBERS if valid(v)]
        return rnd.choice(VALID_NUMBERS[id(schema)])
    if kind == "array":
        item = schema.get("items", True)
        items = [near(rnd, item) for _ in range(rnd.randint(schema.get("minItems", 0), 2))]
        return tuple(items) if rnd.randrange(MUTATE) == 0 else items
    required = schema.get("required", ())
    drop = rnd.randrange(MUTATE) == 0
    out = {}
    for key, sub in schema.get("properties", {}).items():
        if key in required and not drop or key not in required and rnd.random() < 0.5:
            out[key] = near(rnd, sub)
    extra = schema.get("additionalProperties", True)
    if extra is not False or rnd.randrange(MUTATE) == 0:
        for _ in range(rnd.randint(0, 2)):
            out[rnd.choice(KEYS)] = near(rnd, extra)
    return out


def string_keys(x):
    """Whether every key of every object in ``x`` is a string."""
    if isinstance(x, dict):
        return all(isinstance(k, str) and string_keys(v) for k, v in x.items())
    return not isinstance(x, (list, tuple)) or all(string_keys(v) for v in x)


def worded(error):
    """A jsonschema error as ``canonicalize`` words a SchemaError."""
    return f"at {'/'.join(map(str, error.absolute_path)) or '<root>'}: {error.message}"


def error_tree(errors):
    """Every error jsonschema reports, those inside an anyOf's context too."""
    for error in errors:
        yield worded(error)
        yield from error_tree(error.context)


def agree(data):
    valid = VALIDATOR.is_valid(data)
    assert _conforms(data, CONFIG_SCHEMA) == valid, data
    if valid:
        return
    with pytest.raises(SchemaError) as got:
        canonicalize(data)
    if string_keys(data):
        errors = list(VALIDATOR.iter_errors(data))
        assert str(got.value) in set(error_tree(errors)), data
        if len(errors) == 1:
            assert str(got.value) == worded(jsonschema.exceptions.best_match(errors)), data


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_interpreter_agrees_with_jsonschema_on_mutated_configs(seed):
    agree(near(random.Random(seed), CONFIG_SCHEMA))


def _product(**fields):
    return {"model": {"kind": "product", "factors": [[0.5, 0.5]]}, **fields}


def _rule(rule):
    return _product(approximator={"default": rule, "overrides": {"0": rule}})


def _random_model(sizes=(2, 3), seed=1):
    return {"kind": "random", "sizes": list(sizes), "seed": seed}


CASES = [
    # bool against int, and integral floats as integers
    {"model": _random_model([2.0, 3], 1.0), "seed": 1.0, "trials": 8.0},
    {"model": _random_model([True, 3])},
    {"model": _random_model(seed=False)},
    {"model": _random_model([2.5])},
    _product(tol=True),
    _rule({"rule": "lazy", "epsilon": True}),
    _rule({"rule": "metropolis_rw", "radius": 1.0}),
    _rule({"rule": "metropolis_rw", "radius": 0}),
    # NaN, infinities and 10**30
    {"model": {"kind": "explicit", "sizes": [1], "weights": [NAN]}, "tol": NAN},
    {"model": {"kind": "explicit", "sizes": [1], "weights": [INF]}, "tol": INF},
    {"model": {"kind": "slice", "density": [NAN, 0.0]}},
    {"model": _random_model([INF])},
    {"model": _random_model([10**30], 10**30)},
    _rule({"rule": "lazy", "epsilon": NAN}),
    _rule({"rule": "lazy", "epsilon": 1.5}),
    _rule({"rule": "explicit", "tables": {"0;0": [[NAN, -INF]]}}),
    _product(selection_probs=None, selection_probs_alt=[0, NAN]),
    # tuples and non-string keys
    {"model": {"kind": "random", "sizes": (2, 3), "seed": 1}},
    {"model": {"kind": "product", "factors": [(0.5, 0.5)]}},
    _product(selection_probs=(0.5, 0.5)),
    _rule({"rule": "explicit", "tables": {"0;0": [(1.0,)]}}),
    _rule({"rule": "explicit", "tables": {1: [[1.0]], None: [[True]]}}),
    _product(approximator={"overrides": {1: {"rule": "lazy"}}}),
    {**_product(), 1: 2},
    # unknown and missing keys at every level
    _product(bogus=1),
    {"model": {"kind": "product", "bogus": 1}},
    _product(approximator={"bogus": {}}),
    _rule({"rule": "exact", "bogus": 1}),
    {},
    {"model": {}},
    _product(approximator={"default": {}}),
    _product(approximator={"overrides": {"0": {"epsilon": 0.5}}}),
    # both branches of suite and of proposal
    _product(suite="all"),
    _product(suite="da"),
    _product(suite=["da", "slice"]),
    _product(suite=["all"]),
    _product(suite=("da",)),
    _rule({"rule": "metropolis_indep", "proposal": "uniform"}),
    _rule({"rule": "metropolis_indep", "proposal": "normal"}),
    _rule({"rule": "metropolis_indep", "proposal": [0, 2.0]}),
    _rule({"rule": "metropolis_indep", "proposal": [-1]}),
    # not an object
    [],
    None,
]


@pytest.mark.parametrize("data", CASES)
def test_interpreter_agrees_with_jsonschema(data):
    agree(data)


def test_every_keyword_of_the_schema_is_interpreted():
    """Walk CONFIG_SCHEMA: every keyword is one the interpreter implements
    or an annotation, every type name is one it knows, and every enum or
    const value is a string (the interpreter compares them with ==, which
    matches jsonschema's equality only for strings)."""
    seen = set()

    def walk(schema):
        if isinstance(schema, bool):
            return
        for key, value in schema.items():
            assert key in _KEYWORDS or key in _ANNOTATIONS, key
            seen.add(key)
            if key == "type":
                assert set([value] if isinstance(value, str) else value) <= set(_TYPES)
            elif key in ("enum", "const"):
                assert all(isinstance(v, str) for v in (value if key == "enum" else [value]))
            elif key in ("items", "additionalProperties"):
                walk(value)
            elif key == "anyOf":
                for branch in value:
                    walk(branch)
            elif key == "properties":
                for sub in value.values():
                    walk(sub)

    walk(CONFIG_SCHEMA)
    # Every implemented keyword is used: none is dead code.
    assert seen - set(_ANNOTATIONS) == set(_KEYWORDS)
