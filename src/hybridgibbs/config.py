"""Model configuration files: schema, parsing, canonicalization, fingerprints.

Configs are JSON documents validated against CONFIG_SCHEMA (a published JSON
Schema, draft 2020-12) and then semantically checked (weight vector lengths,
override coordinates, ...).  ``_violations``, an interpreter of the keywords
CONFIG_SCHEMA uses, yields each violation of a config at its JSON path, in
the wording of the Python JSON Schema reference validator; a config is valid
when it yields none, and a rejected one names its first.  Canonicalization
fills in the documented defaults, respells rules, stores the seeds, trial
count and sizes as integers and the step counts ``t`` sorted, each once; the
canonical form is a fixed point of parse -> canonicalize -> serialize ->
parse, and its hash is the model fingerprint stamped on every report.
"""

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .approximators import (
    ApproximatorSpec,
    Exact,
    ExplicitMatrix,
    Lazy,
    MetropolisIndep,
    MetropolisRW,
)
from .errors import ParseError, SchemaError
from .randomgen import random_joint
from .report import fingerprint_json
from .slicemodel import SliceModel
from .space import joint_from_weights, product_joint

SUITES = ("random-scan", "da", "block", "slice", "selection", "supplement")

_RULE_SCHEMA = {
    "type": "object",
    "properties": {
        "rule": {"enum": ["exact", "lazy", "metropolis_rw", "metropolis_indep", "explicit"]},
        "epsilon": {"type": "number", "minimum": 0, "maximum": 1},
        "radius": {"type": "integer", "minimum": 1},
        "proposal": {
            "anyOf": [
                {"const": "uniform"},
                {"type": "array", "items": {"type": "number", "minimum": 0}},
            ]
        },
        "tables": {
            "type": "object",
            "additionalProperties": {
                "type": "array",
                "items": {"type": "array", "items": {"type": "number"}},
            },
        },
    },
    "required": ["rule"],
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "hybridgibbs model configuration",
    "type": "object",
    "properties": {
        "model": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["explicit", "product", "slice", "random"]},
                "sizes": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                    "minItems": 1,
                },
                "weights": {
                    "type": "array",
                    "items": {"type": "number", "minimum": 0},
                    "minItems": 1,
                },
                "factors": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "items": {"type": "number", "minimum": 0},
                        "minItems": 1,
                    },
                    "minItems": 1,
                },
                "density": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 1,
                },
                "level_kernels": {"type": "array", "items": _RULE_SCHEMA},
                "seed": {"type": "integer", "minimum": 0},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
        "selection_probs": {
            "type": ["array", "null"],
            "items": {"type": "number", "minimum": 0},
        },
        "selection_probs_alt": {
            "type": ["array", "null"],
            "items": {"type": "number", "minimum": 0},
        },
        "approximator": {
            "type": "object",
            "properties": {
                "default": _RULE_SCHEMA,
                "overrides": {"type": "object", "additionalProperties": _RULE_SCHEMA},
            },
            "additionalProperties": False,
        },
        "suite": {
            "anyOf": [
                {"const": "all"},
                {"type": "array", "items": {"enum": list(SUITES)}},
            ]
        },
        "t": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 1},
        "tol": {"type": "number", "exclusiveMinimum": 0},
        "seed": {"type": "integer", "minimum": 0},
        "trials": {"type": "integer", "minimum": 1},
    },
    "required": ["model"],
    "additionalProperties": False,
}


def _is_number(x):
    return isinstance(x, numbers.Number) and not isinstance(x, bool)


# The JSON types CONFIG_SCHEMA names, as draft 2020-12 validators read Python
# values: a bool is no number, an integral float is an integer, a tuple no array.
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "null": lambda x: x is None,
    "number": _is_number,
    "integer": lambda x: _is_number(x) and (
        isinstance(x, int) or isinstance(x, float) and x.is_integer()
    ),
}


def _type_names(t):
    return [t] if isinstance(t, str) else t


def _bound(fails, wording):
    """A bound keyword: it applies to numbers only, so NaN passes it."""
    return lambda x, bound, s, path: (
        [(path, f"{x!r} is {wording} {bound!r}")] if _is_number(x) and fails(x, bound) else []
    )


def _below(path, triples):
    """The violations of each (key, instance, subschema), one level below ``path``."""
    return (e for k, v, sub in triples for e in _violations(v, sub, (*path, k)))


def _any_of(x, branches, s, path):
    """Nothing if a branch holds; else, as ``best_match`` reads a failed anyOf,
    the violations of the branch whose type ``x`` has, or the anyOf's own."""
    if any(_conforms(x, b) for b in branches):
        return []
    for b in branches:
        if any(_TYPES[name](x) for name in _type_names(b.get("type", ()))):
            return _violations(x, b, path)
    return [(path, f"{x!r} is not valid under any of the given schemas")]


def _additional_properties(x, extra, s, path):
    keys = [k for k in x if k not in s.get("properties", {})] if isinstance(x, dict) else []
    if extra is not False or not keys:
        return _below(path, ((k, x[k], extra) for k in keys))
    names = ", ".join(map(repr, sorted(keys, key=str)))
    verb = "was" if len(keys) == 1 else "were"
    return [(path, f"Additional properties are not allowed ({names} {verb} unexpected)")]


# Each keyword CONFIG_SCHEMA uses, as the violations of (instance, keyword
# value, enclosing schema, path), worded as the reference validator words
# them.  Array keywords apply to lists only, object keywords to dicts only.
_KEYWORDS = {
    "type": lambda x, t, s, path: [] if any(_TYPES[n](x) for n in _type_names(t)) else [
        (path, f"{x!r} is not of type {', '.join(map(repr, _type_names(t)))}")
    ],
    "enum": lambda x, vs, s, path: [] if x in vs else [(path, f"{x!r} is not one of {vs!r}")],
    "const": lambda x, value, s, path: [] if x == value else [(path, f"{value!r} was expected")],
    "anyOf": _any_of,
    "minimum": _bound(lambda x, low: x < low, "less than the minimum of"),
    "maximum": _bound(lambda x, high: x > high, "greater than the maximum of"),
    "exclusiveMinimum": _bound(lambda x, low: x <= low, "less than or equal to the minimum of"),
    "items": lambda x, item, s, path: _below(path, ((i, v, item) for i, v in enumerate(x)))
    if isinstance(x, list) else [],
    "minItems": lambda x, n, s, path: [
        (path, f"{x!r} {'should be non-empty' if n == 1 else 'is too short'}")
    ] if isinstance(x, list) and len(x) < n else [],
    "properties": lambda x, props, s, path: _below(
        path, ((k, x[k], sub) for k, sub in props.items() if k in x)
    ) if isinstance(x, dict) else [],
    "required": lambda x, keys, s, path: [
        (path, f"{k!r} is a required property") for k in keys if k not in x
    ] if isinstance(x, dict) else [],
    "additionalProperties": _additional_properties,
}
_ANNOTATIONS = ("$schema", "title")


def _violations(x, schema, path=()):
    """Each violation of ``schema`` (a subschema of CONFIG_SCHEMA) by ``x``, as
    (path tuple, message) in schema order; an unknown keyword is a KeyError."""
    for keyword, value in schema.items():
        if keyword not in _ANNOTATIONS:
            yield from _KEYWORDS[keyword](x, value, schema, path)


def _conforms(x, schema):
    """Whether ``x`` is valid under ``schema``: the walk yields nothing."""
    return next(_violations(x, schema), None) is None


_DEFAULTS = {
    "selection_probs": None,
    "selection_probs_alt": None,
    "approximator": {"default": {"rule": "exact"}, "overrides": {}},
    "suite": "all",
    "t": [2, 4],
    "tol": 1e-9,
    "seed": 0,
    "trials": 64,
}


@dataclass(frozen=True, eq=False)
class ModelConfig:
    """Canonicalized configuration plus its fingerprint."""

    data: dict
    fingerprint: str

    @property
    def is_slice(self):
        return self.data["model"]["kind"] == "slice"

    @property
    def tol(self):
        return float(self.data["tol"])

    @property
    def t_values(self):
        return list(self.data["t"])

    @property
    def seed(self):
        return self.data["seed"]

    @property
    def trials(self):
        return self.data["trials"]

    def build_joint(self):
        m = self.data["model"]
        kind = m["kind"]
        if kind == "explicit":
            return joint_from_weights(m["sizes"], m["weights"])
        if kind == "product":
            return product_joint(m["factors"])
        if kind == "random":
            return random_joint(m["seed"], sizes=tuple(m["sizes"]))
        raise SchemaError(f"model kind {kind!r} does not define a joint distribution")

    def build_slice_model(self):
        m = self.data["model"]
        if m["kind"] != "slice":
            raise SchemaError("model is not a slice model")
        kernels = None
        if "level_kernels" in m:
            kernels = tuple(rule_from_json(r) for r in m["level_kernels"])
        return SliceModel(density=np.asarray(m["density"], float), level_kernels=kernels)

    def selection(self):
        return self.data["selection_probs"]

    def selection_alt(self):
        return self.data["selection_probs_alt"]

    def approximator_spec(self):
        a = self.data["approximator"]
        default = rule_from_json(a["default"])
        overrides = {int(k): rule_from_json(v) for k, v in a["overrides"].items()}
        return ApproximatorSpec(default=default, overrides=overrides)


def rule_from_json(obj, path="rule"):
    """Build a rule from its JSON object; ``path`` locates it in error messages."""
    kind = obj["rule"]
    if kind == "exact":
        return Exact()
    if kind == "lazy":
        return Lazy(float(obj.get("epsilon", 0.0)))
    if kind == "metropolis_rw":
        return MetropolisRW(int(obj.get("radius", 1)))
    if kind == "metropolis_indep":
        prop = obj.get("proposal", "uniform")
        return MetropolisIndep(prop if isinstance(prop, str) else tuple(prop))
    if kind == "explicit":
        tables = {}
        for key, matrix in obj.get("tables", {}).items():
            entry_path = f"{path}/tables/{key}"
            try:
                matrix = np.asarray(matrix, dtype=float)
            except ValueError:
                raise SchemaError(f"at {entry_path}: table rows differ in length") from None
            tables[_table_key(key, entry_path)] = matrix
        return ExplicitMatrix(tables)
    raise SchemaError(f"unknown approximator rule {kind!r}")


def _table_key(key, path):
    """(i, y) from an explicit table key, a string "i;y1,y2,..."."""
    try:
        i_str, y_str = str.split(key, ";")
        return int(i_str), tuple(int(v) for v in y_str.split(",")) if y_str else ()
    except (TypeError, ValueError):
        raise SchemaError(
            f"at {path}: an explicit table key must read 'i;y1,y2,...' with integer entries"
        ) from None


def parse_config(path):
    """Load, validate and canonicalize a configuration file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_config_text(raw)


def parse_config_text(raw):
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return canonicalize(data)


def canonicalize(data):
    """Validate against the schema, apply defaults, run semantic checks.
    A rejected config names its first violation in schema order."""
    for path, message in _violations(data, CONFIG_SCHEMA):
        raise SchemaError(f"at {'/'.join(map(str, path)) or '<root>'}: {message}")
    out = dict(_DEFAULTS)
    out.update(data)
    m = out["model"] = dict(data["model"])
    out["approximator"] = {**_DEFAULTS["approximator"], **out["approximator"]}
    # Integral floats are valid integers; stored as ints, 1 and 1.0 share a
    # fingerprint.
    out["t"] = sorted({int(t) for t in out["t"]})
    out["seed"], out["trials"] = int(out["seed"]), int(out["trials"])
    if "seed" in m:
        m["seed"] = int(m["seed"])
    if "sizes" in m:
        m["sizes"] = [int(d) for d in m["sizes"]]
    _semantic_checks(out)
    _canonical_rules(out)
    canon = json.loads(json.dumps(out, sort_keys=True))
    return ModelConfig(data=canon, fingerprint=fingerprint_json(canon))


def _semantic_checks(out):
    m = out["model"]
    kind = m["kind"]
    if kind == "explicit":
        _require(m, "sizes", "explicit models")
        _require(m, "weights", "explicit models")
        expected = math.prod(m["sizes"])
        if len(m["weights"]) != expected:
            raise SchemaError(
                f"expected {expected} weights for sizes {m['sizes']}, "
                f"got {len(m['weights'])}"
            )
        if sum(m["weights"]) <= 0:
            raise SchemaError("joint weights must have positive total mass")
    elif kind == "product":
        _require(m, "factors", "product models")
        for k, f in enumerate(m["factors"]):
            if sum(f) <= 0:
                raise SchemaError(f"factor {k} has zero total mass")
    elif kind == "slice":
        _require(m, "density", "slice models")
        if "level_kernels" in m:
            nlevels = len(set(m["density"]))
            if len(m["level_kernels"]) != nlevels:
                raise SchemaError(
                    f"expected {nlevels} level kernels (one per distinct density "
                    f"value), got {len(m['level_kernels'])}"
                )
            for k, rule in enumerate(m["level_kernels"]):
                # Explicit tables are keyed "i;y", which cannot name a level.
                if rule["rule"] == "explicit":
                    raise SchemaError(
                        f"at model/level_kernels/{k}: the explicit rule cannot name a "
                        "slice level; pass level matrices through the Python API"
                    )
    elif kind == "random":
        _require(m, "sizes", "random models")
        _require(m, "seed", "random models")
    ncoords = _ncoords(m)
    for field in ("selection_probs", "selection_probs_alt"):
        sel = out.get(field)
        if sel is not None:
            if kind == "slice":
                raise SchemaError(f"{field} does not apply to slice models")
            if len(sel) != ncoords:
                raise SchemaError(
                    f"{field} has length {len(sel)}, expected {ncoords}"
                )
            if sum(sel) <= 0:
                raise SchemaError(f"{field} must have positive total mass")


def _canonical_rules(out):
    """Respell every rule as its rule's ``describe()``, with the rule's own
    defaults filled in, and every override key as its coordinate's decimal
    integer, so equivalent spellings share one fingerprint.  Each override
    key is read once, here: it must be a string naming a coordinate that no
    other key names, or it is a SchemaError."""
    a = out["approximator"]
    ncoords = _ncoords(out["model"])
    overrides, spelled = {}, {}
    for c, r in a["overrides"].items():
        if not isinstance(c, str):
            raise SchemaError(f"at approximator/overrides: key {c!r} is not a string")
        try:
            ci = int(c)
        except ValueError:
            raise SchemaError(f"override coordinate {c!r} is not an integer") from None
        if ncoords is not None and not 0 <= ci < ncoords:
            raise SchemaError(f"override coordinate {ci} out of range for {ncoords} coordinates")
        key = str(ci)
        if key in spelled:
            raise SchemaError(
                f"at approximator/overrides: keys {spelled[key]!r} and {c!r} both "
                f"name coordinate {key}"
            )
        spelled[key] = c
        overrides[key] = rule_from_json(r, f"approximator/overrides/{c}").describe()
    a["overrides"] = overrides
    a["default"] = rule_from_json(a["default"], "approximator/default").describe()
    m = out["model"]
    if "level_kernels" in m:
        m["level_kernels"] = [
            rule_from_json(r, f"model/level_kernels/{k}").describe()
            for k, r in enumerate(m["level_kernels"])
        ]


def _ncoords(model):
    kind = model["kind"]
    if kind in ("explicit", "random"):
        return len(model["sizes"])
    if kind == "product":
        return len(model["factors"])
    return None


def _require(obj, key, label):
    if key not in obj:
        raise SchemaError(f"{label} require {key!r}")


def serialize(config):
    """Canonical JSON text of a config; a fixed point of parse -> serialize."""
    return json.dumps(config.data, sort_keys=True, indent=2) + "\n"
