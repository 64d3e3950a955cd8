"""run_suite's one check loop: each suite's applicability is decided before
any kernel is built, and every check call runs under one hypothesis guard."""

import json
import re

import pytest

from hybridgibbs import Analysis, canonicalize, run_suite
from hybridgibbs.cli import main
from hybridgibbs.errors import (
    HybridGibbsError,
    InvalidArgument,
    MissingLevelKernel,
    PreconditionUnmet,
)

JOINT2 = {"model": {"kind": "random", "sizes": [3, 4], "seed": 3}}
JOINT3 = {"model": {"kind": "random", "sizes": [2, 2, 3], "seed": 4}}
SLICE = {
    "model": {
        "kind": "slice",
        "density": [1.0, 2.0, 2.0, 3.0],
        "level_kernels": [{"rule": "lazy", "epsilon": 0.3}] * 3,
    }
}
BARE_SLICE = {"model": {"kind": "slice", "density": [1.0, 2.0, 2.0, 3.0]}}
SKEWED = dict(JOINT2, selection_probs=[0.3, 0.7])

# Report and kernel names each suite contributes.
PREFIXES = {
    "da": ("da-", "da_"),
    "block": ("block-", "block_"),
    "slice": ("slice-tstep", "slice-power"),
    "supplement": ("uniform-power",),
}

MISMATCHES = {
    "slice-model-joint-suite": (
        SLICE,
        "da",
        HybridGibbsError,
        "suite 'da' does not apply to slice models",
    ),
    "slice-model-no-kernels": (
        BARE_SLICE,
        "slice",
        MissingLevelKernel,
        "suite 'slice' needs the model's level_kernels",
    ),
    "two-coordinates-block": (
        JOINT2,
        "block",
        HybridGibbsError,
        "suite 'block' requires at least three coordinates",
    ),
    "three-coordinates-da": (
        JOINT3,
        "da",
        HybridGibbsError,
        "suite 'da' requires exactly two coordinates",
    ),
    "non-uniform-supplement": (
        SKEWED,
        "supplement",
        HybridGibbsError,
        "suite 'supplement' requires uniform selection probabilities",
    ),
    "joint-slice": (JOINT2, "slice", HybridGibbsError, "suite 'slice' requires a slice model"),
}


@pytest.mark.parametrize("data, suite, error, message", MISMATCHES.values(), ids=list(MISMATCHES))
def test_inapplicable_suite_raises_when_strict_and_is_skipped_by_all(data, suite, error, message):
    config = canonicalize(data)
    with pytest.raises(error, match=re.escape(message)) as got:
        run_suite(config, suites=[suite])
    assert type(got.value) is error
    report = run_suite(config, suites="all")
    names = [r.name for r in report.reports] + list(report.kernels)
    assert not [name for name in names if name.startswith(PREFIXES[suite])]


def test_strict_error_comes_before_any_kernel(eig_counts):
    config = canonicalize(JOINT2)
    with pytest.raises(HybridGibbsError, match="suite 'block' requires at least three"):
        run_suite(config, suites=["random-scan", "block"])
    assert not eig_counts["eigh"] and not eig_counts["eigvalsh"]


def test_unconfigured_dict_names_canonicalize(eig_counts):
    with pytest.raises(InvalidArgument, match="ModelConfig from canonicalize, got dict"):
        run_suite(JOINT2)
    assert not eig_counts["eigh"] and not eig_counts["eigvalsh"]


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"suites": "da"}, "suites must be 'all' or a list of names, got 'da'"),
        ({"suites": 3}, "suites must be 'all' or a list of names, got 3"),
        ({"t_values": 2}, "t_values must be a list, got 2"),
        ({"t_values": "24"}, "t_values must be a list, got '24'"),
    ],
    ids=["suite-string", "suite-int", "t-int", "t-string"],
)
def test_argument_that_is_not_a_list_is_named(kwargs, message, eig_counts):
    with pytest.raises(InvalidArgument, match=re.escape(message)):
        run_suite(canonicalize(JOINT2), **kwargs)
    assert not eig_counts["eigh"] and not eig_counts["eigvalsh"]


def test_strict_error_names_the_first_inapplicable_suite():
    config = canonicalize(BARE_SLICE)
    with pytest.raises(MissingLevelKernel):
        run_suite(config, suites=["slice", "da"])
    with pytest.raises(HybridGibbsError, match="suite 'da' does not apply"):
        run_suite(config, suites=["da", "slice"])


def test_one_state_model_reports_its_unmet_hypotheses(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"model": {"kind": "random", "sizes": [1], "seed": 13}}))
    assert main(["check", str(path)]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    unmet = {r["name"] for r in reports if r["status"] == "hypothesis_unmet"}
    want = {"dirichlet-sandwich", "variance-sandwich", "uniform-power-t2", "uniform-power-t4"}
    assert want <= unmet


CHECKS = (
    "dirichlet_sandwich",
    "gap_sandwich",
    "variance_sandwich",
    "da_gap_sandwich",
    "da_tstep",
    "da_variance_tstep",
    "block_comparison",
    "selection_reweighting",
    "uniform_tstep_bound",
    "slice_tstep",
)

GUARDED = {
    "two-coordinates": (
        JOINT2,
        {
            "dirichlet-sandwich",
            "gap-sandwich",
            "variance-sandwich",
            "da-gap-sandwich",
            "da-tstep-t2",
            "da-tstep-t4",
            "da-variance-tstep-t2",
            "da-variance-tstep-t4",
            "selection-reweighting",
            "uniform-power-t2",
            "uniform-power-t4",
        },
    ),
    "three-coordinates": (
        JOINT3,
        {
            "dirichlet-sandwich",
            "gap-sandwich",
            "variance-sandwich",
            "block-comparison-l2m1",
            "selection-reweighting",
            "uniform-power-t2",
            "uniform-power-t4",
        },
    ),
    "slice": (SLICE, {"slice-tstep-t2", "slice-tstep-t4"}),
}


@pytest.mark.parametrize("data, names", GUARDED.values(), ids=list(GUARDED))
def test_every_check_call_is_guarded(data, names, monkeypatch):
    def unmet(self, *args, **kwargs):
        raise PreconditionUnmet("a hypothesis fails")

    for check in CHECKS:
        monkeypatch.setattr(Analysis, check, unmet)
    reports = run_suite(canonicalize(data), suites="all").reports
    assert {r.status for r in reports} == {"hypothesis_unmet"}
    assert sorted(r.name for r in reports) == sorted(names)


ZERO_SELECTION = {
    "alternative": {
        "model": {"kind": "random", "sizes": [2, 2], "seed": 1},
        "selection_probs_alt": [0, 1],
    },
    "own": {"model": {"kind": "random", "sizes": [2, 3], "seed": 1}, "selection_probs": [0, 1]},
}


@pytest.mark.parametrize("data", ZERO_SELECTION.values(), ids=list(ZERO_SELECTION))
def test_zero_selection_probability_is_an_unmet_hypothesis(data, tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path)]) == 0
    reports = {r["name"]: r for r in json.loads(capsys.readouterr().out)["reports"]}
    selection = reports["selection-reweighting"]
    assert selection["status"] == "hypothesis_unmet"
    assert "strictly positive" in selection["witness"]["hypothesis"]


OVERFLOW = {
    "explicit": {"model": {"kind": "explicit", "sizes": [2, 2], "weights": [1e308] * 4}},
    "product": {"model": {"kind": "product", "factors": [[1e308, 1e308], [1, 1]]}},
    "slice": {
        "model": {
            "kind": "slice",
            "density": [1e308, 1.7e308],
            "level_kernels": [{"rule": "lazy", "epsilon": 0.3}] * 2,
        }
    },
    "selection": dict(JOINT2, selection_probs=[1e308, 1e308]),
}


@pytest.mark.parametrize("data", OVERFLOW.values(), ids=list(OVERFLOW))
def test_weights_whose_sum_overflows_certify(data):
    report = run_suite(canonicalize(data))
    assert report.reports and report.exit_status() == 0


def test_overflowing_weights_certify_as_their_scaled_copy():
    def certified(weights):
        data = {"model": {"kind": "explicit", "sizes": [2, 2], "weights": weights}}
        return [(r.name, r.status, r.lhs, r.rhs) for r in run_suite(canonicalize(data)).reports]

    assert certified([1e308] * 4) == certified([1.0] * 4)
