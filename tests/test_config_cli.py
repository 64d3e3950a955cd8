"""Config parsing, canonicalization, demos, suite runs, and the CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import hybridgibbs
from hybridgibbs import (
    ApproximatorSpec,
    ExplicitMatrix,
    exact_random_scan,
    product_joint,
    spectral_summary,
)
from hybridgibbs.bounds import model_fingerprint
from hybridgibbs.cli import main
from hybridgibbs.config import (
    CONFIG_SCHEMA,
    canonicalize,
    parse_config_text,
    rule_from_json,
    serialize,
)
from hybridgibbs.demos import demo_config, list_demos
from hybridgibbs.errors import MissingLevelKernel, ParseError, SchemaError
from hybridgibbs.suite import run_suite

MINIMAL = {"model": {"kind": "explicit", "sizes": [2, 2], "weights": [0.1, 0.2, 0.3, 0.4]}}
SLICE = {
    "model": {
        "kind": "slice",
        "density": [3.0, 1.0, 2.0, 1.0],
        "level_kernels": [
            {"rule": "lazy", "epsilon": 0.3},
            {"rule": "lazy", "epsilon": 0.6},
            {"rule": "metropolis_rw", "radius": 1},
        ],
    }
}


class TestConfig:
    def test_minimal_defaults(self):
        cfg = canonicalize(MINIMAL)
        assert cfg.data["selection_probs"] is None
        assert cfg.data["approximator"]["default"] == {"rule": "exact"}
        assert cfg.t_values == [2, 4]
        assert cfg.tol == 1e-9
        assert cfg.data["suite"] == "all"

    def test_weights_length_mismatch_names_expected(self):
        bad = {"model": {"kind": "explicit", "sizes": [2, 2], "weights": [0.5, 0.5]}}
        with pytest.raises(SchemaError, match="expected 4 weights"):
            canonicalize(bad)

    def test_explicit_state_count_does_not_wrap(self):
        # 2^32 * 2^32 wraps to 0 in int64.
        bad = {"model": {"kind": "explicit", "sizes": [2**32, 2**32], "weights": [1.0]}}
        with pytest.raises(SchemaError, match="expected 18446744073709551616 weights"):
            canonicalize(bad)

    @pytest.mark.parametrize(
        "config",
        [
            {"model": {"kind": "random", "sizes": [2, 2], "seed": -1}},
            {"model": {"kind": "random", "sizes": [2, 2], "seed": 1}, "seed": -5},
        ],
        ids=["model-seed", "run-seed"],
    )
    def test_negative_seed_is_a_schema_error(self, config, tmp_path):
        with pytest.raises(SchemaError, match="minimum of 0"):
            canonicalize(config)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(config))
        assert main(["check", str(path)]) == 2

    def test_slice_levels_detected(self):
        cfg = canonicalize(
            {
                "model": {
                    "kind": "slice",
                    "density": [2.0, 1.0],
                    "level_kernels": [
                        {"rule": "lazy", "epsilon": 0.5},
                        {"rule": "lazy", "epsilon": 0.9},
                    ],
                }
            }
        )
        model = cfg.build_slice_model()
        assert model.nlevels == 2

    def test_slice_level_count_mismatch(self):
        with pytest.raises(SchemaError, match="level kernels"):
            canonicalize(
                {
                    "model": {
                        "kind": "slice",
                        "density": [2.0, 1.0],
                        "level_kernels": [{"rule": "exact"}],
                    }
                }
            )

    def test_slice_explicit_level_kernel_rejected(self):
        with pytest.raises(SchemaError, match="level_kernels/1"):
            canonicalize(
                {
                    "model": {
                        "kind": "slice",
                        "density": [2.0, 1.0],
                        "level_kernels": [{"rule": "exact"}, {"rule": "explicit"}],
                    }
                }
            )

    def test_partial_approximator_gets_nested_defaults(self):
        lazy = {"rule": "lazy", "epsilon": 0.3}
        for partial, full in (
            ({"default": lazy}, {"default": lazy, "overrides": {}}),
            ({}, {"default": {"rule": "exact"}, "overrides": {}}),
        ):
            cfg = canonicalize({**MINIMAL, "approximator": partial})
            assert cfg.fingerprint == canonicalize({**MINIMAL, "approximator": full}).fingerprint
            assert run_suite(cfg).exit_status() == 0

    def test_parse_error_reports_line(self):
        with pytest.raises(ParseError, match="line"):
            parse_config_text("{\n  broken\n}")

    def test_schema_error_rejects_unknown_key(self):
        with pytest.raises(SchemaError):
            canonicalize({"model": {"kind": "explicit"}, "bogus": 1})

    def test_schema_is_checked_and_errors_read_as_jsonschema_validate(self):
        jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)
        bad = [
            {"model": {"kind": "explicit"}, "bogus": 1},
            {"model": {"kind": "random", "sizes": [2, "x"], "seed": 1}},
            {**MINIMAL, "tol": -1},
            {**MINIMAL, "approximator": {"default": {"rule": "lazy", "epsilon": 2}}},
            {**MINIMAL, "suite": "some"},
            [],
        ]
        for data in bad:
            with pytest.raises(jsonschema.ValidationError) as want:
                jsonschema.validate(data, CONFIG_SCHEMA)
            path = "/".join(str(p) for p in want.value.absolute_path) or "<root>"
            with pytest.raises(SchemaError) as got:
                canonicalize(data)
            assert str(got.value) == f"at {path}: {want.value.message}"

    def test_roundtrip_fixed_point(self):
        cfg = canonicalize(MINIMAL)
        again = parse_config_text(serialize(cfg))
        assert again.data == cfg.data
        assert again.fingerprint == cfg.fingerprint

    def test_selection_length_checked(self):
        bad = dict(MINIMAL, selection_probs=[0.5, 0.25, 0.25])
        with pytest.raises(SchemaError, match="selection_probs"):
            canonicalize(bad)

    def test_override_coordinate_range(self):
        bad = dict(
            MINIMAL,
            approximator={"default": {"rule": "exact"}, "overrides": {"5": {"rule": "exact"}}},
        )
        with pytest.raises(SchemaError, match="out of range"):
            canonicalize(bad)

    def test_explicit_rule_tables_roundtrip(self):
        cfg = canonicalize(
            dict(
                MINIMAL,
                approximator={
                    "default": {
                        "rule": "explicit",
                        "tables": {
                            "0;0": [[0.5, 0.5], [0.5, 0.5]],
                            "0;1": [[0.5, 0.5], [0.5, 0.5]],
                            "1;0": [[0.5, 0.5], [0.5, 0.5]],
                            "1;1": [[0.5, 0.5], [0.5, 0.5]],
                        },
                    },
                    "overrides": {},
                },
            )
        )
        spec = cfg.approximator_spec()
        assert (0, (1,)) in spec.default.tables

    def test_explicit_tables_enter_fingerprint(self):
        joint = product_joint([[0.5, 0.5], [0.5, 0.5]])
        keys = [(i, (y,)) for i in range(2) for y in range(2)]
        prints = {
            model_fingerprint(joint, ApproximatorSpec(default=ExplicitMatrix({k: m for k in keys})))
            for m in (np.eye(2), np.full((2, 2), 0.5))
        }
        assert len(prints) == 2

    def test_rule_spellings_share_fingerprint(self):
        for spellings in (
            [{"rule": "lazy"}, {"rule": "lazy", "epsilon": 0.0}, {"rule": "lazy", "epsilon": 0}],
            [{"rule": "metropolis_rw"}, {"rule": "metropolis_rw", "radius": 1}],
            [{"rule": "metropolis_indep"}, {"rule": "metropolis_indep", "proposal": "uniform"}],
        ):
            prints = {
                canonicalize(
                    {**MINIMAL, "approximator": {"default": rule, "overrides": {"1": rule}}}
                ).fingerprint
                for rule in spellings
            }
            assert len(prints) == 1, spellings

    def test_integral_float_spellings_share_fingerprint(self):
        want = canonicalize(
            {"model": {"kind": "random", "sizes": [2, 3], "seed": 1}, "seed": 1, "trials": 8}
        )
        got = canonicalize(
            {"model": {"kind": "random", "sizes": [2.0, 3], "seed": 1.0}, "seed": 1.0, "trials": 8.0}
        )
        assert got.fingerprint == want.fingerprint
        assert got.data == want.data
        for value in (got.data["seed"], got.data["trials"], got.data["model"]["seed"]):
            assert type(value) is int
        assert [type(d) for d in got.data["model"]["sizes"]] == [int, int]
        # Spelled with ints, a config keeps the fingerprint it had when
        # only ``t`` was stored as ints.
        assert want.fingerprint == "a827dee5150c80cf"

    def test_override_keys_respelled(self):
        lazy = {"rule": "lazy", "epsilon": 0.5}
        configs = [
            canonicalize({**MINIMAL, "approximator": {"overrides": {key: lazy}}})
            for key in ("1", "01", "+1")
        ]
        assert {cfg.fingerprint for cfg in configs} == {configs[0].fingerprint}
        assert configs[1].data["approximator"]["overrides"] == {"1": lazy}

    @pytest.mark.parametrize("key", [1.5, True, 1, None])
    def test_override_keys_not_strings(self, key):
        # Through the Python API a key need not be a string; none is read
        # as a coordinate.
        overrides = {key: {"rule": "lazy", "epsilon": 0.5}}
        message = f"approximator/overrides: key {key!r} is not a string"
        with pytest.raises(SchemaError, match=message):
            canonicalize({**MINIMAL, "approximator": {"overrides": overrides}})

    def test_mixed_type_keys_are_a_named_error(self):
        # Two violations under keys of mixed type, which cannot be ordered:
        # the error names the first in schema order.
        bogus = {"rule": "bogus"}
        cases = [
            ({"overrides": {1: bogus, "0": bogus}}, "approximator/overrides/1/rule: 'bogus'"),
            (
                {"default": {"rule": "explicit", "tables": {1: "x", "0;0": "y"}}},
                "approximator/default/tables/1: 'x' is not of type 'array'",
            ),
        ]
        for approximator, message in cases:
            with pytest.raises(SchemaError, match=message):
                canonicalize({**MINIMAL, "approximator": approximator})

    def test_override_keys_naming_one_coordinate(self):
        overrides = {"1": {"rule": "lazy", "epsilon": 0.5}, "01": {"rule": "lazy", "epsilon": 0.9}}
        with pytest.raises(SchemaError, match="approximator/overrides: keys '1' and '01'"):
            canonicalize({**MINIMAL, "approximator": {"overrides": overrides}})

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda: canonicalize({"model": {"kind": "explicit", "weights": [1.0]}}),
                "explicit models require 'sizes'",
            ),
            (
                lambda: canonicalize(
                    {"model": {"kind": "explicit", "sizes": [2, 2], "weights": [0.0] * 4}}
                ),
                "joint weights must have positive total mass",
            ),
            (
                lambda: canonicalize(
                    {"model": {"kind": "product", "factors": [[0.5, 0.5], [0.0]]}}
                ),
                "factor 1 has zero total mass",
            ),
            (
                lambda: canonicalize({**SLICE, "selection_probs": [0.5, 0.5]}),
                "selection_probs does not apply to slice models",
            ),
            (
                lambda: canonicalize({**MINIMAL, "selection_probs": [0.0, 0.0]}),
                "selection_probs must have positive total mass",
            ),
            (
                lambda: canonicalize(
                    {**MINIMAL, "approximator": {"overrides": {"x": {"rule": "exact"}}}}
                ),
                "override coordinate 'x' is not an integer",
            ),
            (
                lambda: canonicalize(SLICE).build_joint(),
                "model kind 'slice' does not define a joint distribution",
            ),
            (lambda: canonicalize(MINIMAL).build_slice_model(), "model is not a slice model"),
            (lambda: rule_from_json({"rule": "bogus"}), "unknown approximator rule 'bogus'"),
        ],
        ids=[
            "explicit-without-sizes",
            "zero-weights",
            "zero-factor",
            "selection-on-slice",
            "zero-selection",
            "override-key-x",
            "build-joint-of-slice",
            "build-slice-of-joint",
            "unknown-rule",
        ],
    )
    def test_semantic_errors(self, build, message):
        # Refused past the schema, by a semantic check or a builder.
        with pytest.raises(SchemaError, match=message):
            build()

    def test_bad_explicit_table_entry(self):
        cases = (("x", [[1.0]]), ("0;1", [[1.0, 0.0], [1.0]]), (1, [[1.0]]), (None, [[1.0]]))
        for key, matrix in cases:
            bad = {"rule": "explicit", "tables": {key: matrix}}
            with pytest.raises(SchemaError, match=f"approximator/default/tables/{key}:"):
                canonicalize({**MINIMAL, "approximator": {"default": bad}})


class TestDemos:
    def test_at_least_five(self):
        assert len(list_demos()) >= 5

    def test_all_configs_validate(self):
        for name in list_demos():
            cfg = canonicalize(demo_config(name))
            assert cfg.fingerprint

    def test_spike_slab_is_300_states(self):
        cfg = canonicalize(demo_config("spike-slab-toy"))
        assert cfg.build_joint().n == 300

    @pytest.mark.parametrize("name", ["two-coin", "three-coin-block", "two-point-slice", "spike-slab-toy", "random"])
    def test_demo_suites_pass(self, name):
        report = run_suite(canonicalize(demo_config(name)))
        assert report.exit_status() == 0
        assert not report.failed


class TestRunSuite:
    def test_deterministic_json(self):
        cfg = canonicalize(demo_config("two-coin"))
        a = run_suite(cfg).to_json(include_timing=False)
        b = run_suite(cfg).to_json(include_timing=False)
        assert a == b

    def test_reports_sorted(self):
        report = run_suite(canonicalize(demo_config("two-coin")))
        names = [r.name for r in report.reports]
        assert names == sorted(names)
        assert len(set(names)) == len(names)

    def test_t_is_canonical(self):
        # A repeated or reordered t runs each step count once, under one
        # fingerprint: duplicates used to emit "#2" reports.
        base = demo_config("two-coin")
        messy = canonicalize({**base, "t": [4, 2, 2]})
        clean = canonicalize({**base, "t": [2, 4]})
        assert messy.data["t"] == [2, 4]
        assert messy.fingerprint == clean.fingerprint
        want = run_suite(clean).to_json(include_timing=False)
        assert run_suite(messy).to_json(include_timing=False) == want
        assert run_suite(clean, t_values=[4, 2, 2]).to_json(include_timing=False) == want
        assert not any("#" in r.name for r in run_suite(clean, t_values=[2, 2]).reports)

    def test_slice_suite_needs_level_kernels(self):
        cfg = canonicalize({"model": {"kind": "slice", "density": [2.0, 1.0]}})
        with pytest.raises(MissingLevelKernel):
            run_suite(cfg, suites=["slice"])
        assert run_suite(cfg, suites="all").reports == ()

    def test_identity_approximator_degenerates_gracefully(self):
        cfg = canonicalize(
            dict(
                MINIMAL,
                approximator={"default": {"rule": "lazy", "epsilon": 1.0}, "overrides": {}},
                suite=["random-scan"],
            )
        )
        report = run_suite(cfg)
        assert report.exit_status() == 0
        assert report.kernels["random_scan_hybrid"]["gap"] == pytest.approx(0.0, abs=1e-12)
        unmet = [r for r in report.reports if r.status == "hypothesis_unmet"]
        assert any(r.name.startswith("variance-sandwich") for r in unmet)

    def test_explicit_inapplicable_suite_raises(self):
        cfg = canonicalize(dict(MINIMAL, suite=["block"]))
        from hybridgibbs.errors import HybridGibbsError

        with pytest.raises(HybridGibbsError):
            run_suite(cfg)

    def test_csv_columns(self):
        report = run_suite(canonicalize(demo_config("two-coin")))
        lines = report.to_csv().splitlines()
        assert lines[0] == "check,lhs,rhs,slack,status"
        assert len(lines) == len(report.reports) + 1


class TestCli:
    def _write(self, tmp_path, data):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_list_demos(self, capsys):
        assert main(["list-demos"]) == 0
        out = capsys.readouterr().out
        assert "two-coin" in out and "spike-slab-toy" in out

    def test_module_entry_point_passes_the_exit_code(self, tmp_path, capsys):
        # ``python -m hybridgibbs.cli`` exits with what main() returns.
        env = dict(os.environ)
        src = str(Path(hybridgibbs.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

        def run(*args):
            cmd = [sys.executable, "-m", "hybridgibbs.cli", *args]
            return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)

        listed = run("list-demos")
        assert main(["list-demos"]) == 0
        assert (listed.returncode, listed.stdout) == (0, capsys.readouterr().out)
        path = self._write(tmp_path, {"model": {"kind": "random", "sizes": [2, 2], "seed": -1}})
        rejected = run("check", path)
        assert rejected.returncode == 2
        assert rejected.stderr.startswith("error: ") and "minimum of 0" in rejected.stderr

    def test_analyze(self, tmp_path, capsys):
        path = self._write(tmp_path, MINIMAL)
        assert main(["analyze", path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "random_scan_exact" in data["kernels"]

    def test_check_exit_zero_and_files(self, tmp_path):
        path = self._write(tmp_path, MINIMAL)
        out = tmp_path / "report.json"
        csv_out = tmp_path / "report.csv"
        code = main(
            ["check", path, "--suite", "random-scan,da", "--t", "2", "--out", str(out), "--csv", str(csv_out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["reports"]
        assert csv_out.read_text().startswith("check,lhs,rhs,slack,status")

    def test_check_determinism_byte_identical(self, tmp_path):
        path = self._write(tmp_path, MINIMAL)
        outs = []
        for k in range(2):
            out = tmp_path / f"r{k}.json"
            assert main(["check", path, "--suite", "all", "--out", str(out)]) == 0
            parsed = json.loads(out.read_text())
            parsed.pop("timing")
            outs.append(json.dumps(parsed, sort_keys=True))
        assert outs[0] == outs[1]

    def test_check_bad_config_exit_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["check", str(path), "--suite", "all"]) == 2

    def test_check_undecodable_config_exit_two(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(MINIMAL).encode("utf-16-le"))
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read ")

    def test_check_slice_suite_without_level_kernels_exit_two(self, tmp_path, capsys):
        path = self._write(tmp_path, {"model": {"kind": "slice", "density": [2.0, 1.0]}})
        assert main(["check", path, "--suite", "slice"]) == 2
        assert "level_kernels" in capsys.readouterr().err
        assert main(["check", path, "--suite", "all"]) == 0

    def test_check_inapplicable_suite_exit_two(self, tmp_path):
        path = self._write(tmp_path, MINIMAL)
        assert main(["check", path, "--suite", "block"]) == 2

    def test_simulate(self, tmp_path, capsys):
        path = self._write(tmp_path, MINIMAL)
        traj = tmp_path / "traj.txt"
        code = main(
            [
                "simulate",
                path,
                "--kernel",
                "exact",
                "--steps",
                "30000",
                "--seed",
                "5",
                "--f",
                "coord:0",
                "--batch",
                "150",
                "--traj-out",
                str(traj),
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["report"]["status"] == "pass"
        assert traj.read_text().startswith("# seed=5 kernel=")

    def test_simulate_traj_out_simulates_once(self, tmp_path, capsys, monkeypatch):
        import hybridgibbs._stepper_py as stepper
        from hybridgibbs import cross_validate_variance, simulate, write_trajectory
        from hybridgibbs.spectral import eigvals_summary

        config = {"model": {"kind": "random", "sizes": [5, 4], "seed": 3}}
        path = self._write(tmp_path, config)
        traj = tmp_path / "traj.txt"
        walks = []
        walk = stepper.walk

        def counting_walk(*args):
            walks.append(1)
            return walk(*args)

        monkeypatch.setattr(stepper, "walk", counting_walk)
        argv = ["simulate", path, "--steps", "40000", "--seed", "7", "--batch", "200"]
        assert main(argv + ["--traj-out", str(traj)]) == 0
        assert len(walks) == 1
        # The bytes the command wrote when it simulated once for the report
        # and once more for the file.
        canonical = canonicalize(config)
        joint = canonical.build_joint()
        rev = exact_random_scan(joint, canonical.selection())
        f = np.array([joint.space.decode(s)[0] for s in range(rev.n)], dtype=float)
        report = cross_validate_variance(
            rev, f, 40000, 7, batch=200, fingerprint=canonical.fingerprint
        )
        want = tmp_path / "want.txt"
        write_trajectory(simulate(rev, rev.stationary, 40000, 7), want)
        out = {
            "kernel": "exact",
            "spectral": eigvals_summary(rev).to_dict(),
            "report": report.to_dict(),
        }
        assert capsys.readouterr().out == json.dumps(out, sort_keys=True, indent=2) + "\n"
        assert traj.read_bytes() == want.read_bytes()

    def test_simulate_builds_the_joint_once(self, tmp_path, capsys, monkeypatch):
        from hybridgibbs import cross_validate_variance
        from hybridgibbs.config import ModelConfig
        from hybridgibbs.spectral import eigvals_summary

        config = {"model": {"kind": "random", "sizes": [4, 3], "seed": 5}}
        path = self._write(tmp_path, config)
        canonical = canonicalize(config)
        joint = canonical.build_joint()
        rev = exact_random_scan(joint, canonical.selection())
        f = np.array([joint.space.decode(s)[1] for s in range(rev.n)], dtype=float)
        report = cross_validate_variance(rev, f, 20000, 6, fingerprint=canonical.fingerprint)
        want = {
            "kernel": "exact",
            "spectral": eigvals_summary(rev).to_dict(),
            "report": report.to_dict(),
        }
        builds = []
        build_joint = ModelConfig.build_joint

        def counting_build(self):
            builds.append(1)
            return build_joint(self)

        monkeypatch.setattr(ModelConfig, "build_joint", counting_build)
        assert main(["simulate", path, "--steps", "20000", "--seed", "6", "--f", "coord:1"]) == 0
        assert len(builds) == 1
        assert capsys.readouterr().out == json.dumps(want, sort_keys=True, indent=2) + "\n"

    def test_simulate_vector_observable(self, tmp_path, capsys):
        path = self._write(tmp_path, MINIMAL)
        code = main(
            ["simulate", path, "--kernel", "hybrid", "--steps", "20000", "--seed", "3",
             "--f", "vector:1,0,0,-1", "--batch", "100"]
        )
        assert code == 0

    def test_simulate_spectral_block_without_eigenvectors(self, tmp_path, capsys, eig_counts):
        config = canonicalize(demo_config("spike-slab-toy"))
        path = tmp_path / "config.json"
        path.write_text(serialize(config))
        code = main(["simulate", str(path), "--steps", "20000", "--seed", "4"])
        assert code == 0
        assert not eig_counts["eigh"]
        got = json.loads(capsys.readouterr().out)["spectral"]
        rev = exact_random_scan(config.build_joint(), config.selection())
        want = spectral_summary(rev).to_dict()
        assert sorted(got) == sorted(want)
        for key, value in want.items():
            if isinstance(value, float):
                assert got[key] == pytest.approx(value, rel=0, abs=1e-12)
            else:
                assert got[key] == value

    def test_demo_run(self, capsys):
        assert main(["demo", "two-coin", "--run"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kernels"]["random_scan_exact"]["operator_norm"] == pytest.approx(0.5)

    def test_demo_unknown_exit_two(self):
        assert main(["demo", "does-not-exist"]) == 2

    @pytest.mark.parametrize("name", list_demos())
    def test_demo_prints_its_canonical_config(self, capsys, name):
        assert main(["demo", name]) == 0
        printed = parse_config_text(capsys.readouterr().out)
        want = canonicalize(demo_config(name))
        assert printed.data == want.data
        assert printed.fingerprint == want.fingerprint

    @pytest.mark.parametrize("kernel", ["exact", "hybrid"])
    def test_simulate_slice_model(self, tmp_path, capsys, kernel):
        from hybridgibbs import cross_validate_variance, da_exact, da_hybrid
        from hybridgibbs.spectral import eigvals_summary

        config = canonicalize(SLICE)
        model = config.build_slice_model()
        rev = da_exact(model) if kernel == "exact" else da_hybrid(model)
        f = np.arange(rev.n, dtype=float)
        report = cross_validate_variance(rev, f, 20000, 2, fingerprint=config.fingerprint)
        want = {
            "kernel": kernel,
            "spectral": eigvals_summary(rev).to_dict(),
            "report": report.to_dict(),
        }
        path = self._write(tmp_path, SLICE)
        code = main(["simulate", path, "--kernel", kernel, "--steps", "20000", "--seed", "2"])
        assert capsys.readouterr().out == json.dumps(want, sort_keys=True, indent=2) + "\n"
        assert code == (1 if report.status == "fail" else 0)

    @pytest.mark.parametrize(
        "config, f, message",
        [
            (SLICE, "coord:1", "slice models have a single coordinate"),
            (MINIMAL, "coord:2", "coordinate 2 out of range"),
            (MINIMAL, "sum", "--f must look like"),
        ],
        ids=["slice-coord", "coord-out-of-range", "malformed"],
    )
    def test_bad_observable_is_a_named_error(self, tmp_path, capsys, config, f, message):
        path = self._write(tmp_path, config)
        assert main(["simulate", path, "--steps", "100", "--f", f]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_simulate_a_chain_without_a_gap_exits_2(self, tmp_path, capsys):
        near = {"model": {"kind": "explicit", "sizes": [2, 2], "weights": [1, 1e-13, 1e-13, 1]}}
        assert main(["simulate", self._write(tmp_path, near), "--steps", "1000"]) == 2
        assert "no spectral gap" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "{config}", "--t", "0"],
            ["check", "{config}", "--t", "x"],
            ["simulate", "{config}", "--steps", "0"],
            ["simulate", "{config}", "--steps", "100", "--batch", "0"],
            ["simulate", "{config}", "--steps", "100", "--f", "coord:x"],
            ["simulate", "{config}", "--steps", "100", "--f", "vector:1,x,2,3"],
            ["demo", "nope"],
            ["simulate", "{config}", "--steps", "100", "--seed", "-1"],
            ["simulate", "{config}", "--steps", "100", "--f", "vector:1,nan,2,3"],
            ["check", "{config}", "--suite", "foo"],
            ["check", "{config}", "--suite", "random-scan,fo"],
            ["check", "{config}", "--tol", "nan"],
            ["check", "{config}", "--tol", "-1"],
            ["check", "{config}", "--t", ","],
        ],
        ids=[
            "t-zero",
            "t-word",
            "steps-zero",
            "batch-zero",
            "coord-word",
            "vector-word",
            "demo",
            "seed-negative",
            "vector-nan",
            "suite-unknown",
            "suite-typo",
            "tol-nan",
            "tol-negative",
            "t-empty",
        ],
    )
    def test_bad_argument_is_a_named_error(self, tmp_path, capsys, argv):
        path = self._write(tmp_path, MINIMAL)
        assert main([arg.format(config=path) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.skipif(not hasattr(os, "sysconf"), reason="no physical memory size to check")
    def test_a_path_too_long_for_memory_is_an_input_error(self, tmp_path, capsys):
        path = self._write(tmp_path, MINIMAL)
        assert main(["simulate", path, "--steps", str(10**13), "--seed", "7"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a path of 10000000000000 steps needs")
        assert err.count("\n") == 1

    def test_out_of_memory_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        import hybridgibbs.cli as cli

        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 191. GiB for an array")

        monkeypatch.setattr(cli, "run_suite", out_of_memory)
        assert main(["check", self._write(tmp_path, MINIMAL)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unexpected_exception_propagates(self, tmp_path, monkeypatch):
        import hybridgibbs.cli as cli

        def broken(*args, **kwargs):
            raise KeyError("programming error")

        monkeypatch.setattr(cli, "run_suite", broken)
        with pytest.raises(KeyError, match="programming error"):
            main(["check", self._write(tmp_path, MINIMAL)])


class TestExitStatusMapping:
    def test_failing_report_gives_exit_one(self):
        # The mathematics never fails on valid models, so exercise the
        # mapping directly with a fabricated failing report.
        from hybridgibbs.report import make_report
        from hybridgibbs.suite import RunReport

        failing = make_report("fabricated", 1.0, 0.0, 1e-9)
        assert failing.status == "fail"
        report = RunReport(
            fingerprint="x",
            config={},
            kernels={},
            quality={},
            reports=(failing,),
            timing={},
            versions={},
        )
        assert report.exit_status() == 1

    def test_hypothesis_unmet_never_fails(self):
        from hybridgibbs.report import make_report
        from hybridgibbs.suite import RunReport

        unmet = make_report("fabricated", 1.0, 0.0, 1e-9, hypothesis_ok=False)
        report = RunReport(
            fingerprint="x",
            config={},
            kernels={},
            quality={},
            reports=(unmet,),
            timing={},
            versions={},
        )
        assert report.exit_status() == 0
        assert unmet.to_dict()["pass"] is True
