"""The shared Analysis: each kernel decomposed once per run, and run_suite's
reports equal to what the standalone checks return."""

import numpy as np
import pytest

from hybridgibbs import (
    block_random_scan,
    canonicalize,
    check_block_comparison,
    check_da_gap_sandwich,
    check_da_tstep,
    check_da_variance_tstep,
    check_dirichlet_sandwich,
    check_gap_sandwich,
    check_selection_reweighting,
    check_slice_tstep,
    check_uniform_tstep_bound,
    check_variance_sandwich,
    da_exact,
    da_hybrid,
    demo_config,
    exact_random_scan,
    hybrid_random_scan,
    list_demos,
    run_suite,
    slice_exact,
    slice_hybrid,
)
from hybridgibbs.spectral import spectral_summary
from hybridgibbs.suite import _finish, _guarded

R2X40 = {
    "model": {"kind": "random", "sizes": [40, 40], "seed": 1},
    "approximator": {"default": {"rule": "lazy", "epsilon": 0.3}},
    "suite": "all",
    "t": [2, 4],
}
R3X8 = {
    "model": {"kind": "random", "sizes": [8, 8, 8], "seed": 1},
    "approximator": {"default": {"rule": "metropolis_rw", "radius": 1}},
    "suite": "all",
}
LAZY_SLICE = {
    "model": {
        "kind": "slice",
        "density": [3.0, 1.0, 2.0, 3.0, 5.0, 2.0, 4.0],
        "level_kernels": [{"rule": "lazy", "epsilon": 0.3}] * 5,
    },
    "suite": ["slice"],
    "t": [2, 3],
}


def test_run_suite_decomposes_each_kernel_once(eig_counts):
    run_suite(canonicalize(R2X40))
    # T and T_hybrid by eigh; the two chains under selection_probs_alt by
    # eigvalsh, since nothing reads their eigenvectors.
    assert eig_counts["eigh"][1600] + eig_counts["eigvalsh"][1600] == 4
    assert eig_counts["eigvalsh"][1600] == 2
    # 80 conditionals plus the two DA chains.
    assert eig_counts["eigh"][40] + eig_counts["eigvalsh"][40] == 82
    for counter in eig_counts.values():
        counter.clear()
    run_suite(canonicalize(R3X8))
    # Three coordinates times 64 complements, each conditional once.
    assert eig_counts["eigh"][8] + eig_counts["eigvalsh"][8] == 192


def standalone(config):
    """Kernel summaries and reports of ``run_suite(config, "all")``, rebuilt
    from the standalone builders and ``check_*`` functions."""
    fp, tol, seed, trials = config.fingerprint, config.tol, config.seed, config.trials
    t_values = [int(t) for t in config.t_values]
    kernels, reports = {}, []
    if config.is_slice:
        model = config.build_slice_model()
        kernels["slice_exact"] = spectral_summary(slice_exact(model)).to_dict()
        if model.level_kernels is not None:
            kernels["slice_hybrid"] = spectral_summary(slice_hybrid(model)).to_dict()
            for t in t_values:
                reports += _guarded(
                    lambda t=t: check_slice_tstep(model, t, tol=tol, fingerprint=fp),
                    f"slice-tstep-t{t}",
                    fp,
                    tol,
                )
        return kernels, reports
    joint = config.build_joint()
    spec = config.approximator_spec()
    p = config.selection()
    n = joint.space.ncoords
    kernels["random_scan_exact"] = spectral_summary(exact_random_scan(joint, p)).to_dict()
    kernels["random_scan_hybrid"] = spectral_summary(hybrid_random_scan(joint, p, spec)).to_dict()
    reports += check_dirichlet_sandwich(
        joint, p, spec, trials=trials, seed=seed, tol=tol, fingerprint=fp
    )
    reports += check_gap_sandwich(joint, p, spec, tol=tol, fingerprint=fp)
    reports += _guarded(
        lambda: check_variance_sandwich(
            joint, p, spec, trials=8, seed=seed, tol=tol, fingerprint=fp
        ),
        "variance-sandwich",
        fp,
        tol,
    )
    if n == 2:
        kernels["da_exact"] = spectral_summary(da_exact(joint)).to_dict()
        kernels["da_hybrid"] = spectral_summary(da_hybrid(joint, spec)).to_dict()
        reports += check_da_gap_sandwich(joint, spec, tol=tol, fingerprint=fp)
        for t in t_values:
            reports += _guarded(
                lambda t=t: check_da_tstep(
                    joint, spec, t, trials=trials, seed=seed, tol=tol, fingerprint=fp
                ),
                f"da-tstep-t{t}",
                fp,
                tol,
            )
            reports += _guarded(
                lambda t=t: check_da_variance_tstep(
                    joint, spec, t, seed=seed, tol=tol, fingerprint=fp
                ),
                f"da-variance-tstep-t{t}",
                fp,
                tol,
            )
    for ell in range(2, n):
        kernels[f"block_scan_l{ell}"] = spectral_summary(block_random_scan(joint, ell)).to_dict()
        for m in range(1, ell):
            reports += check_block_comparison(
                joint, ell, m, trials=trials, seed=seed, tol=tol, fingerprint=fp
            )
    p_alt = config.selection_alt() or [i + 1.0 for i in range(n)]
    reports += _guarded(
        lambda: check_selection_reweighting(joint, p, p_alt, spec, tol=tol, fingerprint=fp),
        "selection-reweighting",
        fp,
        tol,
    )
    if p is None or np.abs(np.asarray(p, float) / np.sum(p) - 1.0 / n).max() <= 1e-12:
        for t in t_values:
            reports += _guarded(
                lambda t=t: check_uniform_tstep_bound(joint, p, spec, t, tol=tol, fingerprint=fp),
                f"uniform-power-t{t}",
                fp,
                tol,
            )
    return kernels, reports


@pytest.mark.parametrize(
    "config",
    [demo_config(name) for name in list_demos()] + [R2X40, R3X8, LAZY_SLICE],
    ids=list(list_demos()) + ["r2x40", "r3x8", "lazy-slice"],
)
def test_shared_analysis_changes_no_report(config):
    # Exact equality: under Lazy rules the sandwiches hold with equality for
    # every test function, so a 1-ulp change can move the witness.
    config = canonicalize(config)
    got = run_suite(config, suites="all")
    kernels, reports = standalone(config)
    want = _finish(config, kernels, {}, reports, 0.0)
    assert got.kernels == want.kernels
    assert len(got.reports) == len(want.reports)
    for a, b in zip(got.reports, want.reports):
        assert (a.name, a.status, a.lhs, a.rhs, a.witness) == (
            b.name,
            b.status,
            b.lhs,
            b.rhs,
            b.witness,
        )
