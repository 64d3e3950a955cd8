"""The shared Analysis: each kernel decomposed once per run, and run_suite's
reports equal to what a fresh Analysis returns for each check."""

import numpy as np
import pytest

from hybridgibbs import (
    Analysis,
    ApproximatorSpec,
    Exact,
    Lazy,
    MetropolisRW,
    approx_quality,
    block_random_scan,
    canonicalize,
    da_exact,
    da_hybrid,
    demo_config,
    exact_random_scan,
    hybrid_random_scan,
    joint_from_weights,
    list_demos,
    run_suite,
    slice_exact,
    slice_hybrid,
)
from hybridgibbs import bounds
from hybridgibbs.bounds import _two_coordinate_scan_gap
from hybridgibbs.errors import CrossCheckFailure
from hybridgibbs.randomgen import random_joint
from hybridgibbs.space import selection_probs
from hybridgibbs.spectral import eigvals_summary, spectral_summary
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
    # T and T_hybrid by eigh; the gaps under selection_probs_alt come from
    # the DA gap in closed form, with no chain built.
    assert eig_counts["eigh"][1600] == 2
    assert eig_counts["eigvalsh"][1600] == 0
    # 80 conditionals plus the two DA chains.
    assert eig_counts["eigh"][40] + eig_counts["eigvalsh"][40] == 82
    for counter in eig_counts.values():
        counter.clear()
    run_suite(canonicalize(R3X8))
    # Three coordinates times 64 complements, each conditional once.
    assert eig_counts["eigh"][8] + eig_counts["eigvalsh"][8] == 192
    # T (which is also the one-coordinate block chain), T_hybrid and the
    # two-coordinate block chain: T's eigenvectors serve both families.
    assert eig_counts["eigh"][512] == 3


def standalone(config):
    """Kernel summaries and reports of ``run_suite(config, "all")``, rebuilt
    from the standalone builders and a fresh ``Analysis`` for each check."""
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
                    lambda t=t: Analysis(model).slice_tstep(t, tol=tol, fingerprint=fp),
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
    reports += Analysis(joint, p, spec).dirichlet_sandwich(
        trials=trials, seed=seed, tol=tol, fingerprint=fp
    )
    reports += Analysis(joint, p, spec).gap_sandwich(tol=tol, fingerprint=fp)
    reports += _guarded(
        lambda: Analysis(joint, p, spec).variance_sandwich(
            trials=8, seed=seed, tol=tol, fingerprint=fp
        ),
        "variance-sandwich",
        fp,
        tol,
    )
    if n == 2:
        kernels["da_exact"] = spectral_summary(da_exact(joint)).to_dict()
        kernels["da_hybrid"] = spectral_summary(da_hybrid(joint, spec)).to_dict()
        reports += Analysis(joint, spec=spec).da_gap_sandwich(tol=tol, fingerprint=fp)
        for t in t_values:
            reports += _guarded(
                lambda t=t: Analysis(joint, spec=spec).da_tstep(
                    t, trials=trials, seed=seed, tol=tol, fingerprint=fp
                ),
                f"da-tstep-t{t}",
                fp,
                tol,
            )
            reports += _guarded(
                lambda t=t: Analysis(joint, spec=spec).da_variance_tstep(
                    t, seed=seed, tol=tol, fingerprint=fp
                ),
                f"da-variance-tstep-t{t}",
                fp,
                tol,
            )
    for ell in range(2, n):
        kernels[f"block_scan_l{ell}"] = spectral_summary(block_random_scan(joint, ell)).to_dict()
        for m in range(1, ell):
            reports += Analysis(joint).block_comparison(
                ell, m, trials=trials, seed=seed, tol=tol, fingerprint=fp
            )
    p_alt = config.selection_alt() or [i + 1.0 for i in range(n)]
    reports += _guarded(
        lambda: Analysis(joint, p, spec).selection_reweighting(p_alt, tol=tol, fingerprint=fp),
        "selection-reweighting",
        fp,
        tol,
    )
    if p is None or np.abs(np.asarray(p, float) / np.sum(p) - 1.0 / n).max() <= 1e-12:
        for t in t_values:
            reports += _guarded(
                lambda t=t: Analysis(joint, p, spec).uniform_tstep_bound(
                    t, tol=tol, fingerprint=fp
                ),
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


# ---------------------------------------------------------------------------
# Selection gaps of two-coordinate chains from the DA gap
# ---------------------------------------------------------------------------

P, P_ALT = [0.3, 0.7], [0.8, 0.25]
CLOSED_FORM_SPECS = {
    "lazy": ApproximatorSpec(default=Lazy(0.35)),
    "lazy-exact": ApproximatorSpec(default=Lazy(0.2), overrides={1: Exact()}),
}
SELECTION_SPECS = dict(CLOSED_FORM_SPECS, metropolis=ApproximatorSpec(default=MetropolisRW(1)))


def eigvalsh_selection_reports(joint, p, p_alt, spec):
    """{name: (lhs, rhs)} of the selection reports, with the gaps under
    ``p_alt`` read from the spectra of the chains built under it."""
    n = joint.space.ncoords
    sel, sel_alt = selection_probs(p, n), selection_probs(p_alt, n)
    qual = approx_quality(joint, spec)
    C = qual.max_norm
    gap_t = spectral_summary(exact_random_scan(joint, sel)).gap
    gap_h = spectral_summary(hybrid_random_scan(joint, sel, spec)).gap
    gap_t_alt = eigvals_summary(exact_random_scan(joint, sel_alt)).gap
    gap_h_alt = eigvals_summary(hybrid_random_scan(joint, sel_alt, spec)).gap
    r = float(np.min(sel.p / sel_alt.p))
    b = gap_t / gap_t_alt
    factor = b * (1.0 - C) if qual.all_psd else b * (1.0 - C) / (1.0 + C)
    return {
        "selection-hybrid-transfer": (factor * gap_h_alt, gap_h),
        "selection-minratio-exact": (r * gap_t_alt, gap_t),
        "selection-minratio-hybrid": (r * gap_h_alt, gap_h),
    }


def selection_reports(joint, p, p_alt, spec):
    reports = Analysis(joint, p, spec).selection_reweighting(p_alt)
    return {r.name: (r.lhs, r.rhs) for r in reports}


@pytest.mark.parametrize("sizes", [(5, 9), (9, 5), (12, 7)])
@pytest.mark.parametrize("spec_name", sorted(SELECTION_SPECS))
def test_closed_form_selection_gaps(sizes, spec_name, eig_counts):
    joint = random_joint(sum(sizes), sizes=sizes)
    spec = SELECTION_SPECS[spec_name]
    want = eigvalsh_selection_reports(joint, P, P_ALT, spec)
    for counter in eig_counts.values():
        counter.clear()
    got = selection_reports(joint, P, P_ALT, spec)
    assert sorted(got) == sorted(want)
    for name, values in want.items():
        assert got[name] == pytest.approx(values, rel=1e-12, abs=0)
    n = joint.n
    assert eig_counts["eigh"][n] == 2
    # Only the hybrid chain of a rule that is neither Lazy nor Exact is built
    # under p_alt.
    assert eig_counts["eigvalsh"][n] == (spec_name == "metropolis")


@pytest.mark.parametrize(
    "joint, p_alt",
    [
        # A size-1 coordinate: its update is the identity, not a projection
        # of the two-subspace theorem; the formula gives 0.39, the chain 0.61.
        (random_joint(1, sizes=(1, 5)), [0.39, 0.61]),
        # Three zero weights: the restriction drops states; the formula gives
        # 0.11, the chain 1.0.
        (joint_from_weights((2, 2), [1.0, 0.0, 0.0, 0.0]), [0.89, 0.11]),
        (random_joint(2, sizes=(2, 3, 2)), [0.2, 0.5, 0.3]),
    ],
    ids=["size-one", "zero-mass", "three-coordinates"],
)
def test_selection_gaps_outside_the_formula(joint, p_alt, eig_counts):
    spec = CLOSED_FORM_SPECS["lazy"]
    p = [1.0] * joint.space.ncoords
    want = eigvalsh_selection_reports(joint, p, p_alt, spec)
    for counter in eig_counts.values():
        counter.clear()
    assert selection_reports(joint, p, p_alt, spec) == want
    # Both chains under p_alt, each on its support.
    assert sum(eig_counts["eigvalsh"].values()) == 2
    if joint.space.ncoords == 2:
        sel_alt = selection_probs(p_alt, 2)
        da_gap = spectral_summary(da_exact(joint)).gap
        formula = _two_coordinate_scan_gap(sel_alt.p, (0.0, 0.0), da_gap)
        chain = eigvals_summary(exact_random_scan(joint, sel_alt)).gap
        assert abs(formula - chain) > 0.2


def test_wrong_da_gap_is_caught(monkeypatch):
    joint = random_joint(14, sizes=(5, 9))
    other = random_joint(15, sizes=(5, 9))
    monkeypatch.setattr(bounds, "da_exact", lambda _joint: da_exact(other))
    with pytest.raises(CrossCheckFailure, match="closed form"):
        Analysis(joint, P, CLOSED_FORM_SPECS["lazy"]).selection_reweighting(P_ALT)


@pytest.mark.parametrize("seed", [0, 5, 9])
def test_one_coordinate_block_chain_is_the_random_scan(seed):
    config = canonicalize({"model": {"kind": "random", "sizes": [8, 8, 8], "seed": seed}})
    joint = config.build_joint()
    analysis = Analysis(joint, config.selection())
    assert analysis.block(1) is analysis.T
    want = block_random_scan(joint, 1).kernel.matrix
    assert np.array_equal(analysis.block(1).kernel.matrix, want)
    skewed = Analysis(joint, [1.0, 1.0, 1.0 + 1e-9])
    assert skewed.block(1) is not skewed.T
