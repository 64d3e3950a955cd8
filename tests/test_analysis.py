"""The shared Analysis: each kernel decomposed once per run, and run_suite's
reports equal to what a fresh Analysis returns for each check."""

import inspect
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from hybridgibbs import (
    Analysis,
    ApproximatorSpec,
    Exact,
    Lazy,
    MetropolisRW,
    SliceModel,
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
    product_joint,
    run_suite,
    slice_exact,
    slice_hybrid,
)
from hybridgibbs import approximators, bounds, gibbs, spectral
from hybridgibbs.bounds import _scan_gap, function_battery, model_fingerprint
from hybridgibbs.errors import CrossCheckFailure, DimensionMismatch, PreconditionUnmet
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


MIXED_SLICE = {
    "model": dict(
        LAZY_SLICE["model"],
        level_kernels=[{"rule": "lazy", "epsilon": 0.3}] * 2
        + [{"rule": "metropolis_rw", "radius": 1}]
        + [{"rule": "lazy", "epsilon": 0.3}] * 2,
    ),
    "suite": ["slice"],
    "t": [2, 3],
}


def test_run_suite_decomposes_each_kernel_once(eig_counts):
    run_suite(canonicalize(R2X40))
    # T and T_hybrid by eigh; the gaps under selection_probs_alt are
    # eigenvalues of Gram matrices of order 80, with no chain built.
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
    # Under selection_probs_alt only the MetropolisRW hybrid chain is built;
    # the exact chain's gap is an eigenvalue of a Gram matrix of order 192.
    assert eig_counts["eigvalsh"][512] == 1


def test_all_exact_hybrid_chain_is_the_exact_one(eig_counts):
    # Exact is the default rule: the hybrid random scan adds the same
    # kernels as T, so it is T, and one eigh at n=400 serves both.
    config = canonicalize({"model": {"kind": "random", "sizes": [20, 20], "seed": 3}})
    run_suite(config)
    assert eig_counts["eigh"][400] == 1
    spec = ApproximatorSpec(default=Lazy(0.3), overrides={0: Exact(), 1: Exact()})
    analysis = Analysis(config.build_joint(), spec=spec)
    assert analysis.Th is analysis.T
    lazy = Analysis(config.build_joint(), spec=ApproximatorSpec(Lazy(0.0)))
    assert lazy.Th is not lazy.T


def test_all_exact_selection_reads_the_alternative_gap_once(eig_counts):
    # T_hybrid is T, so the hybrid gap under selection_probs_alt is the exact
    # one: one Gram matrix of order 40 at the run's own selection (the cross
    # check) and one under the alternative.
    config = canonicalize(
        {"model": {"kind": "random", "sizes": [20, 20], "seed": 3}, "suite": ["selection"]}
    )
    report = run_suite(config)
    assert eig_counts["eigvalsh"] == {40: 2}
    by_name = {r.name: r for r in report.reports}
    exact, hybrid = by_name["selection-minratio-exact"], by_name["selection-minratio-hybrid"]
    assert (exact.lhs, exact.rhs) == (hybrid.lhs, hybrid.rhs)


def count_calls(monkeypatch, *functions):
    """Count calls of each function by name, through every binding of it in
    the package's modules, since modules import them by name."""
    counts = Counter()
    modules = [m for name, m in sys.modules.items() if name.startswith("hybridgibbs")]
    for fn in functions:

        def counting(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting)
    return counts


def test_each_coordinate_table_is_built_once(monkeypatch):
    counts = count_calls(
        monkeypatch,
        approximators.kernel_for_target,
        spectral.check_reversibility,
        gibbs.slices,
    )
    tables = Counter()
    init = gibbs.ConditionalTable.__init__

    def counting_init(self, joint, i):
        tables[i] += 1
        init(self, joint, i)

    monkeypatch.setattr(gibbs.ConditionalTable, "__init__", counting_init)
    run_suite(canonicalize(R3X8))
    # One table per coordinate, and every approximator read from it.
    assert tables == {0: 1, 1: 1, 2: 1}
    assert counts["kernel_for_target"] == 0
    # T, T_hybrid, the MetropolisRW chain under p_alt and the two-coordinate
    # block chain.  The 24 inner block chains of block_comparison are one
    # verified stack per block, with no pair of their own (29 calls when
    # each was paired alone, 221 when each conditional was).
    assert counts["check_reversibility"] == 4
    # The three tables, the three blocks of the two-coordinate block chain,
    # the same three blocks read once more by block_comparison, and the two
    # inner blocks of each, read once for all of its slices (3 * 2 = 6, where
    # each of the 24 inner chains read its two, 48): no call per conditional.
    assert counts["slices"] == 3 + 3 + 3 + 3 * 2


def test_lazy_slice_run_suite_makes_one_eigensolve(eig_counts):
    # 1,000 points and 1,000 levels, one Lazy eps: the hybrid chain and
    # every level's quality come from the exact chain's one decomposition.
    run_suite(
        canonicalize(
            {
                "model": {
                    "kind": "slice",
                    "density": [float(k) for k in range(1, 1001)],
                    "level_kernels": [{"rule": "lazy", "epsilon": 0.3}] * 1000,
                },
                "suite": ["slice"],
                "t": [2],
            }
        )
    )
    assert eig_counts["eigh"] == {1000: 1}
    assert not eig_counts["eigvalsh"]


def standalone(config):
    """Kernel summaries and reports of ``run_suite(config, "all")``, rebuilt
    from the standalone builders and a fresh ``Analysis`` for each check."""
    settings = {"tol": config.tol, "seed": config.seed, "fingerprint": config.fingerprint}
    trials = config.trials
    t_values = [int(t) for t in config.t_values]
    kernels, reports = {}, []
    if config.is_slice:
        model = config.build_slice_model()
        kernels["slice_exact"] = spectral_summary(slice_exact(model)).to_dict()
        if model.level_kernels is not None:
            kernels["slice_hybrid"] = spectral_summary(slice_hybrid(model)).to_dict()
            for t in t_values:
                analysis = Analysis(model, **settings)
                reports += _guarded(
                    analysis, f"slice-tstep-t{t}", lambda t=t: analysis.slice_tstep(t)
                )
        return kernels, reports
    joint = config.build_joint()
    spec = config.approximator_spec()
    p = config.selection()
    n = joint.space.ncoords
    kernels["random_scan_exact"] = spectral_summary(exact_random_scan(joint, p)).to_dict()
    kernels["random_scan_hybrid"] = spectral_summary(hybrid_random_scan(joint, p, spec)).to_dict()
    reports += Analysis(joint, p, spec, **settings).dirichlet_sandwich(trials=trials)
    reports += Analysis(joint, p, spec, **settings).gap_sandwich()
    analysis = Analysis(joint, p, spec, **settings)
    reports += _guarded(
        analysis, "variance-sandwich", lambda: analysis.variance_sandwich(trials=8)
    )
    if n == 2:
        kernels["da_exact"] = spectral_summary(da_exact(joint)).to_dict()
        kernels["da_hybrid"] = spectral_summary(da_hybrid(joint, spec)).to_dict()
        reports += Analysis(joint, spec=spec, **settings).da_gap_sandwich()
        for t in t_values:
            analysis = Analysis(joint, spec=spec, **settings)
            reports += _guarded(
                analysis, f"da-tstep-t{t}", lambda t=t: analysis.da_tstep(t, trials=trials)
            )
            analysis = Analysis(joint, spec=spec, **settings)
            reports += _guarded(
                analysis, f"da-variance-tstep-t{t}", lambda t=t: analysis.da_variance_tstep(t)
            )
    for ell in range(2, n):
        kernels[f"block_scan_l{ell}"] = spectral_summary(block_random_scan(joint, ell)).to_dict()
        for m in range(1, ell):
            reports += Analysis(joint, **settings).block_comparison(ell, m, trials=trials)
    p_alt = config.selection_alt() or [i + 1.0 for i in range(n)]
    analysis = Analysis(joint, p, spec, **settings)
    reports += _guarded(
        analysis, "selection-reweighting", lambda: analysis.selection_reweighting(p_alt)
    )
    if p is None or np.abs(np.asarray(p, float) / np.sum(p) - 1.0 / n).max() <= 1e-12:
        for t in t_values:
            analysis = Analysis(joint, p, spec, **settings)
            reports += _guarded(
                analysis, f"uniform-power-t{t}", lambda t=t: analysis.uniform_tstep_bound(t)
            )
    return kernels, reports


def witness_named(report):
    """``report`` qualified by the parameters its witness records: ``-t<t>``,
    or ``-l<ell>m<m>`` for a block-size pair.  ``run_suite`` names reports
    by their check call instead, so comparing the two checks that both
    rules agree."""
    w = report.witness if isinstance(report.witness, dict) else {}
    if "t" in w:
        return replace(report, name=f"{report.name}-t{w['t']}")
    if "ell" in w and "m" in w:
        return replace(report, name=f"{report.name}-l{w['ell']}m{w['m']}")
    return report


@pytest.mark.parametrize(
    "config",
    [demo_config(name) for name in list_demos()] + [R2X40, R3X8, LAZY_SLICE, MIXED_SLICE],
    ids=list(list_demos()) + ["r2x40", "r3x8", "lazy-slice", "mixed-slice"],
)
def test_shared_analysis_changes_no_report(config, request):
    # Exact equality: under Lazy rules the sandwiches hold with equality for
    # every test function, so a 1-ulp change can move the witness.
    config = canonicalize(config)
    got = run_suite(config, suites="all")
    kernels, reports = standalone(config)
    want = _finish(config, kernels, {}, [witness_named(r) for r in reports], 0.0)
    if request.node.callspec.id == "lazy-slice":
        # One Lazy eps at every level: the suite's hybrid chain is affine in
        # the exact one and takes its spectrum from it, while ``standalone``
        # builds and decomposes slice_hybrid(model).
        got_h, want_h = got.kernels.pop("slice_hybrid"), want.kernels.pop("slice_hybrid")
        for key in ("psd", "n_eigenvalues", "dropped_states"):
            assert got_h.pop(key) == want_h.pop(key)
        # Relative to the value; the absolute floor is for the symmetrization
        # residue, which is rounding error near 1e-17.
        assert got_h == pytest.approx(want_h, rel=1e-12, abs=1e-15)
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
# Slice models with one Lazy eps: the hybrid chain is affine in the exact one
# ---------------------------------------------------------------------------


def tied_slice_model(seed, rules):
    """Twelve points with tied densities in 1..5 and one point above them
    all, so that the top level is a singleton; ``rules(L)`` gives the L
    level rules."""
    rng = np.random.Generator(np.random.Philox(seed))
    density = np.append(rng.integers(1, 6, size=11).astype(float), 6.5)
    nlevels = np.unique(density).size
    return SliceModel(rng.permutation(density), tuple(rules(nlevels)))


AFFINE_LEVEL_RULES = {
    "exact": lambda n: [Exact()] * n,
    "lazy-0": lambda n: [Lazy(0.0)] * n,
    "lazy-0.3": lambda n: [Lazy(0.3)] * n,
    "lazy-0.95": lambda n: [Lazy(0.95)] * n,
    "lazy-1": lambda n: [Lazy(1.0)] * n,
    "exact-lazy-0": lambda n: [Exact(), Lazy(0.0)] * (n // 2) + [Exact()] * (n % 2),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("rules", list(AFFINE_LEVEL_RULES), ids=list(AFFINE_LEVEL_RULES))
def test_affine_slice_route_matches_built_kernels(rules, seed, monkeypatch):
    model = tied_slice_model(seed, AFFINE_LEVEL_RULES[rules])
    affine = Analysis(model)
    # The reference builds every level kernel: no level rule has an eps.
    with monkeypatch.context() as m:
        m.setattr(bounds, "_level_epsilons", lambda model: [None] * model.nlevels)
        built = Analysis(model)
        want_sh = built.Sh
        want_quality = built.da_quality
        want_reports = built.slice_tstep(2) + built.slice_tstep(3) + built.da_tstep(2)
    # The affine route shares the exact chain's eigenvectors.
    assert affine.Sh._eigs[5] is affine.S._eigs[5]
    assert np.abs(affine.Sh.kernel.matrix - da_hybrid(model).kernel.matrix).max() <= 1e-15
    got, want = spectral_summary(affine.Sh), spectral_summary(want_sh)
    assert got.psd == want.psd and got.dropped_states == want.dropped_states == ()
    for key in ("operator_norm", "gap", "lambda_max", "lambda_min"):
        assert getattr(got, key) == pytest.approx(getattr(want, key), rel=1e-12, abs=1e-12)
    assert got.eigenvalues == pytest.approx(want.eigenvalues, rel=1e-12, abs=1e-12)
    qual = affine.da_quality
    assert qual.per_conditional.keys() == want_quality.per_conditional.keys()
    for key, entry in qual.per_conditional.items():
        assert entry == pytest.approx(want_quality.per_conditional[key], rel=1e-12, abs=1e-12)
    for key in ("max_norm", "ratio_min", "ratio_max", "all_psd"):
        assert getattr(qual, key) == pytest.approx(
            getattr(want_quality, key), rel=1e-12, abs=1e-12
        )
    reports = affine.slice_tstep(2) + affine.slice_tstep(3) + affine.da_tstep(2)
    assert [(r.name, r.status) for r in reports] == [(r.name, r.status) for r in want_reports]
    for a, b in zip(reports, want_reports):
        if rules == "lazy-1" and a.name == "da-tstep-functional":
            # At eps = 1 the hybrid chain is the identity. The built route's
            # battery is an arbitrary mean-zero basis of it, LAPACK's with
            # the stationary direction projected out; the affine route's is
            # S's eigenbasis, where the least slack is the true minimum.
            assert a.slack <= b.slack + 1e-12
            continue
        assert (a.lhs, a.rhs) == pytest.approx((b.lhs, b.rhs), rel=1e-12, abs=1e-12), a.name


@pytest.mark.parametrize(
    "model, dropped",
    [
        # The lowest point carries mass below NULL_MASS, so the exact chain
        # drops it.
        (SliceModel(np.array([1e-16, 1.0, 2.0, 2.0]), (Lazy(0.3),) * 3), (0,)),
        # Two eps on levels of two or more points: no affine map of S.
        (SliceModel(np.array([1.0, 2.0, 2.0, 3.0, 3.0]), (Lazy(0.3), Lazy(0.6), Lazy(0.3))), ()),
    ],
    ids=["null-state", "two-eps"],
)
def test_hybrid_chain_built_when_not_affine(model, dropped, eig_counts):
    analysis = Analysis(model)
    assert spectral_summary(analysis.S).dropped_states == dropped
    assert spectral_summary(analysis.Sh).dropped_states == dropped
    assert np.array_equal(analysis.Sh.kernel.matrix, da_hybrid(model).kernel.matrix)
    assert eig_counts["eigh"] == {model.n - len(dropped): 2}


# ---------------------------------------------------------------------------
# Selection gaps of random-scan chains from their Gram matrices
# ---------------------------------------------------------------------------

P, P_ALT = [0.3, 0.7], [0.8, 0.25]
# Selection probabilities and their alternative, by number of coordinates.
SELECTION_PROBS = {1: ([1.0], [1.0]), 2: (P, P_ALT), 3: ([0.3, 0.45, 0.25], [0.8, 0.25, 0.6])}
CLOSED_FORM_SPECS = {
    "lazy": ApproximatorSpec(default=Lazy(0.35)),
    "lazy-exact": ApproximatorSpec(default=Lazy(0.2), overrides={1: Exact()}),
}
SELECTION_SPECS = {
    **CLOSED_FORM_SPECS,
    "metropolis": ApproximatorSpec(default=MetropolisRW(1)),
    # Lazy(1) is the identity: the hybrid chain never moves, its gap is 0.
    "lazy-one": ApproximatorSpec(default=Lazy(1.0)),
}


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


@pytest.mark.parametrize("sizes", [(5, 9), (9, 5), (12, 7), (8, 8, 8), (7,)])
@pytest.mark.parametrize("spec_name", sorted(SELECTION_SPECS))
def test_closed_form_selection_gaps(sizes, spec_name, eig_counts):
    joint = random_joint(sum(sizes), sizes=sizes)
    spec = SELECTION_SPECS[spec_name]
    p, p_alt = SELECTION_PROBS[len(sizes)]
    want = eigvalsh_selection_reports(joint, p, p_alt, spec)
    for counter in eig_counts.values():
        counter.clear()
    got = selection_reports(joint, p, p_alt, spec)
    assert sorted(got) == sorted(want)
    # A hybrid gap of 0 is read to rounding either way: 1.6e-15 at n = 512.
    zero_gap = 1e-14 if spec_name == "lazy-one" else 0
    for name, values in want.items():
        assert got[name] == pytest.approx(values, rel=1e-12, abs=zero_gap)
    n = joint.n
    # T and T_hybrid.
    assert eig_counts["eigh"][n] == 2
    # Only the hybrid chain of a rule that is neither Lazy nor Exact is built
    # under p_alt; a single coordinate's conditional is the whole joint, so
    # its quality entry is one more eigenvalue read at n.
    assert eig_counts["eigvalsh"][n] == (spec_name == "metropolis") + (len(sizes) == 1)


@pytest.mark.parametrize(
    "joint, p_alt",
    [
        # A size-1 coordinate: its slices are single states, so the Gram
        # order, 5 + 1, exceeds the 5 states.
        (random_joint(1, sizes=(1, 5)), [0.39, 0.61]),
        # Three zero weights: the restriction drops states, and two slices
        # carry no mass.
        (joint_from_weights((2, 2), [1.0, 0.0, 0.0, 0.0]), [0.89, 0.11]),
        # Gram order 6 + 4 + 6 against 12 states.
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
    approx_quality(joint, spec)
    conditionals = eig_counts["eigvalsh"].copy()
    eig_counts["eigvalsh"].clear()
    assert selection_reports(joint, p, p_alt, spec) == want
    # Besides the conditionals' quality entries, both chains under p_alt,
    # each on its support, and no Gram matrix.
    chains = Counter({int(np.count_nonzero(joint.weights)): 2})
    assert eig_counts["eigvalsh"] == conditionals + chains


@pytest.mark.parametrize(
    "joint",
    [
        random_joint(3, sizes=(5, 9)),
        random_joint(4, sizes=(3, 4, 2)),
        random_joint(5, sizes=(2, 3, 2, 2)),
        product_joint([[0.2, 0.3, 0.5], [0.1, 0.9]]),
        product_joint([[0.2, 0.8], [0.5, 0.5], [0.1, 0.6, 0.3]]),
        random_joint(6, sizes=(7,)),
    ],
    ids=["2-coordinates", "3-coordinates", "4-coordinates", "product", "product3", "single"],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gram_gap_is_the_chain_gap(joint, seed):
    k = joint.space.ncoords
    rng = np.random.default_rng(seed)
    sel = selection_probs(list(rng.uniform(0.1, 1.0, k)), k)
    # Exact, Lazy and Lazy(1) updates mixed across the coordinates.
    eps = rng.choice([0.0, 0.35, 1.0], k)
    rules = {i: Lazy(float(e)) if e else Exact() for i, e in enumerate(eps)}
    chain = eigvals_summary(hybrid_random_scan(joint, sel, ApproximatorSpec(overrides=rules))).gap
    gram = _scan_gap(joint, sel.p, eps, lambda i: gibbs.ConditionalTable(joint, i))
    assert gram == pytest.approx(chain, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize(
    "factors",
    [
        [[0.2, 0.3, 0.5], [0.1, 0.9]],
        [[0.2, 0.3, 0.5], [0.1, 0.6, 0.3]],
        [[0.1, 0.2, 0.3, 0.4], [0.05, 0.15, 0.2, 0.25, 0.35]],
    ],
    ids=["3x2", "3x3", "4x5"],
)
@pytest.mark.parametrize("spec_name", ["exact"] + sorted(CLOSED_FORM_SPECS))
def test_ill_conditioned_selection_gaps_come_from_the_spectrum(factors, spec_name):
    # Independent coordinates have DA gap 1 up to rounding: under uniform
    # selection a gap formula in the DA gap is ill conditioned there (its
    # error reached 5e-9), and the Gram gaps must still match the spectra
    # of the chains built under p_alt.
    joint = product_joint(factors)
    spec = CLOSED_FORM_SPECS.get(spec_name, ApproximatorSpec())
    p, p_alt = [1.0, 1.0], [1.0, 2.0]
    want = eigvalsh_selection_reports(joint, p, p_alt, spec)
    got = selection_reports(joint, p, p_alt, spec)
    assert sorted(got) == sorted(want)
    for name, values in want.items():
        assert got[name] == pytest.approx(values, rel=1e-12, abs=0)


def test_wrong_gram_gap_is_caught(monkeypatch):
    joint = random_joint(14, sizes=(5, 9))
    gram_gap = bounds._scan_gap
    monkeypatch.setattr(bounds, "_scan_gap", lambda *args: gram_gap(*args) + 1e-9)
    with pytest.raises(CrossCheckFailure, match="Gram"):
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


# ---------------------------------------------------------------------------
# Run settings: tolerance, seed and fingerprint belong to the Analysis
# ---------------------------------------------------------------------------

LAZY = ApproximatorSpec(default=Lazy(0.3))
JOINT2 = joint_from_weights((2, 3), [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
JOINT3 = random_joint(7, sizes=(2, 2, 3))
SLICE = SliceModel(np.array([3.0, 1.0, 2.0, 3.0]), (Lazy(0.35),) * 3)
SOURCES = {
    "two-coordinate-lazy": (JOINT2, LAZY),
    "two-coordinate-exact": (JOINT2, None),
    "three-coordinate-lazy": (JOINT3, LAZY),
    "three-coordinate-exact": (JOINT3, None),
    "slice": (SLICE, None),
}
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
JOINT_ONLY = {
    "dirichlet_sandwich": (),
    "gap_sandwich": (),
    "variance_sandwich": (),
    "block_comparison": (2, 1),
    "selection_reweighting": ([1.0],),
    "uniform_tstep_bound": (),
    # Members that are not checks; a property raises on access.
    "T": (),
    "Th": (),
    "quality": (),
    "uniform_selection": (),
    "block": (2,),
}


def every_check(analysis):
    """The reports of every check family that applies to the model, and one
    hypothesis_unmet report of ``_guarded``."""

    def unmet():
        raise PreconditionUnmet("a hypothesis fails")

    a = analysis
    reports = _guarded(a, "guarded", unmet)
    if a.is_slice:
        return reports + a.da_gap_sandwich() + a.da_tstep(2, trials=4) + a.slice_tstep(2)
    n = a.source.space.ncoords
    reports += a.dirichlet_sandwich(trials=4) + a.gap_sandwich() + a.variance_sandwich(trials=4)
    reports += a.selection_reweighting([i + 1.0 for i in range(n)]) + a.uniform_tstep_bound(2)
    if n == 2 and a.spec is not None:
        reports += a.da_gap_sandwich() + a.da_tstep(2, trials=4)
        reports += a.da_variance_tstep(2, trials=4)
    if n >= 3:
        reports += a.block_comparison(2, 1, trials=4)
    return reports


@pytest.mark.parametrize("source, spec", list(SOURCES.values()), ids=list(SOURCES))
def test_analysis_stamps_its_settings_on_every_report(source, spec):
    reports = every_check(Analysis(source, spec=spec, tol=1e-3, fingerprint="x"))
    assert any(r.status == "hypothesis_unmet" for r in reports)
    for r in reports:
        assert r.fingerprint == "x"
        assert r.tol == (1e-12 if r.name == "slice-power-bound-order" else 1e-3), r.name


@pytest.mark.parametrize("source, spec", list(SOURCES.values()), ids=list(SOURCES))
def test_default_fingerprint_is_the_model_and_spec(source, spec):
    want = model_fingerprint(source, spec)
    assert {r.fingerprint for r in every_check(Analysis(source, spec=spec))} == {want}


@pytest.mark.parametrize("source, spec", list(SOURCES.values()), ids=list(SOURCES))
def test_seed_draws_every_battery(source, spec, monkeypatch):
    seeds = []

    def recording(rev, trials, seed):
        seeds.append(seed)
        return function_battery(rev, trials=trials, seed=seed)

    monkeypatch.setattr(bounds, "function_battery", recording)
    every_check(Analysis(source, spec=spec, seed=17))
    assert seeds and set(seeds) == {17}


def test_checks_take_only_mathematical_arguments():
    public = {
        name
        for name, member in vars(Analysis).items()
        if inspect.isfunction(member) and not name.startswith("_")
    }
    assert set(CHECKS) <= public
    for name in public:
        params = inspect.signature(getattr(Analysis, name)).parameters
        assert not {"tol", "seed", "fingerprint"} & set(params), name


@pytest.mark.parametrize("check", list(JOINT_ONLY))
def test_joint_only_check_on_a_slice_model_is_named(check):
    analysis = Analysis(SLICE)
    with pytest.raises(DimensionMismatch, match=check):
        _guarded(analysis, check, lambda: getattr(analysis, check)(*JOINT_ONLY[check]))


def test_slice_model_takes_no_selection_probabilities():
    with pytest.raises(DimensionMismatch):
        Analysis(SLICE, p=[1.0])


def test_slice_model_takes_no_spec():
    # Its level kernels are the approximators: a spec would change the
    # fingerprint and nothing else.
    with pytest.raises(DimensionMismatch, match="spec"):
        Analysis(SLICE, spec=LAZY)


@pytest.mark.parametrize("spec", [LAZY, None], ids=["lazy", "exact"])
def test_slice_only_check_on_a_joint_is_named(spec):
    analysis = Analysis(JOINT2, spec=spec)
    with pytest.raises(DimensionMismatch, match="slice_tstep"):
        _guarded(analysis, "slice-tstep", lambda: analysis.slice_tstep(2))
