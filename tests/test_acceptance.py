"""Acceptance criteria.

One test per criterion; each prints a single PASS line with the measured
quantities when its assertions hold.  Randomized sweeps are seeded and sized
as stated, so this module is deterministic end to end.
"""

import json
import time

import numpy as np
import pytest

from hybridgibbs import (
    Analysis,
    ApproximatorSpec,
    Lazy,
    approx_quality,
    block_random_scan,
    check_reversibility,
    cross_validate_variance,
    dominating_norm_profile,
    exact_random_scan,
    hybrid_random_scan,
    mean_power_bound,
    product_joint,
    rms_power_bound,
    slice_exact,
    spectral_jensen_check,
    spectral_summary,
)
from hybridgibbs.config import canonicalize
from hybridgibbs.demos import demo_config
from hybridgibbs.randomgen import (
    random_joint,
    random_mixed_spec,
    random_probvec,
    random_reversible_kernel,
    rng_from,
)


def note(num, message):
    print(f"ACCEPTANCE {num:2d}: PASS  {message}")


def test_criterion_01_exact_spectra():
    t0 = time.perf_counter()
    two_coin = canonicalize(demo_config("two-coin")).build_joint()
    norm_t = spectral_summary(exact_random_scan(two_coin)).operator_norm
    assert abs(norm_t - 0.5) <= 1e-10
    t_two = time.perf_counter() - t0

    t0 = time.perf_counter()
    three_coin = canonicalize(demo_config("three-coin-block")).build_joint()
    norm_1 = spectral_summary(block_random_scan(three_coin, 1)).operator_norm
    norm_2 = spectral_summary(block_random_scan(three_coin, 2)).operator_norm
    assert abs(norm_1 - 2 / 3) <= 1e-10
    assert abs(norm_2 - 1 / 3) <= 1e-10
    t_three = time.perf_counter() - t0

    t0 = time.perf_counter()
    slice_model = canonicalize(demo_config("two-point-slice")).build_slice_model()
    norm_s = spectral_summary(slice_exact(slice_model)).operator_norm
    assert abs(norm_s - 0.25) <= 1e-10
    t_slice = time.perf_counter() - t0

    assert t_two < 1.0 and t_three < 1.0 and t_slice < 1.0
    note(
        1,
        f"|T|={norm_t:.12f}, |T_1|={norm_1:.12f}, |T_2|={norm_2:.12f}, "
        f"|S|={norm_s:.12f} in {t_two + t_three + t_slice:.2f}s",
    )


def test_criterion_02_gap_sandwich_200_models():
    t0 = time.perf_counter()
    worst = np.inf
    tightened = 0
    for seed in range(200):
        joint = random_joint(seed, max_coords=3, max_size=4)
        spec = random_mixed_spec(10_000 + seed, joint, lazy_prob=(seed % 3) / 2.0)
        qual = approx_quality(joint, spec)
        gap_exact = spectral_summary(exact_random_scan(joint)).gap
        gap_hybrid = spectral_summary(hybrid_random_scan(joint, spec=spec)).gap
        C = qual.max_norm
        assert gap_hybrid - (1.0 - C) * gap_exact >= -1e-9
        assert (1.0 + C) * gap_exact - gap_hybrid >= -1e-9
        if qual.all_psd:
            tightened += 1
            assert gap_exact - gap_hybrid >= -1e-9
        worst = min(
            worst,
            gap_hybrid - (1.0 - C) * gap_exact,
            (1.0 + C) * gap_exact - gap_hybrid,
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    assert tightened >= 30
    note(
        2,
        f"200/200 models sandwiched (worst slack {worst:.3e}), psd tightening "
        f"checked on {tightened} models, {elapsed:.1f}s",
    )


def test_criterion_03_lazy_tightness():
    worst = 0.0
    for k in range(20):
        joint = random_joint(3_000 + k, max_coords=3, max_size=4)
        gap_exact = spectral_summary(exact_random_scan(joint)).gap
        for eps in (0.1, 0.5, 0.9):
            spec = ApproximatorSpec(default=Lazy(eps))
            gap_hybrid = spectral_summary(hybrid_random_scan(joint, spec=spec)).gap
            dev = abs(gap_hybrid - (1.0 - eps) * gap_exact)
            worst = max(worst, dev)
            assert dev <= 1e-10
    note(3, f"lazy lower bound attained on 20 models x 3 mixing weights (worst dev {worst:.2e})")


def test_criterion_04_dirichlet_sandwich_100_models():
    worst = np.inf
    for seed in range(100):
        joint = random_joint(4_000 + seed, max_coords=3, max_size=4)
        spec = random_mixed_spec(4_500 + seed, joint)
        reps = Analysis(joint, None, spec, seed=seed).dirichlet_sandwich(trials=64)
        worst = min(worst, min(r.slack for r in reps))
        assert all(r.slack >= -1e-9 for r in reps)
    note(4, f"Dirichlet sandwich over eigenbasis + 64 random f on 100 models (worst slack {worst:.3e})")


def test_criterion_05_da_tstep_100_models():
    worst = np.inf
    for seed in range(100):
        rng = rng_from(5_000 + seed)
        sizes = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        joint = random_joint(rng, sizes=sizes)
        spec = random_mixed_spec(rng, joint, coords=(0,))
        profile = Analysis(joint, spec=spec).inner_profile
        for t in (2, 4, 6):
            reps = Analysis(joint, spec=spec, seed=seed).da_tstep(t=t, trials=16)
            worst = min(worst, min(r.slack for r in reps))
            assert all(r.slack >= -1e-9 for r in reps)
            a_t = mean_power_bound(joint, profile, t)
            b_t = rms_power_bound(joint, profile, t)
            assert a_t <= b_t + 1e-12
    note(5, f"t-step DA chain on 100 two-block models, t in 2,4,6 (worst slack {worst:.3e})")


def test_criterion_06_block_chain():
    # Equality case first: three fair coins, c1 (1 - |T_2|) = 1 - |T_1|.
    coins = product_joint([[0.5, 0.5]] * 3)
    reps = Analysis(coins).block_comparison(2, 1, trials=8)
    gap_lower = next(r for r in reps if r.name == "block-gap-lower")
    assert abs(gap_lower.slack) <= 1e-10

    worst = np.inf
    for seed in range(100):
        rng = rng_from(6_000 + seed)
        sizes = tuple(int(rng.integers(2, 4)) for _ in range(4))
        joint = random_joint(rng, sizes=sizes)
        for ell, m in ((2, 1), (3, 1), (3, 2)):
            reps = Analysis(joint, seed=seed).block_comparison(ell, m, trials=16)
            certified = [r for r in reps if r.status != "hypothesis_unmet"]
            worst = min(worst, min(r.slack for r in certified))
            assert all(r.slack >= -1e-9 for r in certified)
    note(6, f"block comparison on 100 four-coordinate models x 3 pairs (worst slack {worst:.3e})")


def test_criterion_07_slice_bound():
    model = canonicalize(demo_config("two-point-slice")).build_slice_model()
    norm_s = spectral_summary(slice_exact(model)).operator_norm
    assert abs(norm_s - 0.25) <= 1e-10
    for t in (2, 4, 8, 16):
        reps = Analysis(model).slice_tstep(t)
        assert all(r.status == "pass" for r in reps)
    # Power-average decay for a dominating profile with max value 0.9 <= 0.93.
    profile = dominating_norm_profile(model, [0.5, 0.9])
    values = [mean_power_bound(model, profile, t) for t in range(1, 65)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-2
    note(
        7,
        f"slice bound holds for t in 2,4,8,16; power average falls to "
        f"{values[-1]:.2e} by t=64 (max profile value 0.9)",
    )


def test_criterion_08_uniform_power_bound():
    worst = np.inf
    dominated = 0
    for seed in range(100):
        joint = random_joint(8_000 + seed, max_coords=3, max_size=4)
        spec = random_mixed_spec(8_500 + seed, joint)
        for t in range(1, 7):
            reps = Analysis(joint, None, spec).uniform_tstep_bound(t=t)
            lower = next(r for r in reps if r.name == "uniform-power-lower")
            assert lower.slack >= -1e-9
            worst = min(worst, lower.slack)
            dom = next(r for r in reps if r.name == "uniform-power-dominated")
            if dom.status != "hypothesis_unmet":
                assert dom.slack >= -1e-12
                dominated += 1
    note(
        8,
        f"uniform-selection power bound on 100 models x t=1..6 (worst slack "
        f"{worst:.3e}); one-step sandwich dominates in all {dominated} nontrivial cases",
    )


def test_criterion_09_cross_validated_variance():
    two_state = check_reversibility([[0.7, 0.3], [0.3, 0.7]], [0.5, 0.5])
    t0 = time.perf_counter()
    rep = cross_validate_variance(two_state, [1.0, -1.0], 100_000, seed=2026, batch=1000)
    elapsed = time.perf_counter() - t0
    assert rep.status == "pass"
    assert rep.witness["exact"] == pytest.approx(7 / 3, rel=1e-12)
    assert elapsed < 2.0

    passed = 0
    for seed in range(40):
        joint = random_joint(9_000 + seed, max_coords=3, max_size=4)
        T = exact_random_scan(joint)
        f = rng_from(9_500 + seed).standard_normal(T.n)
        r = cross_validate_variance(T, f, 40_000, seed=seed, batch=200)
        passed += r.status == "pass"
    assert passed >= 38
    note(
        9,
        f"benchmark |est-7/3|={rep.lhs:.3e} <= 3SE={rep.rhs:.3e} in {elapsed:.2f}s; "
        f"{passed}/40 random pairs within 3 SE",
    )


def test_criterion_10_spectral_jensen():
    for seed in range(100):
        rng = rng_from(10_000 + seed)
        n = int(rng.integers(2, 7))
        w = random_probvec(rng, n)
        K = random_reversible_kernel(rng, w)
        rev = check_reversibility(K, w)
        f = rng.standard_normal(n)
        for t in (2, 4, 6, 8):
            assert spectral_jensen_check(rev, f, t).status == "pass"
        lazy = check_reversibility(0.5 * np.eye(n) + 0.5 * K, w)
        for t in (3, 5, 7):
            assert spectral_jensen_check(lazy, f, t).status == "pass"
    note(10, "spectral Jensen holds for even t <= 8 on 100 kernels and odd t on psd kernels")


def test_criterion_11_determinism(tmp_path):
    from hybridgibbs.cli import main

    cfg_path = tmp_path / "model.json"
    cfg_path.write_text(
        json.dumps(
            {
                "model": {"kind": "explicit", "sizes": [2, 2], "weights": [0.1, 0.2, 0.3, 0.4]},
                "approximator": {"default": {"rule": "lazy", "epsilon": 0.3}, "overrides": {}},
            }
        )
    )
    payloads = []
    for k in range(2):
        out = tmp_path / f"out{k}.json"
        assert main(["check", str(cfg_path), "--suite", "all", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        data.pop("timing")
        payloads.append(json.dumps(data, sort_keys=True).encode())
    assert payloads[0] == payloads[1]
    note(11, f"repeated check runs byte-identical ({len(payloads[0])} bytes, timing excluded)")
