"""Generated configs: every schema-valid config reaches one canonical form
and either runs or fails with a named error.

The strategy draws small configs of every model kind and every rule, with
zero weights, weights and densities of 1e308 whose sums overflow, repeated
slice densities, selection vectors with zeros, suite subsets, negative
seeds, a t of 1025, a random-walk radius of 10^30 and optional keys left
out.  A ``CrossCheckFailure`` counts as a failure: it means two routes of
the program disagree about one number.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridgibbs.config import SUITES, canonicalize, parse_config_text, serialize
from hybridgibbs.errors import CrossCheckFailure, HybridGibbsError
from hybridgibbs.suite import run_suite

MAX_COORDS, MAX_VALUES, MAX_POINTS = 3, 3, 5

masses = st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0, 2.5, 1e308])
positive = st.sampled_from([0.1, 0.5, 1.0, 2.5, 4.0, 1e308])
sizes = st.lists(st.integers(1, MAX_VALUES), min_size=1, max_size=MAX_COORDS)
# Negative seeds are schema errors.
seeds = st.integers(0, 99) | st.just(-1)


def rules(explicit=True):
    """Rule objects of every kind, with optional parameters left out at
    times; an explicit rule has no tables or one identity table."""
    kinds = [
        st.just({"rule": "exact"}),
        st.fixed_dictionaries(
            {"rule": st.just("lazy")}, optional={"epsilon": st.sampled_from([0.0, 0.3, 1.0])}
        ),
        st.fixed_dictionaries(
            {"rule": st.just("metropolis_rw")},
            optional={"radius": st.integers(1, 2) | st.just(10**30)},
        ),
        st.fixed_dictionaries(
            {"rule": st.just("metropolis_indep")},
            optional={
                "proposal": st.just("uniform") | st.lists(masses, min_size=1, max_size=MAX_VALUES)
            },
        ),
    ]
    if explicit:
        identity = {"0;0": [[1.0, 0.0], [0.0, 1.0]]}
        kinds.append(
            st.fixed_dictionaries(
                {"rule": st.just("explicit")},
                optional={"tables": st.sampled_from([{}, identity])},
            )
        )
    return st.one_of(kinds)


@st.composite
def joint_models(draw):
    kind = draw(st.sampled_from(["explicit", "product", "random"]))
    if kind == "product":
        factors = draw(
            st.lists(
                st.lists(masses, min_size=1, max_size=MAX_VALUES).filter(any),
                min_size=1,
                max_size=MAX_COORDS,
            )
        )
        return {"kind": kind, "factors": factors}, len(factors)
    shape = draw(sizes)
    if kind == "random":
        return {"kind": kind, "sizes": shape, "seed": draw(seeds)}, len(shape)
    n = 1
    for d in shape:
        n *= d
    weights = draw(st.lists(masses, min_size=n, max_size=n).filter(any))
    return {"kind": kind, "sizes": shape, "weights": weights}, len(shape)


@st.composite
def slice_models(draw):
    density = draw(st.lists(positive, min_size=1, max_size=MAX_POINTS))
    model = {"kind": "slice", "density": density}
    if draw(st.booleans()):
        nlevels = len(set(density))
        model["level_kernels"] = draw(
            st.lists(rules(explicit=False), min_size=nlevels, max_size=nlevels)
        )
    return model


def selections(ncoords):
    return st.none() | st.lists(masses, min_size=ncoords, max_size=ncoords).filter(any)


@st.composite
def configs(draw):
    optional = {
        "suite": st.just("all")
        | st.lists(st.sampled_from(SUITES), unique=True, max_size=len(SUITES)),
        # n^(t-1) overflows a float at t = 1025 on two coordinates.
        "t": st.lists(st.integers(1, 4) | st.just(1025), min_size=1, max_size=3),
        "tol": st.sampled_from([1e-9, 1e-6]),
        "seed": seeds,
        "trials": st.integers(1, 4),
    }
    if draw(st.booleans()):
        return draw(st.fixed_dictionaries({"model": slice_models()}, optional=optional))
    model, ncoords = draw(joint_models())
    coords = st.sampled_from([str(i) for i in range(ncoords)])
    optional.update(
        selection_probs=selections(ncoords),
        selection_probs_alt=selections(ncoords),
        approximator=st.fixed_dictionaries(
            {},
            optional={
                "default": rules(),
                "overrides": st.dictionaries(coords, rules(), max_size=ncoords),
            },
        ),
    )
    return draw(st.fixed_dictionaries({"model": st.just(model)}, optional=optional))


# Independent coordinates under uniform selection: a gap under
# selection_probs_alt read from the DA gap by a two-coordinate closed form
# turned the DA gap's rounding into a CrossCheckFailure.
@example({"model": {"kind": "product", "factors": [[0.2, 0.3, 0.5], [0.1, 0.9]]}})
# A normalized selection_probs_alt with a subnormal entry overflows the
# selection check's probability ratio to inf.
@example(
    {
        "model": {"kind": "random", "sizes": [2, 2], "seed": 1},
        "selection_probs_alt": [1e308, 0.1],
        "suite": ["selection"],
    }
)
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(configs())
def test_generated_config_is_canonical_and_runs_or_names_its_error(data):
    try:
        config = canonicalize(data)
    except HybridGibbsError as exc:
        assert not isinstance(exc, CrossCheckFailure), exc
        return
    again = parse_config_text(serialize(config))
    assert again.data == config.data
    assert again.fingerprint == config.fingerprint
    try:
        report = run_suite(config)
    except HybridGibbsError as exc:
        assert not isinstance(exc, CrossCheckFailure), exc
        return
    assert report.fingerprint == config.fingerprint
    assert report.exit_status() in (0, 1)
