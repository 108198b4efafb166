import contextlib
import gc
import math
import re
import weakref
from dataclasses import astuple
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    cvar_from_stable_profile,
    dual_from_stable_profile,
    epsilon_star,
    first_tied_index,
    highs_knapsack_tolerance,
    knapsack_from_stable_profile,
    knapsack_lp_highs,
    knapsack_lp_vertices,
    random_knapsack_instance,
    stable_distance_profile,
)
from rampdro import dro
from rampdro.dataset import Dataset, flip_labels, generate_separable
from rampdro.dro import (
    check_chance_cvar,
    cvar_distance,
    cvar_from_distances,
    cvar_radius,
    worst_case_dual_from_distances,
    worst_case_knapsack_from_distances,
    worst_case_prob_dual,
    worst_case_prob_knapsack,
)
from rampdro.geometry import Hyperplane, distances
from rampdro.losses import LossKind, LossSpec
from rampdro.objective import ObjectiveSpec, RegKind, evaluate


def dataset_with_distances(dists):
    """1-D dataset whose distances to (w=1, b=0) are exactly `dists`."""
    d = np.asarray(dists, dtype=float)
    pts = d[:, None]
    n = d.size
    return Dataset(pts, np.ones(n), np.full(n, 1.0 / n)), Hyperplane(np.array([1.0]), 0.0)


def test_dual_two_point_example():
    res = worst_case_dual_from_distances([0.0, 1.0], [0.5, 0.5], 0.25)
    assert res.value == pytest.approx(0.75, abs=1e-15)
    assert res.t_star == 1.0


def test_dual_epsilon_zero_returns_nominal_mass():
    res = worst_case_dual_from_distances([0.0, 0.5, 2.0], [0.2, 0.3, 0.5], 0.0)
    assert res.value == pytest.approx(0.2, abs=1e-15)
    assert res.t_star == math.inf


def test_dual_all_misclassified():
    for eps in (0.0, 0.1, 5.0):
        res = worst_case_dual_from_distances([0.0, 0.0], [0.4, 0.6], eps)
        assert res.value == pytest.approx(1.0, abs=1e-15)


def test_dual_budget_exceeds_everything():
    # eps >= sum d_i p_i moves all mass; t* encodes the t -> 0+ limit
    res = worst_case_dual_from_distances([1.0, 2.0], [0.5, 0.5], 10.0)
    assert res.value == pytest.approx(1.0, abs=1e-15)
    assert res.t_star == 0.0


def test_dual_rejects_negative_epsilon():
    with pytest.raises(ValueError):
        worst_case_dual_from_distances([1.0], [1.0], -0.1)


def test_oracles_reject_nan_epsilon():
    # nan passes an `epsilon < 0` guard; the knapsack then returned 1.0
    with pytest.raises(ValueError):
        worst_case_dual_from_distances([0.0, 1.0], [0.5, 0.5], math.nan)
    with pytest.raises(ValueError):
        worst_case_knapsack_from_distances([0.0, 1.0], [0.5, 0.5], math.nan)


def test_knapsack_two_point_example():
    v = worst_case_knapsack_from_distances([0.0, 1.0], [0.5, 0.5], 0.25)
    assert v == pytest.approx(0.75, abs=1e-15)


def test_knapsack_small_radius_formula():
    # eps below min_{i not in I} d_i p_i: value = misclassified mass + eps/eta
    d = np.array([0.0, 2.0, 3.0, 5.0])
    p = np.array([0.1, 0.3, 0.4, 0.2])
    eta = 2.0
    eps = 0.9 * min(d[1:] * p[1:])
    v = worst_case_knapsack_from_distances(d, p, eps)
    assert v == pytest.approx(0.1 + eps / eta, abs=1e-15)


def test_knapsack_budget_saturates():
    v = worst_case_knapsack_from_distances([1.0, 2.0], [0.5, 0.5], 1.5)
    assert v == pytest.approx(1.0, abs=1e-15)


def test_infinite_distances_untouchable():
    d = [np.inf, 0.0, 1.0]
    p = [0.25, 0.25, 0.5]
    assert worst_case_knapsack_from_distances(d, p, 100.0) == pytest.approx(0.75)
    res = worst_case_dual_from_distances(d, p, 100.0)
    assert res.value == pytest.approx(0.75)


def test_dual_knapsack_lp_agree_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(120):
        d, p = random_knapsack_instance(rng)
        eps = float(rng.uniform(0.0, 1.2) * max(1e-6, np.sum(d * p)))
        dual = worst_case_dual_from_distances(d, p, eps).value
        knap = worst_case_knapsack_from_distances(d, p, eps)
        lp = knapsack_lp_vertices(d, p, eps)
        assert abs(dual - knap) <= 1e-10
        assert abs(dual - lp) <= 1e-10


def test_subnormal_distance_is_not_nan():
    # 1/d overflows for subnormal d, and inf * 0 must not make the dual nan
    d, p = [0.0, 5e-324, 1.0], [0.25, 0.25, 0.5]
    res = worst_case_dual_from_distances(d, p, 1e-3)
    assert res.value == pytest.approx(0.501, abs=1e-15)
    assert worst_case_knapsack_from_distances(d, p, 1e-3) == pytest.approx(0.501, abs=1e-15)
    # p * d rounds to 0 here, yet nothing moves at epsilon = 0
    assert worst_case_knapsack_from_distances(d, p, 0.0) == 0.25


def test_lp_reference_subnormal_distance_at_zero_budget():
    # p * d rounds to 0 here; the reference must not move the item for free
    d, p = [0.0, 5e-324], [0.5, 0.5]
    assert knapsack_lp_vertices(d, p, 0.0) == 0.5
    assert worst_case_dual_from_distances(d, p, 0.0).value == 0.5
    assert worst_case_knapsack_from_distances(d, p, 0.0) == 0.5


def test_oracles_never_exceed_one():
    # the twenty weights 1/20 sum to 1.0000000000000002; a budget that moves
    # every point must still give probability 1
    d, p = np.linspace(0.1, 2.0, 20), np.full(20, 1 / 20)
    assert worst_case_dual_from_distances(d, p, 100.0).value == 1.0
    assert worst_case_knapsack_from_distances(d, p, 100.0) == 1.0


# ties among positive distances and infinite distances, which
# random_knapsack_instance never draws, next to arbitrary distances,
# subnormal ones included.
_DISTANCE = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, math.inf]),
    st.floats(0.0, 5.0),
)


# weights as drawn; all equal, which sorts each band by value alone; or all
# equal but one, a ulp above or below, which must take the stable argsort
_WEIGHT_KINDS = ["drawn", "equal", "one ulp off"]


def _weights_of_kind(p, kind, off, up):
    """p itself, or n copies of p's mean, with the one at index ``off`` a ulp up or down for "one ulp off"."""
    if kind == "drawn" or not p.size:
        return p
    q = np.full(p.size, p.mean())
    if kind == "one ulp off" and p.size > 1:
        q[off] = np.nextafter(q[off], math.inf if up else 0.0)
    return q


@st.composite
def _weight_kind(draw, n):
    """(kind, index, up) for ``_weights_of_kind``; the index is the first, the last or any other."""
    off = draw(st.sampled_from([0, n - 1, draw(st.integers(0, max(0, n - 1)))]))
    return draw(st.sampled_from(_WEIGHT_KINDS)), off, draw(st.booleans())


def _all_equal(p):
    return p.size > 0 and p[0] > 0.0 and bool(np.all(p == p[0]))


@st.composite
def _oracle_instance(draw):
    n = draw(st.integers(1, 12))
    d = np.array(draw(st.lists(_DISTANCE, min_size=n, max_size=n)))
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    return d, _weights_of_kind(w / w.sum(), *draw(_weight_kind(n)))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    _oracle_instance(),
    st.lists(st.floats(0.0, 1.2), min_size=1, max_size=5),
    st.floats(0.05, 0.95),
)
def test_oracle_invariants_property(instance, budget_fractions, rho):
    d, p = instance
    finite = np.isfinite(d)
    full_cost = float(np.sum(p[finite] * d[finite]))
    epsilons = sorted(f * max(full_cost, 1e-6) for f in budget_fractions)
    duals, knaps = [], []
    for eps in epsilons:
        dual = worst_case_dual_from_distances(d, p, eps).value
        knap = worst_case_knapsack_from_distances(d, p, eps)
        assert abs(dual - knap) <= 1e-10
        assert abs(dual - knapsack_lp_vertices(d, p, eps)) <= 1e-10
        assert dual <= 1.0 and knap <= 1.0
        duals.append(dual)
        knaps.append(knap)
        if eps > 0.0 and abs(dual - rho) > 1e-9:
            cvar_holds = rho * cvar_from_distances(d, p, rho) >= eps
            assert (dual <= rho) == cvar_holds
    # inverse route to the CVaR theorem: the radius at which the worst case
    # reaches rho is rho * CVaR_rho
    ref = stable_distance_profile(d, p)
    if ref["cum_p"][ref["zeros"]] < rho <= ref["cum_p"][-1]:
        assert abs(epsilon_star(d, p, rho) - rho * cvar_from_distances(d, p, rho)) <= 1e-10
    # a dozen rounded terms of size <= 1 stay far inside 1e-12
    assert np.all(np.diff(duals) >= -1e-12)
    assert np.all(np.diff(knaps) >= -1e-12)


# many exact zeros (both signs), repeated positive values, inf, subnormals
_PROFILE_DISTANCE = st.one_of(
    st.just(0.0),
    st.sampled_from([-0.0, 0.5, 1.0, 2.0, math.inf, 5e-324, 1e-310]),
    st.floats(0.0, 5.0),
)
_PROFILE_POOL = np.array([0.5, 1.0, 2.0, math.inf, 5e-324, 1e-310])


@st.composite
def _profile_input(draw):
    if draw(st.booleans()):
        n = draw(st.integers(0, 200))
        d = draw(arrays(np.float64, n, elements=_PROFILE_DISTANCE))
        p = draw(arrays(np.float64, n, elements=st.floats(0.05, 1.0)))
        perm = np.array(draw(st.permutations(range(n))), dtype=np.intp)
        return d, _weights_of_kind(p, *draw(_weight_kind(n))), perm
    # long inputs, so that the sorts run past their short-input paths:
    # a run of zeros (both signs) of half or more, the pool's ties, inf and
    # subnormals, and arbitrary positive distances
    n = draw(st.integers(201, 2000))
    zero_share = draw(st.sampled_from([0.5, 0.7, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = np.where(rng.random(n) < 0.5, rng.choice(_PROFILE_POOL, n), rng.uniform(0.0, 5.0, n))
    zero = rng.random(n) < zero_share
    d[zero] = rng.choice([0.0, -0.0], int(zero.sum()))
    return d, _weights_of_kind(rng.uniform(0.05, 1.0, n), *draw(_weight_kind(n))), rng.permutation(n)


def _assert_is_stable_prefix(profile, ref):
    # the profile's arrays are the stable reference's from its index zeros
    # on, bit for bit, and lower is shifted by zeros; only cum_pd[0] is
    # compared by value, since the reference's zero run may sum its costs
    # to -0.0 where the profile stores 0.0
    z, k = ref["zeros"], profile.size
    lower = first_tied_index(k, profile._ties)
    assert lower.dtype == ref["lower"].dtype
    for name in ("d", "cum_p"):
        got = getattr(profile, name)
        assert np.array_equal(got.view(np.uint64), ref[name][z:z + got.size].view(np.uint64)), name
    assert profile.cum_p.size == k + 1 and profile.cum_pd.size == k + 1
    assert profile.cum_pd[0] == ref["cum_pd"][z] == 0.0
    assert np.array_equal(profile.cum_pd[1:].view(np.uint64), ref["cum_pd"][z + 1:z + k + 1].view(np.uint64))
    assert np.array_equal(lower, ref["lower"][:k] - z)


def _assert_profile_is_stable_sort(d, p):
    profile = dro._profile(d, p)
    assert (profile._weight is not None) == _all_equal(p)  # the value sort only for equal weights
    ref = stable_distance_profile(d, p)
    # a prefix grown to a mid-range cost is the full profile's first entries
    profile.cover(0.5 * float(ref["cum_pd"][-1]))
    _assert_is_stable_prefix(profile, ref)
    profile.cover(math.inf)  # grown whole
    assert profile.complete and profile.size == ref["d"].size - ref["zeros"]
    _assert_is_stable_prefix(profile, ref)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_profile_input())
def test_profile_matches_stable_sort_bitwise(instance):
    # the profile orders ties in input order, as a stable sort does, on
    # both sort paths
    d, p, perm = instance
    _assert_profile_is_stable_sort(d, p)
    _assert_profile_is_stable_sort(d[perm], p[perm])


def test_misclassified_mass_is_the_stable_run_sum_and_no_stored_entry():
    # zeros of both signs, some of zero weight, make up 60 % of the points;
    # their mass is the base of cum_p, summed as the stable order's leading
    # run sums it, which a pairwise np.sum does not reproduce here
    rng = np.random.default_rng(25)
    n = 5000
    d = rng.uniform(0.0, 3.0, n)
    zero = rng.random(n) < 0.6
    d[zero] = rng.choice([0.0, -0.0], int(zero.sum()))
    d[rng.random(n) < 0.05] = math.inf
    p = rng.uniform(0.0, 1.0, n)
    p[zero & (rng.random(n) < 0.1)] = 0.0
    p /= p.sum()
    ref = stable_distance_profile(d, p)
    z = ref["zeros"]
    at = np.flatnonzero(d == 0.0)
    assert z == at.size and np.signbit(d[at]).any() and not np.signbit(d[at]).all()
    assert (p[at] == 0.0).any()
    assert np.sum(p[at]) != np.cumsum(p[at])[-1] == ref["cum_p"][z]
    total_cost = float(ref["cum_pd"][-1])
    for eps in (0.0, 1e-6 * total_cost, 0.01 * total_cost, 0.3 * total_cost, 2.0 * total_cost):
        assert _same_answer(astuple(dro._build(d, p).dual(eps)), _stable_answer("dual", ref, eps, 0.5))
        assert _same_answer(dro._build(d, p).knapsack(eps), _stable_answer("knapsack", ref, eps, 0.5))
    base = float(ref["cum_p"][z])
    for rho in (float(np.nextafter(base, 1.0)), 0.5 * (base + 1.0), 0.9):
        assert _same_answer(dro._build(d, p).cvar(rho), _stable_answer("cvar", ref, 0.1, rho))
    profile = dro._build(d, p)
    assert profile.cum_p[0].view(np.uint64) == ref["cum_p"][z].view(np.uint64)
    assert profile.size == 0 and profile.cum_pd[0] == 0.0
    profile.cover(math.inf)
    assert not (profile.d == 0.0).any()
    assert profile.size == np.count_nonzero((d > 0.0) & (d < math.inf))
    _assert_is_stable_prefix(profile, ref)


def _cumsum_run(c, z):
    """The stable order's sum of a run of z zeros of weight c: numpy adds left to right."""
    with np.errstate(over="ignore"):
        return float(np.cumsum(np.full(z, c))[-1]) if z else 0.0


def _tie(e, q):
    """c = (q + 1/2) ulp in the binade [2^(e-1), 2^e), a run that crosses that binade, and e."""
    c = math.ldexp(2 * q + 1, e - 54)
    return c, math.ceil(math.ldexp(1.0, e) / c) + 3, e


_RUN_CASES = [
    *((0.1, z, None) for z in range(5)),
    (1e-5, 20_000, None),  # an n = 10^5 workload's weight and misclassified count
    (1.2103269940439809e-06, 34_429, -11),  # a natural tie: c/u = 22326592304631.5
    _tie(0, 2**40),  # constructed ties, with Q even and odd
    _tie(0, 2**40 + 1),
    _tie(-20, 3 * 2**38 + 1),
    (3 * 5e-324, 1000, None),  # subnormal
    (1e308, 2, None),  # overflows to inf
    (1.0 / 999_983, 999_983, None),  # from 1e-6 to 1, across 20 binades
]


def _assert_run_sum_is_cumsum(c, z):
    got, want = dro._run_sum(c, z), _cumsum_run(c, z)
    assert _same_answer(got, want), (c, z, got, want)


@pytest.mark.parametrize("c, z, e", _RUN_CASES)
def test_run_sum_matches_cumsum_bitwise(c, z, e):
    if e is not None:  # c/u ends in exactly 1/2 in [2^(e-1), 2^e), and the run crosses it
        assert math.fmod(c, math.ulp(math.ldexp(1.0, e - 1))) * 2.0 == math.ulp(math.ldexp(1.0, e - 1))
        assert c * z > math.ldexp(1.0, e)
    _assert_run_sum_is_cumsum(c, z)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(
    st.tuples(st.floats(5e-324, 1e300), st.integers(0, 20_000)),
    st.builds(lambda n, share: (1.0 / n, int(share * n)), st.integers(1, 10**5), st.floats(0.0, 3.0)),
    st.builds(lambda e, q: _tie(e, q)[:2], st.integers(-60, 60), st.integers(2**37, 2**44)),
))
def test_run_sum_matches_cumsum_bitwise_property(instance):
    _assert_run_sum_is_cumsum(*instance)


# zeros of both signs, a pool of ties heavy enough that tie runs straddle
# the sample's cuts, neighbours one ulp apart, inf, subnormals and
# arbitrary positive distances
_TAIL_POOL = np.array([0.5, 1.0, 1.0, 1.0 + 2**-52, 2.0, 5e-324, 1e-310, math.inf])


# epsilon and rho set when a query runs, from the prefix grown so far: one
# ulp below its totals, or halfway through its last tie run; the crossing
# then ends the prefix, where the next breakpoint may lie one ulp beyond
_AT_PREFIX = ["below the prefix's totals", "inside the prefix's last run"]


@st.composite
def _tail_queries(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([1, 5, 60, 700, 3000, 3000]))
    pooled = rng.random(n) < draw(st.sampled_from([0.0, 0.5, 0.95]))
    d = np.where(pooled, rng.choice(_TAIL_POOL, n), rng.uniform(0.0, 5.0, n))
    zero = rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.7]))
    d[zero] = rng.choice([0.0, -0.0], int(zero.sum()))
    p = rng.uniform(0.05, 1.0, n)
    if draw(st.booleans()):
        p /= p.sum()
    p = _weights_of_kind(p, *draw(_weight_kind(n)))
    ref = stable_distance_profile(d, p)
    total_cost, finite_mass = float(ref["cum_pd"][-1]), float(ref["cum_p"][-1])
    queries = []
    for _ in range(draw(st.integers(1, 8))):
        op = draw(st.sampled_from(["dual", "knapsack", "cvar", "chance"]))
        eps_kind = draw(st.sampled_from(
            ["fraction", "cum_pd entry", "below cum_pd entry", "beyond total cost", *_AT_PREFIX]))
        if eps_kind in _AT_PREFIX:
            eps = eps_kind
        elif eps_kind == "fraction":  # mostly small, so that the profile grows in steps
            eps = draw(st.floats(0.0, 1.0)) ** 3 * total_cost
        elif eps_kind.endswith("cum_pd entry"):
            eps = float(ref["cum_pd"][draw(st.integers(0, ref["cum_pd"].size - 1))])
            if eps_kind.startswith("below"):
                eps = float(np.nextafter(eps, 0.0))
        else:  # the t -> 0+ limit
            eps = 2.0 * total_cost + draw(st.floats(1e-6, 1.0))
        rho = draw(st.floats(0.01, 0.99)) ** 2
        rho_kind = draw(st.sampled_from(
            ["uniform", "cum_p entry", "finite mass", "above finite mass", *_AT_PREFIX]))
        if rho_kind in _AT_PREFIX:
            rho = rho_kind
        elif rho_kind != "uniform":
            if rho_kind == "cum_p entry":
                candidate = float(ref["cum_p"][draw(st.integers(0, ref["cum_p"].size - 1))])
            elif rho_kind == "finite mass":
                candidate = finite_mass
            else:
                candidate = float(np.nextafter(finite_mass, math.inf))
            rho = candidate if 0.0 < candidate < 1.0 else rho
        queries.append((op, eps, rho))
    order = draw(st.sampled_from(["as drawn", "ascending", "descending"]))
    if order != "as drawn":
        # the queries set at run time keep their drawn places
        def at_prefix(q):
            return isinstance(q[1], str) or isinstance(q[2], str)
        fixed = sorted((q for q in queries if not at_prefix(q)), key=lambda q: q[1:],
                       reverse=order == "descending")
        queries = [q if at_prefix(q) else fixed.pop(0) for q in queries]
    return d, p, queries


def _at_prefix(kind, cum, profile):
    if kind == _AT_PREFIX[0]:
        return float(np.nextafter(cum[-1], 0.0))
    # an empty prefix ends on the zeros' run, whose sums start from 0
    lower = first_tied_index(profile.size, profile._ties)
    start = float(cum[lower[-1]]) if lower.size else 0.0
    return 0.5 * (start + float(cum[-1]))


def _stable_answer(op, ref, epsilon, rho):
    if op == "dual":
        return dual_from_stable_profile(ref, epsilon)
    if op == "knapsack":
        return knapsack_from_stable_profile(ref, epsilon)
    if op == "cvar":
        return cvar_from_stable_profile(ref, rho)
    return (dual_from_stable_profile(ref, epsilon)[0] <= rho,
            rho * cvar_from_stable_profile(ref, rho) >= epsilon)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_tail_queries())
def test_grown_profile_answers_match_stable_sort_bitwise(instance):
    # interleaved queries on one profile, which grows as they need: each
    # answer is the one the whole stable-sorted profile gives, bit for bit
    d, p, queries = instance
    ref = stable_distance_profile(d, p)
    profile = dro._build(d, p)
    assert (profile._weight is not None) == _all_equal(p)
    ds, h = SimpleNamespace(weights=p), Hyperplane([1.0], 0.0)
    with pytest.MonkeyPatch.context() as m:
        # every plane-level query, check_chance_cvar included, reads it
        m.setattr(dro, "_plane_distances", lambda ds, h: d)
        m.setattr(dro, "_profile", lambda dists, weights: profile)
        for op, eps, rho in queries:
            if isinstance(eps, str):
                eps = _at_prefix(eps, profile.cum_pd, profile)
            if isinstance(rho, str):
                rho = _at_prefix(rho, profile.cum_p, profile)
                rho = rho if 0.0 < rho < 1.0 else 0.5
            if op == "chance" and eps == 0.0:
                eps = 5e-324
            got = _query(op, ds, h, eps, rho)
            assert _same_answer(got, _stable_answer(op, ref, eps, rho)), (op, eps, rho)
    # whatever it grew to, the prefix is the start of the whole profile
    _assert_is_stable_prefix(profile, ref)


def test_breakpoints_one_ulp_beyond_the_cut_keep_their_answers():
    # the prefix ends on a run of 1.0 and 1 + 2^-52 lies just beyond the
    # cut: phi and g there differ from their last prefix values by about one
    # rounding error, so only the stop rules' margins keep the answers, and
    # the dual's last argmin, those of the whole profile
    rng = np.random.default_rng(21)
    hits = 0
    for _ in range(40):
        d = rng.choice([0.0, 0.5, 1.0, 1.0 + 2**-52, 2.0], 3000)
        p = rng.uniform(0.05, 1.0, d.size)
        p /= p.sum()
        ref = stable_distance_profile(d, p)
        for share in (0.1, 0.15, 0.2, 0.25):
            profile = dro._build(d, p)
            profile.knapsack(share * float(ref["cum_pd"][-1]))
            if profile.complete or profile.d[-1] != 1.0:
                continue
            hits += 1
            run = first_tied_index(profile.size, profile._ties)[-1]
            for cum in (profile.cum_pd, profile.cum_p):
                end = float(cum[-1])
                for x in (np.nextafter(end, 0.0), 0.5 * (float(cum[run]) + end), float(cum[run])):
                    eps = rho = float(x)
                    assert _same_answer(_stable_answer("dual", ref, eps, rho),
                                        astuple(dro._build(d, p).dual(eps)))
                    assert _same_answer(_stable_answer("cvar", ref, eps, rho), dro._build(d, p).cvar(rho))
                    assert _same_answer(_stable_answer("dual", ref, eps, rho), astuple(profile.dual(eps)))
                    assert _same_answer(_stable_answer("cvar", ref, eps, rho), profile.cvar(rho))
    assert hits >= 100


def _profile_covering_a_fifth_of_the_mass():
    # n = 4000 positive distances, grown until its mass P exceeds rho = 0.2;
    # the cut is finite, so both stop bounds apply
    rng = np.random.default_rng(17)
    d = rng.exponential(1.0, 4000)
    p = rng.uniform(0.5, 1.5, d.size)
    p /= p.sum()
    profile = dro._build(d, p)
    profile.cover(rho=0.2)
    assert not profile.complete and 0.0 < profile.cut < math.inf
    return profile


def test_cvar_ceiling_needs_mass_beyond_rho_to_outrun_rounding():
    # with P/rho - 1 at 1e-15, far below _tol, g beyond the cut may rise by
    # its rounding error faster than the bound falls: there is no ceiling
    profile = _profile_covering_a_fifth_of_the_mass()
    total = float(profile.cum_p[-1])
    assert profile._cvar_ceiling(total / (1.0 + 1e-15)) == math.inf
    assert profile._cvar_ceiling(0.2) < math.inf


def test_stop_bounds_lie_beyond_their_unmargined_values_by_the_tol_terms():
    # each bound is its unmargined value moved outward by the _tol terms of
    # the class docstring; only its own final rounding may take off an ulp
    profile = _profile_covering_a_fifth_of_the_mass()
    c, tol, mass = profile.cut, profile._tol, profile._mass
    total, cost = float(profile.cum_p[-1]), float(profile.cum_pd[-1])
    for eps in (0.5 * cost, cost, 2.0 * cost):
        unmargined = total - max(0.0, cost - eps) / c
        floor = profile._dual_floor(eps)
        margin = tol * (2.0 * mass + (cost + eps) / c)
        assert floor < unmargined
        assert Fraction(unmargined) - Fraction(floor) >= Fraction(margin) - Fraction(math.ulp(floor))
    for rho in (0.1, 0.15, 0.2):
        scale, excess, scaled_cost = 1.0 + mass / rho, total / rho - 1.0, cost / rho
        unmargined = scaled_cost - c * excess
        ceiling = profile._cvar_ceiling(rho)
        margin = tol * (scaled_cost + c * scale)
        assert unmargined < ceiling < math.inf
        assert Fraction(ceiling) - Fraction(unmargined) >= Fraction(margin) - Fraction(math.ulp(ceiling))


class _SortCounter:
    """numpy, counting the elements handed to its sorts."""

    def __init__(self):
        self.sorted = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in ("argsort", "sort", "partition", "argpartition", "lexsort"):
            return attr

        def counted(a, *args, **kwargs):
            self.sorted += np.size(a)
            return attr(a, *args, **kwargs)
        return counted


def test_single_check_sorts_only_the_tail(monkeypatch):
    # the benchmark's shape at n = 2*10^4: d = 10, 10 % flips, planes near
    # the labelling rule; a check needs about a sixth of the positive
    # distances sorted, and must sort fewer than half
    ds = flip_labels(generate_separable(20_000, 10, 5), 0.1, 6)
    calls, builds = [], []
    counter = _SortCounter()

    def counted(h, ds):
        calls.append(h)
        return distances(h, ds)

    class CountedProfile(dro._DistanceProfile):
        def __init__(self, d, *args):
            builds.append(d)
            super().__init__(d, *args)

    monkeypatch.setattr(dro, "np", counter)
    monkeypatch.setattr(dro, "distances", counted)
    monkeypatch.setattr(dro, "_DistanceProfile", CountedProfile)
    monkeypatch.setattr(dro, "_last_plane", None)
    rng = np.random.default_rng(7)
    for i in range(6):
        w = rng.uniform(0.05, 0.6) * rng.standard_normal(10)
        w[0] += 1.0
        h = Hyperplane(w, 0.5 * rng.standard_normal())
        counter.sorted = 0
        verdict = check_chance_cvar(ds, h, 0.05, 0.3)
        d = distances(h, ds)
        # every distance in the prefix went through a sort the counter sees
        # (a sort made by an array's own method would go uncounted)
        assert 0 < dro._last_plane.profile.size <= counter.sorted < np.count_nonzero(d > 0.0) / 2
        ref = stable_distance_profile(d, ds.weights)
        assert verdict == _stable_answer("chance", ref, 0.05, 0.3)
        # one distance vector and one profile object per plane
        assert len(calls) == len(builds) == i + 1


@pytest.mark.parametrize("weights", ["equal", "drawn"])
def test_profile_arrays_hold_only_the_bands_read(monkeypatch, weights):
    # the slot's profile at n = 2*10^4, the benchmark's shape, on both sort
    # paths: a check that reads one band holds arrays of that band's length;
    # the first query that needs a second band widens all three once, to the
    # positive count, and later bands fill them in place; every answer is
    # the stable one
    ds = flip_labels(generate_separable(20_000, 10, 5), 0.1, 6)
    if weights == "drawn":
        p = np.random.default_rng(7).uniform(0.5, 1.5, ds.n)
        ds = Dataset(ds.points, ds.labels, p / p.sum())
    bands = []

    class RecordedProfile(dro._DistanceProfile):
        def _append(self, d, p):
            super()._append(d, p)
            if d.size:
                bands.append((self.size, self._d, self._cum_p, self._cum_pd))

    monkeypatch.setattr(dro, "_DistanceProfile", RecordedProfile)
    monkeypatch.setattr(dro, "_last_plane", None)
    h = Hyperplane(np.array([1.3, -0.2, 0.1, 0.0, 0.3, -0.1, 0.2, 0.0, -0.3, 0.1]), 0.2)
    d = distances(h, ds)
    positive = int(np.count_nonzero((d > 0.0) & (d < math.inf)))
    ref = stable_distance_profile(d, ds.weights)
    assert check_chance_cvar(ds, h, 0.05, 0.3) == _stable_answer("chance", ref, 0.05, 0.3)
    assert len(bands) == 1
    size, *arrays = bands[0]
    assert 0 < size < positive / 2
    assert [a.size for a in arrays] == [size, size + 1, size + 1]
    total_cost = float(ref["cum_pd"][-1])
    for share in (0.05, 0.2, 0.5, 0.9, 2.0):
        eps = share * total_cost
        assert _same_answer(_query("dual", ds, h, eps, 0.5), _stable_answer("dual", ref, eps, 0.5))
        assert _same_answer(_query("knapsack", ds, h, eps, 0.5), _stable_answer("knapsack", ref, eps, 0.5))
    assert _same_answer(_query("cvar", ds, h, 0.1, 0.9), _stable_answer("cvar", ref, 0.1, 0.9))
    profile = dro._last_plane.profile
    assert (profile._weight is None) == (weights == "drawn")  # the stable argsort for drawn weights
    assert profile.complete and len(bands) >= 3
    widened = bands[1][1:]
    assert [a.size for a in widened] == [positive, positive + 1, positive + 1]
    for _, *later in bands[2:]:
        assert all(a is b for a, b in zip(later, widened))
    _assert_is_stable_prefix(profile, ref)


@pytest.mark.parametrize("n", [50, 120, 500])
def test_dual_knapsack_highs_agree_around_the_cut(n):
    # epsilon at, just below and just above the cost of a grown prefix, so
    # that the crossing falls on the cut, plus fractions of the total cost
    rng = np.random.default_rng(n)
    for _ in range(4):
        d = rng.uniform(0.1, 5.0, n)
        d[rng.random(n) < 0.2] = 0.0
        d[rng.random(n) < 0.2] = 1.5  # a tie run
        d[rng.random(n) < 0.05] = np.inf
        p = rng.uniform(0.05, 1.0, n)
        p /= p.sum()
        tol = highs_knapsack_tolerance(d, p)
        total = float(stable_distance_profile(d, p)["cum_pd"][-1])
        first = float(rng.uniform(0.05, 0.5)) * total

        def grown():
            profile = dro._build(d, p)
            profile.cover(first)
            return profile

        cut_cost = float(grown().cum_pd[-1])
        for eps in (np.nextafter(cut_cost, 0.0), cut_cost, np.nextafter(cut_cost, math.inf),
                    0.3 * total, 0.9 * total, 1.1 * total):
            eps = float(eps)
            lp = knapsack_lp_highs(d, p, eps)
            for profile in (grown(), dro._build(d, p)):
                dual, knap = profile.dual(eps).value, profile.knapsack(eps)
                assert abs(dual - knap) <= 1e-10
                assert abs(dual - lp) <= tol


def test_chance_cvar_validates_before_forming_distances(monkeypatch):
    calls = []

    def counted(h, ds):
        calls.append(h)
        return distances(h, ds)

    monkeypatch.setattr(dro, "distances", counted)
    monkeypatch.setattr(dro, "_last_plane", None)
    ds, h = dataset_with_distances([0.0, 1.0, 2.0])
    for rho in (0.0, 1.0, -0.2, 1.5, math.nan, np.float64(1.5)):
        with pytest.raises(ValueError, match="rho must lie in"):
            check_chance_cvar(ds, h, 0.1, rho)
    for eps in (0.0, -0.1, math.nan):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            check_chance_cvar(ds, h, eps, 0.5)
    assert calls == []
    # numpy scalars print as plain values
    with pytest.raises(ValueError) as err:
        check_chance_cvar(ds, h, 0.1, np.float64(1.05))
    assert str(err.value) == "rho must lie in (0, 1), got 1.05"
    with pytest.raises(ValueError) as err:
        check_chance_cvar(ds, h, np.float64(-0.05), 0.3)
    assert str(err.value) == "epsilon must be positive, got -0.05"
    assert check_chance_cvar(ds, h, np.float64(0.05), np.float64(0.5)) == (True, True)


def _fresh(monkeypatch, fn, *args):
    with monkeypatch.context() as m:
        m.setattr(dro, "_last_plane", None)
        return fn(*args)


def test_profile_memo_answers_follow_the_inputs(monkeypatch):
    rng = np.random.default_rng(12)
    d = np.round(rng.exponential(1.0, 400), 1)
    p = rng.random(400)
    p /= p.sum()
    queries = [
        (worst_case_dual_from_distances, 0.2),
        (worst_case_knapsack_from_distances, 0.2),
        (cvar_from_distances, 0.4),
    ]
    # a repeat on bitwise-equal inputs returns the identical result
    for fn, arg in queries:
        assert fn(d, p, arg) == fn(d.copy(), p.copy(), arg) == _fresh(monkeypatch, fn, d, p, arg)

    # one distance or one weight changes: a new profile, and the answer a
    # fresh build gives
    d_one = d.copy()
    d_one[np.argmax(d_one > 0.0)] *= 0.5
    p_one = p.copy()
    p_one[np.argmax(d > 0.0)] *= 3.0
    for dd, pp in ((d_one, p), (d, p_one)):
        for fn, arg in queries:
            first = dro._profile(d, p)
            assert fn(dd, pp, arg) == _fresh(monkeypatch, fn, dd, pp, arg)
            assert dro._profile(dd, pp) is not first

    # the caller mutates its own array in place after a call
    mutable = d.copy()
    value = worst_case_dual_from_distances(mutable, p, 0.2).value
    mutable *= 2.0
    doubled = worst_case_dual_from_distances(mutable, p, 0.2)
    assert doubled == _fresh(monkeypatch, worst_case_dual_from_distances, mutable, p, 0.2)
    assert doubled.value < value


def test_profile_memo_rejects_nan_every_time():
    d, p = np.array([0.0, 1.0, 2.0]), np.array([0.2, 0.3, 0.5])
    expected = worst_case_dual_from_distances(d, p, 0.1)
    nan_d = d.copy()
    nan_d[1] = math.nan
    # each rejected input twice in a row: it must not be served from the slot
    for bad in (nan_d, nan_d, -d, -d):
        with pytest.raises(ValueError, match="nonnegative"):
            worst_case_dual_from_distances(bad, p, 0.1)
    for _ in range(2):
        with pytest.raises(ValueError, match="matching shapes"):
            cvar_from_distances(d, p[:2], 0.5)
    # negative, NaN and infinite weights, and weights whose sum overflows
    bad_weights = [
        (np.array([-0.5, 1.0, 0.5]), "got -0.5 to 1.0"),
        (np.array([0.2, math.nan, 0.5]), "got nan to nan"),
        (np.array([0.2, math.inf, 0.5]), "got 0.2 to inf"),
        (np.array([0.0, 1e308, 1e308]), "got 0.0 to 1e+308"),
    ]
    kernels = [
        lambda w: worst_case_dual_from_distances(d, w, 0.1),
        lambda w: worst_case_knapsack_from_distances(d, w, 0.1),
        lambda w: cvar_from_distances(d, w, 0.5),
    ]
    for bad, got in bad_weights:
        for kernel in kernels:
            for _ in range(2):
                with pytest.raises(ValueError, match=re.escape(f"with a finite sum, {got}")):
                    kernel(bad)
    assert worst_case_dual_from_distances(d, p, 0.1) == expected
    assert worst_case_knapsack_from_distances([0.0, 1.0], [0.5, 0.5], 0.25) == 0.75


def test_build_errors_print_their_values():
    # the shapes after ravel, and the first distance that is not >= 0
    cases = [
        ([0.0, 1.0, 2.0], [0.2, 0.8], "distances and weights must have matching shapes, got (3,) and (2,)"),
        ([[0.0, 1.0], [2.0, 3.0]], [0.5, 0.5, 0.0],
         "distances and weights must have matching shapes, got (4,) and (3,)"),
        ([0.0, math.nan, -1.0], [0.2, 0.3, 0.5], "distances must be nonnegative, got nan at index 1"),
        ([0.0, 1.0, -1.5], [0.2, 0.3, 0.5], "distances must be nonnegative, got -1.5 at index 2"),
        ([[1.0, -0.0], [-math.inf, 2.0]], [0.25] * 4, "distances must be nonnegative, got -inf at index 2"),
    ]
    kernels = [
        lambda d, p: worst_case_dual_from_distances(d, p, 0.1),
        lambda d, p: worst_case_knapsack_from_distances(d, p, 0.1),
        lambda d, p: cvar_from_distances(d, p, 0.5),
    ]
    for d, p, message in cases:
        for kernel in kernels:
            with pytest.raises(ValueError) as err:
                kernel(np.array(d), np.array(p))
            assert str(err.value) == message


@contextlib.contextmanager
def _memo_cleared():
    saved = dro._last_plane
    dro._last_plane = None
    try:
        yield
    finally:
        dro._last_plane = saved


def _query(op, ds, h, epsilon, rho):
    if op == "dual":
        result = worst_case_prob_dual(ds, h, epsilon)
        return result.value, result.t_star
    if op == "knapsack":
        return worst_case_prob_knapsack(ds, h, epsilon)
    if op == "cvar":
        return cvar_distance(ds, h, rho)
    return check_chance_cvar(ds, h, epsilon, rho)


def _fresh_answer(op, ds, h, epsilon, rho):
    # built directly, so the memo slot takes no part
    profile = dro._build(distances(h, ds), ds.weights)
    if op == "dual":
        result = profile.dual(epsilon)
        return result.value, result.t_star
    if op == "knapsack":
        return profile.knapsack(epsilon)
    if op == "cvar":
        return profile.cvar(rho)
    return profile.dual(epsilon).value <= rho, rho * profile.cvar(rho) >= epsilon


def _same_answer(got, want):
    return np.array_equal(np.array(got, dtype=float).view(np.uint64),
                          np.array(want, dtype=float).view(np.uint64))


def _memo_dataset(rng, n):
    # integer points: many exact zero distances and ties
    points = rng.integers(-3, 4, (n, 2)).astype(float)
    weights = rng.uniform(0.05, 1.0, n)
    return Dataset(points, rng.choice([-1.0, 1.0], n), weights / weights.sum())


_DATASET_STEPS = ["keep", "keep", "rebuild", "switch", "collect", "duck"]
_PLANE_STEPS = ["keep", "keep", "rebuild", "ulp", "b_zero", "b_negative_zero", "mutate_w", "new"]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(
        st.tuples(
            st.sampled_from(_DATASET_STEPS),
            st.sampled_from(_PLANE_STEPS),
            st.sampled_from(["dual", "knapsack", "cvar", "chance"]),
            st.floats(1e-3, 1.0),
            st.floats(0.05, 0.95),
        ),
        min_size=1,
        max_size=14,
    ),
)
def test_plane_memo_answers_equal_fresh_profiles(seed, steps):
    # interleaved (dataset, hyperplane, query) sequences: whatever the memo
    # slot holds, each answer is the one a fresh profile gives
    rng = np.random.default_rng(seed)
    datasets = [_memo_dataset(rng, int(rng.integers(1, 40))) for _ in range(2)]
    duck = SimpleNamespace(points=np.array(datasets[0].points), labels=np.array(datasets[0].labels),
                           weights=np.array(datasets[0].weights))
    current = 0
    w_arr = rng.standard_normal(2)
    h = Hyperplane(w_arr, 0.5)
    assert not np.shares_memory(h.w, w_arr)  # the caller cannot write into h.w
    with _memo_cleared():
        for ds_step, plane_step, op, epsilon, rho in steps:
            if ds_step == "rebuild":
                old = datasets[current]
                datasets[current] = Dataset(old.points.copy(), old.labels.copy(), old.weights.copy())
                del old
            elif ds_step == "switch":
                current = 1 - current
            elif ds_step == "collect":
                # the memo must not keep a dataset alive, and a new dataset
                # that may reuse the freed id must not match
                gone = weakref.ref(datasets[current])
                datasets[current] = None
                if gone() is not None:  # freed at once where refcounting frees
                    gc.collect()
                assert gone() is None
                datasets[current] = _memo_dataset(rng, int(rng.integers(1, 40)))
            elif ds_step == "duck":
                # a duck-typed dataset owns nothing; it changes in place
                duck.points[:] = rng.integers(-3, 4, duck.points.shape)
            ds = duck if ds_step == "duck" else datasets[current]

            if plane_step == "rebuild":
                h = Hyperplane(h.w.copy(), h.b)
            elif plane_step == "ulp":
                h = Hyperplane(np.nextafter(h.w, np.inf), h.b)
            elif plane_step == "b_zero":
                h = Hyperplane(h.w, 0.0)
            elif plane_step == "b_negative_zero":
                h = Hyperplane(h.w, -0.0)
            elif plane_step == "mutate_w":
                w_arr = np.array(h.w)
                h = Hyperplane(w_arr, h.b)
                _query(op, ds, h, epsilon, rho)
                w_arr[:] = rng.integers(-2, 3, 2)
                if not w_arr.any():
                    w_arr[0] = 1.0
            elif plane_step == "new":
                h = Hyperplane(rng.standard_normal(2), float(rng.integers(-2, 3)))

            got = _query(op, ds, h, epsilon, rho)
            assert _same_answer(got, _fresh_answer(op, ds, h, epsilon, rho))
            del ds


def test_plane_queries_form_distances_once_per_plane(monkeypatch):
    calls, builds = [], []

    def counted(h, ds):
        calls.append(h)
        return distances(h, ds)

    class CountedProfile(dro._DistanceProfile):
        def __init__(self, d, *args):
            builds.append(d)
            super().__init__(d, *args)

    monkeypatch.setattr(dro, "distances", counted)
    monkeypatch.setattr(dro, "_DistanceProfile", CountedProfile)
    monkeypatch.setattr(dro, "_last_plane", None)
    rng = np.random.default_rng(3)
    ds = _memo_dataset(rng, 50)
    sweep_plane, single = Hyperplane([1.0, 0.3], 0.2), Hyperplane([0.2, -1.0], 0.1)
    for eps in (0.01, 0.1, 0.5):
        worst_case_prob_dual(ds, sweep_plane, eps)
        worst_case_prob_knapsack(ds, sweep_plane, eps)
    cvar_distance(ds, sweep_plane, 0.3)
    check_chance_cvar(ds, sweep_plane, 0.05, 0.3)
    assert len(calls) == len(builds) == 1
    check_chance_cvar(ds, single, 0.05, 0.3)
    worst_case_prob_knapsack(ds, single, 0.05)
    assert len(calls) == len(builds) == 2

    # a kernel on a caller's array builds afresh, even on the slot's bits,
    # and never hands out the slot's profile
    slot = dro._last_plane
    own, own_weights = np.array(slot.dists), np.array(ds.weights)
    for fn, arg in ((worst_case_dual_from_distances, 0.05),
                    (worst_case_knapsack_from_distances, 0.05),
                    (cvar_from_distances, 0.3)):
        n_builds = len(builds)
        assert fn(own, ds.weights, arg) == fn(slot.dists, ds.weights, arg)
        assert len(builds) == n_builds + 1
    for dd, pp in ((own, ds.weights), (slot.dists, own_weights), (own, own_weights)):
        assert dro._profile(dd, pp) is not slot.profile
    assert dro._profile(slot.dists, ds.weights) is slot.profile
    assert len(calls) == 2

    # an equal-bits copy of the dataset is another key
    worst_case_prob_dual(Dataset(ds.points, ds.labels, ds.weights), single, 0.1)
    assert (len(calls), len(builds)) == (3, 9)


@pytest.mark.parametrize("equal", [True, False])
def test_plane_queries_reject_a_nan_distance_every_time(equal):
    # on w's power-of-two scale the third row's product overflows to +inf
    # and b to -inf, so its margin, and its distance, is nan; the second
    # row's distance is inf
    points = np.array([[1.0, 1.0, 1.0], [-1.0, 0.5, 2.0], [1.5e308, 1.5e308, 1.5e308], [0.0, 0.0, 0.0]])
    weights = np.full(4, 0.25) if equal else np.array([0.1, 0.2, 0.3, 0.4])
    ds = Dataset(points, np.array([1.0, -1.0, 1.0, 1.0]), weights)
    h = Hyperplane(np.full(3, 1e-300), -1e10)
    message = "distances must be nonnegative, got nan at index 2"
    with _memo_cleared(), np.errstate(over="ignore", invalid="ignore"):
        d = distances(h, ds)
        assert np.isnan(d).tolist() == [False, False, True, False] and d[1] == math.inf
        for _ in range(2):  # never served from the slot
            for query in (lambda: worst_case_prob_dual(ds, h, 0.1), lambda: check_chance_cvar(ds, h, 0.1, 0.3)):
                with pytest.raises(ValueError) as err:
                    query()
                assert str(err.value) == message
                assert dro._last_plane is None


@pytest.mark.parametrize("equal", [True, False])
def test_plane_queries_on_a_zero_normal_match_the_stable_profile(equal):
    # w = 0: each point lies at distance 0 (y b <= 0) or inf, so the slot's
    # profile drops the infinite distances and holds only the base mass
    rng = np.random.default_rng(29)
    n = 40
    weights = np.full(n, 1.0 / n) if equal else rng.uniform(0.05, 1.0, n)
    ds = Dataset(rng.standard_normal((n, 2)), rng.choice([-1.0, 1.0], n), weights / weights.sum())
    with _memo_cleared():
        for b in (1.0, -0.5, 0.0):
            h = Hyperplane(np.zeros(2), b)
            d = distances(h, ds)
            ref = stable_distance_profile(d, ds.weights)
            for op in ("dual", "knapsack", "cvar", "chance"):
                for eps, rho in ((0.05, 0.3), (2.0, 0.7), (0.0, 0.5)):
                    if op == "chance" and eps == 0.0:
                        continue
                    assert _same_answer(_query(op, ds, h, eps, rho), _stable_answer(op, ref, eps, rho))
            mass = min(1.0, float(np.cumsum(ds.weights[d == 0.0])[-1])) if (d == 0.0).any() else 0.0
            assert astuple(worst_case_prob_dual(ds, h, 0.05)) == (mass, 0.0)
            assert dro._last_plane.profile.size == 0 and dro._last_plane.profile.complete


def test_worst_case_monotone_in_epsilon():
    rng = np.random.default_rng(5)
    d, p = random_knapsack_instance(rng, max_n=10)
    values = [
        worst_case_dual_from_distances(d, p, e).value
        for e in np.linspace(0.0, 2.0, 40)
    ]
    assert np.all(np.diff(values) >= -1e-14)


def test_worst_case_scale_invariant():
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((12, 3))
    ds = Dataset(pts, rng.choice([-1.0, 1.0], 12), np.full(12, 1.0 / 12))
    h = Hyperplane(np.array([0.3, -0.7, 0.2]), 0.1)
    h2 = Hyperplane(h.w * 8.0, h.b * 8.0)
    for eps in (0.0, 0.05, 0.3):
        a = worst_case_prob_dual(ds, h, eps).value
        b = worst_case_prob_dual(ds, h2, eps).value
        assert a == pytest.approx(b, abs=1e-12)
        assert worst_case_prob_knapsack(ds, h, eps) == pytest.approx(
            worst_case_prob_knapsack(ds, h2, eps), abs=1e-12
        )


def test_cvar_two_point_examples():
    assert cvar_from_distances([0.0, 1.0], [0.5, 0.5], 0.75) == pytest.approx(
        1.0 / 3.0, abs=1e-15
    )
    assert cvar_from_distances([0.0, 1.0], [0.5, 0.5], 0.5) == 0.0


def test_cvar_constant_distances():
    for rho in (0.1, 0.5, 0.9):
        assert cvar_from_distances([2.5, 2.5, 2.5], [0.2, 0.3, 0.5], rho) == pytest.approx(2.5)


def test_cvar_validates_rho():
    for rho in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            cvar_from_distances([1.0], [1.0], rho)


def test_cvar_infinite_distance_mass():
    # finite mass below rho: the objective grows without bound
    assert cvar_from_distances([np.inf, 1.0], [0.5, 0.5], 0.75) == math.inf
    # finite mass above rho: ordinary breakpoint maximum
    v = cvar_from_distances([np.inf, 1.0, 2.0], [0.2, 0.4, 0.4], 0.5)
    assert np.isfinite(v) and v > 0.0


def test_cvar_weighted_tail_nondecreasing_in_rho():
    # rho * CVaR_rho is a sup of linear functions of rho
    rng = np.random.default_rng(11)
    d, p = random_knapsack_instance(rng, max_n=10)
    rhos = np.linspace(0.05, 0.95, 19)
    vals = [r * cvar_from_distances(d, p, r) for r in rhos]
    assert np.all(np.diff(vals) >= -1e-12)


def test_chance_cvar_examples():
    ds, h = dataset_with_distances([0.0, 1.0])
    assert check_chance_cvar(ds, h, 0.25, 0.75) == (True, True)
    assert check_chance_cvar(ds, h, 0.25, 0.5) == (False, False)
    with pytest.raises(ValueError):
        check_chance_cvar(ds, h, 0.0, 0.5)


def test_chance_cvar_equivalence_random():
    rng = np.random.default_rng(77)
    agree = 0
    for _ in range(100):
        d, p = random_knapsack_instance(rng, max_n=10)
        rho = float(rng.uniform(0.05, 0.95))
        boundary = rho * cvar_from_distances(d, p, rho)
        eps = boundary * float(rng.choice([0.5, 0.9, 1.1, 2.0])) + float(
            rng.choice([-1.0, 1.0])
        ) * 1e-6
        if eps <= 0.0 or abs(eps - boundary) < 1e-8:
            eps = boundary + 1e-3 + 1e-3 * rng.random()
        ds, h = dataset_with_distances(d)
        ds = Dataset(ds.points, ds.labels, p)
        chance, cvar_ok = check_chance_cvar(ds, h, eps, rho)
        assert chance == cvar_ok
        agree += 1
    assert agree == 100


def test_cvar_radius_single_candidate():
    ds, h = dataset_with_distances([1.0, 2.0])
    rho = 0.4
    eps, argmax = cvar_radius(ds, [h], rho)
    assert argmax == [0]
    assert eps == pytest.approx(rho * cvar_distance(ds, h, rho), abs=1e-15)


def test_cvar_radius_constant_distances():
    # an all-correct classifier at uniform distance c has CVaR c at any rho
    ds, h = dataset_with_distances([2.5, 2.5, 2.5])
    for rho in (0.25, 0.6):
        eps, argmax = cvar_radius(ds, [h], rho)
        assert eps == pytest.approx(rho * 2.5, abs=1e-15)
        assert argmax == [0]


def test_cvar_radius_argmax_ties_and_consistency():
    # at the CVaR-maximizing candidate the worst case at the implied radius
    # equals rho (argmin/argmax coincidence)
    pts = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    ds = Dataset(pts, np.sign(pts[:, 0]), np.full(4, 0.25))
    cands = [Hyperplane(np.array([w]), b) for w, b in
             [(1.0, 0.0), (1.0, 0.5), (-1.0, 0.0), (1.0, -0.3)]]
    for rho in (0.3, 0.5, 0.75):
        eps, argmax = cvar_radius(ds, cands, rho)
        assert argmax
        if 0.0 < eps < math.inf:
            for i in argmax:
                wc = worst_case_prob_dual(ds, cands[i], eps).value
                assert wc == pytest.approx(rho, abs=1e-9)


def test_cvar_radius_empty_candidates():
    ds, _ = dataset_with_distances([1.0])
    with pytest.raises(ValueError):
        cvar_radius(ds, [], 0.5)


def test_wrapper_paths_match_distance_core():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-2, 2, (9, 2))
    ds = Dataset(pts, rng.choice([-1.0, 1.0], 9), np.full(9, 1.0 / 9))
    h = Hyperplane(np.array([1.2, -0.4]), 0.2)
    d = distances(h, ds)
    assert worst_case_prob_dual(ds, h, 0.2).value == pytest.approx(
        worst_case_dual_from_distances(d, ds.weights, 0.2).value, abs=1e-15
    )
    assert cvar_distance(ds, h, 0.6) == pytest.approx(
        cvar_from_distances(d, ds.weights, 0.6), abs=1e-15
    )


@st.composite
def _unit_hyperplane_instance(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 3))
    points = draw(arrays(np.float64, (n, d), elements=st.floats(-5.0, 5.0)))
    labels = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    w = draw(arrays(np.float64, d, elements=st.floats(-1.0, 1.0)))
    norm = float(np.linalg.norm(w))
    if norm < 1e-3:
        w, norm = np.eye(d)[0], 1.0
    b = draw(st.floats(-2.0, 2.0))
    ds = Dataset(points, labels, weights / weights.sum())
    return ds, Hyperplane(w / norm, b / norm)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    _unit_hyperplane_instance(),
    st.floats(1e-3, 2.0),
    st.lists(st.floats(0.0, 50.0), min_size=1, max_size=5),
)
def test_dual_value_is_ramp_objective_at_dual_minimizer(instance, eps, ts):
    # the paper's reformulation: on a unit hyperplane, the worst-case
    # probability is the norm-regularized ramp objective at t* h, and no t h
    # does better; a third route that shares no code with the knapsack
    ds, h = instance
    result = worst_case_prob_dual(ds, h, eps)
    spec = ObjectiveSpec(LossSpec(LossKind.RAMP), RegKind.NORM, eps)

    def objective_at(t):
        return evaluate(spec, ds, Hyperplane(t * h.w, t * h.b))

    if 0.0 < result.t_star < math.inf:
        assert abs(objective_at(result.t_star) - result.value) <= 1e-12
    for t in ts:
        assert objective_at(t) >= result.value - 1e-12
