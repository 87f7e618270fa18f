import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmlbn import analysis
from hmlbn.analysis import (
    PathKind,
    delay_penalty,
    dm_upper_bound,
    expected_penalty,
    hop_difference,
    loss_penalty,
    monte_carlo_ctmc,
    penalty_table,
    router_hop_diameter,
    stationary_distribution,
)
from hmlbn.errors import InvalidDm, VertexNotFound

from helpers import floyd_warshall


def random_connected_graph(rng, n):
    adjacency = {i: set() for i in range(n)}
    for i in range(1, n):
        j = rng.randrange(i)  # random tree first
        adjacency[i].add(j)
        adjacency[j].add(i)
    for _ in range(rng.randrange(0, n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            adjacency[a].add(b)
            adjacency[b].add(a)
    return {k: sorted(v) for k, v in adjacency.items()}


# ---------------------------------------------------------- closed forms

def test_stationary_distribution_is_uniform():
    assert stationary_distribution(4) == [0.2] * 5
    assert stationary_distribution(1) == [0.5, 0.5]
    for d_m in range(1, 30):
        assert math.isclose(sum(stationary_distribution(d_m)), 1.0)
    with pytest.raises(InvalidDm):
        stationary_distribution(0)


def test_expected_penalty_values():
    assert expected_penalty(0) == 0.0
    assert expected_penalty(18) == 9.0
    with pytest.raises(InvalidDm):
        expected_penalty(-1)


def test_expected_penalty_equals_distribution_mean():
    for d_m in range(1, 40):
        pi = stationary_distribution(d_m)
        assert math.isclose(expected_penalty(d_m),
                            math.fsum(j * p for j, p in enumerate(pi)),
                            rel_tol=0, abs_tol=1e-12)
        exact = sum(Fraction(j, d_m + 1) for j in range(d_m + 1))
        assert exact == Fraction(d_m, 2)


def test_worst_case_bounds_by_diameter():
    assert dm_upper_bound(10, PathKind.FIXED_TO_MOBILE) == (18, 9.0)
    assert dm_upper_bound(10, PathKind.MOBILE_TO_MOBILE) == (28, 14.0)
    assert dm_upper_bound(1, PathKind.FIXED_TO_MOBILE) == (0, 0.0)
    assert dm_upper_bound(1, PathKind.MOBILE_TO_MOBILE) == (1, 0.5)


def test_mean_penalty_monotone_and_ratio_approaches_three_halves():
    prev_fixed = prev_mobile = -1.0
    for k in range(1, 200):
        _, fixed = dm_upper_bound(k, PathKind.FIXED_TO_MOBILE)
        _, mobile = dm_upper_bound(k, PathKind.MOBILE_TO_MOBILE)
        assert fixed > prev_fixed and mobile > prev_mobile
        prev_fixed, prev_mobile = fixed, mobile
    _, fixed = dm_upper_bound(10_000, PathKind.FIXED_TO_MOBILE)
    _, mobile = dm_upper_bound(10_000, PathKind.MOBILE_TO_MOBILE)
    assert abs(mobile / fixed - 1.5) < 1e-3


def test_delay_penalty_formula():
    mean, std = delay_penalty(14, 5.0, 2.0)
    assert mean == 70.0
    assert math.isclose(std, 2.0 * math.sqrt(14))
    assert 60.0 < mean - std < mean + std < 80.0
    assert delay_penalty(0, 5.0, 2.0) == (0.0, 0.0)


def test_delay_scaling_mean_linear_std_sqrt():
    m1, s1 = delay_penalty(4, 5.0, 2.0)
    m2, s2 = delay_penalty(16, 5.0, 2.0)
    assert math.isclose(m2 / m1, 4.0)
    assert math.isclose(s2 / s1, 2.0)


def test_loss_penalty_formula():
    assert abs(loss_penalty(14, 0.005) - 0.0678) < 1e-4
    assert loss_penalty(14, 0.0) == 0.0
    assert loss_penalty(0, 0.5) == 0.0
    with pytest.raises(ValueError):
        loss_penalty(3, 1.5)


NAN = float("nan")


@pytest.mark.parametrize("args", [
    (-1, 5.0, 2.0), (NAN, 5.0, 2.0),    # hop count
    (1, -1, 2.0), (1, NAN, 2.0),        # per-hop mean
    (1, 5.0, -1), (1, 5.0, NAN),        # per-hop deviation
    (1, -0.5, -0.5),
])
def test_delay_penalty_refuses_negative_or_nan_inputs(args):
    """A library caller gets an error, not a row with a negative or NaN
    delay: ``delay_penalty(1, -1, 2)`` once returned ``(-1, 2.0)``."""
    with pytest.raises(ValueError):
        delay_penalty(*args)
    assert delay_penalty(1, 0.0, 0.0) == (0.0, 0.0)


@pytest.mark.parametrize("args", [(NAN, 0.1), (-1, 0.1), (1, NAN), (1, -0.1)])
def test_loss_penalty_refuses_a_nan_or_negative_input(args):
    """``loss_penalty(nan, 0.1)`` once returned ``nan``."""
    with pytest.raises(ValueError):
        loss_penalty(*args)


# ------------------------------------------------------------ graph side

def test_detour_collapses_when_anchor_is_the_mobile():
    graph = {0: [1], 1: [0, 2], 2: [1]}
    k_o, k_t, d = hop_difference(graph, cn=0, ha=2, mn=2)
    assert d == k_t - k_o
    k_o, k_t, d = hop_difference(graph, cn=0, ha=1, mn=1)
    assert (k_o, k_t, d) == (1, 1, 0)


def test_three_vertex_path_example():
    # independent hand-computed oracle: A-B-C, correspondent at A,
    # anchor at C, mobile at B: direct 1 hop, detour 2 + 1 = 3 hops
    graph = {"A": ["B"], "B": ["A", "C"], "C": ["B"]}
    assert hop_difference(graph, "A", "C", "B") == (1, 3, 2)


def test_unknown_vertex_rejected():
    with pytest.raises(VertexNotFound):
        hop_difference({0: [1], 1: [0]}, 0, 1, 7)


def test_router_hop_diameter_counts_vertices():
    assert router_hop_diameter({0: []}) == 1
    assert router_hop_diameter({0: [1], 1: [0]}) == 2
    line = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}
    assert router_hop_diameter(line) == 4


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=14), st.randoms(use_true_random=False))
def test_hop_difference_never_negative(n, rng):
    graph = random_connected_graph(rng, n)
    vertices = sorted(graph)
    for _ in range(10):
        cn, ha, mn = (rng.choice(vertices) for _ in range(3))
        _, _, d = hop_difference(graph, cn, ha, mn)
        assert d >= 0


def test_graph_model_against_independent_oracle():
    rng = random.Random(2024)
    for trial in range(15):
        graph = random_connected_graph(rng, rng.randrange(4, 16))
        oracle = floyd_warshall(graph)
        vertices = sorted(graph)
        k = router_hop_diameter(graph)
        assert k == max(oracle[a][b] for a in vertices for b in vertices) + 1
        worst = 0
        for cn in vertices:
            for ha in vertices:
                for mn in vertices:
                    k_o, k_t, d = hop_difference(graph, cn, ha, mn)
                    assert k_o == oracle[cn][mn]
                    assert k_t == oracle[cn][ha] + oracle[ha][mn]
                    assert d >= 0
                    worst = max(worst, d)
        assert worst <= 2 * (k - 1)


# --------------------------------------------------------- Monte Carlo

def binomial_sigma(p: float, jumps: int) -> float:
    """Per-bin tolerance scale for the empirical distribution; the extra
    factor of two absorbs the dwell-time variance on top of visit counts."""
    return math.sqrt(2.0 * p * (1.0 - p) / jumps)


def test_chain_simulation_matches_uniform_distribution():
    jumps = 50_000
    for d_m in range(1, 21):
        pi, mean = monte_carlo_ctmc(d_m, eta=0.05, jumps=jumps, seed=400 + d_m)
        expected = 1.0 / (d_m + 1)
        tolerance = 3 * binomial_sigma(expected, jumps)
        for j, p in enumerate(pi):
            assert abs(p - expected) < tolerance, (d_m, j, p)
        assert abs(mean - d_m / 2) < 0.05 * max(d_m, 1)


def test_chain_simulation_is_rate_free():
    """The equilibrium occupancy has no rate dependence; with a shared seed
    the dwell draws scale exactly and the distribution is bit-identical."""
    pi_slow, mean_slow = monte_carlo_ctmc(6, eta=0.05, jumps=20_000, seed=9)
    pi_fast, mean_fast = monte_carlo_ctmc(6, eta=0.10, jumps=20_000, seed=9)
    assert pi_slow == pi_fast
    assert mean_slow == mean_fast


def test_chain_simulation_parameter_validation():
    with pytest.raises(InvalidDm):
        monte_carlo_ctmc(0, 1.0, 10, 0)
    with pytest.raises(ValueError):
        monte_carlo_ctmc(2, 1.0, 0, 0)
    with pytest.raises(ValueError):
        monte_carlo_ctmc(2, 0.0, 10, 0)


# ------------------------------------------------------------- the table

def test_penalty_table_reference_row():
    rows = penalty_table(10, 10)
    mobile = next(r for r in rows if r["kind"] == "mobileToMobile")
    assert mobile["mean_hop_penalty"] == 14.0
    assert mobile["delay_mean_ms"] == 70.0
    assert abs(mobile["loss_prob"] - 0.0678) < 1e-4
    fixed = next(r for r in rows if r["kind"] == "fixedToMobile")
    assert fixed["mean_hop_penalty"] == 9.0


def test_penalty_table_degenerate_diameter():
    rows = penalty_table(1, 1)
    for row in rows:
        assert row["mean_hop_penalty"] in (0.0, 0.5)
        assert row["loss_prob"] < 0.003
        assert row["delay_mean_ms"] <= 2.5


def test_penalty_table_monte_carlo_columns_agree():
    rows = penalty_table(5, 6, trials=40_000, seed=4)
    for row in rows:
        if "mc_mean" in row:
            assert abs(row["mc_mean"] - row["mean_hop_penalty"]) \
                < 0.05 * max(row["mean_hop_penalty"], 1.0)


# -------------------------------------------- simulator cross validation

def test_measured_paths_cross_check_graph_model():
    from hmlbn.scenarios import penalty_probe_scenario
    rows = analysis.measure_simulated_penalty(penalty_probe_scenario())
    assert len(rows) == 9
    for row in rows:
        if row["same_area"]:
            assert row["network_extra_hops"] == 0
        assert row["triangular_extra_hops"] >= 0
        assert row["measured_hops"] >= 0


def test_measured_triangular_matches_oracle_distances():
    from hmlbn.scenarios import penalty_probe_scenario
    from hmlbn.scenario import parse_scenario
    from hmlbn.topology import FORWARDING_ROLES
    doc = penalty_probe_scenario()
    rows = analysis.measure_simulated_penalty(doc)
    base = parse_scenario(doc)
    graph = base.graph
    adjacency = {r: [p for p in graph.neighbors(r)
                     if graph.nodes[p].role in FORWARDING_ROLES]
                 for r in graph.forwarding_nodes()}
    oracle = floyd_warshall(adjacency)
    ha = graph.rid_of("LER21")
    cn_ler = graph.regions["MR33"].ler
    for row in rows:
        mn_ler = graph.regions[row["region"]].ler
        assert row["triangular_hops"] == oracle[cn_ler][ha] + oracle[ha][mn_ler]
        assert row["direct_hops"] == oracle[cn_ler][mn_ler]


def test_anchor_at_correspondent_gives_zero_detour():
    from hmlbn.scenarios import penalty_probe_scenario
    doc = penalty_probe_scenario()
    doc["analysis"]["ha_node"] = "LER33"
    rows = analysis.measure_simulated_penalty(doc)
    assert all(row["triangular_extra_hops"] == 0 for row in rows)
