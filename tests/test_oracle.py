import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hemiot.domains import ConvexPolygonDomain, DiskDomain, constant_density
from hemiot.laguerre import LaguerreDiagram, laguerre_diagram
from hemiot.oracle import (DiscretePlan, _grid_atoms, _overlap_agreement,
                           _overlap_table, agreement_ceiling, lp_transport,
                           monotonicity_certificate, semidiscrete_agreement)
from hemiot.solver import solve
from hemiot.targets import DiscreteTarget, chart_disk, discretize

from .ragged import pieces
from .reference import normal_cone_check

SQUARE = ConvexPolygonDomain(np.array([[-0.5, -0.5], [0.5, -0.5],
                                       [0.5, 0.5], [-0.5, 0.5]]))


def _marginals(plan):
    """The plan's row and column sums, each added up in entry order."""
    return (np.bincount(plan.source, plan.mass, len(plan.source_masses)),
            np.bincount(plan.target, plan.mass, len(plan.target_masses)))


def _support(plan, floor):
    """The (source, target) pairs that carry more than floor."""
    keep = plan.mass > floor
    return set(zip(plan.source[keep].tolist(), plan.target[keep].tolist()))


def _random_lp(seed, m, n):
    rng = np.random.default_rng(seed)
    xs = rng.normal(0.0, 1.0, size=(m, 2))
    ps = rng.normal(0.0, 1.0, size=(n, 2))
    mu = rng.uniform(0.5, 2.0, size=m)
    nu = rng.uniform(0.5, 2.0, size=n)
    nu *= mu.sum() / nu.sum()
    return (list(zip(xs, mu)), list(zip(ps, nu)))


def test_one_by_one():
    plan = lp_transport([(np.array([0.3, 0.1]), 2.0)],
                        [(np.array([1.0, -1.0]), 2.0)])
    assert len(plan.mass) == 1
    assert plan.mass[0] == pytest.approx(2.0)
    assert plan.cost == pytest.approx(-(0.3 - 0.1) * 2.0)


def test_two_by_two_monotone_matching():
    # cost -<x, p> rewards pairing x and p on the same side
    sources = [(np.array([-1.0, 0.0]), 1.0), (np.array([1.0, 0.0]), 1.0)]
    targets = [(np.array([-2.0, 0.0]), 1.0), (np.array([2.0, 0.0]), 1.0)]
    plan = lp_transport(sources, targets)
    assert _support(plan, 1e-12) == {(0, 0), (1, 1)}
    assert monotonicity_certificate(plan) >= -1e-10
    # an anti-monotone rearrangement certifies as such
    bad = DiscretePlan(source=np.array([0, 1]), target=np.array([1, 0]),
                       mass=np.array([1.0, 1.0]),
                       sources=plan.sources, source_masses=plan.source_masses,
                       targets=plan.targets, target_masses=plan.target_masses,
                       duals_source=plan.duals_source,
                       duals_target=plan.duals_target, cost=0.0,
                       max_support_slack=0.0, min_reduced_cost=0.0)
    assert monotonicity_certificate(bad) < 0.0


def test_matches_brute_force_on_square_instances():
    from scipy.optimize import linear_sum_assignment

    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        xs = rng.normal(0.0, 1.0, size=(n, 2))
        ps = rng.normal(0.0, 1.0, size=(n, 2))
        sources = [(x, 1.0) for x in xs]
        targets = [(p, 1.0) for p in ps]
        plan = lp_transport(sources, targets)
        C = -(xs @ ps.T)
        rows, perm = linear_sum_assignment(C)
        assert plan.cost == pytest.approx(C[rows, perm].sum(), abs=1e-12)
        assert _support(plan, 1e-9) == {(j, perm[j]) for j in range(n)}


def test_marginals_and_duals():
    sources, targets = _random_lp(3, 12, 9)
    plan = lp_transport(sources, targets)
    mu = np.array([m for _, m in sources])
    nu = np.array([m for _, m in targets])
    rows, cols = _marginals(plan)
    assert np.abs(rows - mu).max() <= 1e-12 * mu.max()
    assert np.abs(cols - nu).max() <= 1e-12 * nu.max()
    # the support is sorted by (source, target)
    assert np.array_equal(np.lexsort((plan.target, plan.source)),
                          np.arange(len(plan.mass)))
    # complementary slackness and dual feasibility of the recovered prices
    assert plan.max_support_slack <= 1e-10
    assert plan.min_reduced_cost >= -1e-10
    # strong duality: dual objective equals the primal cost
    dual = float(plan.duals_source @ mu + plan.duals_target @ nu)
    assert dual == pytest.approx(plan.cost, rel=1e-10, abs=1e-10)


def test_target_permutation_invariance():
    sources, targets = _random_lp(7, 8, 8)
    plan = lp_transport(sources, targets)
    perm = [3, 1, 7, 0, 5, 2, 6, 4]
    shuffled = [targets[i] for i in perm]
    plan2 = lp_transport(sources, shuffled)
    assert plan2.cost == pytest.approx(plan.cost, abs=1e-12)


def _highs_transport(C, mu, nu):
    """Reference optimum of the transportation LP (C, mu, nu) from SciPy's
    HiGHS solver, independent of the package's simplex."""
    from scipy.optimize import linprog

    m, n = C.shape
    rows = np.kron(np.eye(m), np.ones(n))       # sum_i P[j, i] = mu_j
    cols = np.kron(np.ones(m), np.eye(n))       # sum_j P[j, i] = nu_i
    res = linprog(C.ravel(), A_eq=np.vstack([rows, cols]),
                  b_eq=np.concatenate([mu, nu]), bounds=(0, None),
                  method="highs")
    assert res.status == 0
    return res


def _tie_heavy_lp():
    # points on the 3x3 integer grid, so the costs -<x, p> lie in
    # {-2, ..., 2} with many repeats, and integer masses 2 and 3: most
    # pivots are degenerate, and Bland's entering rule and the leaving-cell
    # tie-break choose among many optimal bases
    rng = np.random.default_rng(5)
    xs = rng.integers(-1, 2, size=(12, 2)).astype(float)
    ps = rng.integers(-1, 2, size=(8, 2)).astype(float)
    return [(x, 2.0) for x in xs], [(p, 3.0) for p in ps]


def test_plan_matches_highs_reference():
    for sources, targets in (_random_lp(11, 10, 10), _tie_heavy_lp()):
        plan = lp_transport(sources, targets)
        mu = np.array([m for _, m in sources])
        nu = np.array([m for _, m in targets])
        ref = _highs_transport(-(plan.sources @ plan.targets.T), mu, nu)
        assert plan.cost == pytest.approx(ref.fun, abs=1e-11)
        rows, cols = _marginals(plan)
        assert np.abs(rows - mu).max() <= 1e-12 * mu.max()
        assert np.abs(cols - nu).max() <= 1e-12 * nu.max()
        assert plan.max_support_slack <= 1e-10
        assert plan.min_reduced_cost >= -1e-10


def _integer_grid_lp(seed):
    # points on the 5x5 integer grid and integer masses with equal totals:
    # the costs -<x, p> repeat and partial sums of the masses meet, so many
    # bases are degenerate and the entering rule meets long runs of
    # zero-step pivots
    rng = np.random.default_rng(seed)
    m = int(rng.integers(4, 21))
    mu = rng.integers(1, 5, size=m)
    n = int(rng.integers(4, min(20, mu.sum()) + 1))
    xs = rng.integers(-2, 3, size=(m, 2)).astype(float)
    ps = rng.integers(-2, 3, size=(n, 2)).astype(float)
    cuts = np.sort(rng.choice(np.arange(1, mu.sum()), n - 1, replace=False))
    nu = np.diff(np.concatenate([[0], cuts, [mu.sum()]]))
    return list(zip(xs, mu.astype(float))), list(zip(ps, nu.astype(float)))


def test_degenerate_instances_terminate_at_the_optimum():
    from scipy.optimize import linear_sum_assignment

    for seed in range(20):
        sources, targets = _integer_grid_lp(seed)
        plan = lp_transport(sources, targets)
        mu = np.array([m for _, m in sources])
        nu = np.array([m for _, m in targets])
        ref = _highs_transport(-(plan.sources @ plan.targets.T), mu, nu)
        assert plan.cost == pytest.approx(ref.fun, abs=1e-11), seed
        rows, cols = _marginals(plan)
        assert np.abs(rows - mu).max() == 0.0
        assert np.abs(cols - nu).max() == 0.0
        assert plan.max_support_slack <= 1e-10
        assert plan.min_reduced_cost >= -1e-10
        assert len(plan.basis) == len(mu) + len(nu) - 1
    # unit-mass assignment: every basis has n - 1 flows at zero
    for n in (5, 10, 20, 30, 40):
        rng = np.random.default_rng(n)
        xs = rng.integers(-3, 4, size=(n, 2)).astype(float)
        ps = rng.integers(-3, 4, size=(n, 2)).astype(float)
        plan = lp_transport([(x, 1.0) for x in xs], [(p, 1.0) for p in ps])
        C = -(xs @ ps.T)
        rows, cols = linear_sum_assignment(C)
        assert plan.cost == pytest.approx(C[rows, cols].sum(), abs=1e-11), n
        assert sorted(plan.mass.tolist()) == [1.0] * n
        assert plan.max_support_slack <= 1e-10
        assert plan.min_reduced_cost >= -1e-10
        assert len(plan.basis) == 2 * n - 1


def test_optimality_against_random_feasible_plans():
    rng = np.random.default_rng(19)
    n = 6
    xs = rng.normal(0.0, 1.0, size=(n, 2))
    ps = rng.normal(0.0, 1.0, size=(n, 2))
    C = -(xs @ ps.T)
    plan = lp_transport([(x, 1.0) for x in xs], [(p, 1.0) for p in ps])
    for _ in range(100):
        perm = rng.permutation(n)
        feas = float(sum(C[j, perm[j]] for j in range(n)))
        assert plan.cost <= feas + 1e-12


def test_input_guards():
    with pytest.raises(ValueError):
        lp_transport([(np.zeros(2), 0.0)], [(np.ones(2), 0.0)])
    with pytest.raises(ValueError):  # unbalanced beyond tolerance
        lp_transport([(np.zeros(2), 1.0)], [(np.ones(2), 2.0)])
    big = [(np.array([float(i), 0.0]), 1.0) for i in range(1001)]
    with pytest.raises(ValueError):
        lp_transport(big, big)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_optimal_plans_are_monotone(seed):
    sources, targets = _random_lp(seed, 7, 6)
    plan = lp_transport(sources, targets)
    assert monotonicity_certificate(plan) >= -1e-10


def test_normal_cone_check_certifies_supporting_planes():
    target = discretize(chart_disk(np.zeros(2), 0.8), 12, 1.0)
    sol = solve(SQUARE, constant_density(1.0), target)
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.uniform(-0.45, 0.45, size=2)
        assert normal_cone_check(SQUARE, sol.sites, sol.psi, x, 300, seed=3)
    # the check certifies the max-affine structure, not optimal weights:
    # any psi yields supporting planes of its own upper envelope
    psi_corrupt = sol.psi + rng.normal(0.0, 0.2, size=len(sol.psi))
    assert normal_cone_check(SQUARE, sol.sites, psi_corrupt,
                             np.array([0.1, 0.1]), 300, seed=3)
    with pytest.raises(ValueError):
        normal_cone_check(SQUARE, sol.sites, sol.psi,
                          np.array([2.0, 0.0]), 10)


def test_semidiscrete_agreement_small_instance():
    domain = DiskDomain(np.zeros(2), 0.6)
    K = constant_density(1.0)
    target = discretize(chart_disk(np.zeros(2), 0.75), 6,
                        math.pi * 0.36)
    frac, plan, sol, member = semidiscrete_agreement(domain, K, target,
                                                     grid_m=8)
    assert 0.0 <= frac <= 1.0
    assert sol.report.converged
    assert monotonicity_certificate(plan) >= -1e-10
    ceil = agreement_ceiling(plan, member, target)
    assert frac <= ceil + 1e-12
    # coarse atomizations still agree on the bulk of the mass
    assert frac >= 0.6


def test_agreement_grid_cap():
    domain = DiskDomain(np.zeros(2), 0.6)
    target = discretize(chart_disk(np.zeros(2), 0.75), 5, math.pi * 0.36)
    with pytest.raises(ValueError):
        semidiscrete_agreement(domain, constant_density(1.0), target, grid_m=40)


def _criterion_3_instance():
    domain = DiskDomain(np.zeros(2), 0.6)
    K = constant_density(1.0)
    target = discretize(chart_disk(np.zeros(2), 0.75), 20,
                        math.pi * 0.36)
    return domain, K, target


def _member(domain, K, target, grid_m, sol):
    # the overlap table of the grid atoms against sol's Laguerre cells
    squares, area = _grid_atoms(domain, K, target, grid_m)[2:]
    return _overlap_table(domain, sol.diagram, squares, area)


def test_agreement_reads_the_diagram_arrays_only(monkeypatch):
    # the overlap table takes each cell's neighbours from the diagram's
    # ragged arrays; the LaguerreCell list is never built
    def refuse(diagram):
        raise AssertionError("LaguerreDiagram.cells was built")
    monkeypatch.setattr(LaguerreDiagram, "cells", property(refuse))
    domain, K, target = _criterion_3_instance()
    frac, plan, sol, member = semidiscrete_agreement(domain, K, target, 15)
    assert frac >= 0.95
    assert member.shape == (len(plan.source_masses), len(target))
    with pytest.raises(AssertionError, match="cells was built"):
        sol.diagram.cells


def test_overlap_agreement_does_not_depend_on_solver_tol():
    domain, K, target = _criterion_3_instance()
    frac, plan, sol, member = semidiscrete_agreement(domain, K, target, 15,
                                                     tol=1e-7)
    fine = semidiscrete_agreement(domain, K, target, 15, tol=1e-10)[0]
    assert abs(frac - fine) <= 1e-12
    ceiling = agreement_ceiling(plan, member, target)
    assert frac <= ceiling + 1e-12
    # the ceiling is the maximum of the overlap LP, as HiGHS finds it
    masses = _grid_atoms(domain, K, target, 15)[1]
    ref = _highs_transport(-_member(domain, K, target, 15, sol).astype(float),
                           masses, target.masses)
    assert ceiling == pytest.approx(-ref.fun / target.total, abs=1e-12)


def test_overlap_agreement_rejects_wrong_partitions():
    # the LP plan of the criterion-3 instance is scored against partitions
    # that send the mass to the wrong sites
    domain, K, target = _criterion_3_instance()
    frac, plan, sol, _ = semidiscrete_agreement(domain, K, target, grid_m=15)
    assert frac == _overlap_agreement(
        plan, _member(domain, K, target, 15, sol))
    # mass-balanced but anti-monotone: cell i is the cell of site -p_i
    flipped = DiscreteTarget(sites=-target.sites, masses=target.masses,
                             total=target.total)
    anti = solve(domain, K, flipped, tol=1e-7)
    assert anti.report.converged
    anti_frac = _overlap_agreement(
        plan, _member(domain, K, target, 15, anti))
    # the unweighted partition psi = 0 misplaces most of the mass
    zero = np.zeros(len(target))
    flat = dataclasses.replace(
        sol, psi=zero, diagram=laguerre_diagram(domain, target.sites, zero))
    flat_frac = _overlap_agreement(
        plan, _member(domain, K, target, 15, flat))
    assert anti_frac <= 0.05
    assert flat_frac <= 0.5


def _all_pairs_table(domain, sol, squares, atom_area):
    # the overlap table with every atom's square cut against every nonempty
    # cell, each with the neighbours its LaguerreCell lists
    from hemiot.geometry import ring_area_centroid
    from hemiot.laguerre import cell_cutter
    from hemiot.oracle import OVERLAP_SHARE
    rows = [c.neighbors for c in sol.diagram.cells]
    indptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
    nbrs = np.array([j for r in rows for j in r], dtype=int)
    cells = [c for c in sol.diagram.cells if not c.is_empty]
    cell = np.repeat([c.site_index for c in cells], len(squares))
    ring, sizes, labels = cell_cutter(
        domain, sol.diagram.sites, sol.diagram.psi,
        *pieces(*np.tile(squares, (len(cells), 1, 1))), cell, indptr, nbrs)
    area = np.zeros((len(squares), len(sol.sites)))
    area[np.tile(np.arange(len(squares)), len(cells)), cell] = \
        ring_area_centroid(ring, sizes, labels, domain.circle)[0]
    return area > OVERLAP_SHARE * atom_area[:, None]


@pytest.mark.parametrize("domain, N, grid_m", [
    (DiskDomain(np.zeros(2), 0.6), 20, 15),
    (DiskDomain(np.zeros(2), 0.6), 12, 31),
    (ConvexPolygonDomain(np.array([[0.0, 0.0], [1.0, 0.0], [1.2, 0.7],
                                   [0.3, 1.0]])), 30, 12),
], ids=["criterion-3", "long-arcs", "quadrilateral"])
def test_overlap_table_box_test_keeps_the_all_pairs_table(monkeypatch, domain,
                                                          N, grid_m):
    # squares whose box misses a cell's box are not cut, and the table is
    # the one of all pairs; on 9 cells and a 31 x 31 grid, squares lie in
    # an arc's bulge beyond the box of its cell's vertices
    import hemiot.oracle as oracle
    K = constant_density(1.0)
    target = discretize(chart_disk(np.zeros(2), 0.75), N, domain.area)
    sol = solve(domain, K, target, tol=1e-7)
    squares, area = oracle._grid_atoms(domain, K, target, grid_m)[2:]
    cuts, cutter = [], oracle.cell_cutter

    def counted(*args):
        cuts.append(len(args[4]))
        return cutter(*args)
    monkeypatch.setattr(oracle, "cell_cutter", counted)
    table = oracle._overlap_table(domain, sol.diagram, squares, area)
    assert np.array_equal(table, _all_pairs_table(domain, sol, squares, area))
    assert len(cuts) == 1
    assert 0 < cuts[0] <= 0.2 * len(squares) * sol.diagram.nonempty.sum()


def _two_by_two_lp():
    # C = [[-10, -9], [-9, 0]] with unit masses: the least-cost start takes
    # the cheapest cell (0, 0) and ends on the plan of cost -10, so one
    # pivot is needed to reach the anti-diagonal, of cost -18
    return ([(np.array([1.0, 0.0]), 1.0), (np.array([0.0, 1.0]), 1.0)],
            [(np.array([10.0, 9.0]), 1.0), (np.array([9.0, 0.0]), 1.0)])


def test_simplex_reports_its_pivot_cap(monkeypatch):
    import hemiot.oracle as oracle
    plan = lp_transport(*_two_by_two_lp())
    assert plan.pivots == 1
    assert plan.cost == -18.0
    monkeypatch.setattr(oracle, "_MAX_PIVOTS", 1)
    with pytest.raises(RuntimeError, match="simplex did not terminate after "
                                           "1 pivots on an 2×2 problem"):
        lp_transport(*_two_by_two_lp())


def test_simplex_rejects_a_disconnected_basis_tree(monkeypatch):
    # the first pivot's walk of the tree from row 0 reaches row 0 alone
    import hemiot.oracle as oracle
    hang = oracle._hang

    def truncated(rows, m, adj):
        nodes, *rest = hang(rows, m, adj)
        return (nodes[:1], *rest)
    monkeypatch.setattr(oracle, "_hang", truncated)
    with pytest.raises(RuntimeError, match="^disconnected basis tree$"):
        lp_transport(*_two_by_two_lp())


def _cold_ceiling(plan, member, target):
    # the ceiling LP solved from the least-cost start, not the plan's basis
    from hemiot.oracle import _transport_basis
    j, i, f = _transport_basis(-member.astype(float), plan.source_masses,
                               plan.target_masses)[:3]
    return sum(f[member[j, i]].tolist()) / target.total


def test_ceiling_starts_from_the_plan_basis_without_pivots(monkeypatch):
    # on criterion 3 the plan's final basis is optimal for the ceiling LP
    # too, and the warm start reaches the cold start's maximum
    import hemiot.oracle as oracle
    simplex, pivots = oracle._simplex, []

    def counted(*args):
        out = simplex(*args)
        pivots.append(out[-1])
        return out
    monkeypatch.setattr(oracle, "_simplex", counted)
    domain, K, target = _criterion_3_instance()
    frac, plan, sol, member = semidiscrete_agreement(domain, K, target, 15,
                                                     tol=1e-7)
    ceiling = agreement_ceiling(plan, member, target)
    assert pivots[0] > 0 and pivots[1] == 0
    assert ceiling == pytest.approx(_cold_ceiling(plan, member, target),
                                    abs=1e-12)


def test_warm_started_ceiling_matches_a_cold_start():
    # a random overlap table on the tie-heavy instance: the plan's basis
    # is feasible but not optimal for the ceiling LP
    from types import SimpleNamespace
    plan = lp_transport(*_tie_heavy_lp())
    target = SimpleNamespace(total=plan.target_masses.sum())
    for seed in range(5):
        member = np.random.default_rng(seed).random((12, 8)) < 0.3
        assert agreement_ceiling(plan, member, target) == pytest.approx(
            _cold_ceiling(plan, member, target), abs=1e-12), seed
