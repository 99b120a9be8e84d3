import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import evaluate_each, nondominated, run_de_one_at_a_time

from bwopt import evolution
from bwopt.evolution import (
    EAConfig,
    Individual,
    binary_tournament,
    crossover,
    dominates,
    environmental_selection,
    init_population,
    mutate,
    run_de,
    run_spea2,
    sample_genotype,
    spea2_fitness,
    _de_trial,
    _pairwise_distances,
    _truncate,
    _update_front,
)
from bwopt.geometry import Encoding, Genotype, decode
from bwopt.objectives import ObjectiveVector, cost
import bwopt.scenario as scenario_module


class FixedInts:
    """rng stub whose integers() always returns a fixed value."""

    def __init__(self, value):
        self.value = value

    def integers(self, *args, **kwargs):
        return self.value


def cart(genes):
    return Genotype(Encoding.CARTESIAN, np.array(genes, dtype=float))


def inds_from_points(points):
    out = []
    for p in points:
        out.append(Individual(point=np.asarray(p, dtype=float)))
    return out


# ----- dominance -----

def test_dominates_basic():
    assert dominates(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
    assert dominates(np.array([1.0, 2.0]), np.array([1.0, 3.0]))
    assert not dominates(np.array([1.0, 2.0]), np.array([2.0, 1.0]))
    assert not dominates(np.array([1.0, 2.0]), np.array([1.0, 2.0]))


# ----- crossover -----

def test_crossover_one_point_after_first_block():
    a = cart([1, 2, 3, 4, 5, 6])
    b = cart([10, 20, 30, 40, 50, 60])
    ca, cb = crossover(a, b, None, FixedInts(1))
    assert np.array_equal(ca.genes, [1, 2, 30, 40, 50, 60])
    assert np.array_equal(cb.genes, [10, 20, 3, 4, 5, 6])


def test_crossover_cut_points_cover_all_boundaries():
    a = cart([1, 2, 3, 4, 5, 6])
    b = cart([10, 20, 30, 40, 50, 60])
    outcomes = set()
    rng = np.random.default_rng(0)
    for _ in range(200):
        ca, _ = crossover(a, b, None, rng)
        outcomes.add(tuple(ca.genes))
    # two interior boundaries exist for 3 blocks
    assert outcomes == {
        (1, 2, 30, 40, 50, 60),
        (1, 2, 3, 4, 50, 60),
    }


def test_crossover_masked_swaps_only_active_block():
    a = cart([1, 2, 3, 4, 5, 6])
    b = cart([10, 20, 30, 40, 50, 60])
    ca, cb = crossover(a, b, slice(2, 4), FixedInts(0))
    assert np.array_equal(ca.genes, [1, 2, 30, 40, 5, 6])
    assert np.array_equal(cb.genes, [10, 20, 3, 4, 50, 60])


def test_crossover_identical_parents_identical_children():
    a = cart([1, 2, 3, 4])
    ca, cb = crossover(a, a, None, np.random.default_rng(0))
    assert np.array_equal(ca.genes, a.genes)
    assert np.array_equal(cb.genes, a.genes)


def test_crossover_single_block_without_mask_copies():
    a = cart([1, 2])
    b = cart([10, 20])
    ca, cb = crossover(a, b, None, FixedInts(0))
    assert np.array_equal(ca.genes, a.genes)
    assert np.array_equal(cb.genes, b.genes)
    assert ca is not a and cb is not b


# ----- mutation -----

def test_mutate_rate_zero_is_identity():
    g = cart([1.5, 2.5, 3.5, 4.5])
    config = EAConfig(mutation_rate=0.0)
    out = mutate(g, None, config, np.random.default_rng(0))
    assert np.array_equal(out.genes, g.genes)


def test_mutate_sigma_zero_is_identity():
    g = Genotype(Encoding.ANGULAR, np.array([2.0, 30.0, 4.0, -60.0]))
    config = EAConfig(mutation_rate=1.0, sigma_length=0.0, sigma_angle=0.0)
    out = mutate(g, None, config, np.random.default_rng(0))
    assert np.max(np.abs(out.genes - g.genes)) < 1e-9


def test_mutate_fraction_matches_rate():
    genes = np.zeros(10_000)
    g = cart(genes)
    config = EAConfig(mutation_rate=0.5, sigma_cartesian=1.0)
    out = mutate(g, None, config, np.random.default_rng(1))
    fraction = np.mean(out.genes != 0.0)
    assert 0.48 <= fraction <= 0.52


def test_mutate_clamps_angular_lengths():
    g = Genotype(Encoding.ANGULAR, np.array([0.1, 0.0] * 50))
    config = EAConfig(mutation_rate=1.0, sigma_length=50.0)
    out = mutate(g, None, config, np.random.default_rng(2))
    assert np.all(out.genes[0::2] >= 0.0)
    assert np.any(out.genes[0::2] == 0.0)  # clamping actually happened


def test_mutate_respects_mask():
    g = cart([1, 2, 3, 4, 5, 6])
    config = EAConfig(mutation_rate=1.0, sigma_cartesian=1.0)
    out = mutate(g, slice(2, 4), config, np.random.default_rng(3))
    assert np.array_equal(out.genes[:2], g.genes[:2])
    assert np.array_equal(out.genes[4:], g.genes[4:])
    assert not np.array_equal(out.genes[2:4], g.genes[2:4])


# ----- SPEA2 fitness -----

def spea2_oracle(points):
    """Straightforward restatement of the strength/raw/density definitions."""
    points = np.asarray(points, dtype=float)
    n = len(points)

    def dom(a, b):
        return not np.any(points[a] > points[b]) and np.any(points[b] > points[a])

    strength = [sum(dom(i, j) for j in range(n) if j != i) for i in range(n)]
    raw = [
        float(sum(strength[j] for j in range(n) if j != i and dom(j, i)))
        for i in range(n)
    ]
    k = min(int(math.floor(math.sqrt(n))), n - 1)
    density = []
    for i in range(n):
        if n == 1:
            density.append(1.0 / 2.0)
            continue
        dists = sorted(
            float(np.linalg.norm(points[i] - points[j])) for j in range(n) if j != i
        )
        density.append(1.0 / (dists[max(k, 1) - 1] + 2.0))
    return [r + d for r, d in zip(raw, density)], raw


def test_spea2_fitness_single_individual():
    ind = Individual(point=np.array([1.0, 2.0]))
    spea2_fitness([ind])
    assert ind.fitness == pytest.approx(0.5)  # R=0, D=1/(0+2)


def test_spea2_fitness_two_ordered():
    a = Individual(point=np.array([1.0, 1.0]))
    b = Individual(point=np.array([2.0, 2.0]))
    spea2_fitness([a, b])
    assert a.fitness < 1.0
    assert b.fitness >= 1.0
    # S(a)=1 so R(b)=1; shared nearest-neighbor distance sqrt(2)
    assert b.fitness == pytest.approx(1.0 + 1.0 / (math.sqrt(2.0) + 2.0))


def test_spea2_fitness_matches_oracle_on_random_sets():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(2, 31))
        d = int(rng.integers(2, 5))
        points = rng.uniform(0, 1, size=(n, d))
        union = inds_from_points(points)
        spea2_fitness(union)
        expected, raw = spea2_oracle(points)
        for ind, f, r in zip(union, expected, raw):
            assert ind.fitness == pytest.approx(f, abs=1e-12)
            # R = 0 exactly for nondominated members
            assert (ind.fitness < 1.0) == (r == 0.0)


def test_spea2_fitness_eight_points_2d():
    points = np.array(
        [[0.1, 0.9], [0.2, 0.8], [0.3, 0.3], [0.9, 0.1],
         [0.5, 0.5], [0.6, 0.9], [0.95, 0.4], [0.4, 0.6]]
    )
    union = inds_from_points(points)
    spea2_fitness(union)
    expected, _ = spea2_oracle(points)
    assert [ind.fitness for ind in union] == pytest.approx(expected, abs=1e-12)


# ----- environmental selection -----

def truncation_oracle(points, target):
    """Step-by-step reference: drop the lexicographically most crowded point."""
    alive = list(range(len(points)))
    while len(alive) > target:
        keys = []
        for i in alive:
            dists = sorted(
                float(np.linalg.norm(points[i] - points[j])) for j in alive if j != i
            )
            keys.append((tuple(dists), i))
        keys.sort()
        alive.remove(keys[0][1])
    return {tuple(points[i]) for i in alive}


def test_truncation_matches_reference_oracle():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(6, 15))
        # sample a nondominated 2-D set: descending y over ascending x
        xs = np.sort(rng.uniform(0, 1, n))
        ys = np.sort(rng.uniform(0, 1, n))[::-1]
        points = np.column_stack([xs, ys])
        union = inds_from_points(points)
        spea2_fitness(union)
        target = int(rng.integers(3, n))
        archive = environmental_selection(union, target, rng)
        assert len(archive) == target
        got = {tuple(ind.point) for ind in archive}
        assert got == truncation_oracle(points, target)


def truncate_loop_reference(candidates, target, rng):
    """The per-survivor loop _truncate replaced, kept as its bit-level reference."""
    alive = list(range(len(candidates)))
    points = np.array([candidates[i].point for i in alive])
    dist = _pairwise_distances(points)
    while len(alive) > target:
        best_key = None
        best_idx = []
        for i in alive:
            others = [j for j in alive if j != i]
            key = tuple(np.sort(dist[i, others]))
            if best_key is None or key < best_key:
                best_key, best_idx = key, [i]
            elif key == best_key:
                best_idx.append(i)
        victim = best_idx[0] if len(best_idx) == 1 else best_idx[int(rng.integers(len(best_idx)))]
        alive.remove(victim)
    return [candidates[i] for i in alive]


def test_truncation_exact_ties_match_loop_reference():
    # equally spaced collinear points, an integer grid and exact duplicates
    # all tie exactly, so the uniform tie draw is reached
    point_sets = [
        [[i, -i] for i in range(9)],
        [[x, y] for x in range(4) for y in range(4)],
        [[0, 2], [0, 2], [1, 1], [1, 1], [2, 0], [2, 0], [3, -1]],
    ]
    tie_draws = 0
    for points in point_sets:
        union = inds_from_points(points)
        for target in range(1, len(union)):
            for seed in range(3):
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = _truncate(union, target, rng)
                assert got == truncate_loop_reference(union, target, ref_rng)
                assert rng.bit_generator.state == ref_rng.bit_generator.state
                tie_draws += rng.bit_generator.state != np.random.default_rng(seed).bit_generator.state
    assert tie_draws > 0


def truncate_resort_reference(candidates, target, rng):
    """The truncation that re-sorted the survivors' distances for every removal, kept as the reference."""
    points = np.array([ind.point for ind in candidates])
    dist = _pairwise_distances(points)
    np.fill_diagonal(dist, np.inf)
    alive = np.arange(len(candidates))
    while len(alive) > target:
        keys = np.sort(dist[np.ix_(alive, alive)], axis=1)
        lowest = keys[np.lexsort(keys.T[::-1])[0]]
        ties = np.flatnonzero(np.all(keys == lowest, axis=1))
        victim = ties[0] if len(ties) == 1 else ties[int(rng.integers(len(ties)))]
        alive = np.delete(alive, victim)
    return [candidates[i] for i in alive]


def test_truncation_of_random_5d_sets_matches_resort_reference():
    # half the sets sit on a coarse grid with repeated points, where keys tie
    # exactly and the uniform tie draw is taken
    tie_draws = 0
    for seed in range(12):
        data = np.random.default_rng(seed)
        points = data.uniform(-100.0, 100.0, (60, 5))
        if seed % 2:
            points = np.round(points / 50.0)
            points[30:40] = points[:10]
        union = inds_from_points(points)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _truncate(union, 30, rng)
        assert [id(ind) for ind in got] == [id(ind) for ind in truncate_resort_reference(union, 30, ref_rng)]
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        tie_draws += rng.bit_generator.state != np.random.default_rng(seed).bit_generator.state
    assert tie_draws > 0


def test_selection_fills_with_best_dominated():
    # 3 nondominated plus 4 dominated, archive of 5
    points = [
        [0.0, 1.0], [0.5, 0.5], [1.0, 0.0],
        [2.0, 2.0], [3.0, 3.0], [4.0, 4.0], [5.0, 5.0],
    ]
    union = inds_from_points(points)
    spea2_fitness(union)
    archive = environmental_selection(union, 5, np.random.default_rng(0))
    got = sorted(tuple(ind.point) for ind in archive)
    assert len(archive) == 5
    assert [p for p in got if p[0] <= 1.0] == [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]
    # the two best dominated by fitness are the least-dominated ones
    assert (2.0, 2.0) in got and (3.0, 3.0) in got


def test_selection_with_small_union_returns_all():
    union = inds_from_points([[0.0, 1.0], [1.0, 0.0]])
    spea2_fitness(union)
    archive = environmental_selection(union, 10, np.random.default_rng(0))
    assert len(archive) == 2


def test_selection_keeps_archive_mutually_nondominated_when_full():
    rng = np.random.default_rng(33)
    for _ in range(20):
        points = rng.uniform(0, 1, size=(40, 3))
        union = inds_from_points(points)
        spea2_fitness(union)
        archive = environmental_selection(union, 10, rng)
        assert len(archive) == 10
        nondom_members = [ind for ind in archive if ind.fitness < 1.0]
        for i, a in enumerate(nondom_members):
            for b in nondom_members[i + 1 :]:
                assert not dominates(a.point, b.point)
                assert not dominates(b.point, a.point)


# ----- binary tournament -----

def test_tournament_pool_of_one():
    only = Individual(fitness=3.0)
    assert binary_tournament([only], np.random.default_rng(0)) is only


def test_tournament_win_rate_matches_closed_form():
    pool = [Individual(fitness=float(i)) for i in range(5)]
    rng = np.random.default_rng(4)
    wins = sum(binary_tournament(pool, rng) is pool[0] for _ in range(10_000))
    expected = 1.0 - (4.0 / 5.0) ** 2
    assert abs(wins / 10_000 - expected) < 0.02


def test_tournament_ties_split_evenly():
    a = Individual(fitness=1.0)
    b = Individual(fitness=1.0)
    rng = np.random.default_rng(5)
    wins_a = sum(binary_tournament([a, b], rng) is a for _ in range(10_000))
    assert abs(wins_a / 10_000 - 0.5) < 0.03


# ----- initialization -----

def test_init_population_size_and_determinism(unit_scenario):
    config = EAConfig(population_size=12, seed=7)
    pop1 = init_population(config, unit_scenario, np.random.default_rng(7))
    pop2 = init_population(config, unit_scenario, np.random.default_rng(7))
    assert len(pop1) == 12
    for g1, g2 in zip(pop1, pop2):
        assert np.array_equal(g1.genes, g2.genes)


def test_init_population_mostly_feasible(harbor_scenario):
    from bwopt.objectives import constraint_counts

    config = EAConfig(population_size=100, seed=0)
    pop = init_population(config, harbor_scenario, np.random.default_rng(0))
    feasible = sum(sum(constraint_counts(g, harbor_scenario)) == 0 for g in pop)
    # observed 100/100 on the shipped harbor scenario; 90% is the floor
    assert feasible >= 90


def test_sample_genotype_ranges(unit_scenario):
    rng = np.random.default_rng(0)
    for _ in range(100):
        g = sample_genotype(EAConfig(encoding=Encoding.ANGULAR), unit_scenario, rng)
        assert np.all(g.genes[0::2] >= 0.0)
        assert np.all(g.genes[0::2] <= unit_scenario.init.max_length)
        assert np.all(g.genes[1::2] >= unit_scenario.init.angle_low)
        assert np.all(g.genes[1::2] <= unit_scenario.init.angle_high)


def test_sample_genotype_discrete_levels(tiny_scenario):
    rng = np.random.default_rng(0)
    for _ in range(50):
        g = sample_genotype(EAConfig(encoding=Encoding.ANGULAR), tiny_scenario, rng)
        assert g.genes[0] in tiny_scenario.gene_levels.lengths
        assert g.genes[1] in tiny_scenario.gene_levels.angles


# ----- greedy mask -----

def test_mask_gene_slice():
    # the mask is the active block's gene pair; there is none without greedy
    assert evolution._mask(EAConfig(greedy=True), 5, 3) == slice(4, 6)
    assert evolution._mask(EAConfig(greedy=True, generations_per_segment=2), 5, 3) == slice(2, 4)
    assert evolution._mask(EAConfig(), 5, 3) is None


@pytest.mark.parametrize("dwell", [0, -1])
def test_generations_per_segment_below_one_is_rejected(dwell):
    with pytest.raises(ValueError, match="generations_per_segment must be at least 1"):
        EAConfig(greedy=True, generations_per_segment=dwell)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("mutation_rate", "0.5", "mutation_rate must be a finite number, got '0.5'"),
        ("crossover_rate", True, "crossover_rate must be a finite number, got True"),
        ("de_weight", float("nan"), "de_weight must be a finite number, got nan"),
        ("sigma_angle", float("inf"), "sigma_angle must be a finite number, got inf"),
        ("init_retries", 50.0, "init_retries must be an integer, got 50.0"),
        ("seed", "1", "seed must be an integer, got '1'"),
        ("population_size", False, "population_size must be an integer, got False"),
    ],
    ids=["string", "bool", "nan", "inf", "float_count", "string_seed", "bool_count"],
)
def test_ea_config_rejects_a_numeric_field_that_is_no_finite_json_number(key, value, message):
    # each once built a config whose runs failed or drifted: "0.5" < 0.25 raises in mutate
    with pytest.raises(ValueError, match=f"^EAConfig {message}$"):
        EAConfig(**{key: value})
    # a NumPy scalar of the right kind passes
    EAConfig(**{key: np.float64(0.5) if isinstance(getattr(EAConfig, key), float) else np.int64(2)})


# ----- full loops -----

def small_config(**kw):
    base = dict(population_size=8, archive_size=8, generations=6, seed=3)
    base.update(kw)
    return EAConfig(**base)


def test_spea2_history_shape(unit_scenario):
    history = run_spea2(small_config(), unit_scenario)
    assert history.algorithm == "spea2"
    assert [rec.generation for rec in history.records] == list(range(6))
    assert [rec.model_runs for rec in history.records] == [8 * (g + 1) for g in range(6)]
    for rec in history.records:
        assert len(rec.population) == 8
        assert len(rec.archive) == 8


def test_spea2_zero_generations_evaluates_initial_population(unit_scenario):
    history = run_spea2(small_config(generations=0), unit_scenario)
    assert len(history.records) == 1
    assert history.records[0].generation == 0
    assert history.records[0].model_runs == 8


def test_spea2_fixed_seed_is_reproducible(unit_scenario):
    h1 = run_spea2(small_config(), unit_scenario)
    h2 = run_spea2(small_config(), unit_scenario)
    for r1, r2 in zip(h1.records, h2.records):
        assert r1.best_scalar == r2.best_scalar
        for i1, i2 in zip(r1.population, r2.population):
            assert np.array_equal(i1.genotype.genes, i2.genotype.genes)
            assert np.array_equal(i1.point, i2.point)


def test_spea2_best_scalar_non_increasing(unit_scenario):
    history = run_spea2(small_config(), unit_scenario)
    values = [rec.best_scalar for rec in history.records]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_spea2_greedy_checks_every_offspring(unit_scenario):
    history = run_spea2(small_config(greedy=True), unit_scenario)
    # 5 breeding rounds of 8 children, every one checked, none violating
    assert history.greedy_checks == 5 * 8
    assert history.greedy_violations == 0


def test_spea2_front_is_feasible_and_nondominated(unit_scenario):
    history = run_spea2(small_config(), unit_scenario)
    front = history.final_front()
    assert front
    for ind in front:
        assert ind.objectives.feasible
    points = np.array([ind.point for ind in front])
    for i in range(len(points)):
        for j in range(len(points)):
            if i != j:
                assert not dominates(points[i], points[j])


def test_de_history_shape(unit_scenario):
    history = run_de(small_config(), unit_scenario)
    assert history.algorithm == "de"
    assert [rec.model_runs for rec in history.records] == [8 * (g + 1) for g in range(6)]
    values = [rec.best_scalar for rec in history.records]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_de_fixed_seed_is_reproducible(unit_scenario):
    h1 = run_de(small_config(), unit_scenario)
    h2 = run_de(small_config(), unit_scenario)
    for r1, r2 in zip(h1.records, h2.records):
        for i1, i2 in zip(r1.population, r2.population):
            assert np.array_equal(i1.genotype.genes, i2.genotype.genes)
            assert i1.fitness == i2.fitness


def test_de_greedy_mask_checked(unit_scenario):
    history = run_de(small_config(greedy=True), unit_scenario)
    assert history.greedy_checks == 5 * 8
    assert history.greedy_violations == 0


def test_de_rejects_a_population_too_small_for_rand_1_before_evaluating(unit_scenario, monkeypatch):
    # Scenario.evaluate and Scenario.evaluate_many both call the scenario module's evaluate
    evaluated = []
    monkeypatch.setattr(scenario_module, "evaluate", lambda genotypes, scenario: evaluated.extend(genotypes))
    with pytest.raises(ValueError, match="rand/1 needs 3 distinct partners"):
        run_de(small_config(population_size=3), unit_scenario)
    assert evaluated == []


@pytest.mark.parametrize("dwell", [1, 2, 3])
@pytest.mark.parametrize("run", [run_spea2, run_de], ids=["spea2", "de"])
def test_greedy_schedule_dwells_on_each_block_in_turn(unit_scenario, monkeypatch, run, dwell):
    # offspring generation t is bred under block ((t - 1) // dwell) % n_blocks
    seen = []
    check = evolution._check_mask

    def recording(history, child, parent, mask):
        seen.append((len(history.records), mask))
        check(history, child, parent, mask)

    monkeypatch.setattr(evolution, "_check_mask", recording)
    n_blocks = unit_scenario.n_blocks
    generations = n_blocks * dwell + 2  # the schedule wraps back to block 0
    history = run(small_config(greedy=True, generations_per_segment=dwell, generations=generations), unit_scenario)
    assert n_blocks >= 2
    assert history.greedy_checks == len(seen) == 8 * (generations - 1)
    assert sorted({t for t, _ in seen}) == list(range(1, generations))
    blocks = [(t - 1) // dwell % n_blocks for t, _ in seen]
    assert all(mask == slice(2 * b, 2 * b + 2) for (_, mask), b in zip(seen, blocks))


def test_de_trial_degenerate_copies_population_member(unit_scenario):
    rng = np.random.default_rng(11)
    population = [
        Individual(genotype=cart([float(10 * i + j) for j in range(4)]))
        for i in range(5)
    ]
    config = EAConfig(de_weight=0.0, crossover_rate=1.0)
    trial = _de_trial(population, 0, None, config, unit_scenario, rng)
    donors = [tuple(ind.genotype.genes) for ind in population[1:]]
    assert tuple(trial.genes) in donors


def test_de_trial_masked_touches_active_block_only(unit_scenario):
    rng = np.random.default_rng(12)
    population = [
        Individual(genotype=cart([float(10 * i + j) for j in range(6)]))
        for i in range(6)
    ]
    config = EAConfig(de_weight=0.7, crossover_rate=1.0)
    trial = _de_trial(population, 2, slice(2, 4), config, unit_scenario, rng)
    target = population[2].genotype.genes
    assert np.array_equal(trial.genes[:2], target[:2])
    assert np.array_equal(trial.genes[4:], target[4:])
    assert not np.array_equal(trial.genes[2:4], target[2:4])


def assert_same_runs(history, reference):
    """Record by record: genes, points and fitness of population, front and arrivals; greedy checks."""
    assert (history.greedy_checks, history.greedy_violations) == (reference.greedy_checks, reference.greedy_violations)
    assert len(history.records) == len(reference.records)
    for record, expected in zip(history.records, reference.records):
        assert (record.generation, record.model_runs) == (expected.generation, expected.model_runs)
        assert record.best_scalar == expected.best_scalar
        for key in ("population", "front", "arrivals"):
            members, others = getattr(record, key), getattr(expected, key)
            assert len(members) == len(others), key
            for ind, other in zip(members, others):
                assert ind.genotype.genes.tobytes() == other.genotype.genes.tobytes(), key
                assert ind.point.tobytes() == other.point.tobytes(), key
                assert ind.fitness == other.fitness, key


def record_batches(monkeypatch, scenario) -> list[list]:
    """The genotypes of every later scenario.evaluate_many call, one list per call."""
    batches = []
    evaluate_many = type(scenario).evaluate_many

    def recording(self, genotypes):
        batches.append(list(genotypes))
        return evaluate_many(self, genotypes)

    monkeypatch.setattr(type(scenario), "evaluate_many", recording)
    return batches


@pytest.mark.filterwarnings("ignore::bwopt.objectives.EvaluationWarning")  # tiny_discrete's +100 % cost
@pytest.mark.parametrize(
    "scenario_name, greedy, seed",
    [("harbor_scenario", True, 1000), ("tiny_scenario", False, 1)],
    ids=["sochi_like_angular_greedy_1000", "tiny_discrete_angular_1"],
)
def test_de_batches_keep_the_one_at_a_time_trajectory(request, monkeypatch, scenario_name, greedy, seed):
    # sochi_like angular greedy at EA seed 1000 ties 5 times where the trial differs from its
    # target; tiny_discrete's gene levels make most of its ties trials equal to their targets
    scenario = request.getfixturevalue(scenario_name)
    config = EAConfig(encoding=Encoding.ANGULAR, greedy=greedy, seed=seed)
    reference = run_de_one_at_a_time(config, scenario)
    batches = record_batches(monkeypatch, scenario)
    history = run_de(config, scenario)
    assert_same_runs(history, reference)
    assert history.records[-1].model_runs == 900
    assert len(batches) > 30  # some tie re-batched the trials after it


def test_de_evaluates_a_generation_as_one_batch_and_rebatches_after_an_unforeseen_tie(
    unit_scenario, monkeypatch
):
    config = small_config()  # 8 individuals, 6 generations
    batches = record_batches(monkeypatch, unit_scenario)
    plain = run_de(config, unit_scenario)
    plain_batches = list(batches)
    assert [len(b) for b in batches] == [8] * 6  # no tie: a generation is one batch
    assert_same_runs(plain, run_de_one_at_a_time(config, unit_scenario))

    # a sure tie: the fourth trial built (generation 1, individual 3) is a copy of its target
    def with_sure_tie():
        calls = []

        def trial(population, i, *args):
            built = _de_trial(population, i, *args)  # its draws stay in the stream
            calls.append(i)
            return population[i].genotype.copy() if len(calls) == 4 else built

        return trial

    monkeypatch.setattr(evolution, "_de_trial", with_sure_tie())
    batches.clear()
    history = run_de(config, unit_scenario)
    assert [len(b) for b in batches] == [8] * 6  # its coin is drawn when it is built: no extra batch
    assert np.array_equal(batches[1][3].genes, plain.records[0].population[3].genotype.genes)
    monkeypatch.setattr(conftest, "_de_trial", with_sure_tie())
    assert_same_runs(history, run_de_one_at_a_time(config, unit_scenario))
    monkeypatch.undo()

    # an unforeseen tie: generation 1's trial 5 scores as its target, with other genes
    trial, target = plain_batches[1][5], plain.records[0].population[5]
    assert not np.array_equal(trial.genes, target.genotype.genes)
    tied = unit_scenario.min_point(unit_scenario.evaluate_many([trial])[0]).tobytes()
    scalar = type(unit_scenario).scalar

    def tying(self, point, violations):
        return target.fitness if point.tobytes() == tied else scalar(self, point, violations)

    monkeypatch.setattr(type(unit_scenario), "scalar", tying)
    batches = record_batches(monkeypatch, unit_scenario)
    history = run_de(config, unit_scenario)
    assert [len(b) for b in batches] == [8, 8, 2, 8, 8, 8, 8]  # trials 6 and 7 of generation 1 again
    assert_same_runs(history, run_de_one_at_a_time(config, unit_scenario))
    assert history.records[-1].model_runs == 48


def test_de_shared_stage_failure_names_the_whole_generation(unit_scenario, monkeypatch):
    heights = type(unit_scenario.wave_model).heights
    calls = []

    def failing_after_generation_0(*args):
        calls.append(args)
        if len(calls) > 1:
            raise FloatingPointError("shared stage")
        return heights(*args)

    monkeypatch.setattr(type(unit_scenario.wave_model), "heights", failing_after_generation_0)
    with pytest.raises(RuntimeError, match=r"^evaluation failed at generation 1, individuals 0 to 7$"):
        run_de(small_config(), unit_scenario)


# ----- cost-only surrogate -----

class CostOnlyScenario:
    """Surrogate with the cost objective alone; no wave model involved."""

    def __init__(self, inner):
        self.attachments = inner.attachments
        self.grid = inner.grid
        self.transmission = inner.transmission
        self.fairway = inner.fairway
        self.existing_segments = inner.existing_segments
        self.fairway_segments = inner.fairway_segments
        self.init = inner.init
        self.gene_levels = None
        self.n_blocks = inner.n_blocks

    def evaluate(self, genotype):
        layout = decode(genotype, self.attachments)
        return ObjectiveVector(
            cost=cost(layout.segments(), self.grid.cell_size),
            nav_distance=100.0,
            wave_heights=np.array([1.0]),
            self_intersections=0,
            fairway_intersections=0,
            land_coverage=0,
        )

    def evaluate_many(self, genotypes):
        return evaluate_each(self.evaluate, genotypes)

    def min_point(self, objectives):
        return np.array([objectives.cost])

    def scalar(self, point, violations):
        return point[0]

    def snap(self, genotype):
        return genotype


def test_de_reaches_zero_cost_on_surrogate(unit_scenario):
    surrogate = CostOnlyScenario(unit_scenario)
    config = EAConfig(population_size=30, generations=30, seed=1)
    history = run_de(config, surrogate)
    assert history.records[-1].best_scalar == 0.0


# ----- evaluation failure context -----

class PoisonedScenario(CostOnlyScenario):
    def __init__(self, inner, fail_at):
        super().__init__(inner)
        self.fail_at = fail_at
        self.calls = 0

    def evaluate(self, genotype):
        self.calls += 1
        if self.calls == self.fail_at:
            raise ValueError("boom")
        return super().evaluate(genotype)


def test_evaluation_failure_reports_generation_and_index(unit_scenario):
    poisoned = PoisonedScenario(unit_scenario, fail_at=3)
    with pytest.raises(RuntimeError, match="generation 0, individual 2"):
        run_spea2(EAConfig(population_size=8, generations=2, seed=0), poisoned)


def test_batch_failure_names_the_generation_and_the_failing_individual(unit_scenario, monkeypatch):
    rng = np.random.default_rng(73)
    good = [sample_genotype(small_config(), unit_scenario, rng) for _ in range(3)]
    bad = good[0].copy()
    bad.genes[0] = np.nan  # a NaN vertex cannot be rasterized
    with pytest.raises(RuntimeError, match=r"^evaluation failed at generation 4, individual 2$"):
        evolution._evaluate([good[0], good[1], bad, good[2]], unit_scenario, 4)
    # a batch that starts at individual 5 counts from there
    with pytest.raises(RuntimeError, match=r"^evaluation failed at generation 5, individual 7$"):
        evolution._evaluate([good[0], good[1], bad], unit_scenario, 5, 5)
    # a failure in a stage the whole batch shares names the whole batch

    def failing_heights(*args):
        raise FloatingPointError("shared stage")

    monkeypatch.setattr(type(unit_scenario.wave_model), "heights", failing_heights)
    with pytest.raises(RuntimeError, match=r"^evaluation failed at generation 6, individuals 0 to 2$"):
        evolution._evaluate(good, unit_scenario, 6)


# ----- cumulative front -----

def update_front_reference(front, newcomers):
    """The all-pairs front update over front and newcomers together, kept as the reference."""
    candidates = list(front) + [ind for ind in newcomers if ind.objectives.feasible]
    if not candidates:
        return []
    seen = {}
    for ind in candidates:
        seen.setdefault(tuple(ind.point), ind)
    unique = list(seen.values())
    points = np.array([ind.point for ind in unique])
    return [unique[i] for i in nondominated(points)]


# exact ties and both signed zeros are common among these coordinates
coordinate = st.sampled_from([-0.0, 0.0, 0.5, 1.0]) | st.floats(0, 1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_update_front_keeps_the_members_of_the_all_pairs_reference(data):
    d = data.draw(st.sampled_from([2, 3, 5]))
    front = []
    for _ in range(data.draw(st.integers(1, 5))):
        drawn = data.draw(st.lists(st.tuples(st.tuples(*[coordinate] * d), st.booleans()), max_size=8))
        points = [np.array(p) for p, _ in drawn]
        feasible = [f for _, f in drawn]
        if front:  # copies of front members, with the signs of their zeros redrawn
            for i in data.draw(st.lists(st.integers(0, len(front) - 1), max_size=3)):
                zero = data.draw(st.sampled_from([0.0, -0.0]))
                points.append(np.where(front[i].point == 0.0, zero, front[i].point))
                feasible.append(data.draw(st.booleans()))
        order = data.draw(st.permutations(range(len(points))))
        newcomers = [Individual(point=points[i], objectives=SimpleNamespace(feasible=feasible[i])) for i in order]
        kept, arrivals = _update_front(front, newcomers)
        expected = update_front_reference(front, newcomers)
        assert [id(ind) for ind in kept + arrivals] == [id(ind) for ind in expected]
        assert [id(ind) for ind in arrivals] == [id(ind) for ind in expected if not any(ind is m for m in front)]
        front = expected
