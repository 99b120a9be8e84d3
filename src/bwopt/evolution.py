"""Evolutionary optimizers for breakwater layouts.

Two search loops share the encoding, the variation operators and the greedy
segment mask:

* run_spea2: strength-Pareto multi-objective search over the relative
  objective vectors, with an elitist archive and distance-based truncation.
* run_de: single-objective differential evolution (rand/1/bin) over the
  scalar convolution of the relative objectives.

The greedy mask focuses variation on one segment block at a time; the active
block index advances cyclically every generation, so offspring differ from
their primary parent only inside the active block.

Budget accounting: a "model run" is one candidate evaluation. Generation g
(0-based) ends with exactly population_size * (g + 1) model runs; the
initial population is generation 0 and is evaluated even when generations
is 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Encoding, Genotype
from .metrics import dominance, nondominated
from .objectives import ObjectiveVector


@dataclass
class EAConfig:
    population_size: int = 30
    archive_size: int = 30
    generations: int = 30
    encoding: Encoding = Encoding.ANGULAR
    greedy: bool = False
    generations_per_segment: int = 1   # greedy mask dwell time per block
    crossover_rate: float = 0.9
    mutation_rate: float = 0.25
    sigma_length: float = 2.0          # cells
    sigma_angle: float = 15.0          # degrees
    sigma_cartesian: float = 2.0       # cells
    de_weight: float = 0.5             # differential weight
    de_use_ga_operators: bool = False  # ablation: GA crossover+mutation inside DE loop
    init_retries: int = 50             # feasibility retries per initial individual
    seed: int = 0


@dataclass
class Individual:
    genotype: Genotype | None = None
    objectives: ObjectiveVector | None = None
    point: np.ndarray | None = None    # relative objectives, minimization form
    fitness: float | None = None


@dataclass(frozen=True)
class GreedyMask:
    """Selects the single segment block variation is allowed to touch."""

    active_segment: int
    total_segments: int

    def shift_right(self) -> "GreedyMask":
        return GreedyMask((self.active_segment + 1) % self.total_segments, self.total_segments)

    @property
    def gene_slice(self) -> slice:
        return slice(2 * self.active_segment, 2 * self.active_segment + 2)


@dataclass
class GenerationRecord:
    generation: int
    model_runs: int
    population: list[Individual]
    archive: list[Individual]
    front: list[Individual]            # cumulative feasible nondominated set
    best_scalar: float


@dataclass
class RunHistory:
    algorithm: str
    config: EAConfig
    records: list[GenerationRecord] = field(default_factory=list)
    greedy_checks: int = 0
    greedy_violations: int = 0

    def final_front(self) -> list[Individual]:
        return self.records[-1].front if self.records else []


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """Pareto dominance on minimization vectors (one pair of metrics.dominance)."""
    return bool(dominance(np.array([a, b]))[0, 1])


# ----- initialization -------------------------------------------------------

def sample_genotype(config: EAConfig, scenario, rng: np.random.Generator) -> Genotype:
    n_blocks = scenario.n_blocks
    if config.encoding is Encoding.ANGULAR:
        genes = np.empty(2 * n_blocks)
        levels = scenario.gene_levels
        if levels is not None:
            genes[0::2] = rng.choice(np.asarray(levels.lengths), size=n_blocks)
            genes[1::2] = rng.choice(np.asarray(levels.angles), size=n_blocks)
        else:
            genes[0::2] = rng.uniform(0.0, scenario.init.max_length, size=n_blocks)
            genes[1::2] = rng.uniform(scenario.init.angle_low, scenario.init.angle_high, size=n_blocks)
        return Genotype(Encoding.ANGULAR, genes)
    bbox = scenario.init.cartesian_bbox
    if bbox is None:
        bbox = (0.0, 0.0, scenario.grid.n_cols - 1.0, scenario.grid.n_rows - 1.0)
    x0, y0, x1, y1 = bbox
    genes = np.empty(2 * n_blocks)
    genes[0::2] = rng.uniform(x0, x1, size=n_blocks)
    genes[1::2] = rng.uniform(y0, y1, size=n_blocks)
    return Genotype(Encoding.CARTESIAN, genes)


def init_population(config: EAConfig, scenario, rng: np.random.Generator) -> list[Genotype]:
    """Sample initial genotypes, retrying constraint-violating ones.

    Each individual gets up to config.init_retries draws; if none is
    feasible the last draw is kept and the penalty handles it.
    """
    from .objectives import constraint_counts

    out = []
    for _ in range(config.population_size):
        genotype = sample_genotype(config, scenario, rng)
        for _ in range(config.init_retries):
            if sum(constraint_counts(genotype, scenario)) == 0:
                break
            genotype = sample_genotype(config, scenario, rng)
        out.append(genotype)
    return out


# ----- variation ------------------------------------------------------------

def crossover(
    parent_a: Genotype,
    parent_b: Genotype,
    mask: GreedyMask | None,
    rng: np.random.Generator,
) -> tuple[Genotype, Genotype]:
    """One-point block crossover; under a greedy mask, exchange of the active block.

    The cut point is a block boundary, so a segment's two genes always
    travel together. Single-block genotypes without a mask have no interior
    boundary and yield plain copies.
    """
    ga = parent_a.genes.copy()
    gb = parent_b.genes.copy()
    if mask is not None:
        s = mask.gene_slice
        ga[s] = parent_b.genes[s]
        gb[s] = parent_a.genes[s]
    elif parent_a.n_blocks >= 2:
        cut = 2 * int(rng.integers(1, parent_a.n_blocks))
        ga[cut:] = parent_b.genes[cut:]
        gb[cut:] = parent_a.genes[cut:]
    return Genotype(parent_a.encoding, ga), Genotype(parent_b.encoding, gb)


def _gene_sigma(config: EAConfig, encoding: Encoding, index: int) -> float:
    if encoding is Encoding.CARTESIAN:
        return config.sigma_cartesian
    return config.sigma_length if index % 2 == 0 else config.sigma_angle


def mutate(
    genotype: Genotype,
    mask: GreedyMask | None,
    config: EAConfig,
    rng: np.random.Generator,
) -> Genotype:
    """Per-gene Gaussian mutation; a greedy mask limits it to the active block."""
    genes = genotype.genes.copy()
    for i in range(genes.size)[mask.gene_slice if mask is not None else slice(None)]:
        if rng.random() < config.mutation_rate:
            genes[i] += rng.normal(0.0, _gene_sigma(config, genotype.encoding, i))
    if genotype.encoding is Encoding.ANGULAR:
        np.maximum(genes[0::2], 0.0, out=genes[0::2])
    return Genotype(genotype.encoding, genes)


# ----- SPEA2 machinery -------------------------------------------------------

def _pairwise_distances(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def spea2_fitness(union: list[Individual]) -> None:
    """Assign strength-Pareto fitness F = R + D to every union member.

    R sums the strengths of all dominators (0 exactly when nondominated);
    D is 1 / (distance to the k-th nearest neighbor + 2), k = floor(sqrt(N)).
    Lower is better.
    """
    n = len(union)
    points = np.array([ind.point for ind in union])
    dom = dominance(points)
    raw = (dom.sum(axis=1) @ dom).astype(float)  # strengths of each member's dominators
    if n > 1:
        dist = _pairwise_distances(points)
        order = np.sort(dist, axis=1)  # column 0 is the self-distance 0
        k = min(int(math.floor(math.sqrt(n))), n - 1)
        sigma_k = order[:, max(k, 1)]
    else:
        sigma_k = np.zeros(1)
    density = 1.0 / (sigma_k + 2.0)
    for ind, f in zip(union, raw + density):
        ind.fitness = float(f)


def _truncate(candidates: list[Individual], target: int, rng: np.random.Generator | None) -> list[Individual]:
    """SPEA2 archive truncation: drop the most crowded individual repeatedly.

    The victim has the lexicographically smallest sorted distance vector to
    the survivors (nearest neighbor first); exact ties are broken uniformly.
    """
    points = np.array([ind.point for ind in candidates])
    dist = _pairwise_distances(points)
    np.fill_diagonal(dist, np.inf)  # the self-distance sorts last, equal in every key
    alive = np.arange(len(candidates))
    while len(alive) > target:
        keys = np.sort(dist[np.ix_(alive, alive)], axis=1)
        lowest = keys[np.lexsort(keys.T[::-1])[0]]
        ties = np.flatnonzero(np.all(keys == lowest, axis=1))
        victim = ties[0] if rng is None or len(ties) == 1 else ties[int(rng.integers(len(ties)))]
        alive = np.delete(alive, victim)
    return [candidates[i] for i in alive]


def environmental_selection(
    union: list[Individual],
    archive_size: int,
    rng: np.random.Generator | None = None,
) -> list[Individual]:
    """Next archive: all nondominated, truncated or topped up to archive_size."""
    nondom = [ind for ind in union if ind.fitness < 1.0]
    if len(nondom) > archive_size:
        return _truncate(nondom, archive_size, rng)
    if len(nondom) < archive_size:
        dominated = sorted(
            (ind for ind in union if ind.fitness >= 1.0), key=lambda ind: ind.fitness
        )
        nondom = nondom + dominated[: archive_size - len(nondom)]
    return list(nondom)


def binary_tournament(pool: list[Individual], rng: np.random.Generator) -> Individual:
    """Draw two with replacement, keep the better fitness; ties split evenly."""
    a = pool[int(rng.integers(len(pool)))]
    b = pool[int(rng.integers(len(pool)))]
    if a.fitness == b.fitness:
        return a if rng.random() < 0.5 else b
    return a if a.fitness < b.fitness else b


# ----- shared loop pieces ----------------------------------------------------

def _evaluate(genotype: Genotype, scenario, generation: int, index: int) -> Individual:
    try:
        objectives = scenario.evaluate(genotype)
        point = scenario.min_point(objectives)
    except Exception as exc:
        raise RuntimeError(
            f"evaluation failed at generation {generation}, individual {index}"
        ) from exc
    return Individual(
        genotype=genotype,
        objectives=objectives,
        point=point,
        fitness=None,
    )


def _update_front(front: list[Individual], newcomers: list[Individual]) -> list[Individual]:
    """Cumulative nondominated set over all feasible evaluated individuals.

    Exact duplicate points keep their earliest representative, so reruns are
    deterministic and the front stays small.
    """
    candidates = list(front) + [ind for ind in newcomers if ind.objectives.feasible]
    if not candidates:
        return []
    seen: dict[tuple, Individual] = {}
    for ind in candidates:
        seen.setdefault(tuple(ind.point), ind)
    unique = list(seen.values())
    points = np.array([ind.point for ind in unique])
    return [unique[i] for i in nondominated(points)]


def _check_mask(history: RunHistory, child: Genotype, parent: Genotype, mask: GreedyMask) -> None:
    history.greedy_checks += 1
    s = mask.gene_slice
    same_before = np.array_equal(child.genes[: s.start], parent.genes[: s.start])
    same_after = np.array_equal(child.genes[s.stop :], parent.genes[s.stop :])
    if not (same_before and same_after):
        history.greedy_violations += 1
        raise AssertionError(
            f"greedy mask violated: offspring touched genes outside block {mask.active_segment}"
        )


def _best_scalar(scenario, individuals: list[Individual], previous: float) -> float:
    best = previous
    for ind in individuals:
        value = scenario.scalar(ind.objectives)
        if value < best:
            best = value
    return best


# ----- SPEA2 loop ------------------------------------------------------------

def run_spea2(config: EAConfig, scenario) -> RunHistory:
    """Multi-objective search following the strength-Pareto scheme.

    Per generation: evaluate the population, pool it with the archive,
    assign fitness, select the next archive, then breed the next population
    from binary tournaments over the pool. The greedy mask, when enabled,
    confines crossover and mutation to the cyclically active segment block.
    """
    rng = np.random.default_rng(config.seed)
    history = RunHistory(algorithm="spea2", config=config)
    mask = GreedyMask(0, scenario.n_blocks) if config.greedy else None
    genotypes = init_population(config, scenario, rng)
    archive: list[Individual] = []
    front: list[Individual] = []
    model_runs = 0
    best = math.inf
    rounds = max(1, config.generations)
    for gen in range(rounds):
        population = [_evaluate(g, scenario, gen, i) for i, g in enumerate(genotypes)]
        model_runs += len(population)
        union = archive + population
        spea2_fitness(union)
        archive = environmental_selection(union, config.archive_size, rng)
        front = _update_front(front, population)
        best = _best_scalar(scenario, population, best)
        history.records.append(
            GenerationRecord(
                generation=gen,
                model_runs=model_runs,
                population=population,
                archive=list(archive),
                front=front,
                best_scalar=best,
            )
        )
        if gen == rounds - 1:
            break
        parents = [binary_tournament(union, rng) for _ in range(config.population_size)]
        genotypes = _breed(parents, mask, config, scenario, rng, history)
        if mask is not None and (gen + 1) % config.generations_per_segment == 0:
            mask = mask.shift_right()
    return history


def _breed(
    parents: list[Individual],
    mask: GreedyMask | None,
    config: EAConfig,
    scenario,
    rng: np.random.Generator,
    history: RunHistory,
) -> list[Genotype]:
    children: list[Genotype] = []
    for i in range(0, len(parents) - 1, 2):
        pa, pb = parents[i].genotype, parents[i + 1].genotype
        if rng.random() < config.crossover_rate:
            ca, cb = crossover(pa, pb, mask, rng)
        else:
            ca, cb = pa.copy(), pb.copy()
        ca = scenario.snap(mutate(ca, mask, config, rng))
        cb = scenario.snap(mutate(cb, mask, config, rng))
        if mask is not None:
            _check_mask(history, ca, pa, mask)
            _check_mask(history, cb, pb, mask)
        children.extend((ca, cb))
    if len(children) < len(parents):  # odd population: last parent mutates alone
        tail = scenario.snap(mutate(parents[-1].genotype, mask, config, rng))
        if mask is not None:
            _check_mask(history, tail, parents[-1].genotype, mask)
        children.append(tail)
    return children


# ----- differential evolution loop --------------------------------------------

def run_de(config: EAConfig, scenario) -> RunHistory:
    """Single-objective rand/1/bin differential evolution on the scalar fitness.

    The donor vector is x_r1 + F * (x_r2 - x_r3) over distinct non-target
    members; binomial crossover takes donor genes at crossover_rate with one
    gene forced. Under the greedy mask only the active block's genes
    participate. The better of target and trial survives.
    """
    rng = np.random.default_rng(config.seed)
    history = RunHistory(algorithm="de", config=config)
    mask = GreedyMask(0, scenario.n_blocks) if config.greedy else None
    genotypes = init_population(config, scenario, rng)
    population = [_evaluate(g, scenario, 0, i) for i, g in enumerate(genotypes)]
    model_runs = len(population)
    for ind in population:
        ind.fitness = scenario.scalar(ind.objectives)
    front = _update_front([], population)
    best = min(ind.fitness for ind in population)
    history.records.append(
        GenerationRecord(0, model_runs, population, [], front, best)
    )
    rounds = max(1, config.generations)
    for gen in range(1, rounds):
        survivors: list[Individual] = []
        for i, target in enumerate(population):
            if config.de_use_ga_operators:
                trial_genotype, primary = _ga_trial(population, mask, config, scenario, rng)
            else:
                trial_genotype = _de_trial(population, i, mask, config, scenario, rng)
                primary = target.genotype
            if mask is not None:
                _check_mask(history, trial_genotype, primary, mask)
            trial = _evaluate(trial_genotype, scenario, gen, i)
            model_runs += 1
            trial.fitness = scenario.scalar(trial.objectives)
            if trial.fitness < target.fitness:
                survivors.append(trial)
            elif trial.fitness == target.fitness and rng.random() < 0.5:
                survivors.append(trial)
            else:
                survivors.append(target)
        population = survivors
        front = _update_front(front, population)
        best = min(best, min(ind.fitness for ind in population))
        history.records.append(
            GenerationRecord(gen, model_runs, population, [], front, best)
        )
        if mask is not None and gen % config.generations_per_segment == 0:
            mask = mask.shift_right()
    return history


def _de_trial(
    population: list[Individual],
    target_index: int,
    mask: GreedyMask | None,
    config: EAConfig,
    scenario,
    rng: np.random.Generator,
) -> Genotype:
    target = population[target_index].genotype
    others = [j for j in range(len(population)) if j != target_index]
    r1, r2, r3 = rng.choice(len(others), size=3, replace=False)
    g1 = population[others[int(r1)]].genotype.genes
    g2 = population[others[int(r2)]].genotype.genes
    g3 = population[others[int(r3)]].genotype.genes
    donor = g1 + config.de_weight * (g2 - g3)
    genes = target.genes.copy()
    eligible = range(genes.size)[mask.gene_slice if mask is not None else slice(None)]
    forced = eligible[int(rng.integers(len(eligible)))]
    for j in eligible:
        if j == forced or rng.random() < config.crossover_rate:
            genes[j] = donor[j]
    if target.encoding is Encoding.ANGULAR:
        np.maximum(genes[0::2], 0.0, out=genes[0::2])
    return scenario.snap(Genotype(target.encoding, genes))


def _ga_trial(
    population: list[Individual],
    mask: GreedyMask | None,
    config: EAConfig,
    scenario,
    rng: np.random.Generator,
) -> tuple[Genotype, Genotype]:
    """GA-style trial for the ablation switch; returns (child, primary parent)."""
    pa = binary_tournament(population, rng)
    pb = binary_tournament(population, rng)
    if rng.random() < config.crossover_rate:
        child, _ = crossover(pa.genotype, pb.genotype, mask, rng)
    else:
        child = pa.genotype.copy()
    return scenario.snap(mutate(child, mask, config, rng)), pa.genotype
