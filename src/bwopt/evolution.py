"""Evolutionary optimizers for breakwater layouts.

Two search loops share the encoding, the variation operators and the greedy
segment mask:

* run_spea2: strength-Pareto multi-objective search over the relative
  objective vectors, with an elitist archive and distance-based truncation.
* run_de: single-objective differential evolution (rand/1/bin) over the
  scalar convolution of the relative objectives.

Both loops follow one generation contract:

* Greedy schedule. Offspring generation t >= 1 is bred under the mask of
  block ((t - 1) // generations_per_segment) % n_blocks (see _mask): each
  block stays active for generations_per_segment >= 1 generations, then the
  next one takes over, cyclically. The mask is the active block's gene
  slice. Every offspring differs from its primary parent only inside it,
  which _check_mask asserts inline.
* Budget. A "model run" is one candidate evaluation. Generation g (0-based)
  ends with exactly population_size * (g + 1) model runs; the initial
  population is generation 0 and is evaluated even when generations is 0.
  DE's speculative evaluations (see run_de) are not model runs.
* Record. _record appends one GenerationRecord per generation and derives
  its index, budget, front, arrivals and best scalar from the previous one.
"""
from __future__ import annotations

import math
import numbers
from bisect import bisect_left
from dataclasses import dataclass, field, fields

import numpy as np

from .geometry import Encoding, Genotype
from .metrics import at_most, dominance
from .objectives import CandidateError, ObjectiveVector


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
    init_retries: int = 50             # feasibility retries per initial individual
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):  # f.type is a string: annotations are postponed
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
                raise ValueError(f"EAConfig {f.name} must be an integer, got {value!r}")
            if f.type == "float" and (
                isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value)
            ):
                raise ValueError(f"EAConfig {f.name} must be a finite number, got {value!r}")
        if self.generations_per_segment < 1:
            raise ValueError(
                f"generations_per_segment must be at least 1, got {self.generations_per_segment}"
            )


@dataclass
class Individual:
    genotype: Genotype | None = None
    objectives: ObjectiveVector | None = None
    point: np.ndarray | None = None    # relative objectives, minimization form
    fitness: float | None = None


@dataclass
class GenerationRecord:
    generation: int
    model_runs: int
    population: list[Individual]
    archive: list[Individual]
    front: list[Individual]            # cumulative feasible nondominated set
    arrivals: list[Individual]         # the members new to front: its tail, in order
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
    genes = np.empty(2 * n_blocks)  # anywhere on the grid
    genes[0::2] = rng.uniform(0.0, scenario.grid.n_cols - 1.0, size=n_blocks)
    genes[1::2] = rng.uniform(0.0, scenario.grid.n_rows - 1.0, size=n_blocks)
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
    mask: slice | None,
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
        ga[mask] = parent_b.genes[mask]
        gb[mask] = parent_a.genes[mask]
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
    mask: slice | None,
    config: EAConfig,
    rng: np.random.Generator,
) -> Genotype:
    """Per-gene Gaussian mutation; a greedy mask limits it to the active block."""
    genes = genotype.genes.copy()
    for i in range(genes.size)[mask if mask is not None else slice(None)]:
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


def _truncate(candidates: list[Individual], target: int, rng: np.random.Generator) -> list[Individual]:
    """SPEA2 archive truncation: drop the most crowded individual repeatedly.

    The victim has the lexicographically smallest sorted distance vector to
    the survivors (nearest neighbor first); exact ties are broken uniformly
    by one rng.integers(len(ties)) draw over the tied individuals in
    candidate order, and a unique victim draws nothing. Survivors keep their
    candidate order.

    Each row's sorted key is kept across removals, as a list of plain
    floats (the array's own doubles): the distances are sorted once, and a
    removal deletes the victim's row and, from every other row, one copy of
    that row's distance to the victim, which leaves exactly the sorted
    distances to the survivors. Python compares lists lexicographically, so
    min(keys) is the smallest key and an equality scan lists its ties in
    ascending order. The self-distance is inf, so it sorts last and is equal
    in every key.
    """
    points = np.array([ind.point for ind in candidates])
    dist = _pairwise_distances(points)
    np.fill_diagonal(dist, np.inf)
    keys = np.sort(dist, axis=1).tolist()
    rows = dist.tolist()
    alive = list(range(len(candidates)))
    while len(alive) > target:
        lowest = min(keys)
        ties = [i for i, key in enumerate(keys) if key == lowest]
        victim = ties[0] if len(ties) == 1 else ties[int(rng.integers(len(ties)))]
        del keys[victim]
        gone = alive.pop(victim)
        for i, key in zip(alive, keys):
            del key[bisect_left(key, rows[i][gone])]
    return [candidates[i] for i in alive]


def environmental_selection(
    union: list[Individual],
    archive_size: int,
    rng: np.random.Generator,
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

def _evaluate(genotypes: list[Genotype], scenario, generation: int, first: int = 0) -> list[Individual]:
    """The individuals of one batch, evaluated by scenario.evaluate_many, in order.

    genotypes[0] is individual first of its generation. A failure raises
    RuntimeError naming the generation and the failing individual, or the
    batch for its shared stages; min_point cannot fail on a checked answer.
    """
    failed = f"evaluation failed at generation {generation}"
    try:
        raws = scenario.evaluate_many(genotypes)
    except CandidateError as exc:
        raise RuntimeError(f"{failed}, individual {first + exc.index}") from exc
    except Exception as exc:  # a shared stage of the batch, which no one candidate owns
        raise RuntimeError(f"{failed}, individuals {first} to {first + len(genotypes) - 1}") from exc
    return [
        Individual(genotype=genotype, objectives=raw, point=scenario.min_point(raw), fitness=None)
        for genotype, raw in zip(genotypes, raws)
    ]


def _update_front(
    front: list[Individual], newcomers: list[Individual]
) -> tuple[list[Individual], list[Individual]]:
    """The cumulative nondominated set over all feasible evaluated individuals, as (kept, arrivals).

    front must be kept + arrivals of an earlier call (or empty):
    nondominated, with no two members at the same point. Only the feasible
    newcomers are checked, on the newcomer x front and newcomer x newcomer
    planes of metrics.at_most: two points are equal when each is at most
    the other, and otherwise at most is dominance. A newcomer equal to a
    front member or to an earlier newcomer is dropped, so an exact duplicate
    keeps its earliest copy and reruns are deterministic. kept is the front
    members no newcomer dominates, in front order; arrivals is the newcomers
    nothing dominates, in order. The new front is kept + arrivals.
    """
    fresh = [ind for ind in newcomers if ind.objectives.feasible]
    if not fresh:
        return front, []
    new = np.array([ind.point for ind in fresh])
    below = at_most(new, new)
    lost = (np.triu(below & below.T, 1) | (below & ~below.T)).any(axis=0)
    if front:
        old = np.array([ind.point for ind in front])
        old_le_new = at_most(old, new)
        lost |= old_le_new.any(axis=0)  # equal to or dominated by a front member
        beaten = (at_most(new, old) & ~old_le_new.T).any(axis=0)
        front = [ind for ind, out in zip(front, beaten) if not out]
    return front, [ind for ind, out in zip(fresh, lost) if not out]


def _check_mask(history: RunHistory, child: Genotype, parent: Genotype, mask: slice) -> None:
    history.greedy_checks += 1
    same_before = np.array_equal(child.genes[: mask.start], parent.genes[: mask.start])
    same_after = np.array_equal(child.genes[mask.stop :], parent.genes[mask.stop :])
    if not (same_before and same_after):
        history.greedy_violations += 1
        raise AssertionError(
            f"greedy mask violated: offspring touched genes outside block {mask.start // 2}"
        )


def _mask(config: EAConfig, n_blocks: int, t: int) -> slice | None:
    """The active block's gene slice that breeds offspring generation t >= 1, or None without greedy."""
    if not config.greedy:
        return None
    block = (t - 1) // config.generations_per_segment % n_blocks
    return slice(2 * block, 2 * block + 2)


def _record(history: RunHistory, population: list[Individual], archive: list[Individual], scalars) -> None:
    """Append the next generation's record; scalars are the population's scalar fitness values."""
    previous = history.records[-1] if history.records else None
    best = previous.best_scalar if previous else math.inf
    for value in scalars:
        if value < best:
            best = value
    kept, arrivals = _update_front(previous.front if previous else [], population)
    history.records.append(
        GenerationRecord(
            generation=len(history.records),
            model_runs=(previous.model_runs if previous else 0) + len(population),
            population=population,
            archive=list(archive),
            front=kept + arrivals,
            arrivals=arrivals,
            best_scalar=best,
        )
    )


# ----- SPEA2 loop ------------------------------------------------------------

def run_spea2(config: EAConfig, scenario) -> RunHistory:
    """Multi-objective search following the strength-Pareto scheme.

    Per generation: evaluate the population, pool it with the archive,
    assign fitness, select the next archive, then breed the next population
    from binary tournaments over the pool.

    Known deviation: in Zitzler et al.'s SPEA2 the mating tournaments draw
    from the new archive only; here they draw from the pool (previous
    archive + population). Changing it would move every SPEA2 trajectory.
    """
    rng = np.random.default_rng(config.seed)
    history = RunHistory(algorithm="spea2", config=config)
    genotypes = init_population(config, scenario, rng)
    archive: list[Individual] = []
    rounds = max(1, config.generations)
    for gen in range(rounds):
        population = _evaluate(genotypes, scenario, gen)
        union = archive + population
        spea2_fitness(union)
        archive = environmental_selection(union, config.archive_size, rng)
        scalars = [scenario.scalar(ind.point, ind.objectives.violations) for ind in population]
        _record(history, population, archive, scalars)
        if gen == rounds - 1:
            break
        parents = [binary_tournament(union, rng) for _ in range(config.population_size)]
        mask = _mask(config, scenario.n_blocks, gen + 1)
        genotypes = _breed(parents, mask, config, scenario, rng, history)
    return history


def _breed(
    parents: list[Individual],
    mask: slice | None,
    config: EAConfig,
    scenario,
    rng: np.random.Generator,
    history: RunHistory,
) -> list[Genotype]:
    """Offspring i is bred from parents[i] (its primary parent) and its pair partner."""
    children: list[Genotype] = []
    for i in range(0, len(parents) - 1, 2):
        pa, pb = parents[i].genotype, parents[i + 1].genotype
        if rng.random() < config.crossover_rate:
            ca, cb = crossover(pa, pb, mask, rng)
        else:
            ca, cb = pa.copy(), pb.copy()
        children.append(scenario.snap(mutate(ca, mask, config, rng)))
        children.append(scenario.snap(mutate(cb, mask, config, rng)))
    if len(children) < len(parents):  # odd population: last parent mutates alone
        children.append(scenario.snap(mutate(parents[-1].genotype, mask, config, rng)))
    if mask is not None:
        for child, parent in zip(children, parents):
            _check_mask(history, child, parent.genotype, mask)
    return children


# ----- differential evolution loop --------------------------------------------

def run_de(config: EAConfig, scenario) -> RunHistory:
    """Single-objective rand/1/bin differential evolution on the scalar fitness.

    The donor vector is x_r1 + F * (x_r2 - x_r3) over distinct non-target
    members; binomial crossover takes donor genes at crossover_rate with one
    gene forced. Under the greedy mask only the active block's genes
    participate. The better of target and trial survives; a tie draws one
    coin, rng.random() < 0.5, and the trial survives on True.

    Draw order: trial i's draws come after trial i - 1's draws and coin, as
    if each trial were built, evaluated and selected before the next. Every
    trial comes from the old population, so a generation is built and
    evaluated as one batch and selected in index order. A trial whose genes
    equal its target's is a sure tie (evaluation is a pure function of the
    genotype) and draws its coin as soon as it is built. Any other tie
    restores the generator state saved after its trial, draws the coin,
    and builds and evaluates the trials after it again as a new batch. So
    every draw and trajectory is that of one trial at a time, and
    model_runs stays one per trial. The trials evaluated before such a tie
    was known are speculative: extra evaluations that no record counts
    (over 5 seeds, up to 181 per 870 trials on sochi_like angular greedy).
    A failure in a speculative trial stops the run, although one trial at
    a time might never have built it.
    """
    if config.population_size < 4:
        raise ValueError(
            f"DE needs a population_size of at least 4, got {config.population_size}: "
            "rand/1 needs 3 distinct partners besides the target"
        )
    rng = np.random.default_rng(config.seed)
    history = RunHistory(algorithm="de", config=config)
    genotypes = init_population(config, scenario, rng)
    population = _evaluate(genotypes, scenario, 0)
    for ind in population:
        ind.fitness = scenario.scalar(ind.point, ind.objectives.violations)
    _record(history, population, [], [ind.fitness for ind in population])
    for gen in range(1, max(1, config.generations)):
        mask = _mask(config, scenario.n_blocks, gen)
        survivors: list[Individual] = []
        while len(survivors) < len(population):
            start = len(survivors)
            trials, coins, states = [], [], []
            for i in range(start, len(population)):
                trials.append(_de_trial(population, i, mask, config, scenario, rng))
                sure = np.array_equal(trials[-1].genes, population[i].genotype.genes)
                coins.append(rng.random() < 0.5 if sure else None)
                states.append(rng.bit_generator.state)
            for trial, target, coin, state in zip(
                _evaluate(trials, scenario, gen, start), population[start:], coins, states
            ):
                if mask is not None:
                    _check_mask(history, trial.genotype, target.genotype, mask)
                trial.fitness = scenario.scalar(trial.point, trial.objectives.violations)
                if coin is not None:
                    assert trial.fitness == target.fitness, "a trial equal to its target scored differently"
                elif trial.fitness == target.fitness:  # unforeseen: rebuild the trials after it
                    rng.bit_generator.state = state
                    survivors.append(trial if rng.random() < 0.5 else target)
                    break
                survivors.append(trial if trial.fitness < target.fitness or coin else target)
        population = survivors
        _record(history, population, [], [ind.fitness for ind in population])
    return history


def _de_trial(
    population: list[Individual],
    target_index: int,
    mask: slice | None,
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
    eligible = range(genes.size)[mask if mask is not None else slice(None)]
    forced = eligible[int(rng.integers(len(eligible)))]
    for j in eligible:
        if j == forced or rng.random() < config.crossover_rate:
            genes[j] = donor[j]
    if target.encoding is Encoding.ANGULAR:
        np.maximum(genes[0::2], 0.0, out=genes[0::2])
    return scenario.snap(Genotype(target.encoding, genes))

