import numpy as np
import pytest

from bwopt.evolution import (
    EAConfig,
    Individual,
    RunHistory,
    _check_mask,
    _de_trial,
    _evaluate,
    _mask,
    _record,
    init_population,
)
from bwopt.experiment import resolve_scenario
from bwopt.geometry import sample_polyline
from bwopt.metrics import dominance
from bwopt.objectives import CandidateError
from bwopt.scenario import build_scenario

# filled by test_acceptance.py, echoed after the test summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def tiny_scenario():
    return resolve_scenario("tiny_discrete")


@pytest.fixture(scope="session")
def harbor_scenario():
    return resolve_scenario("sochi_like")


def _orient(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def segments_cross(p1, p2, q1, q2) -> bool:
    """True iff the open segments cross transversally: the reference for geometry.count_crossings.

    The pair-by-pair orientation test the package's inline loop replaced.
    Touching configurations (shared endpoints, T-junctions, collinear
    overlap) do not count as crossings.
    """
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    return d1 * d2 < 0 and d3 * d4 < 0


def scenario_dict(**overrides) -> dict:
    """Small synthetic scenario for unit tests: open water below a coast.

    20x14 grid, coast at row 12, one existing groin at x=4 with a two-segment
    attachment at its seaward end, one control point, a vertical fairway at
    x=16. Waves travel straight toward the coast.
    """
    coast_row = 12
    depth = [
        [-1.0] * 20 if y >= coast_row else [5.0] * 20
        for y in range(14)
    ]
    data = {
        "name": "unit",
        "grid": {"cell_size": 10.0, "depth": depth},
        "boundary": {"incident_height": 2.0, "wave_direction": 90.0},
        "existing_structures": [
            {"vertices": [[4, 12], [4, 8]], "material": "solid_wall"},
        ],
        "attachments": [
            {"x": 4, "y": 8, "base_angle": 0.0, "n_segments": 2, "material": "solid_wall"},
        ],
        "control_points": [[10, 9]],
        "fairway": [[16, 0], [16, 10]],
        "initialization": {"max_length": 6.0},
    }
    data.update(overrides)
    return data


@pytest.fixture()
def unit_scenario():
    return build_scenario(scenario_dict())


def mc_hypervolume(points, reference, n_samples=1_000_000, seed=0):
    """Monte-Carlo oracle: uniform samples in [ideal, reference].

    Returns (estimate, standard_error) of the dominated volume.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ref = np.asarray(reference, dtype=float)
    low = pts.min(axis=0)
    box = float(np.prod(ref - low))
    rng = np.random.default_rng(seed)
    samples = rng.uniform(low, ref, size=(n_samples, len(ref)))
    # one contiguous column per axis, compared in place: the same booleans as
    # np.all(samples >= p, axis=1), without a (n_samples, d) temporary per point
    columns = [np.ascontiguousarray(column) for column in samples.T]
    hit = np.zeros(n_samples, dtype=bool)
    inside = np.empty(n_samples, dtype=bool)
    above = np.empty(n_samples, dtype=bool)
    for p in pts:
        np.greater_equal(columns[0], p[0], out=inside)
        for column, value in zip(columns[1:], p[1:]):
            np.greater_equal(column, value, out=above)
            inside &= above
        hit |= inside
    rate = hit.mean()
    return rate * box, np.sqrt(rate * (1.0 - rate) / n_samples) * box


def nondominated(points: np.ndarray) -> np.ndarray:
    """Indices of points not dominated by any other (minimization).

    Exact duplicates do not dominate each other, so all copies survive.
    """
    return np.flatnonzero(~dominance(points).any(axis=0))


def sample_family(polylines, step: float) -> np.ndarray:
    """Every polyline's sample_polyline samples, concatenated."""
    return np.concatenate([sample_polyline(v, step) for v in polylines])


def min_sample_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Smallest distance between two (n, 2) sample sets: the all-pairs clearance oracle.

    The kernel geometry.fairway_clearances replaced. The squared distance of
    every sample pair is dx*dx + dy*dy, computed on two (len(a), len(b))
    planes in place; that is the same sum, in the same order, as squaring
    the (len(a), len(b), 2) difference and summing over its last axis.
    """
    d2 = np.subtract.outer(a[:, 0], b[:, 0])
    dy = np.subtract.outer(a[:, 1], b[:, 1])
    d2 *= d2
    dy *= dy
    d2 += dy
    return float(np.sqrt(d2.min()))


def all_pairs_clearance(polylines, fairway, step: float) -> float:
    """Clearance in cells between polylines and a fairway by comparing every sample pair."""
    return min_sample_distance(sample_family(polylines, step), sample_polyline(fairway, step))


def evaluate_each(evaluate, genotypes) -> list:
    """[evaluate(g) for g in genotypes] as a batch: a failure raises CandidateError naming its index.

    The evaluate_many of test surrogates that evaluate one genotype at a time.
    """
    out = []
    for i, genotype in enumerate(genotypes):
        try:
            out.append(evaluate(genotype))
        except Exception as exc:
            raise CandidateError(i) from exc
    return out


def run_de_one_at_a_time(config: EAConfig, scenario) -> RunHistory:
    """DE with each trial built, evaluated and selected before the next: the reference for run_de.

    The loop evolution.run_de replaced, which evaluated every trial as a
    batch of one because the tie draw falls between trials.
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
        for i, target in enumerate(population):
            trial_genotype = _de_trial(population, i, mask, config, scenario, rng)
            if mask is not None:
                _check_mask(history, trial_genotype, target.genotype, mask)
            # one at a time: the tie draw below falls between trials
            trial = _evaluate([trial_genotype], scenario, gen, i)[0]
            trial.fitness = scenario.scalar(trial.point, trial.objectives.violations)
            if trial.fitness < target.fitness:
                survivors.append(trial)
            elif trial.fitness == target.fitness and rng.random() < 0.5:
                survivors.append(trial)
            else:
                survivors.append(target)
        population = survivors
        _record(history, population, [], [ind.fitness for ind in population])
    return history
