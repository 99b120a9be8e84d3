"""Stub external solver: bwopt's stand-in wave model behind the file interface.

    python stub_solver.py [diffusion_passes]

Run with a FileExchangeWaveModel work directory as cwd: reads depth.txt,
obstacles.txt and boundary.txt, runs bwopt.wave.simulate and writes
heights.txt. It imports bwopt from this checkout's src/.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bwopt.geometry import ScenarioGrid  # noqa: E402
from bwopt.wave import (  # noqa: E402
    DEFAULT_DIFFUSION_PASSES,
    BoundaryConditions,
    ObstacleSet,
    read_field,
    simulate,
    write_field,
)


def main() -> None:
    passes = int(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_DIFFUSION_PASSES
    obstacles = ObstacleSet()
    with open("obstacles.txt") as fh:
        for line in fh:
            col, row, coeff = line.split()
            obstacles.add((int(col), int(row)), float(coeff))
    with open("boundary.txt") as fh:
        boundary = {key: float(value) for key, value in (line.split() for line in fh)}
    field = simulate(
        ScenarioGrid.from_depth(read_field("depth.txt")),
        obstacles,
        BoundaryConditions(boundary["incident_height"], boundary["wave_direction"]),
        passes,
    )
    write_field("heights.txt", field)


if __name__ == "__main__":
    main()
