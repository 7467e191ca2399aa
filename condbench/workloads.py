"""The benchmark's workloads: seeded inputs and the operation each runs.

Inputs come from numpy generators keyed by the workload seed; the
library only ever receives the generated matrices (or, for the
ensemble, the experiment configurations whose seeds fix its matrices).
Pools hold more than ten times the calls a 50 s run made when the
benchmark was written (about 1300 reports or 50 ensemble calls), so a
faster library still sees fresh inputs; a run that exhausts its pool
wraps around and says so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Called through the package so a traced run sees the wrapped functions.
import coniccond
from coniccond import ExperimentConfig, Orthant, parse_cone

# The everyday ``analyze --witness`` call at small n.
ORTHANT_SHAPES = ((2, 6), (3, 6), (4, 6), (3, 8), (4, 8), (6, 8), (3, 10), (5, 10), (7, 10))
ORTHANT_PER_SHAPE = 2048
# The multistart path: Lorentz cones and products with a Lorentz factor.
LORENTZ_CONES = (
    ("lorentz:4", 2),
    ("lorentz:5", 2),
    ("lorentz:6", 3),
    ("product(orthant:2,lorentz:3)", 2),
    ("product(orthant:3,lorentz:3)", 3),
)
LORENTZ_PER_CONE = 128
# Large-n exact enumeration through run_experiment, one shape per call.
ENSEMBLE_N = 12
ENSEMBLE_MS = (3, 6, 9)
ENSEMBLE_CHUNK = 4
ENSEMBLE_CHUNKS = 768

NAMES = ("orthant-report", "orthant-ensemble", "lorentz-report")


@dataclass
class Workload:
    """A seeded list of operations; ``run(i)`` performs operation i."""

    name: str
    seed: int
    items: list
    cycle: int                  # consecutive items that cover every shape once
    witnesses: bool = False

    @property
    def is_ensemble(self) -> bool:
        return self.name == "orthant-ensemble"

    def item(self, i: int):
        return self.items[i % len(self.items)]

    def trials(self, i: int) -> int:
        """Operations carried by item i: trials for a chunk, else one report."""
        return self.item(i).trials if self.is_ensemble else 1

    def run(self, i: int):
        if self.is_ensemble:
            return coniccond.run_experiment(self.item(i))
        cone, a = self.item(i)
        return coniccond.condition_report(cone, a, self.seed, include_witnesses=self.witnesses)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([stream, seed % 2**63])


def _interleave(blocks: list[list]) -> list:
    """Round-robin over the blocks, so consecutive items cycle their shapes."""
    return [block[k] for k in range(len(blocks[0])) for block in blocks]


def build(name: str, seed: int) -> Workload:
    """Build the cones and generate the inputs of one workload."""
    if name == "orthant-report":
        rng = _rng(seed, 1)
        blocks = []
        for m, n in ORTHANT_SHAPES:
            cone = Orthant(n)
            mats = rng.standard_normal((ORTHANT_PER_SHAPE, m, n))
            blocks.append([(cone, a) for a in mats])
        return Workload(name, seed, _interleave(blocks), len(blocks), witnesses=True)
    if name == "lorentz-report":
        rng = _rng(seed, 2)
        blocks = []
        for spec, m in LORENTZ_CONES:
            cone = parse_cone(spec)
            mats = rng.standard_normal((LORENTZ_PER_CONE, m, cone.dim))
            blocks.append([(cone, a) for a in mats])
        return Workload(name, seed, _interleave(blocks), len(blocks))
    if name == "orthant-ensemble":
        rng = _rng(seed, 3)
        chunk_seeds = rng.integers(0, 2**62, size=ENSEMBLE_CHUNKS)
        items = [
            ExperimentConfig(n=ENSEMBLE_N, m=ENSEMBLE_MS[c % len(ENSEMBLE_MS)],
                             cone_spec=f"orthant:{ENSEMBLE_N}",
                             trials=ENSEMBLE_CHUNK, seed=int(s))
            for c, s in enumerate(chunk_seeds)
        ]
        return Workload(name, seed, items, len(ENSEMBLE_MS))
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
