"""Seeded operation schedules for the benchmark workloads.

A schedule is an endless sequence of cycles; a cycle is a short list of CLI
commands whose mix of command kinds is the same in every cycle, so a run made
of whole cycles measures the same mix whatever its length. The schedule is a
function of the workload name and seed alone. Random-state seeds are drawn
from one counter that only moves forward, so no state seed repeats within a
process and no in-process cache of the program can hit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("verify-equality", "verify-extended", "interfere")

# Named families swept by ``verify --family``: the CLI flags of the fixed
# angles, and the same angles as keyword arguments of the oracle's formulas.
FAMILIES = (
    ("ghz", ()),
    ("w", ()),
    ("intermediate", (("alpha2_0", 0.7), ("alpha3_00", 1.1))),
)
FAMILY_POINTS = 33
RANDOM_COUNT = 50

EXTENDED_COUNT = 20
EXTENDED_PHASE_POINTS = 36
# In the support (equality holds), mixed support/kernel, kernel only.
EXTENDED_COEFFS = ("0.6,0.8,0,0", "0.5,0.5,0.5,0.5", "0,0,1,0")

INTERFERE_PURE_POINTS = 360
INTERFERE_DENSITY_POINTS = 120
INTERFERE_EPSILON = 0.1


@dataclass(frozen=True)
class Op:
    """One CLI command of a schedule and the inputs its output must match.

    ``states`` holds one entry per state the command processes, in output
    order: ``("random", seed)`` or ``("family", name, alpha1, fixed_angles)``.
    The worker appends ``--output <file>`` to ``argv``.
    """

    kind: str
    argv: tuple
    states: tuple
    phase_points: int = 360
    coeffs: str | None = None
    epsilon: float | None = None


def _verify_random(seed0: int, count: int, extra: tuple = ()) -> tuple:
    argv = ("verify", "--random", "--count", str(count), "--seed", str(seed0)) + extra
    return argv, tuple(("random", seed0 + k) for k in range(count))


def _family_op(index: int) -> Op:
    name, fixed = FAMILIES[index % len(FAMILIES)]
    argv = ("verify", "--family", name, "--points", str(FAMILY_POINTS))
    for key, value in fixed:
        argv += ("--" + key.replace("_", "-"), repr(value))
    # Same grid expression as the CLI, so the descriptors match to the bit.
    alphas = np.linspace(0.0, np.pi, FAMILY_POINTS)
    states = tuple(("family", name, float(a), fixed) for a in alphas)
    return Op("family:" + name, argv, states)


def _base_seed(workload: str, seed: int) -> int:
    entropy = [int(seed), WORKLOADS.index(workload)]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def cycles(workload: str, seed: int):
    """Yield the cycles (lists of :class:`Op`) of one workload, forever."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    base = _base_seed(workload, seed)
    next_seed = base

    def take(n: int) -> int:
        nonlocal next_seed
        first, next_seed = next_seed, next_seed + n
        return first

    for k in itertools.count():
        if workload == "verify-equality":
            argv, states = _verify_random(take(RANDOM_COUNT), RANDOM_COUNT)
            # The family rotation starts at a seed-dependent place, so runs
            # shorter than three cycles still cover every family across seeds.
            yield [Op("random", argv, states), _family_op(base + k)]
        elif workload == "verify-extended":
            cycle = []
            for coeffs in EXTENDED_COEFFS:
                argv, states = _verify_random(
                    take(EXTENDED_COUNT), EXTENDED_COUNT,
                    ("--phase-points", str(EXTENDED_PHASE_POINTS),
                     "--basis-coeffs", coeffs))
                cycle.append(Op("extended:" + coeffs, argv, states,
                                EXTENDED_PHASE_POINTS, coeffs))
            yield cycle
        else:
            pure_seed, density_seed = take(1), take(1)
            common = ("interfere", "--random", "--mode", "independent")
            yield [
                Op("pure", common + ("--seed", str(pure_seed), "--phase-points",
                                     str(INTERFERE_PURE_POINTS)),
                   (("random", pure_seed),), INTERFERE_PURE_POINTS),
                Op("density", common + ("--seed", str(density_seed),
                                        "--phase-points", str(INTERFERE_DENSITY_POINTS),
                                        "--epsilon", repr(INTERFERE_EPSILON)),
                   (("random", density_seed),), INTERFERE_DENSITY_POINTS,
                   epsilon=INTERFERE_EPSILON),
            ]
