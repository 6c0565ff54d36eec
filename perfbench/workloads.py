"""Scenario generators for the benchmark's workloads.

Each workload is a function of a workload seed and an instance index.
It returns scenario text, the only input d2dsim receives.  A timed run
cycles through ``INSTANCES`` instances of its seed, so one run
averages over several layouts instead of timing one lucky or unlucky
placement.  This module does not import d2dsim.

No workload has a UE sending to two multicast groups: d2dsim accepts
such a scenario and then fails in the scheduler, so the case belongs
to a robustness test, not to a timed workload.
"""

from __future__ import annotations

import math
import random
from typing import Callable

INSTANCES = 4
CRITERION_1_SEED = 42
MULTICAST_GROUP = "224.0.0.10"


def criterion_1_scenario(rng: random.Random, ttis: int = 10000) -> str:
    """Copy of the criterion-1 generator of the acceptance suite.

    10k TTIs, 7 UEs, every traffic kind at once, randomized layout.
    ``perfbench/tests`` checks that it stays byte-identical to the
    original at the default TTI count.
    """
    lines = [
        f"sim.ttiCount = {ttis}",
        f"sim.seed = {rng.randint(1, 10_000)}",
        'sim.nodes = "eNodeB ueD2DTx[0] ueD2DRx[0] ueCell[0] ueCell[1] '
        'ueCell[2] ueCell[3] ueCell[4]"',
        'eNodeB.role = "eNB"',
        "eNodeB.d2dCapable = true",
        'eNodeB.amcMode = "D2D"',
        "ueD2DTx[0].d2dCapable = true",
        'ueD2DTx[0].d2dPeerAddresses = "ueD2DRx[0]"',
        "ueD2DTx[0].usePreconfiguredTxParams = true",
        f"ueD2DTx[0].d2dCqi = {rng.randint(3, 15)}",
        "ueD2DRx[0].d2dCapable = true",
    ]
    for name in ("ueD2DTx[0]", "ueD2DRx[0]", "ueCell[0]", "ueCell[1]",
                 "ueCell[2]", "ueCell[3]", "ueCell[4]"):
        lines.append(f"{name}.positionX = {rng.uniform(-400, 400):.1f}")
        lines.append(f"{name}.positionY = {rng.uniform(-400, 400):.1f}")
    routes = [("ueD2DTx[0]", "ueD2DRx[0]"),       # sidelink unicast
              ("ueD2DTx[0]", MULTICAST_GROUP),    # sidelink one-to-many
              ("ueCell[0]", "eNodeB"),            # plain uplink
              ("eNodeB", "ueCell[1]"),            # plain downlink
              ("ueCell[2]", "ueCell[3]"),         # relayed UE-to-UE
              ("ueCell[4]", "ueCell[2]")]
    for i, (src, dst) in enumerate(routes):
        lines += [f'flow[{i}].sourceNode = "{src}"',
                  f'flow[{i}].destAddress = "{dst}"',
                  f"flow[{i}].packetBytes = {rng.randint(200, 1500)}",
                  f"flow[{i}].periodTtis = {rng.randint(3, 12)}",
                  f"flow[{i}].startJitterTtis = {rng.randint(0, 5)}"]
    lines += ["[multicast]", f'{MULTICAST_GROUP} = "ueD2D*"']
    return "\n".join(lines) + "\n"


def instance_rng(seed: int, index: int) -> random.Random:
    """Random stream of one instance; instance 0 uses the seed itself."""
    return random.Random(seed if index == 0 else f"{seed}:{index}")


def mixed_7ue(seed: int, index: int, ttis: int = 10000) -> str:
    """Criterion-1 traffic on a layout drawn from the seed.

    Flow sizes, periods, jitters and the sidelink CQI are those of the
    criterion-1 seed; node positions and ``sim.seed`` come from this
    instance's stream.  At seed 42, instance 0 is the criterion-1
    scenario itself.  Drawing the traffic too would make the offered
    load, and with it the cost per TTI, differ by more than 2x between
    seeds.
    """
    traffic = criterion_1_scenario(random.Random(CRITERION_1_SEED), ttis)
    layout = criterion_1_scenario(instance_rng(seed, index), ttis)
    return "".join(
        mine if mine.startswith("sim.seed") or ".position" in mine else base
        for base, mine in zip(traffic.splitlines(keepends=True),
                              layout.splitlines(keepends=True)))


def cell_40ue_shadowed(seed: int, index: int, ttis: int = 300) -> str:
    """40 UEs in +-400 m, 8 dB shadowing, 10 D2D peerings, mode selection.

    Flows start at a jittered TTI so that the 40 sources do not all
    fire in the same TTI of their period.
    """
    rng = instance_rng(seed, index)
    ues = [f"ue[{i}]" for i in range(40)]
    lines = [
        f"sim.ttiCount = {ttis}",
        f"sim.seed = {rng.randint(1, 10_000)}",
        f'sim.nodes = "eNodeB {" ".join(ues)}"',
        "channel.shadowingStdDevDb = 8",
        'eNodeB.role = "eNB"',
        "eNodeB.d2dCapable = true",
        'eNodeB.amcMode = "D2D"',
        "eNodeB.d2dModeSelection = true",
    ]
    for ue in ues:
        lines.append(f"{ue}.positionX = {rng.uniform(-400, 400):.1f}")
        lines.append(f"{ue}.positionY = {rng.uniform(-400, 400):.1f}")
    flow = 0
    for i in range(10):  # ue[2i] -> ue[2i+1], unidirectional
        src, dst = ues[2 * i], ues[2 * i + 1]
        lines += [f"{src}.d2dCapable = true",
                  f'{src}.d2dPeerAddresses = "{dst}"',
                  f"{src}.enableD2DCqiReporting = true",
                  f"{dst}.d2dCapable = true",
                  f'flow[{flow}].sourceNode = "{src}"',
                  f'flow[{flow}].destAddress = "{dst}"',
                  f"flow[{flow}].packetBytes = 500",
                  f"flow[{flow}].periodTtis = 10",
                  f"flow[{flow}].startJitterTtis = 9"]
        flow += 1
    for ue in ues[20:]:
        for src, dst, size in ((ue, "eNodeB", 300), ("eNodeB", ue, 600)):
            lines += [f'flow[{flow}].sourceNode = "{src}"',
                      f'flow[{flow}].destAddress = "{dst}"',
                      f"flow[{flow}].packetBytes = {size}",
                      f"flow[{flow}].periodTtis = 20",
                      f"flow[{flow}].startJitterTtis = 19"]
            flow += 1
    return "\n".join(lines) + "\n"


def saturated_cell(seed: int, index: int, ttis: int = 1000) -> str:
    """8 UEs on 25 RBs, 40 B every TTI to the eNB and, relayed, to the next UE.

    Offered load exceeds uplink capacity, so RLC queues grow all run.
    ue[i] sits in the ring 50 (i + 5) to 50 (i + 6) m from the eNB, at
    a radius and angle drawn from the instance's stream.  How fast the
    queues grow depends on which UEs have poor channels, because the
    scheduler favours low node ids when blocks run out; uniform
    placement would make that differ too much between instances.
    """
    rng = instance_rng(seed, index)
    ues = [f"ue[{i}]" for i in range(8)]
    lines = [
        f"sim.ttiCount = {ttis}",
        f"sim.seed = {rng.randint(1, 10_000)}",
        "sim.numRbs = 25",
        f'sim.nodes = "eNodeB {" ".join(ues)}"',
        'eNodeB.role = "eNB"',
    ]
    for ring, ue in enumerate(ues):
        radius = 50.0 * (5 + ring + rng.random())
        angle = rng.uniform(0.0, 2 * math.pi)
        lines.append(f"{ue}.positionX = {radius * math.cos(angle):.1f}")
        lines.append(f"{ue}.positionY = {radius * math.sin(angle):.1f}")
    for i, ue in enumerate(ues):
        for j, dst in enumerate(("eNodeB", ues[(i + 1) % len(ues)])):
            flow = 2 * i + j
            lines += [f'flow[{flow}].sourceNode = "{ue}"',
                      f'flow[{flow}].destAddress = "{dst}"',
                      f"flow[{flow}].packetBytes = 40",
                      f"flow[{flow}].periodTtis = 1"]
    return "\n".join(lines) + "\n"


# generator and simulated TTIs of one timed instance
WORKLOADS: dict[str, tuple[Callable[..., str], int]] = {
    "mixed_7ue": (mixed_7ue, 1500),
    "cell_40ue_shadowed": (cell_40ue_shadowed, 300),
    "saturated_cell": (saturated_cell, 1000),
}


def scenario_text(workload: str, seed: int, index: int) -> str:
    generate, ttis = WORKLOADS[workload]
    return generate(seed, index, ttis)
