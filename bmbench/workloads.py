"""Seeded workloads: the `.bm` instances each one generates and the CLI commands it runs.

A workload is built from a seed and a ladder (the instance sizes). Set-up
writes every instance through the CLI's own `gen` command, so the program
receives only generated files. Each measured pass then runs the workload's
commands in order, one after another, in one process.

Why these four workloads:

* ``peel`` runs the whole peel family (`decompose --method auto` on dense
  complete matroids and on sparse random ones, `oddcover --method reduce`),
  where working-set rebuilds dominate. `arboricity` never runs here, so a
  partition optimisation should leave it unchanged.
* ``partition`` runs `arboricity` and `oddcover --method arboricity`, where
  `can_partition` dominates and working-set rebuilds are a small share, so a
  peel optimisation should leave it unchanged.
* ``oracle`` runs the exact oracles on many tiny instances. They use the
  eliminator as a LIFO stack (insert, pop) rather than rebuilding it, and the
  many short commands give a latency distribution.
* ``orbit`` is the only workload that runs the orbit layer, and the only one
  where file formatting, parsing and re-checking are most of the command.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Instance sizes of the measured benchmark.
LADDER = {
    "peel": {
        "complete": (11, 12),
        "random": ((16, 2000), (14, 2000)),
    },
    "partition": {
        "random": ((12, 500), (12, 500), (14, 450), (14, 450), (16, 450), (16, 450)),
        "dense_core": ((14, 8, 105),),  # dim, core dim, random size
    },
    "oracle": {
        "copies": (6, 7),
        "random_c": (6, 18, 10),  # dim, size, count
        "conjectures": (4, 40),  # dim, count
    },
    "orbit": {
        "p": ((19, False), (13, True)),  # (p, --compress)
        "warmup_p": 11,
    },
}

#: A ladder small enough for the benchmark's self-tests to run in seconds.
TINY_LADDER = {
    "peel": {"complete": (5,), "random": ((8, 40),)},
    "partition": {"random": ((6, 30), (6, 30)), "dense_core": ((7, 4, 20),)},
    "oracle": {"copies": (2, 3), "random_c": (5, 9, 2), "conjectures": (4, 3)},
    "orbit": {"p": ((11, False), (5, True)), "warmup_p": 3},
}

WORKLOADS = tuple(LADDER)

#: Orbit counts (2^(p-1) - 1) / p stated in the paper for the primes used here.
KNOWN_ORBITS = {3: 1, 5: 3, 11: 93, 13: 315, 19: 13797}


@dataclass(frozen=True)
class Instance:
    """One `.bm` file written during set-up by `bmcircuits gen`.

    A nonzero ``core`` then replaces the file by its symmetric difference with
    the complete matroid on the leading ``core`` coordinates. That dense core
    makes the arboricity exceed the quotient ceil(|M| / rank(M)) the search
    starts from, so `can_partition` also runs its infeasible case.
    """

    name: str
    gen_args: tuple[str, ...]
    core: int = 0


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a measured pass.

    ``source`` names the instance the command reads, ``artifact`` the file it
    writes, and ``expect`` holds exact values its record must report.
    """

    kind: str
    args: tuple[str, ...]
    source: str | None = None
    artifact: str | None = None
    expect: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return " ".join((self.kind,) + self.args + ((self.source,) if self.source else ()))

    def argv(self, workdir) -> list[str]:
        argv = [self.kind, *self.args]
        if self.source is not None:
            argv += ["--in", str(workdir / f"{self.source}.bm")]
        if self.artifact is not None:
            argv += ["--out", str(workdir / self.artifact)]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple[Instance, ...]
    warmup: Command
    commands: tuple[Command, ...]


def _random(name: str, n: int, size: int, seed: int) -> Instance:
    return Instance(name, ("--kind", "random", "--n", str(n), "--size", str(size),
                           "--seed", str(seed)))


def _complete(name: str, n: int) -> Instance:
    return Instance(name, ("--kind", "complete", "--n", str(n)))


def _copies(name: str, k: int, s: int) -> Instance:
    return Instance(name, ("--kind", "copies", "--k", str(k), "--s", str(s)))


def _seeds(seed: int, count: int) -> list[int]:
    """Distinct instance seeds derived from the workload seed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return [int(s) for s in rng.choice(1 << 31, size=count, replace=False)]


def _peel(seed: int, ladder: dict) -> Workload:
    instances = [_complete(f"complete{n}", n) for n in ladder["complete"]]
    seeds = _seeds(seed, len(ladder["random"]))
    instances += [_random(f"random{n}x{size}", n, size, s)
                  for (n, size), s in zip(ladder["random"], seeds)]
    commands = []
    for inst in instances:
        commands.append(Command("decompose", ("--method", "auto"), inst.name,
                                f"{inst.name}.bmdec"))
        if inst.name.startswith("random"):
            commands.append(Command("oddcover", ("--method", "reduce"), inst.name,
                                    f"{inst.name}.cover"))
    instances.append(_complete("warmup", 5))
    warmup = Command("decompose", ("--method", "auto"), "warmup", "warmup.bmdec")
    return Workload("peel", tuple(instances), warmup, tuple(commands))


def _partition(seed: int, ladder: dict) -> Workload:
    seeds = _seeds(seed, len(ladder["random"]) + len(ladder["dense_core"]))
    instances = [_random(f"random{i}-{n}x{size}", n, size, s)
                 for i, ((n, size), s) in enumerate(zip(ladder["random"], seeds))]
    for i, ((n, core, size), s) in enumerate(zip(ladder["dense_core"], seeds[len(instances):])):
        random_part = _random(f"core{i}-{core}in{n}", n, size, s)
        instances.append(Instance(random_part.name, random_part.gen_args, core))
    commands = []
    for inst in instances:
        commands.append(Command("arboricity", (), inst.name, f"{inst.name}.part"))
        commands.append(Command("oddcover", ("--method", "arboricity"), inst.name,
                                f"{inst.name}.cover"))
    instances.append(_copies("warmup", 2, 3))
    warmup = Command("arboricity", (), "warmup", "warmup.part")
    return Workload("partition", tuple(instances), warmup, tuple(commands))


def _oracle(seed: int, ladder: dict) -> Workload:
    instances = []
    commands = []
    for k in ladder["copies"]:
        inst = _copies(f"copies{k}x2", k, 2)
        instances.append(inst)
        # k disjoint triangles: the minimum decomposition has exactly k circuits
        commands.append(Command("oracle", ("--what", "c"), inst.name, expect={"c": k}))
    n, size, count = ladder["random_c"]
    dim4, probes = ladder["conjectures"]
    seeds = _seeds(seed, count + probes)
    for i, s in enumerate(seeds[:count]):
        inst = _random(f"c{i}", n, size, s)
        instances.append(inst)
        commands.append(Command("oracle", ("--what", "c"), inst.name))
    # dimension-4 sizes 5..12 keep every exact oracle, c2 included, in range
    sizes = np.random.Generator(np.random.PCG64(seed)).integers(5, 13, size=probes)
    for i, (s, sz) in enumerate(zip(seeds[count:], sizes)):
        inst = _random(f"probe{i}", dim4, int(sz), s)
        instances.append(inst)
        commands.append(Command("oracle", ("--what", "conjectures"), inst.name))
    instances.append(_copies("warmup", 3, 2))
    warmup = Command("oracle", ("--what", "c"), "warmup", expect={"c": 3})
    return Workload("oracle", tuple(instances), warmup, tuple(commands))


def _orbit(seed: int, ladder: dict) -> Workload:
    commands = []
    for p, compress in ladder["p"]:
        args = ("--p", str(p)) + (("--compress",) if compress else ())
        commands.append(Command("orbit", args, None, f"orbit{p}.bmdec",
                                expect={"circuits": KNOWN_ORBITS[p]}))
    p = ladder["warmup_p"]
    warmup = Command("orbit", ("--p", str(p)), None, "warmup.bmdec",
                     expect={"circuits": KNOWN_ORBITS[p]})
    return Workload("orbit", (), warmup, tuple(commands))


_BUILDERS = {"peel": _peel, "partition": _partition, "oracle": _oracle, "orbit": _orbit}


def build(name: str, seed: int, ladder: dict = LADDER) -> Workload:
    """The workload's instances and commands for this seed."""
    return _BUILDERS[name](seed, ladder[name])
