"""Seeded input generation for the three workloads.

Everything here runs in the runner process, before any timed work.  The
output of `make` is a spec (written to `spec.json`) plus the data files it
names; workers read only that, so the program sees the generated inputs and
never the seed.  The same (workload, seed) always gives the same spec.
"""
from __future__ import annotations

import os
import random
from pathlib import Path

# The bundled rank-1 table; its masses are classical, so rank 1 has an
# independent closed-form check (cusp-form dimensions).
G1_MASSES = "demos/data/masses/g1.tsv"

# Mass denominators are divisors of 5040 = 2^4 3^2 5 7: small-prime
# denominators like real masses, and elliptic-term sums that stay small
# Fractions whatever the seed.
_DENOMINATORS = [q for q in range(1, 5041) if 5040 % q == 0]


def dominant_weights(g: int, max_top: int | None = None,
                     max_size: int | None = None) -> list[tuple[int, ...]]:
    """Even-weight dominant lambda of rank g with lambda_1 <= max_top and
    |lambda| <= max_size, in descending lexicographic order."""
    top = max_top if max_top is not None else max_size
    out: list[tuple[int, ...]] = []

    def extend(prefix: list[int], prev: int, size: int) -> None:
        if len(prefix) == g:
            if size % 2 == 0:
                out.append(tuple(prefix))
            return
        for v in range(prev, -1, -1):
            if max_size is not None and size + v > max_size:
                continue
            extend(prefix + [v], v, size + v)

    extend([], top, 0)
    return out


def top_degree_exponents(g: int) -> list[tuple[int, ...]]:
    """Every (n_1..n_g) with sum i*n_i = g(g+1)/2."""
    out: list[tuple[int, ...]] = []

    def extend(i: int, rest: int, suffix: list[int]) -> None:
        if i == 0:
            if rest == 0:
                out.append(tuple(suffix))
            return
        for n in range(rest // i, -1, -1):
            extend(i - 1, rest - n * i, [n] + suffix)

    extend(g, g * (g + 1) // 2, [])
    return out


def child_env() -> dict[str, str]:
    """The environment of every process that runs agcoh: the checkout's
    sources only, no data or cache directory, bytecode never written (so
    every import compiles, as in a fresh checkout), fixed hash seed."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("AGCOH_CACHE_DIR", "AGCOH_DATA_DIR")}
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _lam_text(lam) -> str:
    return ",".join(map(str, lam))


def write_mass_table(path: Path, g: int, rng: random.Random) -> None:
    """One seeded positive rational mass per negation orbit of rank g."""
    from agcoh.torsion import enumerate_torsion_classes

    lines = [f"# seeded benchmark masses, rank {g}", f"genus: {g}"]
    for c in enumerate_torsion_classes(g, mod_negation=True):
        lines.append(f"{c.encode()}\t{rng.randint(1, 999)}/{rng.choice(_DENOMINATORS)}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- euler ---------------------------------------------------------------------

# |lambda| caps for ranks 2..5, plus the heavy tail the weight budget admits.
EULER_CAPS = {2: 12, 3: 8, 4: 6, 5: 4}
EULER_HEAVY = [(4, (6, 4, 2, 0)), (5, (4, 2, 2, 0, 0))]
EULER_RANK1_K = range(0, 60, 2)


def _euler(seed: int, work: Path) -> dict:
    rng = random.Random(seed)
    tables = {"1": G1_MASSES}
    for g in EULER_CAPS:
        path = work / "masses" / f"g{g}.tsv"
        write_mass_table(path, g, rng)
        tables[str(g)] = str(path)
    small = {g: [(g, lam) for lam in dominant_weights(g, max_size=cap)]
             for g, cap in EULER_CAPS.items()}
    # A fixed order: the program's caches are shared by the jobs of a sweep,
    # so a seeded order would move first-call costs from job to job.  Each
    # heavy job sits between runs of small ones, so that the reference
    # timings it is scaled by (worker.py) are dense on both sides of it.
    jobs = [(1, (k,)) for k in EULER_RANK1_K] + small[2] + small[3] + [EULER_HEAVY[0]] + \
        small[4] + [EULER_HEAVY[1]] + small[5]
    return {"tables": tables,
            "jobs": [{"id": f"g{g}:{_lam_text(lam)}", "g": g, "lam": list(lam)}
                     for g, lam in jobs]}


# -- ih_taut: the ih_betti domain, then the tautological-ring jobs -------------

IH_MAX_TAU = 11  # lambda_1 + g <= 11: the built-in registry's exhaustive range


def _ih_jobs(rng: random.Random) -> list[dict]:
    cases = [(g, lam) for g in range(1, IH_MAX_TAU + 1)
             for lam in dominant_weights(g, max_top=IH_MAX_TAU - g)]
    hodge = set(rng.sample(range(len(cases)), len(cases) // 2))
    return [{"id": f"ih:g{g}:{_lam_text(lam)}", "kind": "ih", "g": g, "lam": list(lam),
             "hodge": i in hodge} for i, (g, lam) in enumerate(cases)]


TAUT_TRIPLES_PER_GENUS = 10
TAUT_TRIPLE_TERMS = 3


def _random_element(g: int, index_sum: int, rng: random.Random) -> list[list[int]]:
    """A homogeneous element of R_g: a few basis monomials u_S with
    sum(S) = index_sum and nonzero small integer coefficients, as
    [bitmask, coefficient] pairs."""
    masks = [m for m in range(1 << g)
             if sum(i + 1 for i in range(g) if m >> i & 1) == index_sum]
    chosen = rng.sample(masks, min(TAUT_TRIPLE_TERMS, len(masks)))
    return [[m, rng.choice([c for c in range(-9, 10) if c])] for m in sorted(chosen)]


def _taut_jobs(rng: random.Random) -> list[dict]:
    jobs = [{"id": f"lambda:g{g}:{_lam_text(e)}", "kind": "lambda", "g": g,
             "exponents": list(e)}
            for g in range(1, 8) for e in top_degree_exponents(g)]
    jobs += [{"id": f"rank:g{g}:d{d}", "kind": "rank", "g": g, "degree": d}
             for g in range(6, 10) for d in range(0, g * (g + 1) + 1, 2)]
    jobs += [{"id": f"quotient:g{g}", "kind": "quotient", "g": g} for g in range(3, 9)]
    for g in range(6, 11):
        # a*b*c lands in the top degree, where normal forms do the most work
        third = g * (g + 1) // 6
        for i in range(TAUT_TRIPLES_PER_GENUS):
            jobs.append({"id": f"triple:g{g}:{i}", "kind": "triple", "g": g,
                         "elements": [_random_element(g, third, rng),
                                      _random_element(g, third, rng),
                                      _random_element(g, g * (g + 1) // 2 - 2 * third, rng)]})
    return jobs


def _ih_taut(seed: int, work: Path) -> dict:
    rng = random.Random(seed)
    return {"jobs": _ih_jobs(rng) + _taut_jobs(rng)}  # a fixed order, as for euler


# -- cli -----------------------------------------------------------------------

def _cli(seed: int, work: Path) -> dict:
    rng = random.Random(seed)
    masses = work / "masses"
    for g in (2, 3):
        write_mass_table(masses / f"g{g}.tsv", g, rng)
    header_only = masses / "g4-header-only.tsv"
    header_only.write_text("genus: 4\n", encoding="utf-8")
    g2, g3 = str(masses / "g2.tsv"), str(masses / "g3.tsv")

    def fmt() -> list[str]:
        pick = rng.random()
        return ["--format", "tsv"] if pick < 0.15 else \
            ["--format", "latex"] if pick < 0.25 else []

    def zeros(g: int) -> str:
        return _lam_text((0,) * g)

    ok: list[list[str]] = []
    ok += [["taut", "--g", str(g)] + fmt() for g in range(1, 9)]
    ok += [["intersect", "--g", str(g)] + fmt() for g in range(1, 6)]
    for g in range(2, 8):
        e = rng.choice(top_degree_exponents(g))
        ok.append(["intersect", "--g", str(g), "--exponents", _lam_text(e)] + fmt())
    ok += [["modforms", "--g", str(g)] + fmt() for g in range(1, 7)]
    ok += [["torsion", "--g", str(g)] + (["--mod-negation"] if neg else []) + fmt()
           for g in range(1, 5) for neg in (False, True)]
    ok.append(["torsion", "--g", "7"])  # the heavy listing
    for k in sorted(rng.sample(range(0, 40, 2), 4)):
        ok.append(["euler", "--g", "1", "--lambda", str(k), "--masses", G1_MASSES] + fmt())
    for g, path, cap in ((2, g2, 8), (3, g3, 4)):
        for lam in rng.sample(dominant_weights(g, max_size=cap), 3):
            ok.append(["euler", "--g", str(g), "--lambda", _lam_text(lam),
                       "--masses", path] + fmt())
    for g in range(1, 8):
        lam = rng.choice(dominant_weights(g, max_top=IH_MAX_TAU - g))
        ok.append(["arthur", "--g", str(g), "--lambda", _lam_text(lam)] + fmt())
    ok += [["arthur", "--g", str(g), "--lambda", zeros(g)] + fmt() for g in (9, 10, 11)]
    for g in range(1, 9):
        lam = rng.choice(dominant_weights(g, max_top=IH_MAX_TAU - 1 - g))
        # bundled signs cover only a few shapes, so general weights emit both
        extra = ["--signs", "both"] + (["--hodge"] if rng.random() < 0.5 else [])
        ok.append(["ih", "--g", str(g), "--lambda", _lam_text(lam)] + extra + fmt())
    ok += [["ih", "--g", str(g), "--lambda", zeros(g), "--signs", "both"] for g in (6, 7, 8)]
    ok += [["ih", "--g", "6", "--lambda", zeros(6)], ["ih", "--g", "7", "--lambda", zeros(7)]]
    ok.append(["ih", "--g", "11", "--signs", "both"])  # the heavy one
    for table in ("tor2", "tor3", "vor4", "perf4_low", "sat4_constraints", "perf4_ih",
                  "hain_a3", "hain_sat3", "euler_ag", "torsion_counts"):
        ok.append(["tables", "--id", table] + fmt())
    for space in ("ag", "sat", "ih_sat", f"universal:{rng.randint(0, 4)}"):
        for _ in range(2):
            ok.append(["stable", "--space", space, "--max-degree",
                       str(rng.randint(4, 40))] + fmt())

    # documented error paths: (argv, expected exit code)
    errors: list[tuple[list[str], int | None]] = [
        (["ih", "--g", "3", "--lambda", "2,4,0"], 2),
        (["arthur", "--g", "2", "--lambda", "x,0"], 2),
        (["euler", "--g", "2", "--masses", str(masses / "absent.tsv")], 3),
        (["euler", "--g", "3", "--masses", g2], 3),
        (["tables", "--id", "nope"], 2),
        (["tables", "--id", f"tor{rng.randint(5, 9)}"], 2),
        (["arthur", "--g", "2", "--lambda", "12,0"], 4),
        (["ih", "--g", "1", "--lambda", "12"], 4),
        (["stable", "--space", "nope", "--max-degree", "6"], 2),
        (["stable", "--space", "universal", "--max-degree", "6"], 2),
        # Known defect: exits 1 with a raw WeightBudgetError traceback.  No
        # specific code is expected, only some documented one with JSON.
        (["euler", "--g", "4", "--lambda", "8,4,2,0", "--masses", str(header_only),
          "--lenient"], None),
    ]
    jobs = [{"argv": argv, "expect": 0} for argv in ok]
    jobs += [{"argv": argv, "expect": code} if code is not None else
             {"argv": argv, "expect": "documented", "known_defect": True}
             for argv, code in errors]
    # a few invocations run twice: their outputs must be byte-identical
    jobs += [dict(job) for job in rng.sample(jobs[:len(ok)], 3)]
    seen: dict[str, int] = {}
    for job in jobs:
        key = " ".join(job["argv"])
        seen[key] = seen.get(key, 0) + 1
        job["id"] = key if seen[key] == 1 else f"{key} #{seen[key]}"
    rng.shuffle(jobs)
    return {"tables": {"2": g2, "3": g3}, "jobs": jobs}


MAKERS = {"euler": _euler, "ih_taut": _ih_taut, "cli": _cli}


def make(workload: str, seed: int, work: Path) -> dict:
    """Generate the inputs of one workload under `work`; paths in the spec
    are relative to the checkout root, where every process runs."""
    spec = MAKERS[workload](seed, work)
    spec["workload"] = workload
    return spec
