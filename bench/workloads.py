"""Workload job lists, the jobs themselves, and the checks on their results.

Each job calls the package's public functions in the order the matching CLI
command calls them. The checks use this file's own tables (highest roots,
Weyl group orders, Levi types), never the package's, so a defect in the
package cannot also hide its own failure.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import factorial

# Bourbaki coordinates of the highest root of each exceptional type.
_EXCEPTIONAL_HIGHEST_ROOT = {
    ("E", 6): (1, 2, 2, 3, 2, 1),
    ("E", 7): (2, 2, 3, 4, 3, 2, 1),
    ("E", 8): (2, 3, 4, 6, 5, 4, 3, 2),
    ("F", 4): (2, 3, 4, 2),
    ("G", 2): (3, 2),
}


def highest_root(type_label: str, rank: int) -> tuple[int, ...]:
    """Highest root in simple-root coordinates, Bourbaki numbering."""
    if type_label == "A":
        return (1,) * rank
    if type_label == "B":
        return (1,) + (2,) * (rank - 1)
    if type_label == "C":
        return (2,) * (rank - 1) + (1,)
    if type_label == "D":
        return (1,) + (2,) * (rank - 3) + (1, 1)
    return _EXCEPTIONAL_HIGHEST_ROOT[(type_label, rank)]


def weyl_order(type_label: str, rank: int) -> int:
    if type_label == "A":
        return factorial(rank + 1)
    if type_label in ("B", "C"):
        return 2**rank * factorial(rank)
    if type_label == "D":
        return 2 ** (rank - 1) * factorial(rank)
    return {("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600,
            ("F", 4): 1152, ("G", 2): 12}[(type_label, rank)]


def levi_weyl_order(levi_type: str) -> int:
    """Weyl group order of a Levi type written as e.g. "A2", "A1xB2", ""."""
    order = 1
    for part in filter(None, levi_type.split("x")):
        order *= weyl_order(part[0], int(part[1:]))
    return order


def is_good(type_label: str, rank: int, gamma) -> bool:
    """The paper's criterion: an orbit carries a compatible pair iff the group
    is of type A, or at most two simple roots are removed and each of them
    has coefficient 1 in the highest root."""
    free = [i for i in range(1, rank + 1) if i not in gamma]
    if type_label == "A" or not free:
        return True
    hr = highest_root(type_label, rank)
    return len(free) <= 2 and all(hr[i - 1] == 1 for i in free)


# -- workload definitions -----------------------------------------------------

# Jobs stay under about 1.5 s so that each one gets five or more passes in a
# 30 s run; single orbits such as D4{1,2} (5 s) or the A8 full flag (2.7 s)
# would get too few samples to be steady on a host shared with others.

# Every Gamma of these algebras is classified, plus the full flag of A7.
CLASSIFY_ALL_GAMMA = [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2),
                      ("B", 4), ("B", 5), ("C", 4), ("C", 5), ("D", 4), ("D", 5),
                      ("A", 5), ("A", 6)]
CLASSIFY_SINGLE = [("A", 7, ())]

# (type, rank, Gamma, Levi type of Gamma)
COHOMOLOGY_REAL = [
    ("C", 3, (1,), "A1"),
    ("A", 4, (1, 4), "A1xA1"),
    ("A", 4, (2, 3), "A2"),
    ("A", 4, (1, 2), "A2"),
    ("B", 4, (2, 3, 4), "B3"),
    ("G", 2, (), ""),
    ("A", 3, (), ""),
    ("D", 4, (1, 2, 3), "A3"),
    ("C", 3, (1, 2), "A2"),
]

# (type, rank, Gamma, Levi type of Gamma, K); every orbit is good and also
# appears in COHOMOLOGY_REAL with the KKS bracket.
COHOMOLOGY_GAUSSIAN = [
    ("A", 4, (1, 4), "A1xA1", "i"),
    ("A", 4, (2, 3), "A2", "2*i"),
    ("A", 4, (1, 2), "A2", "1/2+i"),
    ("B", 4, (2, 3, 4), "B3", "2*i"),
    ("A", 3, (), "", "1/2+i"),
    ("D", 4, (1, 2, 3), "A3", "i"),
    ("C", 3, (1, 2), "A2", "2*i"),
]


class Job:
    """One unit of closed-loop work: what to compute and how to check it."""

    def __init__(self, kind, type_label, rank, gamma, **params):
        self.kind = kind
        self.type_label = type_label
        self.rank = rank
        self.gamma = frozenset(gamma)
        self.params = params

    @property
    def label(self) -> str:
        g = ",".join(map(str, sorted(self.gamma)))
        extra = f" K={self.params['K']}" if "K" in self.params else ""
        return f"{self.kind} {self.type_label}{self.rank}{{{g}}}{extra}"


def _all_gammas(rank):
    for size in range(rank + 1):
        yield from combinations(range(1, rank + 1), size)


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of a workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    if workload == "classify_atlas":
        orbits = [(t, r, g) for t, r in CLASSIFY_ALL_GAMMA for g in _all_gammas(r)]
        orbits += CLASSIFY_SINGLE
        for t, r, g in orbits:
            jobs.append(Job("classify", t, r, g, rng_seed=rng.randrange(2**31)))
    elif workload == "cohomology_real":
        for t, r, g, levi_type in COHOMOLOGY_REAL:
            lam = [rng.randint(1, 5) for _ in range(r - len(g))]
            jobs.append(Job("kks", t, r, g, levi_type=levi_type, lam=lam))
    elif workload == "cohomology_gaussian":
        for t, r, g, levi_type, K in COHOMOLOGY_GAUSSIAN:
            lam = [rng.randint(1, 5) for _ in range(r - len(g))]
            jobs.append(Job("compatible", t, r, g, levi_type=levi_type, lam=lam,
                            K=K, sign=rng.choice("+-"), seed_c=rng.randint(1, 9)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


def algebras(jobs: list[Job]) -> list[tuple[str, int]]:
    """The algebras a job list needs, in first-use order."""
    return list(dict.fromkeys((j.type_label, j.rank) for j in jobs))


WORKLOADS = ("classify_atlas", "cohomology_real", "cohomology_gaussian")


# -- running and checking one job ---------------------------------------------


def run_job(op, session, job: Job):
    """Run a job against the package module ``op``; return its result."""
    rs, basis = session[(job.type_label, job.rank)]
    if job.kind == "classify":
        return op.classify_good(rs, job.gamma, basis, rng_seed=job.params["rng_seed"])
    levi = op.build_levi(rs, job.gamma)
    lam = op.LinearForm(levi, job.params["lam"])
    if job.kind == "kks":
        v = op.kks(levi, lam)
        reports = [op.verify_square(v, 0, basis), op.verify_compatible(v, lam, basis)]
        outcome = None
    else:
        p = job.params
        outcome = op.solve_compatible(levi, lam, p["K"], p["sign"], p["seed_c"], basis)
        if not outcome.is_success:
            return {"outcome": outcome}
        v = outcome.solution
        reports = [outcome.verification["square"], outcome.verification["compatible"]]
    betti = op.betti_numbers(levi, basis, v)
    oracle = op.de_rham_betti(rs, levi.gamma)
    return {"outcome": outcome, "reports": reports, "betti": betti, "oracle": oracle}


def check_job(job: Job, result, rs) -> str | None:
    """None when the result is right, else a one-line reason."""
    if job.kind == "classify":
        return _check_classify(job, result, rs)
    return _check_cohomology(job, result)


def _check_classify(job: Job, verdict, rs) -> str | None:
    expected = is_good(job.type_label, job.rank, job.gamma)
    flags = (verdict.good, verdict.closed_form, verdict.type_a, verdict.solver_ok)
    if set(flags) != {expected}:
        return f"verdicts {flags}, criterion says {expected}"
    if expected:
        return None if verdict.witness is None else "good orbit carries a witness"
    if verdict.witness is None:
        return "bad orbit without a witness"
    free = [i - 1 for i in range(1, job.rank + 1) if i not in job.gamma]
    hr = highest_root(job.type_label, job.rank)
    q = tuple(verdict.witness.quasiroot)
    bounded = len(q) == len(free) and all(0 <= c <= hr[i] for c, i in zip(q, free))
    projections = {tuple(r[i] for i in free) for r in rs.positive_roots}
    if not (any(q) and bounded and q in projections):
        return f"witness {q} is not a positive quasiroot"
    return None


def _check_cohomology(job: Job, result) -> str | None:
    outcome = result["outcome"]
    if outcome is not None and not outcome.is_success:
        return "no compatible pair on an orbit the criterion calls good"
    if outcome is not None:
        extra = outcome.verification
        if not (extra["sign_consistent"] and extra["triple_chain_ok"]):
            return "compatible-pair chain checks failed"
    if not all(r.ok for r in result["reports"]):
        return "verification report not ok"
    betti = result["betti"]
    if any(betti[1::2]):
        return f"odd Betti numbers nonzero: {betti}"
    if betti != result["oracle"]:
        return f"Betti numbers {betti} differ from de_rham_betti {result['oracle']}"
    cosets = weyl_order(job.type_label, job.rank) // levi_weyl_order(job.params["levi_type"])
    if sum(betti) != cosets:
        return f"Betti numbers sum to {sum(betti)}, |W/W_Gamma| = {cosets}"
    return None
