"""The benchmark's four workloads: fixed `ferchar` command lists.

Each workload is a list of argv lists for `ferchar.cli.main`.  The case
lists are fixed; the benchmark seed only reaches the commands that run in
two-prime mode, as their `--seed`, where it picks the two primes.
"""

from __future__ import annotations

from ferchar.fermionic import delta_vector, gram_matrix_for_partition
from ferchar.presented import Partition


def _matrix_flag(gram) -> str:
    return ";".join(",".join(str(x) for x in row) for row in gram)


def _lattice_rank(seed: int) -> list[list[str]]:
    # the criterion-5 set: every M with v zero or a unit vector
    grams = (((2,),), ((2, 0), (0, 2)), ((2, 1), (1, 2)),
             gram_matrix_for_partition(Partition.make((2, 1))))
    out = []
    for gram in grams:
        n = len(gram)
        for shifts in [(0,) * n] + [delta_vector(i, n) for i in range(1, n + 1)]:
            out.append(["verify", "lattice", "--matrix", _matrix_flag(gram),
                        "--shifts", ",".join(map(str, shifts)),
                        "--qmax", "5", "--zmax", "5", "--seed", str(seed)])
    return out


def _mf_exact(seed: int) -> list[list[str]]:
    return [["scan", "mf", "--max-size", "7", "--qmax", "7", "--zmax", "6",
             "--umax", "3", "--field", "exact", "--jobs", "1"]]


def _fusion_scan(seed: int) -> list[list[str]]:
    return [["scan", "fusion", "--kmax", "2", "--qmax", "6", "--zmax", "4",
             "--umax", "3", "--jobs", "1", "--seed", str(seed)]]


def _limit_sums(seed: int) -> list[list[str]]:
    out = []
    for k1, k2 in ((1, 1), (1, 2)):
        for i1 in range(k1 + 1):
            for i2 in range(k2 + 1):
                out.append(["verify", "limform", "--i1", str(i1), "--k1", str(k1),
                            "--i2", str(i2), "--k2", str(k2), "--qmax", "5"])
    return out


_COMMANDS = {"lattice-rank": _lattice_rank, "mf-exact": _mf_exact,
             "fusion-scan": _fusion_scan, "limit-sums": _limit_sums}


def commands(workload: str, seed: int) -> list[list[str]]:
    """The workload's argv lists, without the output flags."""
    return _COMMANDS[workload](seed)
