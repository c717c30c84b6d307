"""Acceptance gate: one test per numbered criterion.

Each test prints a single `CRITERION n: PASS|FAIL` line on the real stdout
(uncaptured) and then asserts, so a plain pytest run shows the scoreboard.
Criterion 4 asserts the full triple equality of the fused-character routes;
the brute-force filtration genuinely disagrees with both closed routes on a
subset of level pairs, and that failure is reported, not hidden.
"""

from __future__ import annotations

import functools
import itertools
import time

from ferchar import fermionic, fusion, verify
from ferchar.exactlin import FieldMode
from ferchar.gradedchar import (GradedCharacter, Truncation, char_mul,
                                compare, inv_pochhammer)
from ferchar.presented import (InitialConditions, Partition,
                               build_presentation_A,
                               build_presentation_quadratic, graded_character)

from helpers import char_reweight, restrict

MODE = FieldMode.two_prime(0)

MF_SET = ((1, 1), (2, 1), (2, 2), (3, 1), (4, 2), (3, 2, 1))
FUSION_PAIRS = ((1, 1), (1, 2), (2, 2))
LATTICE_SET = (
    ((2,),),
    ((2, 0), (0, 2)),
    ((2, 1), (1, 2)),
    fermionic.gram_matrix_for_partition(Partition.make((2, 1))),
)


def emit(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\nCRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def zero_and_units(length):
    out = [(0,) * length]
    out.extend(fermionic.delta_vector(i, length) for i in range(1, length + 1))
    return out


def level_pairs():
    for k1, k2 in FUSION_PAIRS:
        for i1 in range(k1 + 1):
            for i2 in range(k2 + 1):
                yield i1, k1, i2, k2


def test_criterion_1_gordon(capsys):
    t0 = time.monotonic()
    bad = []
    for k in (1, 2, 3):
        report, = verify.verify_gordon(k, Truncation(10, 6, None), MODE)
        if report.verdict != "EQUAL":
            bad.append((k, report.verdict, report.first_diff))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 120
    emit(capsys, 1, ok,
         f"k in 1..3 on q<=10, z<=6, two-prime: "
         f"{'all EQUAL' if not bad else bad} in {elapsed:.1f}s (limit 120s)")


def test_criterion_2_closed_sum_for_lambda(capsys):
    bad = []
    for parts in MF_SET:
        report, = verify.verify_mf(parts, Truncation(6, 5, 3), MODE)
        if report.verdict != "EQUAL":
            bad.append((parts, report.verdict, report.first_diff))
    emit(capsys, 2, not bad,
         f"{len(MF_SET)} partitions on q<=6, z<=5, u<=3: "
         f"{'all EQUAL' if not bad else bad}")


def test_criterion_3_initial_conditions(capsys):
    bad = []
    count = 0
    for parts in MF_SET:
        lam = Partition.make(parts)
        for c in zero_and_units(lam.lam0):
            for d in zero_and_units(lam.s):
                count += 1
                report, = verify.verify_gmf(parts, c, d, Truncation(5, 5, 5),
                                            MODE)
                if report.verdict != "EQUAL":
                    bad.append((parts, c, d, report.verdict))
    emit(capsys, 3, not bad,
         f"{count} (lambda, c, d) cases on q<=5 (z, u capped at 5): "
         f"{'all EQUAL' if not bad else bad}")


def test_criterion_4_fused_triple_equality(capsys):
    bad = []
    for i1, k1, i2, k2 in level_pairs():
        reports = verify.verify_fusion(i1, k1, i2, k2, Truncation(6, 4, 3),
                                       MODE)
        for r in reports:
            if r.verdict != "EQUAL":
                bad.append(((k1, k2, i1, i2), f"{r.left} vs {r.right}",
                            r.verdict, r.first_diff))
    detail = "19 level pairs on q<=6, z<=4, u<=3: all three routes EQUAL" \
        if not bad else (
            f"{len(bad)} of 57 comparisons not EQUAL; the filtration "
            f"character is strictly below both closed routes (which agree "
            f"with each other) on: " +
            ", ".join(sorted({str(b[0]) for b in bad})))
    emit(capsys, 4, not bad, detail)


def test_criterion_5_lattice_characters(capsys):
    bad = []
    count = 0
    for gram in LATTICE_SET:
        for shifts in zero_and_units(len(gram)):
            count += 1
            report, = verify.verify_lattice(gram, shifts,
                                            Truncation(6, 6, None), MODE)
            if report.verdict != "EQUAL":
                bad.append((gram, shifts, report.verdict))
    emit(capsys, 5, not bad,
         f"{count} (M, v) cases on q<=6 (z capped at 6): "
         f"{'all EQUAL' if not bad else bad}")


def limform_pairs():
    for k1, k2 in ((1, 1), (1, 2)):
        for i1 in range(k1 + 1):
            for i2 in range(k2 + 1):
                yield i1, k1, i2, k2


def test_criterion_6_limit_stabilization(capsys):
    bad = []
    worst = 0
    for i1, k1, i2, k2 in limform_pairs():
        r = fermionic.character_L_fusion(i1, k1, i2, k2, 5)
        worst = max(worst, r.stabilized_at)
        problems = []
        if r.stabilized_at > 6:
            problems.append(f"stabilized at {r.stabilized_at}")
        if any(v <= 0 for v in r.character.coeffs.values()):
            problems.append("nonpositive coefficient")
        if r.character.get(-i1 - i2, 0, 0) != 1:
            problems.append("q^0 weight at z=-i1-i2 is not 1")
        if problems:
            bad.append(((i1, k1, i2, k2), problems))
    emit(capsys, 6, not bad,
         f"10 level pairs on q<=5: stabilized by N<=6 (max {worst}), "
         f"nonnegative, vacuum weight 1" if not bad else str(bad))


def test_criterion_7_limit_reconstruction(capsys):
    bad = []
    literal = []
    for i1 in range(2):
        for i2 in range(2):
            required, informational = verify.verify_limform(i1, 1, i2, 1, 5)
            if not required.passed:
                bad.append(((i1, i2), required.verdict))
            literal.append(informational.verdict)
    emit(capsys, 7, not bad,
         f"4 level pairs on q<=5: reconstructed-index route EQUAL; literal "
         f"integer-lattice reading {literal} (reported informationally, "
         f"known open question on the s-lattice)" if not bad else str(bad))


def brute_chars_q4():
    """(label, window, presentation or fused levels) for criteria 1-5."""
    for k in (1, 2, 3):
        yield (f"gordon {k}", Truncation(4, 6, 0),
               build_presentation_A(Partition.make((k,))))
    for parts in MF_SET:
        yield (f"mf {parts}", Truncation(4, 5, 3),
               build_presentation_A(Partition.make(parts)))
    for parts in MF_SET:
        lam = Partition.make(parts)
        for c in zero_and_units(lam.lam0):
            for d in zero_and_units(lam.s):
                yield (f"gmf {parts} {c} {d}", Truncation(4, 5, 5),
                       build_presentation_A(lam, InitialConditions.make(c, d)))
    for gram in LATTICE_SET:
        for shifts in zero_and_units(len(gram)):
            yield (f"lattice {gram} {shifts}", Truncation(4, 6, 0),
                   build_presentation_quadratic(gram, shifts))


def test_criterion_8_field_mode_soundness(capsys):
    bad = []
    count = 0
    for label, window, pres in brute_chars_q4():
        count += 1
        exact = graded_character(pres, window, FieldMode.exact())
        two = graded_character(pres, window, MODE)
        if compare(exact, two).verdict != "EQUAL":
            bad.append(label)
    for i1, k1, i2, k2 in level_pairs():
        count += 1
        w = Truncation(4, 4, 3)
        levels = ((i1, k1), (i2, k2))
        exact = fusion.principal_fusion_character(levels, w, FieldMode.exact())
        two = fusion.principal_fusion_character(levels, w, MODE)
        if compare(exact, two).verdict != "EQUAL":
            bad.append(f"fusion {(i1, k1, i2, k2)}")
    emit(capsys, 8, not bad,
         f"{count} brute-force cases from criteria 1-5 rerun on q<=4: "
         f"exact and two-prime dimensions identical"
         if not bad else f"disagreements: {bad}")


def u_collapse(c):
    out = {}
    for (z, u, q), v in c.coeffs.items():
        out[(z, q)] = out.get((z, q), 0) + v
    return out


@functools.lru_cache(maxsize=None)
def w_u0_char(i, k, q_max, z_max):
    pres = build_presentation_A(Partition.make((k,)),
                                InitialConditions.make(
                                    fermionic.delta_vector(i + 1, k), ()))
    return graded_character(pres, Truncation(q_max, z_max, 0), MODE)


def test_criterion_9_property_suites(capsys):
    failures = []

    # filtration u-sum equals the tensor-product character; u is capped at
    # z_max because two-factor operators add at most one u per z step
    usum = 0
    for i1, k1, i2, k2 in level_pairs():
        usum += 1
        w = Truncation(6, 4, 4)
        fused = fusion.principal_fusion_character(((i1, k1), (i2, k2)), w, MODE)
        product = char_mul(w_u0_char(i1, k1, 6, 4), w_u0_char(i2, k2, 6, 4))
        if u_collapse(fused) != u_collapse(product):
            failures.append(f"u-sum {(i1, k1, i2, k2)}")

    # two-factor fusion does not depend on the evaluation points
    points = 0
    for levels in (((0, 1), (1, 2)), ((1, 1), (1, 1))):
        points += 1
        report, = verify.verify_points(levels, Truncation(4, 3, 3),
                                       (1, 0), (3, 7))
        if report.verdict != "EQUAL":
            failures.append(f"points {levels}")

    # reweight composition law at z_scale 1
    base = GradedCharacter.make(
        {(0, 0, 0): 1, (1, 0, 1): 2, (2, 1, 0): 1, (2, 0, 3): 1},
        Truncation(4, 4, 2))
    reweights = 0
    for s1, p1, t1, s2, p2, t2 in itertools.product((0, 1, 2), repeat=6):
        reweights += 1
        one = char_reweight(char_reweight(base, 1, s1, p1, t1), 1, s2, p2, t2)
        two = char_reweight(base, 1, s1 + s2, p1 + p2, t1 + t2 + p2 * s1)
        window = one.truncation.meet(two.truncation)
        if restrict(one, window).coeffs != restrict(two, window).coeffs:
            failures.append(f"reweight {(s1, p1, t1, s2, p2, t2)}")
            break

    # 1/(q)_n generates partitions into at most n parts
    pochhammer = 0
    for n in range(6):
        series = inv_pochhammer(n, 12)
        for m in range(13):
            pochhammer += 1
            count = sum(1 for parts in verify.partitions_of(m)
                        if len(parts) <= n)
            if series[m] != count:
                failures.append(f"pochhammer n={n} m={m}")

    emit(capsys, 9, not failures,
         f"u-sum {usum}/{usum}, point independence {points}/{points}, "
         f"reweight composition {reweights}/{reweights}, "
         f"partition counts {pochhammer}/{pochhammer}"
         if not failures else str(failures))
