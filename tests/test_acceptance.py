"""Acceptance suite: one test per criterion, each printing a PASS line.

All arithmetic in the package is exact, so every comparison below is
equality; there are no tolerances to tune.  Run with ``pytest -s`` to see
the per-criterion lines.
"""

import random

from quiverseq.dualnum import DualScalar
from quiverseq.laurent import _full_fraction, evaluate, verify_laurent_run
from quiverseq.periodicity import (
    combine,
    primitive,
    solve_weight,
    weight_exists,
    weight_period,
)
from quiverseq.quiver import WeightedQuiver
from quiverseq.seqgen import (
    builtin,
    decompose_basis,
    integrality_scan,
    quiver_to_spec,
    run,
)

import golden
from golden import (
    neg_p31,
    neg_p41,
    fib_lucas,
    gale_robinson_oracle,
    kronecker2,
    run_linearized,
    somos4_family,
    somos4_family_opposite,
    somos4_quiver_a,
    somos4_quiver_b,
    weight_system_oracle,
)

ONES4 = [DualScalar(1, 0)] * 4
ONES3 = [DualScalar(1, 0)] * 3


def test_criterion_01_somos4_bodies():
    result = run(builtin("somos4"), count=15)
    assert [t.body for t in result.terms] == golden.SOMOS4_BODIES
    assert result.terms[-1].body == 7869898
    print("ACCEPTANCE 01 PASS - Somos-4 bodies match the 15-term table exactly")


def test_criterion_02_basis_rows_and_column_sums():
    spec = builtin("somos4")
    base = run(spec, count=100)
    rows = decompose_basis(spec, 100)
    for i in range(4):
        assert rows[i][:13] == golden.SOMOS4_BASIS[i], f"basis row {i + 1}"
        assert all(v.denominator == 1 for v in rows[i])
    for n in range(100):
        assert sum(rows[i][n] for i in range(4)) == base.terms[n].body
    print("ACCEPTANCE 02 PASS - basis rows match and column sums equal the bodies to n=100")


def test_criterion_03_nonlinear_extensions():
    for placement, table in (("m2", golden.SOMOS4_SLOPES_M2), ("m1", golden.SOMOS4_SLOPES_M1)):
        spec = builtin("somos4").with_deform(placement, (1,))
        assert run(spec, count=15).slopes() == table
        rng = random.Random(42 if placement == "m2" else 43)
        for _ in range(10):
            init = tuple(rng.randint(-20, 20) for _ in range(4))
            result = run(spec, init_b=init, count=100)
            assert result.first_fraction is None, (placement, init)
    print("ACCEPTANCE 03 PASS - deformed slope tables match; slopes stay integral to n=100 for 10 random slope seeds each")


def test_criterion_04_fibonacci_lucas():
    F, L = fib_lucas(110)
    plus = run(builtin("cassini_plus"), init_b=(-1, 1), count=51)
    assert [t.body for t in plus.terms[:8]] == golden.FIB_ODD_BODIES
    assert plus.slopes()[:8] == golden.LUCAS_ODD_SLOPES
    minus = run(builtin("cassini_minus"), init_b=(3, 7), count=50)
    assert [t.body for t in minus.terms[:7]] == golden.FIB_EVEN_BODIES
    assert minus.slopes()[:7] == golden.LUCAS_EVEN_SLOPES
    for n in range(1, 51):
        assert plus.terms[n].body == F[2 * n - 1] and plus.slopes()[n] == L[2 * n - 1]
        assert minus.terms[n - 1].body == F[2 * n] and minus.slopes()[n - 1] == L[2 * n]
    # coefficient extraction by superposition: slopes(init -p, q) = p*U + q*V
    spec = builtin("cassini_plus")
    base = run(spec, count=8)
    U = run_linearized(spec, base, (-1, 0))
    V = run_linearized(spec, base, (0, 1))
    assert U == golden.TWO_PARAM_P_ROW and V == golden.TWO_PARAM_Q_ROW
    assert list(zip(U, V))[2:] == [(2, 2), (8, 3), (27, 2), (86, -10), (265, -66), (798, -277)]
    for p, q in ((2, 5), (-3, 4)):
        direct = run(spec, init_b=(-p, q), count=8).slopes()
        assert direct == [p * u + q * v for u, v in zip(U, V)]
    tspec = builtin("cassini_minus")
    tbase = run(tspec, count=7)
    TU = run_linearized(tspec, tbase, (3, 0))
    TV = run_linearized(tspec, tbase, (0, 1))
    assert TU == golden.TILDE_P_ROW and TV == golden.TILDE_Q_ROW
    assert list(zip(TU, TV))[2:] == [
        (-24, 6), (-128, 25), (-507, 90), (-1778, 300), (-5835, 954),
    ]
    assert TV[1:] == [1, 6, 25, 90, 300, 954]
    print("ACCEPTANCE 04 PASS - Fibonacci/Lucas tables, Lucas oracle to n=50, and both coefficient families recovered")


def test_criterion_05_limping_fibonacci():
    F, _ = fib_lucas(90)
    result = run(builtin("limping_fibonacci"), count=41)
    assert result.slopes()[:8] == golden.LIMPING_SLOPES
    for n in range(41):
        expected = F[2 * n] if n % 4 in (0, 3) else F[2 * n - 2]
        assert result.slopes()[n] == expected
    print("ACCEPTANCE 05 PASS - limping slope table and mod-4 closed form hold to n=40")


def test_criterion_06_order3():
    bodies = [t.body for t in run(builtin("order3"), count=104).terms]
    assert bodies[:14] == golden.ORDER3_BODIES
    for n in range(100):
        assert bodies[n + 4] == 4 * bodies[n + 2] - bodies[n]
    assert run(builtin("order3_alt"), count=11).slopes() == golden.ORDER3_ALT_SLOPES
    print("ACCEPTANCE 06 PASS - order-3 bodies, the 4a[n+2]-a[n] identity to n=100, and alternating slopes match")


def test_criterion_07_integrality_fingerprints():
    cells = integrality_scan(
        "fordy_marsh_s4", {"p": [1], "q": [0, 1, 3]}, 12, deform=("m1", (1,))
    )
    for cell in cells:
        q = cell.params["q"]
        index, value = golden.FM_FIRST_FRACTIONS[q]
        assert cell.run.first_fraction == (index, value)
    q0 = cells[0].run
    assert [t.body for t in q0.terms[:10]] == golden.FM_Q0_BODY_PREFIX
    print("ACCEPTANCE 07 PASS - first fractions 307/3, 159/2, 6539/2 at the expected positions; q=0 bodies match")


def test_criterion_08_weight_criterion():
    assert weight_exists(neg_p31()) and solve_weight(neg_p31()) == (1, 0, -1)
    assert not weight_exists(primitive(3, 1))
    assert weight_exists(neg_p41()) and solve_weight(neg_p41()) == (1, 0, 0, -1)
    assert not weight_exists(primitive(4, 1))
    assert solve_weight(somos4_quiver_a()) == (1, 0, 0, -1)
    assert solve_weight(somos4_quiver_b()) == (1, 1, -1, -1)
    for p in range(1, 6):
        for q in range(0, 6):
            assert weight_exists(somos4_family(p, q)) == (p == 1), (p, q)
            assert weight_exists(somos4_family_opposite(p, q)) == (q == 2), (p, q)
    rng = random.Random(20260810)
    checked = 0
    while checked < 200:
        n = rng.randint(2, 6)
        style = rng.random()
        if style < 0.4:
            coeffs = [0] * (n // 2)
            coeffs[rng.randrange(len(coeffs))] = rng.choice([-3, -2, -1, 1, 2, 3])
            q = combine(n, coeffs)
        elif style < 0.8:
            sign = rng.choice([-1, 1])
            q = combine(n, [sign * rng.randint(0, 3) for _ in range(n // 2)])
        else:
            q = (
                somos4_family(rng.randint(1, 3), rng.randint(0, 3))
                if rng.random() < 0.5
                else somos4_family_opposite(rng.randint(1, 3), rng.randint(0, 3))
            )
        if not q.is_period_one():
            continue
        oracle = weight_system_oracle(q)
        assert weight_exists(q) == (oracle is not None), q.b
        solution = solve_weight(q)
        if oracle is None:
            assert solution is None
        else:
            assert solution == oracle
        checked += 1
    print("ACCEPTANCE 08 PASS - printed weight examples, the p=1 / q=2 family laws, and 200 oracle agreements")


def test_criterion_09_laurent_phenomenon_desk_scale():
    s4 = WeightedQuiver(somos4_quiver_a(), (1, 0, 0, -1))
    reports = verify_laurent_run(s4, 6)
    assert all(r.is_laurent for r in reports)
    numeric = run(builtin("somos4").with_deform("m2", (1,)), count=10)
    for k, rep in enumerate(reports, start=1):
        v = rep.variable
        slope = _full_fraction(v)[1]
        assert v.body.nvars == 4 and v.den.is_one() and len(slope) == 5
        assert all(part.nvars == 4 for part in slope)
        assert evaluate(v, ONES4) == numeric.terms[3 + k]
    w41 = WeightedQuiver(neg_p31(), (1, 0, -1))
    reports41 = verify_laurent_run(w41, 6)
    assert all(r.is_laurent for r in reports41)
    numeric41 = run(quiver_to_spec(w41), count=9)
    for k, rep in enumerate(reports41, start=1):
        assert evaluate(rep.variable, ONES3) == numeric41.terms[2 + k]
    print("ACCEPTANCE 09 PASS - 6 symbolic steps Laurent for both quivers; evaluations equal the numeric runs exactly")


def test_criterion_10_weight_periods():
    assert weight_period(WeightedQuiver(kronecker2(), (1, 1))) == 4
    assert weight_period(WeightedQuiver(primitive(3, 1), (1, 1, 1))) == 6
    for q in (neg_p31(), neg_p41(), somos4_quiver_a(), somos4_quiver_b()):
        weights = solve_weight(q)
        assert weight_period(WeightedQuiver(q, weights)) == 1
    print("ACCEPTANCE 10 PASS - weight periods 4, 6, and 1 as required")


def test_criterion_11_gale_robinson_spot_checks():
    for N, r, s in ((6, 1, 2), (7, 1, 3)):
        oracle = gale_robinson_oracle(N, r, s, 40)
        result = run(builtin("gale_robinson", N=N, r=r, s=s), count=40)
        assert [t.body for t in result.terms] == oracle
        assert all(v.denominator == 1 for v in oracle)
        assert result.first_fraction is None
    print("ACCEPTANCE 11 PASS - Gale-Robinson (6,1,2) and (7,1,3) integral to n=40 against the direct oracle")
