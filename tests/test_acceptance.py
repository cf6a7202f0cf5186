"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (run pytest with -s to see them;
`monadica verify` prints the same checks per property).  Counts, tolerances,
and runtime budgets are frozen here and inside monadica.verify, and so is
every criterion's list of check names.
"""

import time

from monadica import cli, core, verify
from monadica.calculus import NaturalExtension

SEED = cli._default_seed()


def _run(number: int, label: str, fn, budget_seconds: float, names: list[str]) -> None:
    start = time.perf_counter()
    results = fn(SEED)
    elapsed = time.perf_counter() - start
    failed = [r for r in results if not r.passed]
    status = "FAIL" if failed else "PASS"
    print(
        f"{status} criterion {number:02d} [{label}] "
        f"{len(results) - len(failed)}/{len(results)} checks, {elapsed:.2f}s"
    )
    assert not failed, "; ".join(r.line() for r in failed[:3])
    assert elapsed < budget_seconds, f"{elapsed:.2f}s exceeds {budget_seconds}s budget"
    assert [r.name for r in results] == names


def test_criterion_01_primitive_identities():
    # exp(dx)=1+dx, log(1+dx)=dx, sin(dx)=dx, cos(dx)=1, (1+dx)^a=1+a*dx
    names = [
        name
        for i in range(3)
        for name in (
            f"exp_of_infinitesimal_{i}",
            f"log_of_one_plus_infinitesimal_{i}",
            f"sin_of_infinitesimal_{i}",
            f"cos_of_infinitesimal_{i}",
            f"power_-1.0_of_one_plus_infinitesimal_{i}",
            f"power_0.5_of_one_plus_infinitesimal_{i}",
            f"power_2.0_of_one_plus_infinitesimal_{i}",
            f"power_3.141592653589793_of_one_plus_infinitesimal_{i}",
        )
    ]
    _run(1, "identities", verify.check_identities, 1.0, names)


def test_criterion_02_ring_and_order_suite():
    # 1000 random triples: ring axioms, trichotomy, order compatibility;
    # 1000 random infinitesimals: structurally exact nilpotency
    names = [
        "add_commutes",
        "mul_commutes",
        "add_associates",
        "mul_associates",
        "distributes",
        "identities",
        "trichotomy",
        "order_add_compatible",
        "order_mul_compatible",
        "infinitesimal_between",
        "decomposition",
        "shadow_homomorphism",
        "nilpotency_structural",
        "inverse_round_trip",
    ]
    _run(2, "ring+order", verify.check_ring, 2.0, names)


def test_ring_suite_draws_the_recorded_cases(monkeypatch):
    # A product that is off by 1e-6 when its left factor's shadow exceeds 6.5
    # breaks commutativity; seed 0 must report the same count and first case.
    exact_mul = core.mul

    def faulty_mul(x, y):
        product = exact_mul(x, y)
        return core.add(product, 1e-6) if core.sigma(x) > 6.5 else product

    monkeypatch.setattr(core, "mul", faulty_mul)
    detail = {r.name: r.detail for r in verify.check_ring(0)}["mul_commutes"]
    assert detail == (
        "158/1000 failed; first: "
        "x=2.5625 + 1.05859375*d[e:1] + -0.73046875*d[e:3] + 2.9453125*d[h], "
        "y=7.2578125 + 2.37890625*d[e:1] + -2.5078125*d[e:3] + -3.77734375*d[h], "
        "z=-7.96875 + -0.9453125*d[e:2] + -2.99609375*d[e:3] + -0.453125*d[g:0.5]"
    )


def test_criterion_03_termwise_oracle():
    # 500 random values: 64-term prefixes match the sequence formulas
    _run(3, "termwise oracle", verify.check_oracle, 2.0, ["add", "mul", "inv", "pow"])


def test_criterion_04_differential_rules():
    # six rules: sum, difference, product, power, inverse, quotient, root
    names = ["sum", "difference", "product", "power", "inverse", "quotient", "root"]
    _run(4, "differential rules", verify.check_differential, 1.0, names)


def test_criterion_05_set_and_monad_suite():
    # 200 random real sets: monad/shadow laws, topology commutation,
    # interval classification
    names = [
        "monad_shadow_round_trip",
        "monad_injective",
        "monad_boolean_ops",
        "monad_families",
        "shadow_boolean_ops",
        "shadow_families",
        "topology_commutes",
        "shadow_topology_mirror",
        "topology_predicates",
        "membership",
        "interval_classification",
    ]
    _run(5, "sets+monads", verify.check_sets, 2.0, names)


def test_criterion_06_completeness():
    # 200 random bounded sets: real supremum equals the classical supremum
    names = ["real_supremum", "real_infimum", "attained_extrema", "upper_bounds"]
    _run(6, "completeness", verify.check_completeness, 1.0, names)


def test_criterion_07_derivative_engine():
    # 200 composites: chain rule + structural evaluation within 1e-9;
    # 200 points: derivative vs central difference within 1e-5 relative
    names = [
        "chain_rule",
        "structural_matches_extension",
        "derivative_vs_difference_quotient",
        "extension_contract",
        "slope_uniqueness_probe",
        "monotonicity_and_constancy",
        "functional_identities",
        "range_identities",
        "inverse_extension",
    ]
    _run(7, "derivative engine", verify.check_derivative, 3.0, names)


def test_derivative_totals_count_each_comparison(monkeypatch):
    # an extension off by 1e-3 fails both comparisons of every contract case
    # and each of the 20 constancy comparisons, out of 3 * 19 + 20
    exact_eval_at = NaturalExtension.eval_at
    monkeypatch.setattr(
        NaturalExtension, "eval_at", lambda f, x: core.add(exact_eval_at(f, x), 1e-3)
    )
    detail = {r.name: r.detail for r in verify.check_derivative(0)}
    assert detail["extension_contract"].startswith("200/200 failed; first: xi=")
    assert detail["monotonicity_and_constancy"] == "20/77 failed; first: constant function moved"


def test_criterion_08_taylor():
    # exp at 0, order 3, shadow 0.5: partial 1.6458333 (1e-7), theta ~ 0.2068
    # with the Lagrange identity to 1e-10; 100 random expansions never
    # violate the remainder bound
    names = [
        "exp_partial_sum",
        "exp_theta_witness",
        "exp_lagrange_identity",
        "lagrange_bound_and_witness",
    ]
    _run(8, "taylor", verify.check_taylor, 2.0, names)


def test_criterion_09_mean_value():
    # 100 random instances with nonreal endpoints assemble the identity at
    # coefficient level; real endpoints reduce to the classical statement
    names = ["identity_with_nonreal_endpoints", "classical_identity_with_real_endpoints"]
    _run(9, "mean value", verify.check_mvt, 1.0, names)


def test_criterion_10_singular_odes():
    # both piecewise model problems verify; the wrong solution fails; the
    # absolute-value extension reports derivative 0 with an absent limit
    names = [
        "vee_solution_passes",
        "vee_monad_probe_reports_absent_limit",
        "step_solution_passes",
        "wrong_solution_fails_left_gap",
        "absolute_value_derivative_zero",
        "natural_rule_matches_limit",
        "proviso_violation_detected",
    ]
    _run(10, "singular odes", verify.check_ode, 1.0, names)


def test_criterion_11_higher_derivatives():
    # closed-form patterns for square/exp/sin/cos up to order 8 within 1e-12
    names = ["square", "exponential", "sine", "cosine"]
    _run(11, "higher derivatives", verify.check_higher, 1.0, names)


def test_sequence_catalog_suite_names():
    # the suite beyond the criteria: catalog witnesses and independence
    results = verify.check_seq(SEED)
    assert [r.name for r in results] == [
        "catalog_convergence_witnesses",
        "linear_independence",
        "impulse_witness",
        "harmonic_witness",
        "constant_witness",
    ]
    assert all(r.passed for r in results), [r.line() for r in results if not r.passed]
