import pytest

from awalk import exact, verify
from awalk.errors import DomainError, PreconditionError
from conftest import cordiv_reference, lemld_reference, srw_mod, srw_point


def test_one_pass_pattern_counts_match_enumeration():
    counts = exact.pattern_free_counts(20)
    assert counts == [verify.enumerate_pattern_free(k) for k in range(1, 21)]
    assert exact.pattern_free_counts(1) == [2]
    assert exact.pattern_free_counts(2) == [2, 4]
    assert [exact.avoid_pattern_count(k) for k in range(1, 21)] == counts


def test_pattern_suite_passes_and_enumeration_oracle():
    # enumeration helper is itself sanity-checked on tiny cases
    assert verify.enumerate_pattern_free(1) == 2
    assert verify.enumerate_pattern_free(3) == 7
    assert verify.enumerate_pattern_free(4) == 12
    check = verify.pattern_suite()
    assert check.passed
    assert abs(check.details["ratio_half"] - 0.877) <= 0.005


def test_bc_suite_passes():
    check = verify.bc_suite()
    assert check.passed
    assert check.details["harmonic_geometric_bound"] <= 0.01


def test_bc_bound_examples():
    rep = verify.bc_bound_propagation(lambda k: 1.0, lambda k: 0.0, 1, 10)
    assert rep.bound == 0.0
    rep = verify.bc_bound_propagation(lambda k: 1.0 / k, lambda k: 0.5 ** k, 1, 10_000)
    assert rep.bound <= 0.01
    rep = verify.bc_bound_propagation(lambda k: 0.0, lambda k: 0.0, 1, 100)
    assert rep.bound == 1.0 and rep.non_increasing
    with pytest.raises(DomainError):
        verify.bc_bound_propagation(lambda k: 2.0, lambda k: 0.0, 1, 10)
    with pytest.raises(DomainError):
        verify.bc_bound_propagation(lambda k: 0.5, lambda k: -1e-3, 1, 10)


def test_bc_bound_liminf_zero_on_grid():
    # divergent sum(alpha), summable eps: the bound must sink toward 0
    explicit = [0.125, 0.25]
    for alpha in (lambda k: 1.0 / k, lambda k: 0.01):
        for eps in (lambda k: 0.5 ** k, lambda k: 0.0,
                    lambda k: explicit[k - 1] if k <= len(explicit) else 0.0):
            rep = verify.bc_bound_propagation(alpha, eps, 2, 20_000)
            assert min(rep.trajectory) < 1e-2


def test_azuma_sweep_small():
    check = verify.azuma_sweep(max_len=6)
    assert check.passed and check.details["checks"] > 100


def test_lemld_sweep_small_range():
    check = verify.lemld_sweep(m_max=300)
    assert check.passed
    assert check.details["m0"] == 1  # bound holds from the very start


def test_cordiv_sweep_small_range():
    check = verify.cordiv_sweep(k_max=10, m_max=400)
    assert check.passed and check.details["k1"] == 1


# The two sweeps check one extremal case per m (lemld) or per k (cordiv).
# At the built-in constants nothing fails, so the sweeps are also compared
# with their exhaustive references at weaker integer constants (P(T_m = z)
# >= 1/(2 sqrt(m)) and P(T_m = u mod k) >= 1/k), where many cases fail.

@pytest.mark.parametrize("scale", [100, 4])
def test_lemld_sweep_matches_exhaustive_reference(scale, monkeypatch):
    monkeypatch.setattr(verify, "_POINT_SCALE", scale)
    for m_max in (0, 1, 2, 3, 7, 64, 129, 299, 300):
        assert verify.lemld_sweep(m_max=m_max) == lemld_reference(m_max, scale)
    if scale == 4:
        assert verify.lemld_sweep(m_max=300).details["first_failures"]


@pytest.mark.parametrize("scale", [20, 1])
@pytest.mark.parametrize("m_max", [1, 9, 50, 144, 400])
def test_cordiv_sweep_matches_exhaustive_reference(scale, m_max, monkeypatch):
    monkeypatch.setattr(verify, "_RESIDUE_SCALE", scale)
    for k_max in range(1, 13):
        assert verify.cordiv_sweep(k_max=k_max, m_max=m_max) == \
            cordiv_reference(k_max, m_max, scale)
    if scale == 1 and m_max >= 9:  # odd k >= 3 fail from m = k^2 on
        assert verify.cordiv_sweep(k_max=12, m_max=m_max).details["first_failures"]


def test_lemld_checks_the_smallest_point_mass():
    for m in range(1, 301):
        z = verify._largest_admissible_z(m)
        admissible = [y for y in range(-m, m + 1) if (m + y) % 2 == 0 and y * y <= 4 * m]
        assert z in admissible
        assert srw_point(m, z) == min(srw_point(m, y) for y in admissible)


def test_smallest_residue_mass_never_decreases():
    # P(T_{m+1} = u) = (P(T_m = u-1) + P(T_m = u+1)) / 2 over admissible residues
    for k in range(1, 13):
        prev = 0
        for m in range(0, 301):
            admissible = [u for u in range(k) if k % 2 or (m - u) % 2 == 0]
            low = min(srw_mod(m, k, u) for u in admissible)
            assert low >= prev, (k, m)
            prev = low


def test_two_scale_sweep_small():
    check = verify.two_scale_sweep(k_top=8)
    assert check.passed and check.details["k2"] == 2


def test_dominance_sweep_small():
    check = verify.dominance_sweep(max_len=6)
    assert check.passed


def test_enumeration_and_fourier_suites_small():
    check = verify.enumeration_oracle_suite(n_max=10)
    assert check.passed
    check = verify.fourier_agreement_suite(ns=(10,), zs=(0, 1), tol=1e-8)
    assert check.passed
    assert check.details["worst_error"] <= 1e-10


def test_run_suite_dispatch():
    result = verify.run_suite("patterns")
    assert result.passed and result.suite == "patterns"
    d = result.to_dict()
    assert d["schema"] == "awalk-verify/1" and d["checks"]
    with pytest.raises(PreconditionError):
        verify.run_suite("nope")

