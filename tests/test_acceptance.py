"""Acceptance gate: every criterion at its stated tolerance, one line each."""

import pytest

from confgauss import acceptance


@pytest.fixture(scope="module")
def results():
    return {r.name: r for r in acceptance.run_all(n=128)}


def _check(results, key):
    res = next(r for name, r in results.items() if key in name)
    print(res.line())
    assert res.passed, res.details


def test_acceptance_1_structure_equations(results):
    _check(results, "structure-equation suite")


def test_acceptance_2_sphere_law(results):
    _check(results, "geodesic sphere law")


def test_acceptance_3_gauss_map_suite(results):
    _check(results, "conformal Gauss map suite")


def test_acceptance_4_moebius_equivariance(results):
    _check(results, "Moebius equivariance")


def test_acceptance_5_willmore_separation(results):
    _check(results, "Willmore vs minimal-Y separation")


def test_acceptance_6_conserved_blocks(results):
    _check(results, "conserved-quantity block theorem")


def test_acceptance_7_inversion_exchange(results):
    _check(results, "inversion exchange law")


def test_acceptance_8_classification_matrix(results):
    _check(results, "classification matrix")


def test_acceptance_9_bryant_consistency(results):
    _check(results, "Bryant functional consistency")


def test_acceptance_10_dual_surfaces(results):
    _check(results, "dual surfaces")


def test_acceptance_11_convergence(results):
    _check(results, "stencil convergence")


def test_raising_criterion_keeps_its_name(monkeypatch):
    def fail(*args, **kwargs):
        raise ValueError("transfer failed")

    monkeypatch.setattr(acceptance, "CRITERIA", [acceptance.criterion_sphere_law])
    (passing,) = acceptance.run_all(n=16)
    monkeypatch.setattr(acceptance, "transfer_r3_to_s3", fail)
    (failing,) = acceptance.run_all(n=16)
    assert passing.passed
    assert failing.name == passing.name == "1. geodesic sphere law"
    assert not failing.passed
    assert failing.details == {"error": "transfer failed"}


def test_detail_keys_carry_plain_floats(results):
    def keys(details):
        for key, value in details.items():
            yield key
            if isinstance(value, dict):
                yield from keys(value)

    for name, res in results.items():
        assert not [k for k in keys(res.details) if "np." in k], name
