import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from telecert import ensembles
from telecert.errors import (
    EnsembleFormatError,
    PriorSumError,
    StateNormalizationError,
)

ALL_BUILTINS = [
    ensembles.trine,
    ensembles.four_asymmetric,
    ensembles.qubit_mubs,
    ensembles.qutrit_mubs,
    lambda: ensembles.helstrom_pair(np.pi / 2),
]


@pytest.mark.parametrize("make", ALL_BUILTINS)
def test_builtin_invariants(make):
    ens = make()
    norms = np.linalg.norm(ens.states, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    assert ens.priors.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(ens.priors >= 0)
    assert ens.has_uniform_priors()


def test_trine_shape_and_overlaps():
    ens = ensembles.trine()
    assert (ens.size, ens.dim) == (3, 2)
    overlap = ens.overlap_matrix()
    for i in range(3):
        assert overlap[i, i] == pytest.approx(1.0, abs=1e-12)
        for k in range(3):
            if i != k:
                assert overlap[i, k] == pytest.approx(0.25, abs=1e-12)


def test_four_asymmetric_overlaps():
    ens = ensembles.four_asymmetric()
    assert (ens.size, ens.dim) == (4, 2)
    overlap = ens.overlap_matrix()
    assert overlap[0, 3] == pytest.approx(0.8, abs=1e-12)  # |<psi_1|psi_4>|^2 = 4/5
    assert overlap[0, 1] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "make,a,d",
    [(ensembles.qubit_mubs, 6, 2), (ensembles.qutrit_mubs, 12, 3)],
)
def test_mub_structure(make, a, d):
    ens = make()
    assert (ens.size, ens.dim) == (a, d)
    overlap = ens.overlap_matrix()
    # states partition into bases of size d: consecutive groups of d states
    for i in range(a):
        for k in range(a):
            if i == k:
                expected = 1.0
            elif i // d == k // d:
                expected = 0.0  # same basis, orthogonal
            else:
                expected = 1.0 / d  # cross basis, unbiased
            assert overlap[i, k] == pytest.approx(expected, abs=1e-12)
    assert_allclose(ens.average_state(), np.eye(d) / d, atol=1e-12)


def test_helstrom_pair_overlaps():
    assert ensembles.helstrom_pair(np.pi).overlap_matrix()[0, 1] == pytest.approx(
        0.0, abs=1e-12
    )
    assert ensembles.helstrom_pair(np.pi / 2).overlap_matrix()[0, 1] == pytest.approx(
        0.5, abs=1e-12
    )
    pair = ensembles.helstrom_pair(np.pi / 3)
    assert (pair.size, pair.dim) == (2, 2)


@pytest.mark.parametrize("theta", [0.0, -0.1, np.pi + 0.01])
def test_helstrom_pair_rejects_bad_theta(theta):
    with pytest.raises(ValueError, match="theta"):
        ensembles.helstrom_pair(theta)


class TestLoadEnsemble:
    def test_round_trip_trine(self):
        original = ensembles.trine()
        doc = json.dumps(ensembles.to_document(original))
        loaded = ensembles.load_ensemble(doc)
        assert np.max(np.abs(loaded.states - original.states)) < 1e-12
        assert np.max(np.abs(loaded.priors - original.priors)) < 1e-12
        assert loaded.name == "trine"

    def test_unnormalized_state_rejected(self):
        doc = {"dim": 2, "states": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
        with pytest.raises(StateNormalizationError, match="norm"):
            ensembles.load_ensemble(json.dumps(doc))

    def test_name_must_be_a_string(self):
        doc = ensembles.to_document(ensembles.trine())
        doc["name"] = 5
        with pytest.raises(EnsembleFormatError, match="^name must be a string$"):
            ensembles.load_ensemble(json.dumps(doc))

    @pytest.mark.parametrize("document", [b"\xff", b'{"dim": 2, "name": "\xe9"}'], ids=["byte", "in-string"])
    def test_non_utf8_bytes_are_a_format_error(self, document):
        with pytest.raises(EnsembleFormatError, match="^document is not valid JSON: .*codec can't decode"):
            ensembles.load_ensemble(document)

    def test_deep_nesting_is_a_format_error(self):
        with pytest.raises(EnsembleFormatError, match="nests too deeply"):
            ensembles.load_ensemble("[" * 200_000)

    def test_huge_amplitude_is_refused_without_a_warning(self):
        doc = '{"dim":2,"states":[[[1e200,0],[0,0]],[[0,0],[1,0]]]}'
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StateNormalizationError) as info:
                ensembles.load_ensemble(doc)
        assert str(info.value) == "state 0 has norm inf, expected 1 within 1e-06"

    def test_bad_prior_sum_rejected(self):
        doc = {
            "dim": 2,
            "states": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            "priors": [0.6, 0.6],
        }
        with pytest.raises(PriorSumError, match="sum"):
            ensembles.load_ensemble(json.dumps(doc))

    def test_negative_prior_rejected(self):
        doc = {
            "dim": 2,
            "states": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            "priors": [1.2, -0.2],
        }
        with pytest.raises(PriorSumError, match="nonnegative"):
            ensembles.load_ensemble(json.dumps(doc))

    @pytest.mark.parametrize(
        "doc",
        [
            "not json at all {",
            json.dumps([1, 2, 3]),
            json.dumps({"states": [[[1, 0], [0, 0]]] * 2}),  # missing dim
            json.dumps({"dim": 2}),  # missing states
            json.dumps({"dim": 0, "states": [[[1, 0], [0, 0]]] * 2}),
            json.dumps({"dim": 2, "states": [[[1, 0], [0, 0]]]}),  # single state
            json.dumps({"dim": 2, "states": [[[1, 0]], [[1, 0], [0, 0]]]}),
            json.dumps({"dim": 2, "states": [[[1, 0], [0]], [[0, 0], [1, 0]]]}),
            json.dumps({"dim": 2, "states": [[[1, 0], ["x", 0]], [[0, 0], [1, 0]]]}),
            json.dumps(
                {
                    "dim": 2,
                    "states": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                    "priors": [0.5, 0.25, 0.25],
                }
            ),
            json.dumps(
                {
                    "dim": 2,
                    "states": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                    "extra": 1,
                }
            ),
        ],
    )
    def test_malformed_documents_rejected(self, doc):
        with pytest.raises(EnsembleFormatError):
            ensembles.load_ensemble(doc)

    @pytest.mark.parametrize(
        "states,priors",
        [
            ([[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], None),
            ([[[1.0, 0.0], [0.0, float("inf")]], [[0.0, 0.0], [1.0, 0.0]]], None),
            ([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-float("inf"), 0.0]]], None),
            ([[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]], None),  # no float holds it
            ([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], [float("nan"), 0.5]),
            ([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], [float("inf"), 0.0]),
            ([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], [10**400, 0]),
        ],
        ids=["nan-re", "inf-im", "minus-inf-re", "huge-int", "nan-prior", "inf-prior", "huge-int-prior"],
    )
    def test_non_finite_values_rejected_before_arithmetic(self, states, priors):
        doc = {"dim": 2, "states": states}
        if priors is not None:
            doc["priors"] = priors
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning from NaN arithmetic
            with pytest.raises(EnsembleFormatError, match="finite"):
                ensembles.load_ensemble(doc)
            with pytest.raises(EnsembleFormatError, match="finite"):
                ensembles.load_ensemble(json.dumps(doc))

    @pytest.mark.parametrize(
        "doc",
        [
            {"dim": True, "states": [[[1, 0]], [[0, 1]]]},
            {"dim": 1, "states": [[[True, 0]], [[0, 1]]]},
            {"dim": 1, "states": [[[1, 0]], [[0, False]]]},
            {"dim": 1, "states": [[[1, 0]], [[0, 1]]], "priors": [True, False]},
            {"dim": 1, "states": [[[1, 0]], [[0, 1]]], "priors": [0.5, True]},
        ],
        ids=["dim", "re", "im", "priors", "one-prior"],
    )
    def test_booleans_are_not_numbers(self, doc):
        with pytest.raises(EnsembleFormatError):
            ensembles.load_ensemble(json.dumps(doc))

    def test_absurd_dim_refused_before_allocation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before checking the rows")

        monkeypatch.setattr(ensembles.np, "zeros", refuse)
        doc = {"dim": 10**12, "states": [[[1, 0]], [[0, 1]]]}
        with pytest.raises(EnsembleFormatError, match="amplitude pairs"):
            ensembles.load_ensemble(json.dumps(doc))

    def test_small_norm_error_is_renormalized(self):
        amp = 1.0 + 5e-7  # inside the load tolerance
        doc = {
            "dim": 2,
            "states": [[[amp, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        }
        loaded = ensembles.load_ensemble(json.dumps(doc))
        assert np.linalg.norm(loaded.states[0]) == pytest.approx(1.0, abs=1e-12)

    def test_non_uniform_priors_accepted(self):
        doc = {
            "dim": 2,
            "states": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            "priors": [0.7, 0.3],
            "name": "biased-basis",
        }
        loaded = ensembles.load_ensemble(json.dumps(doc))
        assert not loaded.has_uniform_priors()
        assert_allclose(loaded.priors, [0.7, 0.3])
        assert loaded.name == "biased-basis"


def test_average_state_is_a_density_operator():
    rng = np.random.default_rng(19)
    candidates = [make() for make in ALL_BUILTINS]
    for _ in range(10):
        d = int(rng.integers(2, 4))
        a = int(rng.integers(2, 6))
        states = rng.normal(size=(a, d)) + 1j * rng.normal(size=(a, d))
        states /= np.linalg.norm(states, axis=1)[:, None]
        candidates.append(ensembles.Ensemble(states, np.full(a, 1.0 / a)))
    for ens in candidates:
        rho = ens.average_state()
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(rho)[0] >= -1e-12


def test_direct_construction_enforces_invariants():
    good = np.array([[1, 0], [0, 1]], complex)
    with pytest.raises(StateNormalizationError):
        ensembles.Ensemble(good * 2.0, np.array([0.5, 0.5]))
    with pytest.raises(PriorSumError):
        ensembles.Ensemble(good, np.array([0.5, 0.6]))
    with pytest.raises(ValueError, match="at least two"):
        ensembles.Ensemble(good[:1], np.array([1.0]))
    with pytest.raises(ValueError, match="priors shape"):
        ensembles.Ensemble(good, np.array([1.0]))
    with pytest.raises(ValueError, match=r"^states must be a 2-D array, got shape \(2,\)$"):
        ensembles.Ensemble(np.array([1, 0], complex), np.array([0.5, 0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_direct_construction_rejects_non_finite_values(bad):
    good = np.array([[1, 0], [0, 1]], complex)
    states = good.copy()
    states[1, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateNormalizationError, match="state 1 has a non-finite"):
            ensembles.Ensemble(states, np.array([0.5, 0.5]))
        if np.isreal(bad):
            with pytest.raises(PriorSumError, match="finite"):
                ensembles.Ensemble(good, np.array([bad.real, 0.5]))


def test_direct_construction_messages_print_plain_numbers():
    good = np.array([[1, 0], [0, 1]], complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateNormalizationError) as info:
            ensembles.Ensemble(good * 1e200, np.array([0.5, 0.5]))
    assert str(info.value) == "state 0 has norm inf, expected 1 within 1e-10"
    with pytest.raises(PriorSumError) as info:
        ensembles.Ensemble(good, np.array([0.5, 0.75]))
    assert str(info.value) == "priors sum to 1.25, expected 1 within 1e-12"
