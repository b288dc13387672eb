import dataclasses

import numpy as np
import pytest

from telecert import cli
from telecert.discrimination import helstrom_povm, square_root_povm
from telecert.ensembles import trine
from telecert.scenarios import (
    BUILTIN_CONSTRUCTORS,
    Scenario,
    builtin_scenario,
    builtin_scenarios,
    custom_scenario,
    helstrom_scenario,
)

NAMES = list(BUILTIN_CONSTRUCTORS)


class TestSharedBuiltins:
    """The five built-in scenarios are built once and shared."""

    @pytest.mark.parametrize("name", NAMES)
    def test_one_instance_per_name(self, name):
        shared = builtin_scenarios()[name]
        assert builtin_scenarios()[name] is shared
        assert builtin_scenario(name) is shared
        assert cli._get_scenario(name) is shared

    @pytest.mark.parametrize("name", NAMES)
    def test_arrays_are_read_only(self, name):
        scenario = builtin_scenario(name)
        arrays = (scenario.ensemble.states, scenario.ensemble.priors, scenario.povm.elements)
        before = [array.copy() for array in arrays]
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            scenario.target_fidelity = 0.5
        for array, old in zip(arrays, before):
            assert np.array_equal(array, old)

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize(
        "array",
        [
            "ensemble.states", "ensemble.priors", "povm.elements", "verification_table",
            "pass_probabilities", "outcome_split",
        ],
    )
    def test_shared_arrays_cannot_be_made_writable(self, name, array):
        scenario = builtin_scenario(name)
        owner, _, attr = array.rpartition(".")
        shared = getattr(getattr(scenario, owner) if owner else scenario, attr)
        with pytest.raises(ValueError):
            shared.setflags(write=True)
        with pytest.raises(ValueError):
            shared[...].setflags(write=True)
        assert not shared.flags.writeable

    def test_returned_dict_is_new(self):
        first = builtin_scenarios()
        del first["trine"]
        assert list(builtin_scenarios()) == NAMES

    def test_cache_holds_only_the_builtins(self):
        shared = builtin_scenario("helstrom")
        for theta in np.linspace(0.1, 1.5, 15):
            assert helstrom_scenario(float(theta)) is not shared
        assert helstrom_scenario(1.0) is not shared
        with pytest.raises(KeyError):
            builtin_scenario("nope")
        assert builtin_scenario.cache_info().currsize <= len(NAMES)


class TestDerivedValues:
    @pytest.mark.parametrize("name", NAMES)
    def test_outcome_split_normalizes_the_table_per_result(self, name):
        scenario = builtin_scenario(name)
        table = scenario.verification_table
        split = scenario.outcome_split
        assert split.shape == (2,) + table.shape[:2]
        for v in (0, 1):
            total = table[:, :, v].sum(axis=1, keepdims=True)
            want = np.divide(table[:, :, v], total, out=np.zeros_like(table[:, :, v]), where=total > 0)
            np.testing.assert_allclose(split[v], want, rtol=1e-15, atol=0)
            np.testing.assert_allclose(split[v].sum(axis=1), np.where(total[:, 0] > 0, 1.0, 0.0), rtol=1e-14)


class TestConstruction:
    def test_fields(self):
        names = [field.name for field in dataclasses.fields(Scenario)]
        assert names == ["name", "ensemble", "povm", "target_fidelity", "target_note"]

    def test_custom_scenario_takes_a_given_povm_or_the_square_root_one(self):
        povm = helstrom_povm(1.0)
        scenario = custom_scenario(helstrom_scenario(1.0).ensemble, 0.9, povm=povm)
        assert scenario.povm is povm
        assert scenario.name == "custom" and scenario.target_note == ""
        ensemble = trine()
        assert np.array_equal(custom_scenario(ensemble, 0.9).povm.elements, square_root_povm(ensemble).elements)
