"""Parameter containers: validation and where their warnings point."""

import pytest
import scipy.constants

from dlcz_link import BOHR_MAGNETON_HZ_PER_G, EnsembleParams, ExponentialEfficiency, GaussianAmplitude
from dlcz_link.params import DECAY_LAWS


def test_chi_regime_warning_names_the_caller():
    with pytest.warns(UserWarning, match="chi << 1") as record:
        EnsembleParams(chi=0.2, gamma_0=0.5, decay=ExponentialEfficiency(tau_d=1.0))
    assert len(record) == 1
    assert record[0].filename == __file__


def test_bohr_magneton_is_the_codata_value_bit_for_bit():
    # pinned as a literal so that the package does not import scipy.constants
    hz_per_t = scipy.constants.physical_constants["Bohr magneton in Hz/T"][0]
    assert BOHR_MAGNETON_HZ_PER_G == hz_per_t * 1e-4


@pytest.mark.parametrize("cls, law, power", [(ExponentialEfficiency, "exponential", 1), (GaussianAmplitude, "gaussian", 2)])
def test_each_decay_law_carries_its_name_and_power(cls, law, power):
    assert (DECAY_LAWS[law], cls.law, cls.power) == (cls, law, power)
    assert cls(0.5) == cls(tau_d=0.5)
    assert repr(cls(0.5)) == f"{cls.__name__}(tau_d=0.5)"
    with pytest.raises(ValueError, match=r"^tau_d: expected > 0, got 0\.0$"):
        cls(0.0)


def test_laws_of_equal_lifetime_differ():
    assert ExponentialEfficiency(0.5) != GaussianAmplitude(0.5)


def test_negative_sensitivity_is_rejected():
    with pytest.raises(ValueError, match=r"^mu_prime: expected a value >= 0"):
        EnsembleParams(chi=0.005, gamma_0=0.5, decay=ExponentialEfficiency(tau_d=1.0), mu_prime=-1.0)
