"""Parameter containers: validation and where their warnings point."""

import pytest
import scipy.constants

from dlcz_link import BOHR_MAGNETON_HZ_PER_G, EnsembleParams, ExponentialEfficiency


def test_chi_regime_warning_names_the_caller():
    with pytest.warns(UserWarning, match="chi << 1") as record:
        EnsembleParams(chi=0.2, gamma_0=0.5, decay=ExponentialEfficiency(tau_d=1.0))
    assert len(record) == 1
    assert record[0].filename == __file__


def test_bohr_magneton_is_the_codata_value_bit_for_bit():
    # pinned as a literal so that the package does not import scipy.constants
    hz_per_t = scipy.constants.physical_constants["Bohr magneton in Hz/T"][0]
    assert BOHR_MAGNETON_HZ_PER_G == hz_per_t * 1e-4
