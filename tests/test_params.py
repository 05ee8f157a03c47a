"""Parameter containers: validation and where their warnings point."""

import pytest

from dlcz_link import EnsembleParams, ExponentialEfficiency


def test_chi_regime_warning_names_the_caller():
    with pytest.warns(UserWarning, match="chi << 1") as record:
        EnsembleParams(chi=0.2, gamma_0=0.5, decay=ExponentialEfficiency(tau_d=1.0))
    assert len(record) == 1
    assert record[0].filename == __file__
