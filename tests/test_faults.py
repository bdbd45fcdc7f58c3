"""The fault catalogue of tests/faults.py cannot rot silently: every edit applies and every expected test exists."""

import pytest

import faults


@pytest.mark.parametrize("fault", faults.CATALOGUE, ids=lambda fault: fault.name)
def test_fault_applies_once_and_names_a_test(fault):
    source = (faults.SRC / "iontomo" / fault.file).read_text(encoding="utf-8")
    assert faults.applied(fault, source) != source
    assert fault.equivalent or faults.names_a_test(fault.expected), fault.expected
