"""The CLI's outputs on the golden configs, byte for byte.

The cases, how each runs and how the expected records are rewritten live in
golden/regen.py. The comparison holds on the same numpy and BLAS build.
"""

import json

import pytest

from golden import regen

CASES = [*regen.RUNS, *regen.ERRORS]


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return regen.workdir(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("config", CASES)
def test_outputs_match_golden(config, root):
    expected = json.loads((regen.EXPECTED / f"{config}.json").read_text())
    assert regen.records(config, root) == expected


def test_every_config_and_record_belongs_to_a_case():
    # error-unreadable is the one case without a config file: reading it must fail
    configs = {path.stem for path in regen.CONFIGS.glob("*.json")}
    assert configs == set(CASES) - {"error-unreadable"}
    assert {path.stem for path in regen.EXPECTED.glob("*.json")} == set(CASES)
