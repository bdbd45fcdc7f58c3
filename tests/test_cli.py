"""End-to-end tests of the command-line interface and its serialized outputs."""

import contextlib
import io
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iontomo import pulses
from iontomo.cli import main

RHO10_COH08 = 0.42183393923443885


@pytest.fixture
def write_config(tmp_path):
    def _write(name="config.json", **overrides):
        cfg = {
            "dims": {"dx": 8, "dz": 8},
            "state": {"kind": "coherent", "alpha": 0.8, "tail_tol": 1e-5},
            "nmax": 2,
            "v_mode": "ideal",
            "seed": 0,
        }
        cfg.update(overrides)
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        return str(path)
    return _write


def run(argv):
    return main(argv)


class TestReconstructCommand:
    def test_vacuum_block(self, write_config, tmp_path):
        cfg = write_config(state={"kind": "fock", "n": 0}, nmax=2)
        out = tmp_path / "out.json"
        assert run(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        est = doc["report"]["estimates"]
        for m in range(3):
            for n in range(3):
                expected = 1.0 if m == n == 0 else 0.0
                assert abs(est[m][n]["re"] - expected) < 1e-12
                assert abs(est[m][n]["im"]) < 1e-12
                assert est[m][n]["stderr"] == 0.0

    def test_coherent_metrics(self, write_config, tmp_path):
        cfg = write_config(nmax=5)
        out = tmp_path / "out.json"
        assert run(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["report"]["metrics"]["max_abs_error"] <= 1e-9

    def test_byte_identical_reruns(self, write_config, tmp_path):
        cfg = write_config(shots=1000, seed=7)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["reconstruct", "--config", cfg, "--out", str(a)]) == 0
        assert run(["reconstruct", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_hermitian_symmetry_flag(self, write_config, tmp_path):
        cfg = write_config()
        out = tmp_path / "out.json"
        assert run(["reconstruct", "--config", cfg, "--out", str(out),
                    "--use-hermitian-symmetry"]) == 0
        doc = json.loads(out.read_text())
        assert doc["settings"]["use_hermitian_symmetry"] is True

    def test_csv_format(self, write_config, tmp_path):
        cfg = write_config(nmax=1)
        out = tmp_path / "out.csv"
        assert run(["reconstruct", "--config", cfg, "--out", str(out),
                    "--format", "csv"]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "m,n,re,im,stderr"
        assert len(lines) == 1 + 4


class TestCoherenceCommand:
    def test_coherent_value(self, write_config, tmp_path):
        cfg = write_config(dims={"dx": 12, "dz": 12},
                           state={"kind": "coherent", "alpha": 0.8, "tail_tol": 1e-9})
        out = tmp_path / "out.json"
        assert run(["coherence", "--config", cfg, "--m", "1", "--n", "0",
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["value"]["re"] - RHO10_COH08) < 1e-6
        assert doc["stderr"] == 0.0

    def test_fock_population(self, write_config, tmp_path):
        cfg = write_config(state={"kind": "fock", "n": 1})
        out = tmp_path / "out.json"
        assert run(["coherence", "--config", cfg, "--m", "1", "--n", "1",
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["value"]["re"] - 1.0) < 1e-9

    def test_thermal_offdiagonal(self, write_config, tmp_path):
        cfg = write_config(state={"kind": "thermal", "nbar": 0.5, "tail_tol": 1e-3})
        out = tmp_path / "out.json"
        assert run(["coherence", "--config", cfg, "--m", "0", "--n", "2",
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["value"]["re"]) < 1e-12
        assert abs(doc["value"]["im"]) < 1e-12

    def test_missing_indices_usage_error(self, write_config, capsys):
        cfg = write_config()
        code = run(["coherence", "--config", cfg])
        assert code == 2
        record = json.loads(capsys.readouterr().out)
        assert record["error"]["type"] == "usage-error"


class TestMonitorCommand:
    def test_pure_state_equality_at_zero(self, write_config, tmp_path):
        cfg = write_config()
        out = tmp_path / "out.json"
        assert run(["monitor", "--config", cfg, "--lambdas", "0",
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        row = doc["series"][0]
        assert abs(row["rho20_abs"] - row["bound"]) < 1e-9

    def test_ratio_follows_dephasing(self, write_config, tmp_path):
        cfg = write_config()
        out = tmp_path / "out.csv"
        assert run(["monitor", "--config", cfg, "--lambdas", "0,0.3,0.6",
                    "--out", str(out), "--format", "csv"]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "lambda,rho20_abs,bound"
        for line in lines[1:]:
            lam, rho20, bound = (float(v) for v in line.split(","))
            assert abs(rho20 - bound * math.exp(-4 * lam)) < 1e-9

    def test_empty_lambdas_usage_error(self, write_config, capsys):
        cfg = write_config()
        code = run(["monitor", "--config", cfg, "--lambdas", ""])
        assert code == 2
        record = json.loads(capsys.readouterr().out)
        assert record["error"]["type"] == "usage-error"

    def test_missing_lambdas_usage_error(self, write_config, capsys):
        cfg = write_config()
        assert run(["monitor", "--config", cfg]) == 2
        capsys.readouterr()


class TestValidateCommand:
    def test_default_config_passes(self, write_config, capsys):
        cfg = write_config()
        assert run(["validate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 5

    def test_compat_final_pulse_fails_entangler_check(self, write_config, capsys):
        cfg = write_config()
        code = run(["validate", "--config", cfg, "--compat-rminus-final"])
        assert code != 0
        out = capsys.readouterr().out
        assert "FAIL entangler-identity" in out

    def test_unequal_cutoffs_rejected_before_running(self, write_config, capsys):
        cfg = write_config(dims={"dx": 8, "dz": 6})
        code = run(["validate", "--config", cfg])
        assert code != 0
        record = json.loads(capsys.readouterr().out)
        assert record["error"]["type"] == "config-error"

    def test_json_report_with_schedules(self, write_config, tmp_path):
        cfg = write_config()
        out = tmp_path / "validate.json"
        assert run(["validate", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert len(doc["schedules"]["u00"]) == 4
        assert doc["schedules"]["v_plus"]["2"][0]["kind"] == "ajc"


    def test_d40_checks_stay_small(self, write_config, capsys):
        # one dense operator at d = 40 (N = 4800) would be 369 MB
        cfg = write_config(dims={"dx": 40, "dz": 40})
        tracemalloc.start()
        try:
            code = run(["validate", "--config", cfg])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, capsys.readouterr().out
        assert peak < 100 * 2 ** 20

    def test_pulse_unitarity_catches_beam_splitter_defect(self, write_config, capsys, monkeypatch):
        # scale the largest per-K block of exp(i theta L_y) by 1 + 1e-8
        exact = pulses._ly_blocks

        def defective(theta, dx, dz):
            blocks = list(exact(theta, dx, dz))
            k = max(range(len(blocks)), key=lambda i: len(blocks[i][0]))
            nx, nz, block = blocks[k]
            blocks[k] = (nx, nz, block * (1 + 1e-8))
            return tuple(blocks)

        monkeypatch.setattr(pulses, "_ly_blocks", defective)
        cfg = write_config()
        assert run(["validate", "--config", cfg]) == 1
        assert "FAIL pulse-unitarity" in capsys.readouterr().out


class TestConfigAndErrors:
    def test_invalid_json_reports_location(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = run(["reconstruct", "--config", str(path)])
        assert code == 1
        record = json.loads(capsys.readouterr().out)
        assert record["error"]["type"] == "config-error"
        assert "line" in record["error"]["message"]

    def test_missing_field_named(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"state": {"kind": "fock", "n": 0}}))
        assert run(["reconstruct", "--config", str(path)]) == 1
        record = json.loads(capsys.readouterr().out)
        assert "'dims'" in record["error"]["message"]

    def test_leakage_error_record(self, write_config, capsys):
        cfg = write_config(dims={"dx": 4, "dz": 4},
                           state={"kind": "coherent", "alpha": 2.0})
        code = run(["reconstruct", "--config", cfg])
        assert code == 1
        record = json.loads(capsys.readouterr().out)
        assert record["error"]["type"] == "truncation-leakage"
        assert "need dim >=" in record["error"]["message"]

    def test_raw_state_renormalized(self, write_config, tmp_path):
        amps = [0.6, 0.8 * (1 + 5e-7), 0, 0, 0, 0, 0, 0]
        cfg = write_config(state={"kind": "raw", "amplitudes": amps})
        out = tmp_path / "out.json"
        assert run(["coherence", "--config", cfg, "--m", "0", "--n", "0",
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["value"]["re"] - 0.36) < 1e-6

    def test_raw_state_bad_norm_rejected(self, write_config, capsys):
        cfg = write_config(state={"kind": "raw", "amplitudes": [1.0, 1.0] + [0.0] * 6})
        assert run(["coherence", "--config", cfg, "--m", "0", "--n", "0"]) == 1
        record = json.loads(capsys.readouterr().out)
        assert record["error"]["type"] == "invalid-arguments"

    def test_unknown_state_kind(self, write_config, capsys):
        cfg = write_config(state={"kind": "wigner"})
        assert run(["reconstruct", "--config", cfg]) == 1
        record = json.loads(capsys.readouterr().out)
        assert record["error"]["type"] == "config-error"

    def test_complex_alpha_pair(self, write_config, tmp_path):
        cfg = write_config(state={"kind": "coherent",
                                  "alpha": {"re": 0.5, "im": 0.3},
                                  "tail_tol": 1e-4})
        out = tmp_path / "out.json"
        assert run(["coherence", "--config", cfg, "--m", "1", "--n", "0",
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["value"]["im"] != 0.0

    def test_dephase_in_config(self, write_config, tmp_path):
        cfg = write_config(state={"kind": "coherent", "alpha": 0.8,
                                  "tail_tol": 1e-5, "dephase": 0.3})
        out = tmp_path / "out.json"
        assert run(["coherence", "--config", cfg, "--m", "2", "--n", "0",
                    "--out", str(out)]) == 0
        base = tmp_path / "base.json"
        cfg2 = write_config(name="c2.json",
                            state={"kind": "coherent", "alpha": 0.8, "tail_tol": 1e-5})
        assert run(["coherence", "--config", cfg2, "--m", "2", "--n", "0",
                    "--out", str(base)]) == 0
        dephased = json.loads(out.read_text())["value"]["re"]
        plain = json.loads(base.read_text())["value"]["re"]
        assert dephased == pytest.approx(plain * math.exp(-1.2), abs=1e-9)

    def test_stdout_output(self, write_config, capsys):
        cfg = write_config(state={"kind": "fock", "n": 0}, nmax=1)
        assert run(["reconstruct", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["nmax"] == 1

    def test_seventeen_digit_floats(self, write_config, tmp_path):
        cfg = write_config(dims={"dx": 12, "dz": 12},
                           state={"kind": "coherent", "alpha": 0.8, "tail_tol": 1e-9})
        out = tmp_path / "out.json"
        assert run(["coherence", "--config", cfg, "--m", "0", "--n", "0",
                    "--out", str(out)]) == 0
        text = out.read_text()
        assert "0.5272924240" in text


# One case per numeric config input: (state overrides, field path, raw JSON literal).
BAD_NUMBERS = [
    ({}, ("dims", "dx"), "4.9"),
    ({}, ("dims", "dz"), "true"),
    ({}, ("nmax",), "2.5"),
    ({"kind": "fock", "n": 0}, ("state", "n"), "1.7"),
    ({}, ("shots",), "1e30"),
    ({}, ("shots",), "1.7"),
    ({}, ("shots",), "true"),
    ({}, ("shots",), "99999999999999999999"),
    ({}, ("seed",), "-1e400"),
    ({}, ("seed",), "\"3\""),
    ({}, ("state", "alpha"), "NaN"),
    ({}, ("state", "alpha"), "{\"re\": 0.5, \"im\": Infinity}"),
    ({"kind": "squeezed", "r": 0.3}, ("state", "r"), "Infinity"),
    ({"kind": "squeezed", "r": 0.3}, ("state", "phi"), "NaN"),
    ({"kind": "thermal", "nbar": 0.5}, ("state", "nbar"), "-Infinity"),
    ({}, ("state", "tail_tol"), "NaN"),
    ({}, ("state", "dephase"), "NaN"),
    ({}, ("state", "dephase"), "false"),
]


@pytest.mark.parametrize("state,path,literal", BAD_NUMBERS,
                         ids=[f"{'.'.join(p)}={lit}" for _, p, lit in BAD_NUMBERS])
def test_bad_number_is_config_error(tmp_path, capsys, state, path, literal):
    cfg = {"dims": {"dx": 8, "dz": 8},
           "state": {"kind": "coherent", "alpha": 0.8, "tail_tol": 1e-5, **state},
           "nmax": 2, "v_mode": "ideal", "seed": 0}
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "@BAD@"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg).replace('"@BAD@"', literal))
    assert run(["reconstruct", "--config", str(config)]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["error"]["type"] == "config-error"
    assert ".".join(path) in record["error"]["message"]


@pytest.mark.parametrize("lambdas", ["nan", "0,inf"])
def test_nonfinite_lambda_rejected_before_linear_algebra(write_config, capsys, lambdas):
    cfg = write_config()
    assert run(["monitor", "--config", cfg, "--lambdas", lambdas]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["error"]["type"] == "invalid-arguments"
    assert "finite" in record["error"]["message"]


def test_lambdas_of_only_separators_usage_error(write_config, capsys):
    cfg = write_config()
    assert run(["monitor", "--config", cfg, "--lambdas", " , ,"]) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["error"] == {"type": "usage-error",
                               "message": "monitor requires a non-empty --lambdas list"}


# Configs that the leakage guard used to pass or crash on: every one must end in a
# truncation-leakage record.
LEAKY_STATES = [
    {"kind": "coherent", "alpha": 30},
    {"kind": "coherent", "alpha": 40},
    {"kind": "coherent", "alpha": 25},
    {"kind": "cat", "alpha": 40, "parity": "odd"},
    {"kind": "squeezed", "r": 50},
    {"kind": "squeezed", "r": 1000},
    {"kind": "thermal", "nbar": 1e17},
]


@pytest.mark.parametrize("state", LEAKY_STATES,
                         ids=[f"{s['kind']}-{next(iter(v for k, v in s.items() if k != 'kind'))}"
                              for s in LEAKY_STATES])
def test_far_tail_is_truncation_leakage(write_config, capsys, state):
    cfg = write_config(dims={"dx": 12, "dz": 12}, state=state)
    assert run(["coherence", "--config", cfg, "--m", "0", "--n", "0"]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["error"]["type"] == "truncation-leakage"


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_COMPLEX = st.one_of(_FINITE, st.fixed_dictionaries({"re": _FINITE, "im": _FINITE}))
_OPTIONAL = {"tail_tol": _FINITE, "dephase": _FINITE}
_STATES = st.one_of(
    st.fixed_dictionaries({"kind": st.just("fock"), "n": st.integers(-2 ** 63, 2 ** 63 - 1)},
                          optional=_OPTIONAL),
    st.fixed_dictionaries({"kind": st.just("coherent"), "alpha": _COMPLEX}, optional=_OPTIONAL),
    st.fixed_dictionaries({"kind": st.just("squeezed"), "r": _FINITE},
                          optional={"phi": _FINITE, **_OPTIONAL}),
    st.fixed_dictionaries({"kind": st.just("cat"), "alpha": _COMPLEX,
                           "parity": st.sampled_from(["even", "odd"])}, optional=_OPTIONAL),
    st.fixed_dictionaries({"kind": st.just("thermal"), "nbar": _FINITE}, optional=_OPTIONAL),
    st.fixed_dictionaries({"kind": st.just("raw"), "amplitudes": st.lists(_COMPLEX, max_size=9)},
                          optional=_OPTIONAL),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(state=_STATES, d=st.integers(2, 8), v_mode=st.sampled_from(["ideal", "compiled"]))
def test_fuzzed_state_configs_never_crash(state, d, v_mode):
    cfg = {"dims": {"dx": d, "dz": d}, "state": state, "v_mode": v_mode}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["coherence", "--config", str(path), "--m", "0", "--n", "0"])
    doc = json.loads(out.getvalue())
    if code == 0:
        assert all(math.isfinite(doc["value"][part]) for part in ("re", "im"))
    else:
        assert doc["error"]["type"] != "internal-error", doc["error"]
