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

from iontomo import pulses, tomography
from iontomo.cli import ConfigError, build_dims, build_settings, main, stable_json

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


@pytest.mark.parametrize("seed", [2, 3])
def test_block_without_positive_eigenvalue_is_projected(write_config, tmp_path, seed):
    # one shot leaves the 1x1 block of |1> at -1 + 1j: still a measurement, and still projectable
    cfg = write_config(dims={"dx": 4, "dz": 4}, state={"kind": "fock", "n": 1}, nmax=0,
                       shots=1, seed=seed)
    block, cell = tmp_path / "block.json", tmp_path / "cell.json"
    assert run(["reconstruct", "--config", cfg, "--out", str(block)]) == 0
    assert run(["coherence", "--config", cfg, "--m", "0", "--n", "0", "--out", str(cell)]) == 0
    report = json.loads(block.read_text())["report"]
    assert report["projected"] == [[{"im": 0, "re": 1}]]
    value = json.loads(cell.read_text())
    assert report["estimates"][0][0] == {**value["value"], "stderr": value["stderr"]}


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
        assert record["error"] == {"type": "usage-error",
                                   "message": "the following arguments are required: --m, --n"}


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
        assert record == {"error": {"type": "usage-error", "message":
                                    "bad --lambdas value: could not convert string to float: ''"}}

    def test_missing_lambdas_usage_error(self, write_config, capsys):
        cfg = write_config()
        assert run(["monitor", "--config", cfg]) == 2
        record = json.loads(capsys.readouterr().out)
        assert record == {"error": {"type": "usage-error",
                                    "message": "the following arguments are required: --lambdas"}}


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

    def test_csv_report(self, write_config, tmp_path, capsys):
        # --format csv writes one row per check; the table on stdout does not change
        cfg = write_config()
        assert run(["validate", "--config", cfg]) == 0
        table = capsys.readouterr().out
        out = tmp_path / "validate.csv"
        assert run(["validate", "--config", cfg, "--format", "csv", "--out", str(out)]) == 0
        assert capsys.readouterr().out == table
        header, *rows = [line.split(",") for line in out.read_text().splitlines()]
        assert header == ["name", "passed", "deviation", "tolerance"]
        assert [row[0] for row in rows] == [line.split()[1] for line in table.splitlines()]
        for name, passed, deviation, tolerance in rows:
            assert passed == "true"
            assert 0.0 <= float(deviation) <= float(tolerance)

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


@pytest.mark.parametrize("command", ["reconstruct", "coherence", "monitor", "validate"])
def test_run_record_carries_the_state_it_read(write_config, tmp_path, command):
    # validate reads no state, so its record must not vouch for one
    state = {"kind": "wigner", "typo": 1} if command == "validate" else {"kind": "fock", "n": 1}
    cfg = write_config(state=state)
    out = tmp_path / "out.json"
    args = {"coherence": ["--m", "1", "--n", "0"], "monitor": ["--lambdas", "0"]}.get(command, [])
    assert run([command, "--config", cfg, "--out", str(out), *args]) == 0
    record = json.loads(out.read_text())["settings"]
    assert record.get("state") == (None if command == "validate" else state)


class TestStableJson:
    def test_rejects_non_finite_float(self):
        with pytest.raises(ValueError, match="^cannot serialize non-finite float$"):
            stable_json({"value": [1.0, math.nan]})

    def test_rejects_unsupported_type(self):
        with pytest.raises(TypeError, match="^cannot serialize <class 'complex'>$"):
            stable_json({"value": 1j})


def test_unexpected_exception_is_internal_error(write_config, capsys, monkeypatch):
    # a failure no error type names still ends in a structured record, not a traceback
    def broken(*args, **kwargs):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(tomography, "reconstruct", broken)
    assert run(["reconstruct", "--config", write_config()]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {"error": {"type": "internal-error", "message": "engine fault"}}


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


_UNEQUAL = r"protocol requires equal mode cutoffs \(the rotation maps x-support onto z\)"


# build_dims reads the config's JSON; ProtocolSettings, built from its d next, owns d >= 2
@pytest.mark.parametrize("dx,dz,message", [
    (1, 4, _UNEQUAL), (4, 1, _UNEQUAL), (0, 0, "Fock cutoff must be >= 2, got d=0"),
    (1, 1, "Fock cutoff must be >= 2, got d=1"),
], ids=["1-4", "4-1", "0-0", "1-1"])
def test_build_dims_rejects_tiny_cutoffs(dx, dz, message):
    cfg = {"dims": {"dx": dx, "dz": dz}}
    with pytest.raises(ConfigError, match=f"^{message}$"):
        build_settings(cfg, build_dims(cfg), False)


def test_build_dims_rejects_unequal_cutoffs():
    # the config's two cutoffs end here: the protocol runs both modes at one cutoff d
    assert build_dims({"dims": {"dx": 5, "dz": 5}}) == 5
    message = r"^protocol requires equal mode cutoffs \(the rotation maps x-support onto z\)$"
    with pytest.raises(ConfigError, match=message):
        build_dims({"dims": {"dx": 8, "dz": 6}})


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
    state = state or {"kind": "coherent", "alpha": 0.8}
    # fock states take no tail_tol: the cutoff truncates nothing
    cfg = {"dims": {"dx": 8, "dz": 8},
           "state": state if state["kind"] == "fock" else {"tail_tol": 1e-5, **state},
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


@pytest.mark.parametrize("lambdas,message", [
    ("nan", "lambdas[0] must be finite, got nan"),
    ("0,inf", "lambdas[1] must be finite, got inf"),
    ("-0.5,1", "dephasing strength lam must be >= 0, got -0.5"),
], ids=["nan", "0,inf", "-0.5,1"])
def test_nonfinite_lambda_rejected_before_linear_algebra(write_config, capsys, lambdas, message):
    cfg = write_config()
    assert run(["monitor", "--config", cfg, "--lambdas", lambdas]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["error"] == {"type": "invalid-arguments", "message": message}


@pytest.mark.parametrize("lambdas", [["--lambdas", "-x"], ["--lambdas", "-0.5,x"], ["--lambdas"]],
                         ids=["option-like", "bad-token", "no-value"])
def test_lambdas_without_a_value_usage_error(write_config, capsys, lambdas):
    cfg = write_config()
    assert run(["monitor", "--config", cfg, *lambdas]) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["error"] == {"type": "usage-error",
                               "message": "argument --lambdas: expected one argument"}


def test_lambdas_of_only_separators_usage_error(write_config, capsys):
    cfg = write_config()
    assert run(["monitor", "--config", cfg, "--lambdas", " , ,"]) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["error"] == {"type": "usage-error",
                               "message": "bad --lambdas value: could not convert string to float: ' '"}


# Every token of the list is a number: an empty one is an error, never dropped.
@pytest.mark.parametrize("lambdas", ["0,,0.3", "0.3,", ",0.3"], ids=["inner", "trailing", "leading"])
def test_empty_lambda_token_usage_error(write_config, capsys, lambdas):
    cfg = write_config()
    assert run(["monitor", "--config", cfg, "--lambdas", lambdas]) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["error"] == {"type": "usage-error",
                               "message": "bad --lambdas value: could not convert string to float: ''"}


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


# Huge but finite inputs that once made numpy warn on stderr: (state, cutoff, outcome), the
# outcome being the value of cell (2, 0) or the type of the error record.
EXTREME_INPUTS = [
    ({"kind": "coherent", "alpha": 0.8, "tail_tol": 1e-5, "dephase": 1e308}, 8, 0.0),
    ({"kind": "raw", "amplitudes": [1e154, 1e154]}, 2, "invalid-arguments"),
    ({"kind": "coherent", "alpha": 30, "tail_tol": 2.0}, 4, "invalid-arguments"),
    ({"kind": "thermal", "nbar": 1e300, "tail_tol": 2.0}, 4, "invalid-arguments"),
]


@pytest.mark.parametrize("state,d,outcome", EXTREME_INPUTS,
                         ids=["dephase-1e308", "raw-1e154", "coherent30-tol2", "thermal1e300-tol2"])
def test_extreme_inputs_leave_stderr_empty(write_config, capsys, state, d, outcome):
    cfg = write_config(dims={"dx": d, "dz": d}, state=state)
    code = run(["coherence", "--config", cfg, "--m", "2", "--n", "0"])
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = json.loads(captured.out)
    if isinstance(outcome, str):
        assert code == 1 and doc["error"]["type"] == outcome
    else:
        assert code == 0 and doc["value"] == {"re": outcome, "im": outcome}


# One misspelt field per level of the config, and the name the error must give.
UNKNOWN_FIELDS = [
    ("top", {"shot": 1000}, "'shot'"),
    ("dims", {"dims": {"dx": 8, "dz": 8, "dy": 8}}, "'dims.dy'"),
    ("state", {"state": {"kind": "coherent", "alpha": 0.8, "tail_tol": 1e-5, "dephse": 0.4}},
     "'state.dephse'"),
    ("state-kind", {"state": {"kind": "fock", "n": 0, "alpha": 0.8}}, "'state.alpha'"),
    # a state on the cutoff truncates nothing, so a tail tolerance would be silently ignored
    ("state-fock-tail_tol", {"state": {"kind": "fock", "n": 1, "tail_tol": -5}}, "'state.tail_tol'"),
    ("state-raw-tail_tol", {"state": {"kind": "raw", "amplitudes": [1.0], "tail_tol": 1e-5}},
     "'state.tail_tol'"),
    # the output target and format are flags: a config describes only the run
    ("top-out", {"out": "out.json"}, "'out'"),
    ("top-format", {"format": "csv"}, "'format'"),
]
# validate reads no state, so only the top level and dims reach it.
UNKNOWN_FIELD_RUNS = [(command, *case) for case in UNKNOWN_FIELDS
                      for command in ("reconstruct", "coherence", "monitor", "validate")
                      if command != "validate" or not case[0].startswith("state")]


@pytest.mark.parametrize("command,level,overrides,name", UNKNOWN_FIELD_RUNS,
                         ids=[f"{c}-{level}" for c, level, _, _ in UNKNOWN_FIELD_RUNS])
def test_unknown_config_field_is_config_error(write_config, capsys, command, level, overrides, name):
    cfg = write_config(**overrides)
    args = {"coherence": ["--m", "0", "--n", "0"], "monitor": ["--lambdas", "0"]}.get(command, [])
    assert run([command, "--config", cfg, *args]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["error"] == {"type": "config-error", "message": f"unknown config field {name}"}


# One key given twice per level of the config, and the key the error must name. Plain
# json.load would keep the last value of each and run without a word.
DUPLICATE_FIELDS = [
    ("top", '"nmax": 1, "nmax": 2, "seed": 0, "seed": 3', "nmax"),
    ("dims", '"dims": {"dx": 4, "dz": 4, "dx": 5}', "dx"),
    ("state", '"state": {"kind": "fock", "n": 1, "n": 2}', "n"),
    ("re-im-pair", '"state": {"kind": "coherent", "alpha": {"re": 0.5, "im": 0.1, "im": 0.2}}', "im"),
]


@pytest.mark.parametrize("fields,key", [case[1:] for case in DUPLICATE_FIELDS],
                         ids=[case[0] for case in DUPLICATE_FIELDS])
def test_duplicate_config_field_is_config_error(tmp_path, capsys, fields, key):
    defaults = {"dims": '"dims": {"dx": 4, "dz": 4}', "state": '"state": {"kind": "fock", "n": 1}',
                "nmax": '"nmax": 1'}
    parts = [fields, *(text for name, text in defaults.items() if f'"{name}"' not in fields)]
    path = tmp_path / "config.json"
    path.write_text("{" + ", ".join(parts) + "}")
    assert run(["reconstruct", "--config", str(path)]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["error"] == {"type": "config-error", "message": f"duplicate config field '{key}'"}


@pytest.mark.parametrize("argv", [["--out", "missing-dir/out.json"], ["--out", ""]],
                         ids=["out-missing-dir", "flag-out-empty"])
def test_bad_output_target_is_structured_error(write_config, capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    cfg = write_config()
    assert run(["reconstruct", "--config", cfg, *argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["error"]["type"] == "invalid-arguments"


def test_every_documented_field_is_accepted(write_config, tmp_path):
    out = tmp_path / "out.csv"
    cfg = write_config(shots=100,
                       state={"kind": "squeezed", "r": 0.1, "phi": 0.2, "tail_tol": 1e-3, "dephase": 0.1})
    assert run(["reconstruct", "--config", cfg, "--out", str(out), "--format", "csv"]) == 0
    assert out.read_text().startswith("m,n,re,im,stderr\n")


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


_INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)


def _mostly(good, wild):
    """good seven times in eight, so that about half the runs reach the engine."""
    return st.integers(0, 7).flatmap(lambda i: wild if i == 7 else good)


_RUN_STATES = _mostly(st.sampled_from([
    {"kind": "fock", "n": 1},
    {"kind": "coherent", "alpha": {"re": 0.4, "im": -0.3}, "tail_tol": 0.2, "dephase": 0.2},
    {"kind": "thermal", "nbar": 0.3, "tail_tol": 0.2},
]), _STATES)
_RUN_FIELDS = {
    "nmax": _mostly(st.integers(0, 6), _INT64),
    "shots": _mostly(st.one_of(st.none(), st.integers(1, 10 ** 5)), _INT64),
    "seed": _mostly(st.integers(0, 100), _INT64),
    "v_mode": _mostly(st.sampled_from(["ideal", "compiled"]), st.just("exact")),
}
# Output targets by name; the test places them in each example's temp dir (see _placed).
_OUT_TARGETS = st.sampled_from(["file", "", "missing-dir", "temp-dir"])
_INDEX = _mostly(st.integers(0, 6), st.integers(-2 ** 70, 2 ** 70))
_LAMBDAS = _mostly(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4).map(sorted).map(
    lambda lams: ",".join(map(repr, lams))),
    st.lists(st.one_of(_FINITE.map(repr), st.sampled_from(["nan", "-inf", "x", ""])),
             max_size=4).map(",".join))


@st.composite
def _cli_runs(draw):
    """A config with most run fields, and one subcommand with its arguments."""
    d = draw(st.integers(2, 8))
    cfg = {"dims": {"dx": d, "dz": d}, "state": draw(_RUN_STATES)}
    for key, values in _RUN_FIELDS.items():
        if draw(st.integers(0, 5)) < 5:
            cfg[key] = draw(values)
    command = draw(st.sampled_from(["reconstruct", "coherence", "monitor", "validate"]))
    argv = [command]
    if draw(st.booleans()):
        argv.append("--compat-rminus-final")
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "csv"]))]
    if draw(st.integers(0, 3)) == 0:
        argv += ["--out", draw(_OUT_TARGETS)]
    if command == "reconstruct" and draw(st.booleans()):
        argv.append("--use-hermitian-symmetry")
    if command == "coherence":
        for flag in ("--m", "--n"):
            if draw(st.integers(0, 9)) < 9:
                argv += [flag, str(draw(_INDEX))]
    if command == "monitor" and draw(st.integers(0, 9)) < 9:
        argv += ["--lambdas", draw(_LAMBDAS)]
    return cfg, argv


def _numbers(node):
    """Every number in a parsed JSON document."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return [x for item in node for x in _numbers(item)]
    return [node] if isinstance(node, (int, float)) and not isinstance(node, bool) else []


def _placed(target: str, tmp: Path) -> str:
    """A drawn output target in tmp: named targets become paths, and "" stays as drawn."""
    paths = {"file": tmp / "out.txt", "missing-dir": tmp / "missing" / "out.txt", "temp-dir": tmp}
    return str(paths[target]) if target in paths else target


@settings(max_examples=200, deadline=None, derandomize=True)
@given(run=_cli_runs())
def test_fuzzed_runs_end_in_numbers_or_structured_errors(run):
    cfg, argv = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = [_placed(arg, tmp) if i and argv[i - 1] == "--out" else arg
                for i, arg in enumerate(argv)]
        path = tmp / "config.json"
        path.write_text(json.dumps(cfg))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--config", str(path)])
        # every write stays in the temp dir, and only the file target can be written
        assert {p.name for p in tmp.iterdir()} <= {"config.json", "out.txt"}
        written = (tmp / "out.txt").read_text() if (tmp / "out.txt").exists() else None
    lines = out.getvalue().splitlines()
    assert err.getvalue() == ""
    if argv[0] == "validate" and lines and not lines[0].startswith("{"):
        # the PASS/FAIL table with finite deviations, printed before any --out file is written
        table, lines = lines[:6], lines[6:]
        assert len(table) == 6 and all(line.split()[0] in ("PASS", "FAIL") for line in table)
        assert all(math.isfinite(float(line.split()[3].rstrip(","))) for line in table)
        if not lines:
            assert code == (1 if any(line.startswith("FAIL") for line in table) else 0)
    if lines and lines[0].startswith("{\"error\""):
        assert len(lines) == 1 and written is None
        error = json.loads(lines[0])["error"]
        assert code != 0
        assert error["type"] != "internal-error", error
        assert "non-finite" not in error["message"], error
        return
    # the numbers went where the --out flag put them, else to stdout
    assert (written is not None) == ("--out" in argv)
    if argv[0] == "validate":
        if written is None:
            return
    else:
        assert code == 0
        assert written is None or not lines
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    text = "\n".join(lines) if written is None else written
    if fmt == "csv":
        # every column is numeric but validate's check name and verdict
        header, *rows = [row.split(",") for row in text.splitlines()]
        numeric = [i for i, name in enumerate(header) if name not in ("name", "passed")]
        values = [float(row[i]) for row in rows for i in numeric]
    else:
        values = _numbers(json.loads(text))
    assert values and all(math.isfinite(v) for v in values)
