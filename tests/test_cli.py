"""End-to-end tests of the command-line interface and its serialized outputs."""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iontomo import TruncationLeakageError, cli, protocol, pulses, tomography
from iontomo.cli import (ConfigError, UsageError, _as_float, _as_int, _build_parser, _field, _state_kinds,
                         build_dims, build_settings, build_state, load_config, main, stable_json)
from iontomo.hilbert import PLUS, XI
from iontomo.states import DEFAULT_TAIL_TOL
from util import subcommand_parsers

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
        assert record == {"error": {"type": "usage-error",
                                    "message": "argument --lambdas: '' is not a finite JSON number"}}

    def test_missing_lambdas_usage_error(self, write_config, capsys):
        cfg = write_config()
        assert run(["monitor", "--config", cfg]) == 2
        record = json.loads(capsys.readouterr().out)
        assert record == {"error": {"type": "usage-error",
                                    "message": "the following arguments are required: --lambdas"}}


VALIDATE_CHECKS = ["mode-swap-identity", "entangler-identity", "element-identity-ideal",
                   "element-identity-compiled", "compiled-vs-ideal", "pulse-unitarity", "mode-swap-parity"]


def failed_checks(record: dict) -> list[str]:
    """The names of the checks a validate record failed, in its order."""
    assert [c["name"] for c in record["checks"]] == VALIDATE_CHECKS
    assert record["passed"] is all(c["passed"] for c in record["checks"])
    return [c["name"] for c in record["checks"] if not c["passed"]]


class TestValidateCommand:
    def test_default_config_passes(self, write_config, capsys):
        cfg = write_config()
        assert run(["validate", "--config", cfg]) == 0
        assert failed_checks(json.loads(capsys.readouterr().out)) == []

    def test_compat_final_pulse_fails_entangler_check(self, write_config, capsys):
        # the comparison entangler leaves population on |xi>, so both element identities fail with it
        cfg = write_config()
        assert run(["validate", "--config", cfg, "--compat-rminus-final"]) == 1
        assert failed_checks(json.loads(capsys.readouterr().out)) == [
            "entangler-identity", "element-identity-ideal", "element-identity-compiled"]

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
        # the ladder's first step is jc on the reversed pair (xi, +), at the ladder's one phase
        first = doc["schedules"]["v_plus"]["2"][0]
        assert (first["kind"], first["levels"], first["phase"]) == ("jc", ["xi", "+"], 1.5 * math.pi)

    def test_csv_report(self, write_config, capsys):
        # --format csv holds the record's checks, one name,passed,deviation,tolerance row each
        cfg = write_config()
        assert run(["validate", "--config", cfg]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert run(["validate", "--config", cfg, "--format", "csv"]) == 0
        header, *rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        assert header == ["name", "passed", "deviation", "tolerance"]
        assert [[name, passed, float(deviation), float(tolerance)]
                for name, passed, deviation, tolerance in rows] == [
            [c["name"], "true", c["deviation"], c["tolerance"]] for c in checks]

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
        # the mode swap's signs on the sites of odd total phonon number, where it trades the
        # + and xi amplitudes, scaled by 1 + 1e-8
        exact = pulses._mode_swap

        def defective(state):
            exact(state)
            n = np.arange(state.shape[1])
            state[[PLUS, XI]] *= np.where((n[:, None] + n) % 2 == 1, 1 + 1e-8, 1.0)[:, :, None]

        monkeypatch.setattr(pulses, "_mode_swap", defective)
        cfg = write_config()
        assert run(["validate", "--config", cfg]) == 1
        # |n>_x|0>_z lands on an odd site for every odd n, and the probe fills every level, so the
        # mode swap's and U_00's identity checks fail with it; the compiled element identity's
        # tolerance is 1e-7
        assert failed_checks(json.loads(capsys.readouterr().out)) == [
            "mode-swap-identity", "entangler-identity", "element-identity-ideal", "pulse-unitarity",
            "mode-swap-parity"]

    def test_mode_swap_parity_catches_an_unsigned_swap(self, write_config, capsys, monkeypatch):
        # the swap without its sign (-1)^a on the output row is still a permutation, and on the
        # bright branch's |n>_x|0>_z it lands on the even row a = 0: only two swaps as the phonon
        # parity, read on the whole probe, see it
        exact = pulses._mode_swap

        def unsigned(state):
            exact(state)
            state[[PLUS, XI]] *= ((-1.0) ** np.arange(state.shape[1]))[:, None, None]

        monkeypatch.setattr(pulses, "_mode_swap", unsigned)
        cfg = write_config()
        assert run(["validate", "--config", cfg]) == 1
        assert failed_checks(json.loads(capsys.readouterr().out)) == ["mode-swap-parity"]

    def test_compiled_vs_ideal_catches_a_ladder_defect(self, write_config, capsys, monkeypatch):
        # scale every sideband area of the compiled ladders by 1 + 1e-6
        exact = protocol.ladder_schedule

        def defective(k, branch):
            return [dataclasses.replace(spec, angle=spec.angle * (1 + 1e-6)) if spec.kind == "jc" else spec
                    for spec in exact(k, branch)]

        monkeypatch.setattr(protocol, "ladder_schedule", defective)
        cfg = write_config()
        assert run(["validate", "--config", cfg]) == 1
        assert failed_checks(json.loads(capsys.readouterr().out)) == [
            "element-identity-compiled", "compiled-vs-ideal"]

    @pytest.mark.parametrize("d", [4, 8])
    def test_element_identity_catches_a_closing_carrier_defect(self, write_config, capsys, monkeypatch, d):
        # a closing carrier at laser phase pi/2 spoils every odd target; the probe fills every
        # Fock level, so the compiled element identity sees it at a small cutoff too
        exact = protocol.ladder_schedule
        monkeypatch.setattr(protocol, "ladder_schedule", lambda k, branch: [
            dataclasses.replace(spec, phase=protocol.HALF_PI) if spec.kind == "carrier" else spec
            for spec in exact(k, branch)])
        cfg = write_config(dims={"dx": d, "dz": d})
        assert run(["validate", "--config", cfg]) == 1
        assert failed_checks(json.loads(capsys.readouterr().out)) == [
            "element-identity-compiled", "compiled-vs-ideal"]


# Each subcommand, a CSV run, an --out run and an error record; {out} is the run's output path.
ENTRY_RUNS = {
    "reconstruct": ["reconstruct"],
    "coherence": ["coherence", "--m", "1", "--n", "0"],
    "monitor": ["monitor", "--lambdas", "0,0.5"],
    "validate": ["validate"],
    "csv": ["reconstruct", "--format", "csv"],
    "out": ["monitor", "--lambdas", "0.1", "--out", "{out}"],
    "error": ["coherence", "--m", "99", "--n", "0"],
}


def test_module_entry_point_is_main(write_config, tmp_path, capsys):
    # python -m iontomo.cli writes main's bytes, to stdout or --out, and exits with main's code;
    # the process also freezes its heap at exit, which must lose nothing
    cfg = write_config()
    env = {**os.environ, "PYTHONPATH": str(Path(protocol.__file__).resolve().parents[1])}
    for name, argv in ENTRY_RUNS.items():
        outs = {who: tmp_path / f"{name}-{who}.out" for who in ("main", "module")}
        code = run([*(arg.format(out=outs["main"]) for arg in argv), "--config", cfg])
        proc = subprocess.run([sys.executable, "-m", "iontomo.cli",
                               *(arg.format(out=outs["module"]) for arg in argv), "--config", cfg],
                              env=env, capture_output=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, capsys.readouterr().out.encode(), b""), name
        assert code == (1 if name == "error" else 0), name
        written = [path.read_bytes() for path in outs.values() if path.exists()]
        assert (written[0] == written[1] != b"") if name == "out" else written == [], name


@pytest.mark.parametrize("argv", [["reconstruct"], ["coherence", "--m", "1", "--n", "0"],
                                  ["monitor", "--lambdas", "0,0.5"], ["validate"]], ids=lambda argv: argv[0])
def test_no_call_imports_numpy_random(write_config, tmp_path, argv):
    # sampled runs draw their shots from the standard library's generator and validate's probe
    # reads its bytes, so a cold call never pays for importing numpy.random
    script = ("import sys\nfrom iontomo.cli import main\ncode = main(sys.argv[1:])\n"
              "print(sorted(name for name in sys.modules if name.startswith('numpy.random')))\nsys.exit(code)")
    out = tmp_path / "out.json"
    env = {**os.environ, "PYTHONPATH": str(Path(protocol.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script, *argv, "--config", write_config(shots=1000),
                           "--out", str(out)], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
    assert json.loads(out.read_text())


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


@pytest.mark.parametrize("shots", [None, 1000])
@pytest.mark.parametrize("command", ["reconstruct", "coherence", "monitor", "validate"])
def test_records_sort_keys_and_write_shortest_floats(write_config, tmp_path, command, shots):
    # every object's keys are sorted, and every float is written in its shortest round-trip form
    cfg = write_config(shots=shots)
    out = tmp_path / "out.json"
    args = {"coherence": ["--m", "1", "--n", "0"], "monitor": ["--lambdas", "0,0.3"]}.get(command, [])
    assert run([command, "--config", cfg, "--out", str(out), *args]) == 0
    text = out.read_text()
    objects, floats = [], []

    def pairs(items):
        objects.append([key for key, _ in items])
        return dict(items)

    def number(token):
        floats.append(token)
        return float(token)

    json.loads(text, object_pairs_hook=pairs, parse_float=number)
    assert len(objects) > 1 and floats
    assert all(keys == sorted(keys) for keys in objects)
    assert [token for token in floats if token != repr(float(token))] == []
    if command != "validate":  # validate's record reads no state
        assert '"state": {"alpha": 0.8, "kind": "coherent", "tail_tol": 1e-05}' in text


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

    def test_deeply_nested_config_is_a_config_error(self, tmp_path, capsys):
        # JSON nested past the interpreter's recursion limit is a form the config reader
        # cannot take, not an internal error
        path = tmp_path / "deep.json"
        depth = 100_000
        path.write_text('{"dims": ' + "[" * depth + "]" * depth + ', "state": {"kind": "fock", "n": 0}}')
        assert run(["reconstruct", "--config", str(path)]) == 1
        record = json.loads(capsys.readouterr().out)
        assert record["error"] == {"type": "config-error",
                                   "message": f"config {path} nests its JSON too deeply to read"}

    # bytes the UTF-8 reader rejects, and an integer past the interpreter's 4,300-digit
    # conversion limit, are configs the reader cannot take, not arguments the library rejects
    @pytest.mark.parametrize("content,reason", [
        (b'{"dims": {"dx": 8, "dz": 8}, "state": {"kind": "fock", "n": 0}, "note": "\xff"}',
         "'utf-8' codec can't decode byte 0xff"),
        (b'{"dims": {"dx": 8, "dz": 8}, "state": {"kind": "fock", "n": 0}, "seed": ' + b"1" * 5001 + b"}",
         "Exceeds the limit (4300 digits)"),
    ], ids=["not-utf8", "5001-digit-integer"])
    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys, content, reason):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        assert run(["reconstruct", "--config", str(path)]) == 1
        record = json.loads(capsys.readouterr().out)
        assert record["error"]["type"] == "config-error"
        assert record["error"]["message"].startswith(f"cannot read config {path}: {reason}")

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

    @pytest.mark.parametrize("size", [7, 9])
    @pytest.mark.parametrize("argv", [["reconstruct"], ["coherence", "--m", "0", "--n", "0"],
                                      ["monitor", "--lambdas", "0,0.3"]],
                             ids=["reconstruct", "coherence", "monitor"])
    def test_raw_state_of_another_size_is_the_runs_error(self, write_config, capsys, argv, size):
        # a raw state's size is its list's, and only the run compares it with d = 8
        cfg = write_config(state={"kind": "raw", "amplitudes": [1.0] + [0.0] * (size - 1)})
        assert run([argv[0], "--config", cfg, *argv[1:]]) == 1
        record = json.loads(capsys.readouterr().out)
        assert record["error"] == {"type": "invalid-arguments",
                                   "message": f"vibrational state dim {size} != d 8"}

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


# build_dims reads the config's JSON; ProtocolSettings, built from its d next, owns d >= 2,
# and its ValueError reaches the caller as it is
@pytest.mark.parametrize("dx,dz,error,message", [
    (1, 4, ConfigError, _UNEQUAL), (4, 1, ConfigError, _UNEQUAL),
    (0, 0, ValueError, "Fock cutoff must be >= 2, got d=0"),
    (1, 1, ValueError, "Fock cutoff must be >= 2, got d=1"),
], ids=["1-4", "4-1", "0-0", "1-1"])
def test_build_dims_rejects_tiny_cutoffs(dx, dz, error, message):
    cfg = {"dims": {"dx": dx, "dz": dz}}
    with pytest.raises(ValueError, match=f"^{message}$") as caught:
        build_settings(cfg, build_dims(cfg), False)
    assert type(caught.value) is error


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
    ({}, ("state", "dephase"), "null"),
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


# One well-formed but out-of-range value per config field the library checks: (id, config
# overrides on a d = 6 Fock config, the library's message). The config's form is right, so
# the library's ValueError is the record: invalid-arguments, never config-error.
LIBRARY_REJECTS = [
    ("dims", {"dims": {"dx": 1, "dz": 1}}, "Fock cutoff must be >= 2, got d=1"),
    ("v_mode", {"v_mode": "x"}, "v_mode must be 'ideal' or 'compiled', got 'x'"),
    ("shots", {"shots": 0}, "shots must be >= 1 (or None for exact mode)"),
    ("seed", {"seed": -1}, "seed must be a nonnegative integer"),
    ("nmax", {"nmax": 9}, "nmax = 9 out of the ideal shifter reach 0..5 at d=6"),
    ("state.n", {"state": {"kind": "fock", "n": 9}}, "Fock index 9 out of range for dim 6"),
    ("state.nbar", {"state": {"kind": "thermal", "nbar": -1}}, "mean occupation nbar must be >= 0"),
    ("state.r", {"state": {"kind": "squeezed", "r": -1}}, "squeezing magnitude r must be >= 0"),
    ("state.tail_tol", {"state": {"kind": "coherent", "alpha": 0.3, "tail_tol": 0}},
     "tail_tol must be a positive number, got 0.0"),
    ("state.dephase", {"state": {"kind": "fock", "n": 0, "dephase": -1}},
     "dephasing strength lam must be >= 0, got -1.0"),
    ("state.parity", {"state": {"kind": "cat", "alpha": 0.3, "parity": "EVEN"}},
     "parity must be 'even' or 'odd', got 'EVEN'"),
]


@pytest.mark.parametrize("overrides,message", [case[1:] for case in LIBRARY_REJECTS],
                         ids=[case[0] for case in LIBRARY_REJECTS])
def test_library_rejected_value_is_invalid_arguments(write_config, capsys, overrides, message):
    cfg = write_config(**{"dims": {"dx": 6, "dz": 6}, "state": {"kind": "fock", "n": 0}, **overrides})
    assert run(["reconstruct", "--config", cfg]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["error"] == {"type": "invalid-arguments", "message": message}


# A v_mode or parity that is no JSON string has the wrong form, as a kind or a seed that is
# none has; a string that the library does not know stays its error (LIBRARY_REJECTS).
@pytest.mark.parametrize("value", [5, None, ["ideal"]], ids=["number", "null", "list"])
@pytest.mark.parametrize("path,overrides", [
    ("v_mode", lambda value: {"v_mode": value}),
    ("state.parity", lambda value: {"state": {"kind": "cat", "alpha": 0.3, "parity": value}}),
], ids=["v_mode", "state.parity"])
def test_non_string_name_is_config_error(write_config, capsys, path, overrides, value):
    cfg = write_config(**{"dims": {"dx": 6, "dz": 6}, **overrides(value)})
    assert run(["reconstruct", "--config", cfg]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["error"] == {"type": "config-error",
                               "message": f"field '{path}' must be a string, got {value!r}"}


# A lambda that is no finite JSON number is malformed argv; a well-formed one that the
# library rejects is the library's error.
@pytest.mark.parametrize("lambdas,kind,code,message", [
    ("nan", "usage-error", 2, "argument --lambdas: 'nan' is not a finite JSON number"),
    ("0,inf", "usage-error", 2, "argument --lambdas: 'inf' is not a finite JSON number"),
    ("-0.5,1", "invalid-arguments", 1, "dephasing strength lam must be >= 0, got -0.5"),
], ids=["nan", "0,inf", "-0.5,1"])
def test_nonfinite_lambda_rejected_before_linear_algebra(write_config, capsys, lambdas, kind, code, message):
    cfg = write_config()
    assert run(["monitor", "--config", cfg, "--lambdas", lambdas]) == code
    record = json.loads(capsys.readouterr().out)
    assert record["error"] == {"type": kind, "message": message}


@pytest.mark.parametrize("option,token,what", [
    ("--lambdas", "[" * 100_000, "a finite JSON number"),
    ("--lambdas", "0.5," + "[" * 100_000 + "]" * 100_000, "a finite JSON number"),
    ("--m", "[" * 100_000, "a JSON integer in the int64 range"),
], ids=["lambdas-open", "lambdas-closed", "m-open"])
def test_deeply_nested_argv_number_is_a_usage_error(write_config, capsys, option, token, what):
    # an argv number is read as JSON, and JSON nested too deeply to read is malformed argv
    cfg = write_config()
    command = ["monitor", "--config", cfg] if option == "--lambdas" else ["coherence", "--config", cfg, "--n", "0"]
    assert run([*command, option, token]) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["error"] == {"type": "usage-error",
                               "message": f"argument {option}: a token nests its JSON too deeply to be {what}"}


_NO_LAMBDAS = "the following arguments are required: --lambdas"


# The token after --lambdas is its value unless it is a '--' option, so a list that starts
# with '-' reaches the lambdas reader, which names its bad token. A prefix of --lambdas is
# not --lambdas, joined or separate, whatever its value.
@pytest.mark.parametrize("lambdas,message", [
    (["--lambdas", "-x"], "argument --lambdas: '-x' is not a finite JSON number"),
    (["--lambdas", "-0.5,x"], "argument --lambdas: 'x' is not a finite JSON number"),
    (["--lambdas"], "argument --lambdas: expected one argument"),
    (["--lambdas", "--out", "x.json"], "argument --lambdas: expected one argument"),
    (["--lamb", "-0.5,,1"], _NO_LAMBDAS), (["--lamb", "0.3"], _NO_LAMBDAS), (["--lamb=0.3"], _NO_LAMBDAS),
], ids=["option-like", "bad-token", "no-value", "option-after", "prefix-bad", "prefix", "prefix-joined"])
def test_lambdas_without_a_value_usage_error(write_config, capsys, lambdas, message):
    cfg = write_config()
    assert run(["monitor", "--config", cfg, *lambdas]) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["error"] == {"type": "usage-error", "message": message}


# Options are spelled in full: every proper prefix (three characters or more) of a long
# option that is not itself an option is a usage error, given the value its option takes
# and every other required option, so that only the spelling is under test.
def _prefix_runs():
    for command, parser in subcommand_parsers().items():
        options = parser._option_string_actions
        for option, action in options.items():
            for prefix in (option[:end] for end in range(3, len(option))):
                if option.startswith("--") and prefix not in options:
                    yield command, option, prefix


PREFIX_RUNS = list(_prefix_runs())


@pytest.mark.parametrize("command,option,prefix", PREFIX_RUNS,
                         ids=[f"{command}:{prefix}-of-{option}" for command, option, prefix in PREFIX_RUNS])
def test_option_prefix_is_usage_error(write_config, tmp_path, capsys, command, option, prefix):
    values = {"--config": write_config(dims={"dx": 3, "dz": 3}, state={"kind": "fock", "n": 0}, nmax=0),
              "--out": str(tmp_path / "out.json"), "--format": "json", "--lambdas": "0.3",
              "--m": "0", "--n": "0"}
    actions = subcommand_parsers()[command]._option_string_actions
    argv = [command]
    for other in values:
        if other != option and other in actions and actions[other].required:
            argv += [other, values[other]]
    argv += [prefix, values[option]] if actions[option].nargs != 0 else [prefix]
    assert run(argv) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["error"]["type"] == "usage-error"
    assert not (tmp_path / "out.json").exists()


_LAMBDA_TOKENS = st.one_of(
    st.floats(-2.0, 2.0).map(repr), st.floats().map(repr),
    st.sampled_from(["-0", "-0.5", "-1", "0", "0.3", "-", "-x", "x", "", " ", "nan", "-inf", "1e"]),
    st.text(max_size=3))
_LAMBDA_VALUES = st.one_of(
    st.lists(_LAMBDA_TOKENS, max_size=4).map(",".join),
    st.text(alphabet=", -", max_size=4)).filter(lambda value: not value.startswith("--"))


@pytest.fixture(scope="module")
def monitor_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("monitor") / "config.json"
    path.write_text(json.dumps({"dims": {"dx": 4, "dz": 4},
                                "state": {"kind": "coherent", "alpha": 0.5, "tail_tol": 1e-2}}))
    return str(path)


def _monitor(config: str, *lambdas: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["monitor", "--config", config, *lambdas])
    return code, out.getvalue()


# A separate value and a joined one are one argument: same exit code, same output.
@settings(max_examples=150, deadline=None, derandomize=True)
@given(value=_LAMBDA_VALUES)
@example(value="-0.5,,1")
@example(value="-1,")
def test_separate_lambdas_value_reads_as_joined(monitor_config, value):
    assert _monitor(monitor_config, "--lambdas", value) == _monitor(monitor_config, f"--lambdas={value}")


def test_lambdas_of_only_separators_usage_error(write_config, capsys):
    cfg = write_config()
    assert run(["monitor", "--config", cfg, "--lambdas", " , ,"]) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["error"] == {"type": "usage-error",
                               "message": "argument --lambdas: ' ' is not a finite JSON number"}


# Every token of the list is a number: an empty one is an error, never dropped.
@pytest.mark.parametrize("lambdas", ["0,,0.3", "0.3,", ",0.3"], ids=["inner", "trailing", "leading"])
def test_empty_lambda_token_usage_error(write_config, capsys, lambdas):
    cfg = write_config()
    assert run(["monitor", "--config", cfg, "--lambdas", lambdas]) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["error"] == {"type": "usage-error",
                               "message": "argument --lambdas: '' is not a finite JSON number"}


_INT64_RULE = "is not a JSON integer in the int64 range"
_REAL_RULE = "is not a finite JSON number"

# argv numbers are JSON numbers, read while argv is parsed, before the config is opened: a
# malformed one is a usage error that names its option and its token, whatever the config.
MALFORMED_ARGV = [
    ("m-arabic-indic-digit", ["coherence", "--m", "\u0661", "--n", "0"],
     f"argument --m: '\u0661' {_INT64_RULE}"),
    ("m-underscore", ["coherence", "--m", "1_0", "--n", "0"], f"argument --m: '1_0' {_INT64_RULE}"),
    ("m-plus", ["coherence", "--m", "+1", "--n", "0"], f"argument --m: '+1' {_INT64_RULE}"),
    ("m-float", ["coherence", "--m", "1.0", "--n", "0"], f"argument --m: '1.0' {_INT64_RULE}"),
    ("m-past-int64", ["coherence", "--m", "99999999999999999999999", "--n", "0"],
     f"argument --m: '99999999999999999999999' {_INT64_RULE}"),
    ("n-NaN", ["coherence", "--m", "0", "--n", "NaN"], f"argument --n: 'NaN' {_INT64_RULE}"),
    ("n-below-int64", ["coherence", "--m", "0", "--n", str(-2 ** 63 - 1)],
     f"argument --n: '{-2 ** 63 - 1}' {_INT64_RULE}"),
    ("lambdas-padded-underscore", ["monitor", "--lambdas", " 0 , 1_0"],
     f"argument --lambdas: ' 1_0' {_REAL_RULE}"),
    ("lambdas-nan", ["monitor", "--lambdas", "0,nan"], f"argument --lambdas: 'nan' {_REAL_RULE}"),
    ("lambdas-inf", ["monitor", "--lambdas", "0,inf"], f"argument --lambdas: 'inf' {_REAL_RULE}"),
    ("lambdas-x", ["monitor", "--lambdas", "0,x"], f"argument --lambdas: 'x' {_REAL_RULE}"),
    ("lambdas-empty", ["monitor", "--lambdas", "0,,1"], f"argument --lambdas: '' {_REAL_RULE}"),
    ("lambdas-NaN", ["monitor", "--lambdas", "NaN"], f"argument --lambdas: 'NaN' {_REAL_RULE}"),
    ("lambdas-Infinity", ["monitor", "--lambdas", "0,Infinity"],
     f"argument --lambdas: 'Infinity' {_REAL_RULE}"),
    ("lambdas-1e400", ["monitor", "--lambdas", "1e400"], f"argument --lambdas: '1e400' {_REAL_RULE}"),
]


@pytest.mark.parametrize("config", ["config.json", "missing.json"])
@pytest.mark.parametrize("argv,message", [case[1:] for case in MALFORMED_ARGV],
                         ids=[case[0] for case in MALFORMED_ARGV])
def test_malformed_argv_number_is_usage_error(write_config, capsys, config, argv, message):
    path = Path(write_config()).with_name(config)
    assert run([*argv, "--config", str(path)]) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["error"] == {"type": "usage-error", "message": message}


# Token texts on which Python's int() or float() and JSON disagree, JSON's own spellings of
# the non-finite, the int64 edges, whitespace padding, and real JSON numbers.
GRAMMAR_TOKENS = [
    "\u0661", "1_0", "+1", ".5", "1.", "nan", "inf", "-inf", "NaN", "Infinity", "-Infinity", "1e400",
    "-1e400", str(2 ** 63 - 1), str(2 ** 63), str(-2 ** 63), str(-2 ** 63 - 1), " 1 ", "\t-2\n", "0",
    "-0", "-0.0", "1.0", "1e5", "2.5e-3", "0.30000000000000004", "true", "null", '"3"', "[1]", "",
    "x", "0x10", "01",
]
# Each argv number reads like one config field: --m like seed, a lambda like state.dephase.
_TWINS = {"--m": (["coherence", "--n", "0"], '{"seed": %s}', lambda cfg: _field(cfg, "seed", _as_int)),
          "--lambdas": (["monitor"], '{"state": {"kind": "fock", "n": 0, "dephase": %s}}',
                        lambda cfg: _field(cfg["state"], "state.dephase", _as_float))}


def _argv_reads(option: str, token: str):
    """The value the parser reads for option from token, or None if argv is rejected.

    The token is joined to its option, so that argparse's guess whether a separate
    token that starts with '-' is an option stays out of the comparison.
    """
    argv = [*_TWINS[option][0], "--config", "config.json", f"{option}={token}"]
    try:
        args = _build_parser().parse_args(argv)
    except UsageError:
        return None
    return args.m if option == "--m" else args.lambdas


def _config_reads(option: str, token: str, path: Path):
    """The value option's config field reads from a config holding token, or None if the config is rejected."""
    _, template, read = _TWINS[option]
    path.write_text(template % token, encoding="utf-8")
    try:
        return read(load_config(str(path)))
    except ConfigError:
        return None


def _assert_one_grammar(option: str, token: str, path: Path) -> None:
    expected = _config_reads(option, token, path)
    if option == "--lambdas" and expected is not None:
        expected = [expected]
    got = _argv_reads(option, token)
    # repr tells -0.0 from 0.0 and an int from a float
    assert repr(got) == repr(expected), (option, token)


@pytest.fixture(scope="module")
def grammar_config(tmp_path_factory):
    return tmp_path_factory.mktemp("grammar") / "config.json"


@pytest.mark.parametrize("option", list(_TWINS))
@pytest.mark.parametrize("token", GRAMMAR_TOKENS, ids=[repr(token) for token in GRAMMAR_TOKENS])
def test_argv_number_reads_as_the_config_reads_it(grammar_config, option, token):
    _assert_one_grammar(option, token, grammar_config)


_TOKEN_TEXTS = st.one_of(
    st.sampled_from(GRAMMAR_TOKENS),
    st.integers(-2 ** 70, 2 ** 70).map(str),
    st.floats().map(repr), st.floats().map(json.dumps),
    st.tuples(st.sampled_from(["", " ", "\t", "\n"]), st.integers().map(str),
              st.sampled_from(["", " ", "\r\n"])).map("".join),
    st.text(alphabet="0123456789.-+eE_ \u0661xnaIfity", max_size=6),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=4),
).filter(lambda token: "," not in token)


# An argv token is accepted exactly when a config holding the same text is, and reads the
# same Python value. A comma would split a lambda list, so no token holds one.
@settings(max_examples=300, deadline=None, derandomize=True)
@given(option=st.sampled_from(list(_TWINS)), token=_TOKEN_TEXTS)
def test_argv_number_grammar_is_the_config_grammar(grammar_config, option, token):
    _assert_one_grammar(option, token, grammar_config)


# One output rule for every subcommand: the record goes to --out if given, else to stdout, in
# the --format given, byte for byte the same either way and with the same exit code.
OUTPUT_RUNS = {"reconstruct": ["reconstruct"], "coherence": ["coherence", "--m", "1", "--n", "0"],
               "monitor": ["monitor", "--lambdas", "0,0.3"], "validate": ["validate"],
               "validate-compat": ["validate", "--compat-rminus-final"]}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", list(OUTPUT_RUNS))
def test_output_follows_out_and_format(write_config, tmp_path, capsys, name, fmt):
    cfg = write_config(dims={"dx": 5, "dz": 5}, nmax=1,
                       state={"kind": "coherent", "alpha": 0.5, "tail_tol": 1e-2})
    argv = [*OUTPUT_RUNS[name], "--config", cfg, "--format", fmt]
    code = 1 if name == "validate-compat" else 0
    assert run(argv) == code
    stdout = capsys.readouterr().out
    out = tmp_path / f"out.{fmt}"
    assert run([*argv, "--out", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode("utf-8")


# A rejected config number is named by its full path, as a missing field is.
@pytest.mark.parametrize("state,message", [
    ({"kind": "raw", "amplitudes": [1, 0, "x", 0]},
     "field 'state.amplitudes[2]' must be a finite number, got 'x'"),
    ({"kind": "raw", "amplitudes": [1, {"re": 0, "im": None}, 0, 0]},
     "field 'state.amplitudes[1].im' must be a finite number, got None"),
    ({"kind": "coherent", "alpha": {"re": 0.5, "im": "x"}},
     "field 'state.alpha.im' must be a finite number, got 'x'"),
    ({"kind": "coherent", "alpha": {"re": True, "im": 0}},
     "field 'state.alpha.re' must be a finite number, got True"),
], ids=["amplitude", "amplitude-part", "alpha-im", "alpha-re"])
def test_bad_number_names_its_full_path(write_config, capsys, state, message):
    cfg = write_config(dims={"dx": 4, "dz": 4}, state=state)
    assert run(["reconstruct", "--config", cfg]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["error"] == {"type": "config-error", "message": message}


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


# A cutoff whose first array takes 7 or 14 PiB, far past the 128 TiB of address space a 64-bit
# process is given by default, so its allocation fails before any memory is touched.
HUGE_CUTOFF_STATES = [{"kind": "fock", "n": 1}, {"kind": "thermal", "nbar": 0.5},
                      {"kind": "coherent", "alpha": 0.5}]
HUGE_CUTOFF_RUNS = [(command, state) for command in ("reconstruct", "coherence", "monitor", "validate")
                    for state in HUGE_CUTOFF_STATES]


@pytest.mark.parametrize("command,state", HUGE_CUTOFF_RUNS,
                         ids=[f"{command}-{state['kind']}" for command, state in HUGE_CUTOFF_RUNS])
def test_unallocatable_cutoff_is_invalid_arguments(write_config, capsys, command, state):
    cfg = write_config(dims={"dx": 10 ** 15, "dz": 10 ** 15}, state=state)
    args = {"coherence": ["--m", "0", "--n", "0"], "monitor": ["--lambdas", "0"]}.get(command, [])
    assert run([command, "--config", cfg, *args]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error["type"] == "invalid-arguments"
    assert re.fullmatch(r"Unable to allocate [\d.]+ PiB for an array with shape \(\d+,\) "
                        r"and data type \w+", error["message"]), error["message"]


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


# Well-formed JSON of the wrong form at each level the config reader walks, with the one
# message that names the fault; none of these is the library's to reject.
MISSHAPEN_CONFIGS = [
    ("root-list", "[1, 2]", "config root must be a JSON object"),
    ("pair-extra-key", {"state": {"kind": "coherent", "alpha": {"re": 0.5, "im": 0.1, "x": 1}}},
     "field 'state.alpha' must be a finite number or an {re, im} pair, got {'re': 0.5, 'im': 0.1, 'x': 1}"),
    ("amplitudes-object", {"state": {"kind": "raw", "amplitudes": {"re": 1.0, "im": 0.0}}},
     "state.amplitudes must be a list"),
    ("dims-list", {"dims": [8, 8]}, "config field 'dims' must be an object with dx and dz"),
    ("dims-without-dz", {"dims": {"dx": 8}}, "config field 'dims' must be an object with dx and dz"),
    ("state-string", {"state": "fock"}, "config field 'state' must be an object"),
]


@pytest.mark.parametrize("config,message", [case[1:] for case in MISSHAPEN_CONFIGS],
                         ids=[case[0] for case in MISSHAPEN_CONFIGS])
def test_misshapen_config_is_config_error(write_config, tmp_path, capsys, config, message):
    if isinstance(config, str):
        path = tmp_path / "config.json"
        path.write_text(config)
        config = str(path)
    else:
        config = write_config(**config)
    assert run(["reconstruct", "--config", config]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {"error": {"type": "config-error", "message": message}}


@pytest.mark.parametrize("argv", [["--out", "missing-dir/out.json"], ["--out", ""],
                                  ["--out", "missing-dir/out.csv", "--format", "csv"]],
                         ids=["out-missing-dir", "flag-out-empty", "csv-out-missing-dir"])
def test_bad_output_target_is_structured_error(write_config, capsys, monkeypatch, tmp_path, argv):
    # either format's writer names the path it could not open, and nothing reaches stdout but
    # the error record
    monkeypatch.chdir(tmp_path)
    cfg = write_config()
    assert run(["reconstruct", "--config", cfg, *argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error["type"] == "invalid-arguments"
    assert error["message"].startswith(f"cannot write output {argv[1]}: ")


def test_every_documented_field_is_accepted(write_config, tmp_path):
    out = tmp_path / "out.csv"
    cfg = write_config(shots=100,
                       state={"kind": "squeezed", "r": 0.1, "phi": 0.2, "tail_tol": 1e-3, "dephase": 0.1})
    assert run(["reconstruct", "--config", cfg, "--out", str(out), "--format", "csv"]) == 0
    assert out.read_text().startswith("m,n,re,im,stderr\n")


# Each kind's state block that builds at d = 8, and for each field the kind allows, a value that
# must change what build_state returns or raises: a tail_tol below the state's tail mass, and a
# dephase that mixes a state with coherences or, on a diagonal one, is out of range.
STATE_BASES = {
    "fock": ({"kind": "fock", "n": 1}, {"n": 2, "dephase": -1.0}),
    "coherent": ({"kind": "coherent", "alpha": 0.5, "tail_tol": 1e-3},
                 {"alpha": {"re": 0.5, "im": 0.1}, "tail_tol": 1e-30, "dephase": 0.5}),
    "squeezed": ({"kind": "squeezed", "r": 0.3, "tail_tol": 1e-3},
                 {"r": 0.4, "phi": 1.0, "tail_tol": 1e-30, "dephase": 0.5}),
    "cat": ({"kind": "cat", "alpha": 0.5, "parity": "even", "tail_tol": 1e-3},
            {"alpha": 0.6, "parity": "odd", "tail_tol": 1e-30, "dephase": 0.5}),
    "thermal": ({"kind": "thermal", "nbar": 0.3, "tail_tol": 1e-3},
                {"nbar": 0.4, "tail_tol": 1e-30, "dephase": -1.0}),
    "raw": ({"kind": "raw", "amplitudes": [0.6, 0.8]},
            {"amplitudes": [0.8, {"re": 0.0, "im": 0.6}], "dephase": 0.5}),
}
STATE_FIELD_CASES = [(kind, field) for kind, (_, changes) in STATE_BASES.items() for field in changes]


def _built(state: dict):
    """What build_state makes of a state block at d = 8: the state's numbers, or the error it raises."""
    try:
        phi = build_state({"state": state}, 8)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return phi.is_pure, phi.density_matrix().tolist(), phi.tail_mass


def test_state_field_cases_cover_the_table():
    # a field a kind reads and no case below changes could be ignored without a test failing
    assert {kind: set(changes) for kind, (_, changes) in STATE_BASES.items()} == \
        {kind: {"dephase", *(name for name, *_ in fields)} for kind, (_, fields) in _state_kinds().items()}


@pytest.mark.parametrize("kind,field", STATE_FIELD_CASES, ids=[f"{k}-{f}" for k, f in STATE_FIELD_CASES])
def test_every_allowed_state_field_is_read(kind, field):
    base, changes = STATE_BASES[kind]
    built = _built(base)
    assert built[0] in (True, False), built  # the base block builds a state
    changed = _built({**base, field: changes[field]})
    assert changed != built and changed[0] != "ConfigError", changed  # each changed value is well-formed


@pytest.mark.parametrize("kind", ["coherent", "squeezed", "cat", "thermal"])
def test_absent_tail_tol_is_the_constructors_default(kind):
    # each base leaks more than DEFAULT_TAIL_TOL past d = 8, so the default is the tolerance it breaks
    state = {key: value for key, value in STATE_BASES[kind][0].items() if key != "tail_tol"}
    with pytest.raises(TruncationLeakageError) as info:
        build_state({"state": state}, 8)
    assert info.value.tail_tol == DEFAULT_TAIL_TOL


def test_absent_phi_is_zero():
    state = STATE_BASES["squeezed"][0]
    assert _built(state) == _built({**state, "phi": 0.0}) != _built({**state, "phi": 1e-3})


def test_state_builders_are_called_by_their_cli_names(monkeypatch):
    # perfbench/child.py times state construction by wrapping these attributes of the cli module
    called = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            called.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("fock", "coherent", "squeezed", "cat", "thermal", "from_amplitudes", "dephase"):
        monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
    for base, _ in STATE_BASES.values():
        build_state({"state": {**base, "dephase": 0.1}}, 8)
    assert called == ["fock", "dephase", "coherent", "dephase", "squeezed", "dephase", "cat", "dephase",
                      "thermal", "dephase", "from_amplitudes", "dephase"]


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_COMPLEX = st.one_of(_FINITE, st.fixed_dictionaries({"re": _FINITE, "im": _FINITE}))
# An optional field may be null, which is no number either.
_OPTIONAL = {"tail_tol": st.one_of(_FINITE, st.none()), "dephase": st.one_of(_FINITE, st.none())}
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
# Spellings that Python's int() or float() reads but JSON does not, and JSON's non-finite ones.
_NOT_JSON = st.sampled_from(["\u0661", "1_0", "+1", ".5", "1.", "nan", "inf", "NaN", "Infinity", "1e400"])
_INDEX = _mostly(st.integers(0, 6).map(str), st.one_of(st.integers(-2 ** 70, 2 ** 70).map(str), _NOT_JSON,
                                                       st.sampled_from([" 1 ", "1.0", "-x", "x", ""])))
_LAMBDAS = _mostly(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4).map(sorted).map(
    lambda lams: ",".join(map(repr, lams))),
    st.lists(st.one_of(_FINITE.map(repr), _NOT_JSON, st.sampled_from(["-inf", "x", "", "-x", "-0.5", "-"])),
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
                argv += [flag, draw(_INDEX)]
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
    if lines and lines[0].startswith("{\"error\""):
        assert len(lines) == 1 and written is None
        error = json.loads(lines[0])["error"]
        assert code != 0
        assert error["type"] != "internal-error", error
        assert "non-finite" not in error["message"], error
        return
    # the numbers went where the --out flag put them, else to stdout
    assert (written is not None) == ("--out" in argv)
    assert written is None or not lines
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    text = "\n".join(lines) if written is None else written
    if fmt == "csv":
        # every column is numeric but validate's check name and verdict
        header, *rows = [row.split(",") for row in text.splitlines()]
        numeric = [i for i, name in enumerate(header) if name not in ("name", "passed")]
        values = [float(row[i]) for row in rows for i in numeric]
        passed = all(row[header.index("passed")] == "true" for row in rows) if "passed" in header else True
    else:
        doc = json.loads(text)
        values = _numbers(doc)
        passed = doc.get("passed", True)
    # a run that wrote its numbers exits 0, or 1 when a validate check failed
    assert code == (0 if passed else 1)
    assert values and all(math.isfinite(v) for v in values)
