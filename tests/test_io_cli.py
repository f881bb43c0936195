"""JSON file formats, run configuration, and the command-line interface."""

import json
import math

import numpy as np
import pytest

from bintab import (
    BinaryTable,
    InvalidTableError,
    RunConfig,
    battery_to_dict,
    canonicalize,
    decompose,
    decomposition_to_dict,
    full_params,
    load_paramset,
    load_table,
    lor,
    property_battery,
    report_envelope,
    save_paramset,
    save_table,
    trace_to_dict,
)
from bintab import DI
from bintab.cli import main
from bintab.io import paramset_from_dict, table_from_dict


@pytest.fixture
def table_file(tmp_path):
    path = tmp_path / "t.json"
    save_table(BinaryTable.from_entries([2, 3, 4, 5]), path)
    return str(path)


@pytest.fixture
def stack_file(tmp_path):
    path = tmp_path / "stack.json"
    save_table(BinaryTable.from_entries([6, 5, 5, 7, 3, 1, 3, 7]), path)
    return str(path)


class TestTableFiles:
    def test_floats_round_trip_bit_identically(self, tmp_path):
        t = BinaryTable.from_entries([0.1, 0.2, 1 / 3, 119.50732725266027])
        path = tmp_path / "t.json"
        save_table(t, path)
        back = load_table(path)
        assert np.array_equal(back.entries, t.entries)

    def test_labels_round_trip_and_validation(self, tmp_path):
        t = BinaryTable.from_entries([1, 2, 3, 4])
        path = tmp_path / "t.json"
        save_table(t, path, labels=["exposure", "outcome"])
        payload = json.loads(path.read_text())
        assert payload["labels"] == ["exposure", "outcome"]
        assert load_table(path).allclose(t, rtol=0)
        with pytest.raises(InvalidTableError, match="labels"):
            table_from_dict({"k": 2, "entries": [1, 2, 3, 4], "labels": ["only-one"]})

    def test_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"k": 2, "entries": [1, 2,]}')
        with pytest.raises(InvalidTableError, match=r"line 1, column 27"):
            load_table(path)

    def test_field_diagnostics(self):
        with pytest.raises(InvalidTableError, match="entries"):
            table_from_dict({"k": 2})
        with pytest.raises(InvalidTableError, match="list of numbers"):
            table_from_dict({"entries": ["a", "b"]})
        with pytest.raises(InvalidTableError, match="'k'"):
            table_from_dict({"k": "two", "entries": [1, 2]})
        with pytest.raises(InvalidTableError):
            table_from_dict({"k": 3, "entries": [1, 2, 3, 4]})
        with pytest.raises(InvalidTableError, match="'k'"):
            table_from_dict({"k": True, "entries": [1, 2]})
        with pytest.raises(InvalidTableError, match="JSON object"):
            table_from_dict([1, 2, 3, 4])


class TestParamFiles:
    def test_round_trip(self, tmp_path):
        ps = full_params(BinaryTable.from_entries([2, 3, 4, 5]), "lor")
        path = tmp_path / "p.json"
        save_paramset(ps, path)
        back = load_paramset(path)
        assert back.k == 2 and back.kind == "lor"
        assert np.array_equal(back.values, ps.values)

    def test_layout_is_flat_bitstring_keys(self, tmp_path):
        ps = full_params(BinaryTable.from_entries([2, 3, 4, 5]), "di")
        path = tmp_path / "p.json"
        save_paramset(ps, path)
        payload = json.loads(path.read_text())
        assert payload == {"k": 2, "kind": "di", "00": 14.0, "01": -2.0, "10": -4.0, "11": 0.0}

    def test_load_unwraps_report_envelope(self, capsys, table_file, tmp_path):
        assert main(["params", table_file, "--kind", "lor", "--full"]) == 0
        path = tmp_path / "envelope.json"
        path.write_text(capsys.readouterr().out)
        want = full_params(BinaryTable.from_entries([2, 3, 4, 5]), "lor")
        assert np.array_equal(load_paramset(path).values, want.values)

    def test_missing_mask_reported(self):
        with pytest.raises(InvalidTableError, match="'01'"):
            paramset_from_dict({"k": 2, "kind": "di", "00": 1.0, "10": 2.0, "11": 3.0})

    def test_bad_fields(self):
        with pytest.raises(InvalidTableError, match="kind"):
            paramset_from_dict({"k": 2, "kind": "ex"})
        with pytest.raises(InvalidTableError, match="length"):
            paramset_from_dict({"k": 1, "kind": "di", "00": 1.0, "0": 0.0, "1": 0.0})
        with pytest.raises(InvalidTableError):
            paramset_from_dict({"k": 1, "kind": "di", "0": 1.0, "1": "x"})


class TestReportPieces:
    def test_trace_and_decomposition_are_json_ready(self):
        t = BinaryTable.from_entries([3, 1, 1, 2])
        trace = json.dumps(trace_to_dict(canonicalize(t)))
        assert '"final"' in trace
        d = json.loads(json.dumps(decomposition_to_dict(decompose(t))))
        assert d["case"] == "positive"
        assert d["peak_components"][0]["cell"] == [1, 1]

    def test_battery_witnesses_serialize(self):
        summary = property_battery(DI, 2, 5, seed=1)
        payload = json.loads(json.dumps(battery_to_dict(summary)))
        w = payload["witnesses"]["conditional_invariance"][0]
        assert set(w["table"]) == {"k", "entries"}

    def test_envelope_shape(self):
        config = RunConfig(seed=5)
        env = report_envelope("params", config, {"value": 1.0})
        assert env["tool"] == "bintab" and env["command"] == "params"
        assert env["config"]["seed"] == 5
        assert set(env["config"]) == {"seed", "tol", "max_iter", "output_format"}
        assert env["result"] == {"value": 1.0}


class TestRunConfig:
    def test_zero_seed_replaced_from_entropy(self):
        a, b = RunConfig(seed=0), RunConfig(seed=0)
        assert a.seed != 0 and b.seed != 0
        assert a.seed != b.seed

    def test_explicit_values_kept(self):
        c = RunConfig(seed=42, tol=1e-6, max_iter=50)
        assert (c.seed, c.tol, c.max_iter) == (42, 1e-6, 50)

    def test_format_validated(self):
        with pytest.raises(InvalidTableError):
            RunConfig(seed=1, output_format="xml")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCliParams:
    def test_default_lor_value(self, capsys, table_file):
        code, out = run_cli(capsys, "params", table_file)
        assert code == 0
        env = json.loads(out)
        assert env["tool"] == "bintab" and env["command"] == "params"
        assert env["config"]["seed"] != 0
        want = lor(BinaryTable.from_entries([2, 3, 4, 5]))
        assert env["result"]["value"] == pytest.approx(want, rel=1e-12)

    def test_full_paramset_and_out_file(self, capsys, table_file, tmp_path):
        out_path = tmp_path / "params.json"
        code, out = run_cli(
            capsys, "params", table_file, "--kind", "di", "--full", "--out", str(out_path)
        )
        assert code == 0
        assert json.loads(out)["result"]["00"] == 14.0
        assert load_paramset(out_path).as_dict()["10"] == -4.0

    def test_ex_overflow_exits_numeric(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        save_table(BinaryTable.from_entries([1000.0, 1.0, 1.0, 1.0]), path)
        code, out = run_cli(capsys, "params", str(path), "--kind", "ex")
        assert code == 3
        assert json.loads(out)["error"]["type"] == "EvaluationError"

    def test_missing_file_exits_input(self, capsys):
        code, out = run_cli(capsys, "params", "/nonexistent/t.json")
        assert code == 2
        assert "error" in json.loads(out)

    def test_invalid_json_exits_input(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, out = run_cli(capsys, "params", str(path))
        assert code == 2
        assert "line 1" in json.loads(out)["error"]["message"]


class TestCliReconstruct:
    def test_di_round_trip_through_files(self, capsys, table_file, tmp_path):
        params_path, out_path = tmp_path / "p.json", tmp_path / "back.json"
        run_cli(capsys, "params", table_file, "--kind", "di", "--full",
                "--out", str(params_path))
        code, out = run_cli(capsys, "reconstruct", str(params_path), "--out", str(out_path))
        assert code == 0
        assert load_table(out_path).entries.tolist() == [2.0, 3.0, 4.0, 5.0]

    def test_lor_round_trip(self, capsys, table_file, tmp_path):
        params_path = tmp_path / "p.json"
        run_cli(capsys, "params", table_file, "--kind", "lor", "--full",
                "--out", str(params_path))
        code, out = run_cli(capsys, "reconstruct", str(params_path))
        assert code == 0
        got = json.loads(out)["result"]["entries"]
        assert got == pytest.approx([2, 3, 4, 5], rel=1e-6)

    def test_accepts_report_envelope_as_input(self, capsys, table_file, tmp_path):
        code, out = run_cli(capsys, "params", table_file, "--kind", "di", "--full")
        envelope_path = tmp_path / "envelope.json"
        envelope_path.write_text(out)
        code, out = run_cli(capsys, "reconstruct", str(envelope_path))
        assert code == 0
        assert json.loads(out)["result"]["entries"] == [2.0, 3.0, 4.0, 5.0]

    def test_nonrealizable_di_exits_numeric_with_entries(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"k": 1, "kind": "di", "0": 2.0, "1": 4.0}')
        code, out = run_cli(capsys, "reconstruct", str(path))
        assert code == 3
        err = json.loads(out)["error"]
        assert err["type"] == "NonRealizableParamsError"
        assert err["entries"] == [3.0, -1.0]

    @pytest.mark.parametrize("payload", [
        '{"k": 60, "kind": "di"}',
        '{"k": -1, "kind": "di"}',
        '{"k": true, "kind": "di", "0": 1.0, "1": 0.5}',
    ], ids=["k-too-large", "k-negative", "k-bool"])
    def test_out_of_range_k_exits_input(self, capsys, tmp_path, payload):
        path = tmp_path / "p.json"
        path.write_text(payload)
        code, out = run_cli(capsys, "reconstruct", str(path))
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "InvalidTableError" and "'k'" in err["message"]

    def test_convergence_failure_exits_numeric_with_residual(self, capsys, table_file, tmp_path):
        params_path = tmp_path / "p.json"
        run_cli(capsys, "params", table_file, "--kind", "lor", "--full",
                "--out", str(params_path))
        code, out = run_cli(capsys, "reconstruct", str(params_path),
                            "--tol", "1e-14", "--max-iter", "1")
        assert code == 3
        err = json.loads(out)["error"]
        assert err["type"] == "ConvergenceError"
        assert err["residual"] > 0


class TestCliSimpson:
    def test_ex_paradox_flagged(self, capsys, stack_file):
        code, out = run_cli(capsys, "simpson", stack_file, "--kind", "ex")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["any_paradox"]
        by_var = {r["variable"]: r for r in result["reports"]}
        assert by_var[3]["layer_signs"] == [1, 1]
        assert by_var[3]["collapsed_sign"] == -1

    def test_lor_clean(self, capsys, stack_file):
        code, out = run_cli(capsys, "simpson", stack_file, "--kind", "lor")
        assert code == 0
        assert not json.loads(out)["result"]["any_paradox"]

    def test_default_kind_grid(self, capsys, stack_file):
        code, out = run_cli(capsys, "simpson", stack_file)
        reports = json.loads(out)["result"]["reports"]
        assert [(r["variable"], r["kind"]) for r in reports] == [
            (1, "lor"), (1, "di"), (2, "lor"), (2, "di"), (3, "lor"), (3, "di"),
        ]


class TestCliSearch:
    def test_lor_witness_found_and_written(self, capsys, tmp_path):
        out_path = tmp_path / "witness.json"
        code, out = run_cli(capsys, "search", "--kind", "lor", "--k", "3",
                            "--trials", "100", "--seed", "1", "--out", str(out_path))
        assert code == 0
        result = json.loads(out)["result"]
        assert result["reports"] and result["reports"][0]["paradox"]
        assert load_table(out_path).k == 3

    def test_deterministic(self, capsys):
        _, out1 = run_cli(capsys, "search", "--kind", "lor", "--k", "3",
                          "--trials", "100", "--seed", "1")
        _, out2 = run_cli(capsys, "search", "--kind", "lor", "--k", "3",
                          "--trials", "100", "--seed", "1")
        assert json.loads(out1)["result"] == json.loads(out2)["result"]

    def test_di_exhausts_budget(self, capsys):
        code, out = run_cli(capsys, "search", "--kind", "di", "--k", "3",
                            "--trials", "50", "--seed", "1")
        assert code == 4
        assert json.loads(out)["result"]["witness"] is None

    def test_k1_rejected(self, capsys):
        code, out = run_cli(capsys, "search", "--kind", "lor", "--k", "1",
                            "--trials", "5", "--seed", "1")
        assert code == 2


class TestCliStructure:
    def test_canonical_fixed_point(self, capsys, tmp_path):
        path, out_path = tmp_path / "c.json", tmp_path / "final.json"
        save_table(BinaryTable.from_entries([5, 1, 1, 1]), path)
        code, out = run_cli(capsys, "canonical", str(path), "--out", str(out_path))
        assert code == 0
        result = json.loads(out)["result"]
        assert result["final"]["entries"] == [5.0, 1.0, 1.0, 1.0]
        assert len(result["steps"]) == 2
        assert load_table(out_path).entries.tolist() == [5.0, 1.0, 1.0, 1.0]

    def test_decompose_report(self, capsys, table_file):
        code, out = run_cli(capsys, "decompose", table_file)
        assert code == 0
        result = json.loads(out)["result"]
        assert result["s"] == 2.0 and result["case"] == "zero"
        assert len(result["pair_components"]) == 3
        assert result["peak_components"] == []


class TestCliPower:
    def test_json_row(self, capsys):
        code, out = run_cli(capsys, "power", "--N", "1000", "--p", "0.525")
        assert code == 0
        row = json.loads(out)["result"]
        assert row["exact"] == pytest.approx(0.9395368368415716, rel=1e-9)
        assert row["normal"] == pytest.approx(0.9433028243608111, rel=1e-12)
        assert row["empirical"] is None

    def test_csv_row_with_mc(self, capsys):
        code, out = run_cli(capsys, "power", "--N", "1000", "--p", "0.525",
                            "--format", "csv", "--mc", "2000", "--seed", "1")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "N,p,exact,normal,empirical"
        fields = row.split(",")
        assert fields[0] == "1000" and fields[1] == "0.525"
        assert abs(float(fields[4]) - float(fields[2])) < 0.05

    def test_table_source(self, capsys, stack_file):
        code, out = run_cli(capsys, "power", "--N", "100", "--table", stack_file)
        assert code == 0
        assert json.loads(out)["result"]["p"] == pytest.approx(17 / 37, rel=1e-12)

    def test_requires_exactly_one_source(self, capsys, stack_file):
        code, _ = run_cli(capsys, "power", "--N", "100")
        assert code == 2
        code, _ = run_cli(capsys, "power", "--N", "100", "--p", "0.5",
                          "--table", stack_file)
        assert code == 2

    def test_bad_mass_exits_input(self, capsys):
        code, _ = run_cli(capsys, "power", "--N", "100", "--p", "1.5")
        assert code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("bintab ")


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
