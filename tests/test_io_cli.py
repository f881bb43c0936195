"""JSON file formats, the report envelope, and the command-line interface."""

import io
import json
import math

import numpy as np
import pytest

from bintab import (
    BinaryTable,
    InvalidTableError,
    canonicalize,
    decompose,
    full_params,
    load_paramset,
    load_table,
    lor,
    paramset_to_dict,
    property_battery,
    report_envelope,
    save_paramset,
    save_table,
    to_jsonable,
)
from bintab import DI, LOR, ParamSet
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

    def test_file_objects_round_trip(self):
        t = BinaryTable.from_entries([0.1, 0.2, 1 / 3, 119.50732725266027])
        buffer = io.StringIO()
        save_table(t, buffer)
        assert json.loads(buffer.getvalue()) == {"k": 2, "entries": t.entries.tolist()}
        buffer.seek(0)
        assert np.array_equal(load_table(buffer).entries, t.entries)

    def test_save_needs_a_destination(self):
        t = BinaryTable.from_entries([1, 2, 3, 4])
        with pytest.raises(TypeError):
            save_table(t, None)
        with pytest.raises(TypeError):
            save_paramset(full_params(t, DI), None)

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
        with pytest.raises(InvalidTableError, match="list of numbers"):
            table_from_dict({"entries": [True, True]})
        with pytest.raises(InvalidTableError, match="expected 2 labels, got 1"):
            table_from_dict({"entries": [1, 2, 3, 4], "labels": ["a"]})
        with pytest.raises(InvalidTableError, match="JSON object"):
            table_from_dict([1, 2, 3, 4])
        for labels in ("ab", ["a", 2], {"a": "b"}):
            with pytest.raises(InvalidTableError, match="^field 'labels' must be a list of str"):
                table_from_dict({"entries": [1, 2, 3, 4], "labels": labels})


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

    def test_file_objects_round_trip(self):
        ps = full_params(BinaryTable.from_entries([2, 3, 4, 5]), "lor")
        buffer = io.StringIO()
        save_paramset(ps, buffer)
        buffer.seek(0)
        back = load_paramset(buffer)
        assert back.k == 2 and back.kind == "lor"
        assert np.array_equal(back.values, ps.values)

    def test_missing_mask_reported(self):
        with pytest.raises(InvalidTableError, match="'01'"):
            paramset_from_dict({"k": 2, "kind": "di", "00": 1.0, "10": 2.0, "11": 3.0})
        with pytest.raises(InvalidTableError, match="''"):
            paramset_from_dict({"k": 0, "kind": "lor"})

    @pytest.mark.parametrize("key", ["0x", "000", "0b1", " 1", "1_0", "+1"])
    def test_mask_key_must_be_k_bits(self, key):
        payload = {"k": 2, "kind": "di", "00": 1.0, "01": 2.0, "10": 3.0, "11": 4.0}
        payload[key] = 0.0
        with pytest.raises(InvalidTableError, match="bitstring of length 2"):
            paramset_from_dict(payload)

    def test_kind_object_round_trip(self, tmp_path):
        values = full_params(BinaryTable.from_entries([2, 3, 4, 5]), LOR).values
        path = tmp_path / "p.json"
        save_paramset(ParamSet(2, LOR, values), path)
        back = load_paramset(path)
        assert back.kind == "lor" and np.array_equal(back.values, values)

    @pytest.mark.parametrize("kind", ["di", "lor"])
    def test_zero_dim_round_trip_through_cli(self, capsys, tmp_path, kind):
        table_path, params_path = tmp_path / "t0.json", tmp_path / "p.json"
        save_table(BinaryTable.from_entries([3.0]), table_path)
        assert main(["params", str(table_path), "--kind", kind, "--full",
                     "--out", str(params_path)]) == 0
        assert set(json.loads(params_path.read_text())) == {"k", "kind", ""}
        capsys.readouterr()
        assert main(["reconstruct", str(params_path)]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["entries"] == [
            pytest.approx(3.0, rel=1e-12)]

    @pytest.mark.parametrize("payload", [[1.0, 2.0], "di", 3.0, None])
    def test_payload_must_be_an_object(self, payload):
        with pytest.raises(InvalidTableError, match="^parameter file must be a JSON object$"):
            paramset_from_dict(payload)

    def test_bad_fields(self):
        with pytest.raises(InvalidTableError, match="kind"):
            paramset_from_dict({"k": 2, "kind": "ex"})
        with pytest.raises(InvalidTableError, match="length"):
            paramset_from_dict({"k": 1, "kind": "di", "00": 1.0, "0": 0.0, "1": 0.0})
        with pytest.raises(InvalidTableError):
            paramset_from_dict({"k": 1, "kind": "di", "0": 1.0, "1": "x"})
        with pytest.raises(InvalidTableError, match="must be a number"):
            paramset_from_dict({"k": 1, "kind": "di", "0": True, "1": False})


class TestReportPieces:
    def test_trace_and_decomposition_are_json_ready(self):
        t = BinaryTable.from_entries([3, 1, 1, 2])
        trace = json.dumps(to_jsonable(canonicalize(t)))
        assert '"final"' in trace
        d = json.loads(json.dumps(to_jsonable(decompose(t))))
        assert d["case"] == "positive"
        assert d["peak_components"][0]["cell"] == [1, 1]

    def test_battery_witnesses_serialize(self):
        summary = property_battery(DI, 2, 5, seed=1)
        payload = json.loads(json.dumps(to_jsonable(summary)))
        w = payload["witnesses"]["conditional_invariance"][0]
        assert set(w["table"]) == {"k", "entries"}

    def test_envelope_shape(self):
        env = report_envelope("search", {"seed": 5}, {"witness": None})
        assert set(env) == {"tool", "version", "command", "config", "result"}
        assert env["tool"] == "bintab" and env["command"] == "search"
        assert env["config"] == {"seed": 5}
        assert env["result"] == {"witness": None}


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
        assert env["config"] == {}
        want = lor(BinaryTable.from_entries([2, 3, 4, 5]))
        assert env["result"]["value"] == pytest.approx(want, rel=1e-12)

    def test_full_paramset_and_out_file(self, capsys, table_file, tmp_path):
        out_path = tmp_path / "params.json"
        code, out = run_cli(
            capsys, "params", table_file, "--kind", "di", "--full", "--out", str(out_path)
        )
        assert code == 0
        assert json.loads(out)["result"]["00"] == 14.0
        assert paramset_to_dict(load_paramset(out_path))["10"] == -4.0

    def test_out_without_full_exits_input(self, capsys, table_file, tmp_path):
        # only --full makes a parameter set, so --out alone would write nothing
        out_path = tmp_path / "params.json"
        code, out = run_cli(capsys, "params", table_file, "--out", str(out_path))
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "InvalidTableError" and "--full" in error["message"]
        assert not out_path.exists()

    def test_ex_overflow_exits_numeric(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        save_table(BinaryTable.from_entries([1000.0, 1.0, 1.0, 1.0]), path)
        code, out = run_cli(capsys, "params", str(path), "--kind", "ex")
        assert code == 3
        assert json.loads(out)["error"]["type"] == "EvaluationError"

    @pytest.mark.parametrize("entries, code", [([1e308] * 4, 0), ([1e308, 1.0, 1.0, 1e308], 3)])
    def test_di_sums_beyond_float_range(self, capsys, tmp_path, entries, code):
        # the first value is exactly 0; the second overflows the float range
        path = tmp_path / "big.json"
        save_table(BinaryTable.from_entries(entries), path)
        got, out = run_cli(capsys, "params", str(path), "--kind", "di")
        assert got == code
        if code == 0:
            assert json.loads(out)["result"] == {"kind": "di", "value": 0.0}
        else:
            assert json.loads(out)["error"]["type"] == "EvaluationError"

    def test_full_di_beyond_float_range_exits_numeric(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        save_table(BinaryTable.from_entries([1e308] * 4), path)
        code, out = run_cli(capsys, "params", str(path), "--kind", "di", "--full")
        assert code == 3
        assert json.loads(out)["error"]["type"] == "EvaluationError"

    def test_kind_resolved_by_name(self, capsys, table_file):
        code, out = run_cli(capsys, "params", table_file, "--kind", "DI")
        assert code == 0 and json.loads(out)["result"]["kind"] == "di"
        code, out = run_cli(capsys, "params", table_file, "--kind", "nope")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InvalidTableError"

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


    def test_zero_max_iter_exits_input(self, capsys, table_file, tmp_path):
        params_path = tmp_path / "p.json"
        run_cli(capsys, "params", table_file, "--kind", "lor", "--full",
                "--out", str(params_path))
        code, out = run_cli(capsys, "reconstruct", str(params_path), "--max-iter", "0")
        assert code == 2
        assert json.loads(out)["error"] == {"type": "InvalidTableError",
                                            "message": "max_iter must be an integer >= 1, got 0"}


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

    def test_negative_trials_exits_input(self, capsys):
        code, out = run_cli(capsys, "search", "--kind", "lor", "--k", "3",
                            "--trials", "-5", "--seed", "1")
        assert code == 2
        error = json.loads(out)["error"]
        assert error == {"type": "InvalidTableError",
                         "message": "trials must be an integer >= 0, got -5"}

    def test_excessive_k_exits_input(self, capsys):
        # checked before a single 2^k draw is allocated
        code, out = run_cli(capsys, "search", "--kind", "lor", "--k", "64",
                            "--trials", "1", "--seed", "1")
        assert code == 2
        assert json.loads(out)["error"] == {"type": "InvalidTableError",
                                            "message": "k must be an integer in [2, 20], got 64"}


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

    def test_decompose_subnormal_increment_exits_numeric(self, capsys, tmp_path):
        path = tmp_path / "tiny.json"
        save_table(BinaryTable.from_entries([5e-324, 1.0, 1.0, 1.0]), path)
        code, out = run_cli(capsys, "decompose", str(path))
        assert code == 3
        assert json.loads(out)["error"]["type"] == "EvaluationError"


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

    def test_table_total_beyond_float_range(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        save_table(BinaryTable.from_entries([1e308] * 4), path)
        code, out = run_cli(capsys, "power", "--N", "10", "--table", str(path))
        assert code == 0
        assert json.loads(out)["result"]["p"] == 0.5

    def test_mass_whose_half_underflows(self, capsys):
        # the Monte Carlo table's even cells would hold 5e-324 / 2 == 0.0
        code, out = run_cli(capsys, "power", "--N", "10", "--p", "5e-324", "--format", "csv")
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[2] == "0.0"
        code, out = run_cli(capsys, "power", "--N", "10", "--p", "5e-324", "--mc", "5",
                            "--seed", "1")
        assert code == 3
        assert json.loads(out)["error"]["type"] == "EvaluationError"

    def test_requires_exactly_one_source(self, capsys, stack_file):
        code, _ = run_cli(capsys, "power", "--N", "100")
        assert code == 2
        code, _ = run_cli(capsys, "power", "--N", "100", "--p", "0.5",
                          "--table", stack_file)
        assert code == 2

    def test_bad_mass_exits_input(self, capsys):
        code, out = run_cli(capsys, "power", "--N", "100", "--p", "1.5")
        assert code == 2
        error = json.loads(out)["error"]
        assert error["message"] == "--p must be a number in (0, 1), got 1.5"

    def test_n_past_the_exact_tail_bound_exits_input(self, capsys):
        code, out = run_cli(capsys, "power", "--N", "100000000000000", "--p", "0.5")
        assert code == 2
        error = json.loads(out)["error"]
        assert error["message"] == "N must be an integer in [1, 10000000000], got 100000000000000"


@pytest.fixture
def param_files(tmp_path, table_file):
    paths = {}
    for kind in ("di", "lor"):
        paths[kind] = str(tmp_path / f"{kind}.json")
        save_paramset(full_params(load_table(table_file), kind), paths[kind])
    return paths


class TestCliConfig:
    """The envelope echoes exactly the settings the subcommand read."""

    @pytest.mark.parametrize("argv", [
        ["params", "{table}"],
        ["params", "{table}", "--kind", "di", "--full"],
        ["simpson", "{table}"],
        ["canonical", "{table}"],
        ["decompose", "{table}"],
        ["reconstruct", "{di}"],
    ], ids=["params", "params-full", "simpson", "canonical", "decompose", "reconstruct-di"])
    def test_no_setting_read(self, capsys, table_file, param_files, argv):
        argv = [a.format(table=table_file, **param_files) for a in argv]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["config"] == {}

    def test_reconstruct_lor_echoes_solver_settings(self, capsys, param_files):
        code, out = run_cli(capsys, "reconstruct", param_files["lor"],
                            "--tol", "1e-9", "--max-iter", "500")
        assert code == 0
        assert json.loads(out)["config"] == {"tol": 1e-9, "max_iter": 500}
        _, out = run_cli(capsys, "reconstruct", param_files["lor"])
        assert json.loads(out)["config"] == {"tol": 1e-8, "max_iter": 10_000}

    @pytest.mark.parametrize("seed_args", [[], ["--seed", "0"]], ids=["omitted", "zero"])
    def test_search_echoes_replayable_seed(self, capsys, seed_args):
        argv = ["search", "--kind", "lor", "--k", "3", "--trials", "5000"]
        code, out = run_cli(capsys, *argv, *seed_args)
        env = json.loads(out)
        assert set(env["config"]) == {"seed"} and env["config"]["seed"] != 0
        replay_code, replay = run_cli(capsys, *argv, "--seed", str(env["config"]["seed"]))
        assert replay_code == code == 0
        assert json.loads(replay)["result"] == env["result"]

    @pytest.mark.parametrize("seed_args", [[], ["--seed", "5"]], ids=["omitted", "given"])
    def test_search_without_trials_echoes_no_seed(self, capsys, monkeypatch, seed_args):
        # no trial is drawn, so no seed has an effect and none is drawn from entropy
        monkeypatch.setattr(np.random, "SeedSequence", None)
        code, out = run_cli(capsys, "search", "--kind", "di", "--k", "3", "--trials", "0",
                            *seed_args)
        assert code == 4
        assert json.loads(out)["config"] == {}

    def test_power_echoes_format_and_monte_carlo_seed(self, capsys):
        _, out = run_cli(capsys, "power", "--N", "100", "--p", "0.5", "--seed", "3")
        assert json.loads(out)["config"] == {"output_format": "json"}
        _, out = run_cli(capsys, "power", "--N", "100", "--p", "0.5", "--mc", "50",
                         "--seed", "3")
        assert json.loads(out)["config"] == {"output_format": "json", "seed": 3}
        _, out = run_cli(capsys, "power", "--N", "100", "--p", "0.5", "--mc", "50")
        config = json.loads(out)["config"]
        assert set(config) == {"output_format", "seed"} and config["seed"] != 0

    @pytest.mark.parametrize("argv", [
        ["search", "--kind", "lor", "--k", "3", "--trials", "5"],
        ["search", "--kind", "lor", "--k", "3", "--trials", "0"],
        ["power", "--N", "100", "--p", "0.5", "--mc", "5"],
    ], ids=["search", "search-no-trials", "power"])
    def test_negative_seed_exits_input(self, capsys, argv):
        code, out = run_cli(capsys, *argv, "--seed", "-1")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InvalidTableError"

    def test_power_format_choice_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["power", "--N", "100", "--p", "0.5", "--format", "xml"])
        assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("bintab ")


def test_star_import_exports_no_module():
    namespace = {"io": io}
    exec("from bintab import *", namespace)
    assert namespace["io"] is io and "BinaryTable" in namespace


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
