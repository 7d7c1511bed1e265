import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import gpdescent
from gpdescent import cli
from gpdescent.cli import CHECKS, EXIT_PIPE, main
from gpdescent.core import partitions


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stats_worked_example(capsys):
    code, out, _ = run(capsys, "stats", "3,5,1,2,4")
    assert code == 0
    payload = json.loads(out)
    assert payload["inv"] == 5
    assert payload["maj"] == 2
    assert payload["Des"] == [2]
    assert sorted(map(tuple, payload["Inv"])) == [
        (3, 1),
        (3, 2),
        (5, 1),
        (5, 2),
        (5, 4),
    ]


def test_stats_majt(capsys):
    code, out, _ = run(capsys, "stats", "3,4,1,5,2")
    payload = json.loads(out)
    assert payload["majt"] == [1, 0, 2, 2, 1]
    assert payload["invt"] == [2, 3, 0, 0, 0]


def test_stats_table_format(capsys):
    code, out, _ = run(capsys, "--format", "table", "stats", "1,2,3")
    assert code == 0
    assert "maj: 0" in out


def test_stats_rejects_malformed(capsys):
    code, _, err = run(capsys, "stats", "1,1,2")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "stats", "1,x")
    assert code == 2


def test_stats_refuses_a_size_bound(capsys, monkeypatch):
    for argv in (("stats", "3,1,2", "--n-bound", "1"), ("--n-bound", "1", "stats", "3,1,2")):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "stats reads no size bound" in err
    # the environment variable stays ignored: stats has no bound to override
    monkeypatch.setenv("GPDESCENT_N_BOUND", "1")
    code, out, _ = run(capsys, "stats", "3,1,2")
    assert code == 0
    assert json.loads(out)["maj"] == 1


def test_enumerate_d_31(capsys):
    code, out, _ = run(capsys, "enumerate", "D", "3,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 13  # 12 elements + summary
    assert json.loads(lines[0]) == {"composition": [0, 0, 0, 0]}
    assert json.loads(lines[-1]) == {"count": 12, "multinomial": 12}


def test_enumerate_r0_31(capsys):
    code, out, _ = run(capsys, "enumerate", "R0", "3,1")
    lines = out.strip().splitlines()
    assert json.loads(lines[-1]) == {"count": 12, "multinomial": 12}


def test_enumerate_jmaj_single_row(capsys):
    code, out, _ = run(capsys, "enumerate", "Jmaj", "3")
    lines = out.strip().splitlines()
    assert json.loads(lines[-1]) == {"count": 6, "multinomial": 6}


def test_enumerate_pf0(capsys):
    code, out, _ = run(capsys, "enumerate", "PF0", "3,1")
    lines = out.strip().splitlines()
    assert json.loads(lines[-1])["count"] == 12


def test_enumerate_json_lines_are_json_dumps_up_to_6(capsys, monkeypatch):
    # each element line is json.dumps of the very dict cmd_enumerate built,
    # for every kind on every shape of size 6
    encode = cli._json_line
    documents = []

    def checked(document):
        line = encode(document)
        assert line == json.dumps(document) + "\n", document
        documents.append(document)
        return line

    monkeypatch.setattr(cli, "_json_line", checked)
    for kind in ("D", "Jmaj", "R0", "PF0"):
        for lam in partitions(6):
            documents.clear()
            code, out, _ = run(capsys, "enumerate", kind, ",".join(map(str, lam)))
            *lines, summary = out.splitlines()
            assert code == 0
            assert len(lines) == len(documents) == json.loads(summary)["count"] > 0
            assert [json.loads(line) for line in lines] == documents


# sha256 of `--format table enumerate KIND 3,2,1`, recorded when each
# element was still printed with print(); the table layout must not move
TABLE_SHA256 = {
    "D": "819667e4c1184342494459748c46c4cf862c1fb766569186b17333560be00ef3",
    "Jmaj": "467a5043873eaf45b5e17cb9aa3654210c7af4cf2cc74a3650e54fdf0715f787",
    "R0": "7e1eca752bbdc0580308c3f6aca197efa2041c3ca7a3e9059bbed64ec479403b",
    "PF0": "4e34ce61e274fa197e8048f41277d001cac341aab8c76b927ad642a4bd9fdf68",
}


def test_enumerate_table_output_is_pinned(capsys):
    for kind, digest in TABLE_SHA256.items():
        code, out, _ = run(capsys, "--format", "table", "enumerate", kind, "3,2,1")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, kind


def test_enumerate_rejects_non_partition(capsys):
    code, _, err = run(capsys, "enumerate", "D", "1,3")
    assert code == 2


def test_enumerate_bound(capsys):
    code, _, err = run(capsys, "--n-bound", "3", "enumerate", "D", "3,1")
    assert code == 3
    assert "bound" in err


def test_hall_littlewood_both_routes(capsys):
    code, out, _ = run(capsys, "hall-littlewood", "2,1,1")
    assert code == 0
    assert "# routes agree" in out
    lines = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
    by_mu = {tuple(item["mu"]): item["coeffs"] for item in lines[: len(lines) // 2]}
    assert by_mu[(1, 1, 1, 1)] == {"0": 1, "1": 3, "2": 5, "3": 3}


def test_hall_littlewood_twisted(capsys):
    code, out, _ = run(capsys, "hall-littlewood", "2,2,1", "--route", "descents", "--twisted")
    items = [json.loads(l) for l in out.splitlines()]
    by_mu = {tuple(item["mu"]): item["coeffs"] for item in items}
    assert by_mu[(3, 2)] == {"4": 1}


def test_hall_littlewood_table(capsys):
    code, out, _ = run(capsys, "--format", "table", "hall-littlewood", "1,1", "--route", "descents")
    assert code == 0
    assert "m[1,1]: 1 + t" in out


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "2,2", "--checks", "basis,leading,minimal-ribbons")
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["basis_ok"] is True
    assert payload["leading_terms_ok"] is True
    assert payload["minimal_ribbons_ok"] is True


def test_verify_hilbert_line(capsys):
    code, out, _ = run(capsys, "verify", "4", "--checks", "basis")
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["hilbert"] == {"0": 1, "1": 3, "2": 5, "3": 6, "4": 5, "5": 3, "6": 1}


def test_verify_parabolic_cases(capsys):
    code, out, _ = run(capsys, "verify", "3,1", "--checks", "parabolic")
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["checks"]["parabolic"] is True
    assert len(payload["parabolic"]) == 5
    assert all(case["ok"] for case in payload["parabolic"])


def test_verify_full_document_shape(capsys):
    code, out, _ = run(capsys, "verify", "2,1")
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["lambda"] == [2, 1]
    assert set(payload["checks"]) == {
        "basis",
        "leading",
        "parabolic",
        "phi",
        "minimal-ribbons",
    }
    assert all(payload["checks"].values())


def test_route_disagreement_exit_code(capsys, monkeypatch):
    import gpdescent.cli as cli_module
    from gpdescent.symfunc import TPoly

    def broken(lam, twisted=False):
        return {(sum(lam),): TPoly({99: 1})}

    monkeypatch.setattr(cli_module.symfunc, "hall_littlewood_by_ribbons", broken)
    code, _, err = run(capsys, "hall-littlewood", "2,1")
    assert code == 4
    assert "disagree" in err


def test_verify_rejects_unknown_checks(capsys):
    code, out, err = run(capsys, "verify", "2,1", "--checks", "bogus")
    assert code == 2
    assert out == ""
    assert "bogus" in err
    assert "basis,leading,parabolic,phi,minimal-ribbons" in err


def test_verify_rejects_empty_check_names(capsys):
    # an empty name is an unknown one, not the default set of checks (which
    # skips phi quietly only when --checks is absent)
    for checks in ("", ",", "basis,,leading", "basis,"):
        code, out, err = run(capsys, "verify", "5", "--checks", checks)
        assert (code, out) == (2, ""), checks
        assert "unknown checks" in err, checks
    code, _, err = run(capsys, "verify", "5")
    assert (code, err) == (0, "")


def test_verify_leading_alone(capsys):
    code, out, _ = run(capsys, "verify", "2,1", "--checks", "leading")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["lambda", "leading_terms_ok", "checks"]
    assert payload["checks"] == {"leading": True}


def test_verify_table_format(capsys, monkeypatch):
    code, out, _ = run(capsys, "--format", "table", "verify", "2,1", "--checks", "leading")
    assert code == 0
    assert out == "lambda: [2, 1]\nleading_terms_ok: True\nchecks: {'leading': True}\n"

    import gpdescent.cli as cli_module

    monkeypatch.setattr(cli_module.ribbon, "verify_minimal_ribbons", lambda lam: False)
    code, out, err = run(
        capsys, "verify", "2,1", "--checks", "minimal-ribbons", "--format", "table"
    )
    assert code == 5
    assert "minimal_ribbons_ok: False\n" in out
    assert "verification failed: minimal-ribbons" in err


def test_verify_bound(capsys):
    code, _, err = run(capsys, "--n-bound", "3", "verify", "4", "--checks", "basis")
    assert code == 3


def test_bound_error_reads_the_same_in_every_command(capsys):
    for argv in (
        ["enumerate", "D", "2,2"],
        ["hall-littlewood", "2,2"],
        *(["verify", "2,2", "--checks", name] for name in CHECKS),
    ):
        code, out, err = run(capsys, "--n-bound", "3", *argv)
        assert (code, out, err) == (3, "", "error: n = 4 exceeds configured bound 3\n"), argv


def test_one_default_bound_of_7(capsys, monkeypatch):
    # every command accepts size 7 and refuses size 8 without flags; only
    # cheap shapes are run (verify 7 takes minutes)
    monkeypatch.delenv("GPDESCENT_N_BOUND", raising=False)
    for argv in (
        ["verify", "1,1,1,1,1,1,1"],
        ["hall-littlewood", "1,1,1,1,1,1,1"],
        ["enumerate", "D", "7"],
    ):
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
    for argv in (["verify", "8"], ["hall-littlewood", "8"], ["enumerate", "D", "8"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (3, "", "error: n = 8 exceeds configured bound 7\n"), argv


def test_usage_errors_come_before_the_bound(capsys):
    code, out, err = run(capsys, "verify", "9", "--checks", "foo")
    assert (code, out) == (2, "")
    assert "unknown checks" in err
    code, out, err = run(capsys, "verify", "9,a", "--checks", "foo")
    assert (code, out) == (2, "")
    assert "comma-separated integers" in err


def test_deterministic_output(capsys):
    first = run(capsys, "enumerate", "D", "2,2")
    second = run(capsys, "enumerate", "D", "2,2")
    assert first == second


def test_env_var_overrides_default_bound(capsys, monkeypatch):
    monkeypatch.setenv("GPDESCENT_N_BOUND", "3")
    code, _, err = run(capsys, "enumerate", "D", "3,1")
    assert code == 3
    monkeypatch.setenv("GPDESCENT_N_BOUND", "4")
    code, out, _ = run(capsys, "enumerate", "D", "3,1")
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["count"] == 12


def test_shared_flags_accepted_after_subcommand(capsys):
    before = run(capsys, "--format", "table", "enumerate", "D", "2,1")
    after = run(capsys, "enumerate", "D", "2,1", "--format", "table")
    assert before == after
    assert "count: 3" in after[1]


def test_default_verify_skips_phi_above_its_bound(capsys, monkeypatch):
    # n = 5 exceeds the splitting-map default bound; the implied check is
    # skipped rather than failing the whole run
    import gpdescent.cli as cli_module

    def not_reached(lam):
        raise AssertionError("the implied phi check ran above its bound")

    monkeypatch.delenv("GPDESCENT_N_BOUND", raising=False)
    monkeypatch.setattr(cli_module.tanisaki, "verify_phi_injective", not_reached)
    code, out, _ = run(capsys, "verify", "3,2")
    assert code == 0
    payload = json.loads(out)
    assert payload["phi_injective_ok"] == "skipped"
    assert "phi" not in payload["checks"]
    code, out, _ = run(capsys, "verify", "2,2,1", "--checks", "basis,phi")
    assert code == 3  # explicit request above the bound is an error


def test_explicit_phi_above_its_bound_fails_before_any_check(capsys, monkeypatch):
    import gpdescent.cli as cli_module

    def not_reached(lam):
        raise AssertionError("basis ran before the phi bound was checked")

    monkeypatch.delenv("GPDESCENT_N_BOUND", raising=False)
    monkeypatch.setattr(cli_module.tanisaki, "verify_descent_basis", not_reached)
    code, out, err = run(capsys, "verify", "2,2,1", "--checks", "basis,phi")
    assert (code, out, err) == (3, "", "error: n = 5 exceeds configured bound 4\n")


def test_phi_reads_the_environment_bound(capsys, monkeypatch):
    monkeypatch.setenv("GPDESCENT_N_BOUND", "5")
    code, out, err = run(capsys, "verify", "2,2,1", "--checks", "phi")
    assert (code, err) == (0, "")
    assert json.loads(out)["checks"] == {"phi": True}


def test_closed_pipe_exits_quietly():
    # enumerate D 7 writes about 200 KB, more than a pipe buffer holds, so
    # the writer is still running when the reader closes its end
    src = str(Path(gpdescent.__file__).resolve().parents[1])
    with subprocess.Popen(
        [sys.executable, "-m", "gpdescent.cli", "enumerate", "D", "7"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    ) as proc:
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
    assert json.loads(first) == {"composition": [0] * 7}
    assert (code, err) == (EXIT_PIPE, b"")


def test_hall_littlewood_empty_shape(capsys):
    # n = 0: both routes give the single coefficient m[] = 1
    code, out, _ = run(capsys, "hall-littlewood", "")
    assert code == 0
    assert out.splitlines() == [
        "# route: descents",
        '{"mu": [], "coeffs": {"0": 1}}',
        "# route: ribbons",
        '{"mu": [], "coeffs": {"0": 1}}',
        "# routes agree",
    ]


def test_enumerate_empty_shape_counts_one(capsys):
    # n = 0: every kind has one (empty) element, matching the multinomial
    for kind in ("D", "Jmaj", "R0", "PF0"):
        code, out, _ = run(capsys, "enumerate", kind, "")
        lines = out.strip().splitlines()
        assert code == 0
        assert len(lines) == 2, kind
        assert json.loads(lines[-1]) == {"count": 1, "multinomial": 1}, kind
    _, out, _ = run(capsys, "enumerate", "PF0", "")
    assert json.loads(out.splitlines()[0]) == {"area": [], "labels": []}


def test_enumerate_empty_ribbon_table(capsys):
    # the empty tuple renders as an empty picture
    code, out, err = run(capsys, "--format", "table", "enumerate", "R0", "")
    assert code == 0, err
    assert out == "\n\ncount: 1 (multinomial 1)\n"


def test_argument_text_errors_exit_2(capsys, monkeypatch):
    # integers that do not parse, and a composition that is not a partition
    for argv in (["verify", "3,a"], ["verify", "1,2"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: "), argv
    monkeypatch.setenv("GPDESCENT_N_BOUND", "six")
    code, out, err = run(capsys, "verify", "2,1", "--checks", "basis")
    assert (code, out) == (2, "")
    assert "GPDESCENT_N_BOUND" in err


def test_value_error_inside_a_check_is_an_internal_error(capsys, monkeypatch):
    import gpdescent.cli as cli_module

    def broken(lam, mu):
        raise ValueError("mu must be a composition of the same n")

    monkeypatch.setattr(cli_module.tanisaki, "verify_parabolic_basis", broken)
    code, out, err = run(capsys, "verify", "2,1", "--checks", "parabolic")
    assert (code, out, err) == (70, "", "internal error: mu must be a composition of the same n\n")
