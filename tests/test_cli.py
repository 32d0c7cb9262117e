import argparse
import json
import time
from pathlib import Path

import pytest

from hilbcomp import Ideal, PolyRing, cli, picard
from hilbcomp.cli import run_subcommand
from hilbcomp.ideals import MAX_FILE_N
from hilbcomp.rings import MAX_EXPONENT

from oracles import memory_cap

TYPE_I = "ring n=3 param=0\nx0*x2\nx0*x3\nx1*x2\nx1*x3\n"
TYPE_IV = "ring n=3 param=0\nx0^2\nx0*x1\nx1^2\nx0*x2 - x1*x2\n"
PLANE = "ring n=3 param=0\nx0\nx1\n"
OTHER_PLANE = "ring n=3 param=0\nx2\nx3\n"
FAMILY = "ring n=3 param=1\nx0^2\nx0*x1\nx1^2\nt*x0*x3 - x1*x2\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (
        ("type_i", TYPE_I),
        ("type_iv", TYPE_IV),
        ("plane", PLANE),
        ("other", OTHER_PLANE),
        ("family", FAMILY),
    ):
        p = tmp_path / f"{name}.ideal"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def test_hilbert_text_output(files, capsys):
    assert run_subcommand(["hilbert", files["type_i"]]) == 0
    assert capsys.readouterr().out.strip() == "2*m + 2"


def test_hilbert_json_output(files, capsys):
    assert run_subcommand(["--format", "json", "hilbert", files["type_i"]]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["hilbert_polynomial"] == "2*m + 2"
    assert payload["dimension"] == 1 and payload["degree"] == 2


def test_gb_and_nf(files, capsys):
    assert run_subcommand(["gb", files["type_iv"]]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert run_subcommand(["nf", files["type_iv"], "x0*x1*x2"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert run_subcommand(["nf", files["type_iv"], "x3^2"]) == 0
    assert capsys.readouterr().out.strip() == "x3^2"


def test_nf_reads_a_polynomial_with_a_signed_coefficient(files, capsys):
    # "-1*x0" is how format_polynomial writes a negative lead monomial
    assert run_subcommand(["nf", files["type_i"], "--", "-1*x0"]) == 0
    want = capsys.readouterr().out
    assert want.strip() == "-1*x0"
    for argv in (["nf", files["type_i"], "-1*x0"],
                 ["nf", files["type_i"], "-1*x0", "--order", "lex"],
                 ["--format", "text", "nf", files["type_i"], "-3/2*x0*x2 - x0"]):
        assert run_subcommand(argv) == 0
        assert capsys.readouterr().out == want


def test_nf_with_lex_order(files, capsys):
    assert run_subcommand(["--order", "lex", "nf", files["type_iv"], "x0*x1*x2"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_hf(files, capsys):
    assert run_subcommand(["hf", files["type_iv"], "-d", "2"]) == 0
    assert capsys.readouterr().out.strip() == "6"


def test_intersect_emits_ideal_file_format(files, capsys, tmp_path):
    assert run_subcommand(["intersect", files["plane"], files["other"]]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "ring n=3 param=0"
    # the emitted file is consumable by other subcommands
    f = tmp_path / "pair.ideal"
    f.write_text(out)
    assert run_subcommand(["hilbert", str(f)]) == 0
    assert capsys.readouterr().out.strip() == "2*m + 2"


def test_quotient_and_saturate(files, capsys, tmp_path):
    assert run_subcommand(["intersect", files["plane"], files["other"]]) == 0
    pair = tmp_path / "pair.ideal"
    pair.write_text(capsys.readouterr().out)
    assert run_subcommand(["quotient", str(pair), files["plane"]]) == 0
    got = capsys.readouterr().out.strip().splitlines()[1:]
    assert sorted(got) == ["x2", "x3"]
    assert run_subcommand(["saturate", str(pair), files["plane"]]) == 0
    got = capsys.readouterr().out.strip().splitlines()[1:]
    assert sorted(got) == ["x2", "x3"]


def test_saturate_by_the_irrelevant_ideal(tmp_path, capsys):
    # (x0) * m has an embedded point at the origin; saturating removes it
    unsaturated = tmp_path / "I.ideal"
    unsaturated.write_text("ring n=2 param=0\nx0^2\nx0*x1\nx0*x2\n")
    m = tmp_path / "m.ideal"
    m.write_text("ring n=2 param=0\nx0\nx1\nx2\n")
    assert run_subcommand(["saturate", str(unsaturated), str(m)]) == 0
    assert capsys.readouterr().out == "ring n=2 param=0\nx0\n"
    assert run_subcommand(["--format", "json", "saturate", str(unsaturated), str(m)]) == 0
    assert json.loads(capsys.readouterr().out) == {"generators": ["x0"]}


def test_limit_subcommand(files, capsys):
    assert run_subcommand(["limit", files["family"], "--probe"]) == 0
    out = capsys.readouterr().out
    assert "x1*x2" in out
    assert "# probe: flat" in out


@pytest.mark.parametrize("kind", ["embedded", "double", "quadric_union", "substitution"])
def test_limit_probe_json_is_byte_identical_to_the_golden_files(kind, capsys):
    # limit_<kind>_n5.ideal is the P^5 family of that kind after a seeded
    # coordinate change; the .json beside it is `hilbcomp --format json
    # limit <file> --probe` as generated before the limit was kept on its
    # Family and the probe stopped saturating, and is never regenerated to
    # make a change pass
    data = Path(__file__).parent / "data"
    path = data / f"limit_{kind}_n5.ideal"
    assert run_subcommand(["--format", "json", "limit", str(path), "--probe"]) == 0
    assert capsys.readouterr().out.encode() == (data / f"limit_{kind}_n5.json").read_bytes()


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("label", ["I", "II", "III", "IV"])
def test_moved_tangent_json_is_byte_identical_to_the_golden_files(label, n, capsys):
    # moved_<label>_n<n>.ideal is the normal form after the seeded matrix
    # random_invertible_matrix(ring, "tangent-golden:<label>:n<n>"); the
    # .tangent.json beside it is `hilbcomp --format json tangent <file>`.
    # The P^3 files date from before the second ring map and membership span
    # were removed.  The P^4 and P^5 files were rewritten once, when the
    # system moved to the essential variables: it is then described in the
    # coordinates y = A x, and only `system.rows` changed, while the
    # coordinate-free fields (dimension, total_unknowns, rank,
    # constraint_rank, system.cols) kept their bytes.  None is regenerated
    # to make a change pass
    data = Path(__file__).parent / "data"
    stem = f"moved_{label}_n{n}"
    assert run_subcommand(["--format", "json", "tangent", str(data / f"{stem}.ideal")]) == 0
    assert capsys.readouterr().out.encode() == (data / f"{stem}.tangent.json").read_bytes()


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("label", ["I", "II", "III", "IV"])
def test_normal_form_tangent_json_is_byte_identical_to_the_golden_files(label, n, capsys):
    # normal_<label>_n<n>.ideal is normal_form_ideal(n, label), already in
    # its essential variables; the .tangent.json beside it is `hilbcomp
    # --format json tangent <file>` as generated by the full-ring system,
    # before the essential variables, and is never regenerated: the block
    # diagonal system keeps every name, order and count of the full one
    data = Path(__file__).parent / "data"
    stem = f"normal_{label}_n{n}"
    assert run_subcommand(["--format", "json", "tangent", str(data / f"{stem}.ideal")]) == 0
    assert capsys.readouterr().out.encode() == (data / f"{stem}.tangent.json").read_bytes()


def test_tangent_on_an_accepted_100_variable_file(tmp_path, capsys):
    # two quadrics in four essential variables of P^99: 96 variables drop,
    # and the images of each generator fill (S/I)_2, of dimension 5050 - 2
    path = tmp_path / "wide.ideal"
    path.write_text("ring n=99 param=0\nx0*x1\nx2*x3\n")
    start = time.perf_counter()
    assert run_subcommand(["tangent", str(path)]) == 0
    assert time.perf_counter() - start < 10
    payload = json.loads(capsys.readouterr().out)
    assert payload["dimension"] == payload["total_unknowns"] == 2 * (5050 - 2)
    assert [len(u) for u in payload["unknowns"]] == [5048, 5048]


def test_a_degree_table_over_budget_is_refused_before_it_is_built(tmp_path, capsys):
    # the quartics of P^100 are 4.6 million monomials of 101 exponents each:
    # refused with a typed error at once, not built until memory runs out
    path = tmp_path / "quartic.ideal"
    path.write_text("ring n=100 param=0\nx0^4\n")
    start = time.perf_counter()
    with memory_cap(1 << 30):
        assert run_subcommand(["tangent", str(path)]) == 1
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert err.startswith("error:") and "budget" in err


def test_a_report_over_the_named_unknown_budget_exits_with_code_1(tmp_path, capsys):
    # x0^3 in P^100 drops 97 variables: its report would name 176,850
    # unknowns, refused from the shift systems' sizes before any is named
    path = tmp_path / "cubic.ideal"
    path.write_text("ring n=100 param=0\nx0^3\n")
    start = time.perf_counter()
    with memory_cap(1 << 30):
        assert run_subcommand(["tangent", str(path)]) == 1
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert err.startswith("error:") and "176850 unknowns" in err and "budget" in err


def test_limit_rejects_plain_ideal_file(files, capsys):
    assert run_subcommand(["limit", files["type_i"]]) == 2


def test_tangent_json(files, capsys):
    assert run_subcommand(["tangent", files["type_iv"]]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dimension"] == 12
    assert payload["system"]["rows"] >= payload["constraint_rank"]


def test_classify_json(files, capsys):
    assert run_subcommand(["--seed", "3", "classify", files["type_iv"]]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["label"] == "IV"
    assert payload["evidence"] == {"has_embedded": True, "generically_reduced": False}


def test_classify_rejects_wrong_polynomial(files, capsys):
    assert run_subcommand(["classify", files["plane"]]) == 1


def test_cone_text_and_json(capsys):
    assert run_subcommand(["cone", "--space", "hn", "--n", "5", "--divisor", "0,6"]) == 0
    text = capsys.readouterr().out
    assert "Fano=False" in text and "Theta_n" in text
    assert run_subcommand(
        ["--format", "json", "cone", "--space", "hn", "--n", "3", "--divisor", "1,1"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ample"] is True and payload["fano"] is True
    assert run_subcommand(
        ["--format", "json", "cone", "--space", "wn", "--n", "4", "--divisor", "1,1,1"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["model"] == "W_n"


def test_cone_non_effective_is_math_failure(capsys):
    assert run_subcommand(["cone", "--space", "hn", "--n", "4", "--divisor=-1,0"]) == 1
    # the ray E = 2F - M has coordinates (-1, 2)
    assert run_subcommand(
        ["--format", "json", "cone", "--space", "hn", "--n", "4", "--divisor=-1,2"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["divisor"] == [-1, 2]
    assert payload["chamber"] == "[E,F)"
    assert payload["stable_base_locus"] == ["III", "IV"]
    # a separate value with a negative first coordinate names the same class
    assert run_subcommand(
        ["--format", "json", "cone", "--space", "hn", "--n", "4", "--divisor", "-1,2"]
    ) == 0
    assert json.loads(capsys.readouterr().out) == payload
    assert run_subcommand(["cone", "--help"]) == 0
    assert "--divisor=-1,2" in capsys.readouterr().out


def test_cone_bad_divisor_is_usage_error(capsys):
    assert run_subcommand(["cone", "--space", "hn", "--n", "4", "--divisor", "a,b"]) == 2
    # a wrong coordinate count is a usage error too, on either lattice
    assert run_subcommand(["cone", "--space", "hn", "--n", "4", "--divisor", "1,2,3"]) == 2
    assert run_subcommand(["cone", "--space", "wn", "--n", "4", "--divisor", "1,1"]) == 2
    assert capsys.readouterr().err.splitlines()[-2:] == [
        "error: expected 2 coordinates", "error: expected 3 coordinates",
    ]


def test_gb_at_the_largest_file_exponent(tmp_path, capsys):
    e = MAX_EXPONENT
    path = tmp_path / "big.ideal"
    path.write_text(f"ring n=1 param=0\nx0^{e} - x1^{e}\nx0*x1\n")
    assert run_subcommand(["gb", str(path)]) == 0
    assert capsys.readouterr().out.split("\n")[:3] == [
        f"x1^{e + 1}", f"x0^{e} - x1^{e}", "x0*x1",
    ]


def test_monomial_overflow_exits_with_code_1(monkeypatch, capsys):
    # no file reaches the engine's field width, so the ideal is built in code
    ring = PolyRing(2)
    huge = Ideal(ring, [ring.x(0) ** 2**31 - ring.x(1), ring.x(0) * ring.x(1)])
    monkeypatch.setattr(cli, "load_ideal", lambda path: huge)
    assert run_subcommand(["gb", "unused.ideal"]) == 1
    assert "exceeds the packed field width" in capsys.readouterr().err


def test_oversized_ring_header_is_a_usage_error(tmp_path, capsys):
    # every parsed term holds one exponent per variable, so the header bound
    # is checked before any polynomial line is read
    path = tmp_path / "huge.ideal"
    for n in (10**9, MAX_FILE_N + 1):
        path.write_text(f"ring n={n} param=0\nx0 - x1\nx0*x1\n")
        assert run_subcommand(["hilbert", str(path)]) == 2
        assert f"n={MAX_FILE_N}" in capsys.readouterr().err
    path.write_text(f"ring n={MAX_FILE_N} param=0\nx0\n")
    assert run_subcommand(["gb", str(path)]) == 0
    assert capsys.readouterr().out == "x0\n"


def test_seed_flag_accepted_in_both_positions(files, capsys):
    assert run_subcommand(["--seed", "2", "classify", files["type_i"]]) == 0
    capsys.readouterr()
    assert run_subcommand(["classify", files["type_i"], "--seed", "2"]) == 0


def test_usage_errors(files, capsys):
    assert run_subcommand(["hilbert", "/nonexistent/file.ideal"]) == 2
    assert run_subcommand(["bogus"]) == 2
    assert run_subcommand([]) == 2
    assert run_subcommand(["nf", files["type_i"], "x0 + ?"]) == 2


def test_verify_small_run(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_subcommand(
        ["--format", "json", "verify", "--n-min", "3", "--n-max", "3",
         "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["total"] >= 25
    ids = [c["id"] for c in payload["checks"]]
    assert len(ids) == len(set(ids))
    assert all("runtime_ms" not in c for c in payload["checks"])


def test_verify_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        run_subcommand(
            ["--format", "json", "verify", "--n-min", "3", "--n-max", "3",
             "--seed", "4", "--out", str(path)]
        )
    assert a.read_bytes() == b.read_bytes()


def test_verify_fault_injection_fails(monkeypatch, capsys):
    monkeypatch.setitem(picard.HN_STATED, ("B3", "N"), 5)
    code = run_subcommand(["verify", "--n-min", "3", "--n-max", "3"])
    assert code == 1
    out = capsys.readouterr().out
    failed = {line.split()[1] for line in out.splitlines() if line.startswith("FAIL")}
    assert failed == {"lattice.relations.hn", "lattice.derived_entries"}


def test_no_option_is_hidden_from_help():
    parser = cli._build_parser()
    parsers = [parser]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers.extend(action.choices.values())
    hidden = [
        (p.prog, a.option_strings) for p in parsers for a in p._actions
        if a.help == argparse.SUPPRESS
    ]
    assert len(parsers) > 1 and hidden == []


def test_verify_timings_flag(tmp_path):
    out = tmp_path / "t.json"
    run_subcommand(
        ["--format", "json", "verify", "--n-min", "3", "--n-max", "3",
         "--timings", "--out", str(out)]
    )
    payload = json.loads(out.read_text())
    assert all("runtime_ms" in c for c in payload["checks"])
