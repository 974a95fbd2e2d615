"""Command line interface: formats, dumps, verify, exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from ncphom import HomologyGroup, cli
from ncphom.cli import main
from ncphom.complexes import _unreduced_complex, build_complex
from ncphom.refdata import ReferenceRow


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- homology command --------------------------------------------------------

def test_text_output(capsys):
    code, out, _ = run(capsys, "homology", "A3", "FP")
    assert code == 0
    assert out == "H0=Z H1=Z^2 H2=Z^2\n"


def test_dihedral_artin_quotient(capsys):
    code, out, _ = run(capsys, "homology", "I2(7)", "MW")
    assert code == 0
    assert out == "H0=Z H1=Z H2=0\n"


def test_json_output_round_trips(capsys):
    code, out, _ = run(capsys, "homology", "B3", "FP", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "B3"
    assert payload["space"] == "FP"
    assert payload["euler"] == 3
    assert payload["source"] == "computed"
    groups = [HomologyGroup.from_dict(d) for d in payload["groups"]]
    assert groups == [HomologyGroup(1), HomologyGroup(1), HomologyGroup(3)]


def test_csv_output(capsys):
    code, out, _ = run(capsys, "homology", "A2", "M", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "type,space,degree,free,torsion",
        "A2,M,0,1,",
        "A2,M,1,3,",
        "A2,M,2,2,",
    ]


def test_csv_records_torsion(capsys):
    code, out, _ = run(capsys, "homology", "A5", "FP", "--format", "csv")
    assert code == 0
    assert "A5,FP,2,2,2" in out.splitlines()


def test_type_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "homology", "A0", "FP")
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run(capsys, "homology", "D2", "FP")
    assert code == 2
    assert "reducible" in err


@pytest.mark.parametrize("argv,expected", [
    (["A3", "MW"], "H0=Z H1=Z H2=Z_2 H3=0\n"),
    (["H3", "FP"], "H0=Z H1=0 H2=Z^7\n"),
])
def test_trivial_module_spaces_pass_group_cap_one(capsys, argv, expected):
    # FP and MW tensor over the one-element group and never enumerate W.
    assert run(capsys, "homology", *argv, "--group-cap", "1") == (
        0, expected, "")


def test_group_cap_exits_3(capsys):
    code, _, err = run(capsys, "homology", "B4", "M", "--group-cap", "100")
    assert code == 3
    assert "384" in err and "100" in err


def test_tensor_size_cap_exits_3_and_skips_in_verify(capsys, monkeypatch):
    import ncphom.complexes as complexes

    monkeypatch.setattr(complexes, "TENSOR_ENTRY_CAP", 100)
    code, out, err = run(capsys, "homology", "A3", "FQ0")
    assert code == 3
    assert out == ""
    assert err.startswith("error: FQ0 of A3: boundary 3 needs ")
    assert err.endswith(", over the cap 100\n")
    code, out, _ = run(capsys, "verify", "tables", "--type", "A3",
                       "--space", "FQ0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("SKIP tables A3 FQ0: FQ0 of A3: boundary 3")
    assert lines[1] == "0 passed, 0 failed, 1 skipped"


def test_out_of_memory_exits_3(capsys, monkeypatch):
    def homology_of(complex_):
        raise MemoryError
    monkeypatch.setattr("ncphom.cli.homology_of", homology_of)
    code, out, err = run(capsys, "homology", "A2", "FP")
    assert (code, out) == (3, "")
    assert err == "error: out of memory computing FP of A2\n"


def test_verify_tables_reports_out_of_memory_as_skip(capsys, monkeypatch):
    def homology_of(complex_):
        raise MemoryError
    monkeypatch.setattr("ncphom.cli.homology_of", homology_of)
    code, out, err = run(capsys, "verify", "tables", "--type", "A2",
                         "--space", "FP")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "SKIP tables A2 FP: out of memory computing FP of A2",
        "0 passed, 0 failed, 1 skipped",
    ]


def test_verify_invariants_keep_finished_checks_when_out_of_memory(
        capsys, monkeypatch):
    def property_suite(type_name, cap=None):
        yield ("first-check", True, "done")
        raise MemoryError
    monkeypatch.setattr("ncphom.cli.property_suite", property_suite)
    code, out, err = run(capsys, "verify", "invariants", "--type", "A2")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "PASS invariants A2 first-check: done",
        "SKIP invariants A2: out of memory computing invariants of A2",
        "1 passed, 0 failed, 1 skipped",
    ]


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_homology_rejects_group_cap_below_one(capsys, cap):
    code, out, err = run(capsys, "homology", "A3", "FQ", "--group-cap", cap)
    assert code == 2
    assert out == ""
    assert err == f"error: --group-cap must be at least 1, got {cap}\n"


@pytest.mark.parametrize("argv,err", [
    (["E9", "FP"], "error: E9 is not a supported irreducible type\n"),
    (["E8", "FP", "--group-cap", "0"],
     "error: --group-cap must be at least 1, got 0\n"),
    (["E8", "FP", "--dump-basis", "9"],
     "error: --dump-basis K must be in 0..8 for E8, got 9\n"),
], ids=["type", "group-cap", "dump-basis"])
def test_homology_checks_arguments_before_building(capsys, monkeypatch,
                                                   argv, err):
    def build_all(type_name):
        raise AssertionError(f"built {type_name}")
    monkeypatch.setattr("ncphom.cli.build_all", build_all)
    assert run(capsys, "homology", *argv) == (2, "", err)


@pytest.mark.parametrize("argv,order", [
    (["E8", "M"], 696729600),
    (["E7", "FQ0"], 2903040),
])
def test_homology_refuses_a_group_over_the_cap_before_building(
        capsys, monkeypatch, argv, order):
    def build_all(type_name):
        raise AssertionError(f"built {type_name}")
    monkeypatch.setattr("ncphom.cli.build_all", build_all)
    assert run(capsys, "homology", *argv) == (
        3, "", f"error: |W({argv[0]})| = {order} exceeds the cap 52000\n")


def test_dump_basis_with_dump_complex_exits_2_and_writes_nothing(
        capsys, monkeypatch, tmp_path):
    def build_all(type_name):
        raise AssertionError(f"built {type_name}")
    monkeypatch.setattr("ncphom.cli.build_all", build_all)
    outdir = tmp_path / "cx"
    assert run(capsys, "homology", "A2", "FP", "--dump-basis", "1",
               "--dump-complex", str(outdir)) == (
        2, "", "error: --dump-basis exits without building the complex, "
               "so it cannot be combined with --dump-complex\n")
    assert not outdir.exists()


def test_bad_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["homology", "A3", "XX"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_dump_basis_short_circuits(capsys):
    code, out, _ = run(capsys, "homology", "A2", "FP", "--dump-basis", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 2
    assert payload["labels"] == [[2, 1], [3, 2]]
    assert payload["expansions"] == [
        {"1,3": -1, "2,1": 1},
        {"2,1": -1, "3,2": 1},
    ]
    assert "H0=" not in out


def test_dump_lattice_writes_file_and_continues(capsys, tmp_path):
    path = tmp_path / "lat.json"
    code, out, _ = run(capsys, "homology", "A2", "FP",
                       "--dump-lattice", str(path))
    assert code == 0
    assert out == "H0=Z H1=Z^2\n"
    payload = json.loads(path.read_text())
    assert payload["type"] == "A2"
    assert payload["size"] == 5
    assert payload["rank_sizes"] == [1, 3, 1]
    assert len(payload["elements"]) == 5
    assert len(payload["covers"]) == 6
    for uid, label, vid in payload["covers"]:
        assert 1 <= label <= 3
        assert 0 <= uid < 5 and 0 <= vid < 5


def test_dump_complex_writes_matrices(capsys, tmp_path):
    outdir = tmp_path / "cx"
    code, out, _ = run(capsys, "homology", "A2", "FP",
                       "--dump-complex", str(outdir))
    assert code == 0
    assert out == "H0=Z H1=Z^2\n"
    bases = json.loads((outdir / "bases.json").read_text())
    assert bases == {"name": "FP",
                     "labels": {"1": [[1]], "2": [[2, 1], [3, 2]]}}
    boundary = json.loads((outdir / "boundary_2.json").read_text())
    assert boundary["rows"] == 1 and boundary["cols"] == 2
    assert boundary["entries"] == []
    assert sorted(os.listdir(outdir)) == ["bases.json", "boundary_2.json"]


# SHA-256 of every file ``--dump-complex`` writes, from the assembly that
# kept every basis chain; the dump still writes that complex.
DUMPED_COMPLEX_DIGESTS = {
    ("A3", "FQ0"): {
        "bases.json": "5e16be9b02a2cd5734f382eef7961cdd"
                      "e2dd87b36824277d858af935837bfe19",
        "boundary_2.json": "070634c16cdcfa6fdb99f89e7c45b0cb"
                           "68a8156d22471bc410cf963808bba7b5",
        "boundary_3.json": "6e887d9fb10ca9d49c6523523fca5723"
                           "6ace0530f7b8841cfa1d95ac99b9cda8",
    },
    ("A2", "M"): {
        "bases.json": "e41afc9fe32d058c46de0eadc937d546"
                      "3bba2c2cb86af0e2d24300411bef223c",
        "boundary_1.json": "12f4d95f1bb878b7946154351569309"
                           "859198dd9c3449bb6254da30e7747faff",
        "boundary_2.json": "389ca2b164f904d5ba6fe8a483edb125"
                           "379a1c15bc67513b63aa203f9c6d1210",
    },
    ("A4", "FQ0"): {
        "bases.json": "da7ecc5cc6b2f24e6a23611b36532e5d"
                      "38745e71695a2af108639e923058b9d6",
        "boundary_2.json": "6d4b08616561fc0b1b61145b90a56e13"
                           "3d792d4a420ca589aa48cbabe5fd719a",
        "boundary_3.json": "5ac81e5a278957e38ed6a802e337f7c8"
                           "1b9448598c636bbaac816630cec9a5f5",
        "boundary_4.json": "c759c1667f7a0ba66194d934d6240d33"
                           "282898c5b01c721b6a4290de53c15d71",
    },
    ("B3", "M"): {
        "bases.json": "6f3dae0a6080c007b3ff7aed3d2419a0"
                      "fcef055fe276fd8e47a1f0982d6b4e1a",
        "boundary_1.json": "4bb69a432341dc680f8be3933498889"
                           "987c46e42c469f456019631dfab0df813",
        "boundary_2.json": "0f4ef55989adfe2a7c47626268e66867"
                           "c479fd282e102c357e4798913afcf47f",
        "boundary_3.json": "5a954eaf80181c9dac2f4bb2259165d1"
                           "d628d69de526d350e87363a0c670be59",
    },
}


@pytest.mark.parametrize("name,space", sorted(DUMPED_COMPLEX_DIGESTS))
def test_dump_complex_writes_the_unreduced_complex(capsys, tmp_path, name,
                                                   space):
    outdir = tmp_path / "cx"
    code, out, _ = run(capsys, "homology", name, space,
                       "--dump-complex", str(outdir))
    assert code == 0
    assert out == run(capsys, "homology", name, space)[1]
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in outdir.iterdir()}
    assert digests == DUMPED_COMPLEX_DIGESTS[name, space]


def test_dump_complex_answers_from_the_reduced_complex(capsys, monkeypatch,
                                                      tmp_path):
    seen = []
    answer = cli.homology_of
    monkeypatch.setattr("ncphom.cli.homology_of",
                        lambda cx: seen.append(cx.dims) or answer(cx))
    code, _, _ = run(capsys, "homology", "A3", "FQ0",
                     "--dump-complex", str(tmp_path / "cx"))
    assert code == 0
    _, _, algebra = cli.build_all("A3")
    reduced = build_complex(algebra, "FQ0").dims
    assert reduced != _unreduced_complex(algebra, "FQ0").dims
    assert seen == [reduced]


def test_dump_complex_fq0_labels_index_the_parity_half(capsys, tmp_path):
    # A tensored FQ0 label starts with its slot's index within that
    # degree's parity half, not the element's index in sorted order.
    outdir = tmp_path / "cx"
    assert run(capsys, "homology", "A2", "FQ0",
               "--dump-complex", str(outdir))[0] == 0
    bases = json.loads((outdir / "bases.json").read_text())["labels"]
    assert sorted(bases) == ["1", "2"]
    for labels in bases.values():
        assert sorted({wi for wi, _ in labels}) == [0, 1, 2]


@pytest.mark.parametrize("k", ["9", "-1"])
def test_dump_basis_degree_out_of_range_exits_2(capsys, k):
    code, out, err = run(capsys, "homology", "A3", "FP", "--dump-basis", k)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "0..3" in err
    assert "Traceback" not in err


def test_unwritable_dump_lattice_exits_2(capsys, tmp_path):
    path = tmp_path / "missing" / "lat.json"
    code, out, err = run(capsys, "homology", "A3", "FP",
                         "--dump-lattice", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_unwritable_dump_complex_exits_2(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run(capsys, "homology", "A3", "FP",
                         "--dump-complex", str(blocker / "cx"))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


# -- verify command ----------------------------------------------------------

def test_verify_tables_for_chosen_types(capsys):
    code, out, _ = run(capsys, "verify", "tables",
                       "--type", "A3", "--type", "I2(5)")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "PASS tables A3 FP: H0=Z H1=Z^2 H2=Z^2"
    assert lines[1].startswith("PASS tables A3 FQ0:")
    assert lines[2] == "PASS tables I2(5) FP: H0=Z H1=Z^4"
    assert lines[3] == "PASS tables I2(5) FQ0: H0=Z H1=Z^16"
    assert lines[4] == "4 passed, 0 failed, 0 skipped"


def test_verify_invariants_single_type(capsys):
    code, out, _ = run(capsys, "verify", "invariants", "--type", "A2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 13
    assert all(line.startswith("PASS invariants A2 ") for line in lines[:-1])
    assert lines[-1] == "12 passed, 0 failed, 0 skipped"


def test_verify_skips_incomplete_rows(capsys):
    code, out, _ = run(capsys, "verify", "tables",
                       "--type", "A6", "--space", "FQ0")
    assert code == 0
    assert out.splitlines() == [
        "SKIP tables A6 FQ0: reference row incomplete",
        "0 passed, 0 failed, 1 skipped",
    ]


def test_verify_skips_over_cap(capsys):
    code, out, _ = run(capsys, "verify", "tables", "--type", "B4",
                       "--space", "FQ0", "--group-cap", "100")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("SKIP tables B4 FQ0:")
    assert "384" in lines[0]
    assert lines[1] == "0 passed, 0 failed, 1 skipped"


def test_verify_group_cap_skips_fq0_but_never_fp(capsys):
    # FP never enumerates the group, so the cap cannot refuse it.
    code, out, _ = run(capsys, "verify", "tables", "--type", "A2",
                       "--group-cap", "1")
    assert code == 0
    assert out.splitlines() == [
        "PASS tables A2 FP: H0=Z H1=Z^2",
        "SKIP tables A2 FQ0: |W(A2)| = 6 exceeds the cap 1",
        "1 passed, 0 failed, 1 skipped",
    ]


@pytest.mark.parametrize("cap,squares,doubling", [
    ([], "FP materialized, MW materialized, FQ materialized, "
         "FQ0 materialized, M materialized",
     "support check + numeric comparison"),
    (["--group-cap", "1"], "FP materialized, MW materialized, "
                           "FQ/FQ0/M in group-ring form",
     "support check (group too large to enumerate)"),
], ids=["default", "cap-1"])
def test_verify_invariants_enumerate_only_within_the_group_cap(
        capsys, cap, squares, doubling):
    code, out, _ = run(capsys, "verify", "invariants", "--type", "A3", *cap)
    assert code == 0
    lines = out.splitlines()
    assert (f"PASS invariants A3 boundary-squares-vanish: {squares}"
            in lines)
    assert f"PASS invariants A3 fibre-doubling: {doubling}" in lines
    assert lines[-1] == "12 passed, 0 failed, 0 skipped"


DIHEDRAL_TYPES = " ".join(f"I2({m})" for m in range(3, 11))


@pytest.mark.parametrize("argv,expected", [
    ([], [("FP", "H3 H4 F4 A1 A2 A3 A4 A5 B2 B3 B4 B5 D3 D4 D5 A6 "
                 + DIHEDRAL_TYPES),
          ("FQ0", "H3 A1 A2 A3 B2 B3 D2 D3 " + DIHEDRAL_TYPES)]),
    (["--space", "FQ", "--max-rank", "4"],
     [("FQ", "H3 F4 A1 A2 A3 A4 B2 B3 B4 D2 D3 D4 " + DIHEDRAL_TYPES)]),
    (["--type", "A3", "--type", "A3", "--space", "FP", "--space", "FP"],
     [("FP", "A3")]),
], ids=["default", "fq-rank-4", "repeated"])
def test_table_tasks_keep_first_seen_order(argv, expected):
    args = cli.make_parser().parse_args(["verify", "tables", *argv])
    assert cli._table_tasks(args) == [
        (type_name, space, cli.DEFAULT_GROUP_CAP)
        for space, types in expected for type_name in types.split()]


def test_verify_rejects_bad_type_upfront(capsys):
    code, _, err = run(capsys, "verify", "tables", "--type", "D2")
    assert code == 2
    assert "reducible" in err


def test_verify_max_rank_one_runs_a1_only(capsys):
    code, out, _ = run(capsys, "verify", "tables", "--max-rank", "1",
                       "--space", "FP")
    assert code == 0
    assert out.splitlines() == [
        "PASS tables A1 FP: H0=Z",
        "1 passed, 0 failed, 0 skipped",
    ]


def test_verify_max_rank_two_adds_the_dihedral_rows(capsys):
    code, out, _ = run(capsys, "verify", "tables", "--max-rank", "2",
                       "--space", "FP")
    assert code == 0
    labels = [line.split(":")[0] for line in out.splitlines()[:-1]]
    assert labels == [f"PASS tables {name} FP" for name in (
        "A1", "A2", "B2", *(f"I2({m})" for m in range(3, 11)))]


@pytest.mark.parametrize("suite", ["tables", "invariants", "all"])
@pytest.mark.parametrize("bound", ["0", "-1"])
def test_verify_rejects_max_rank_below_one(capsys, suite, bound):
    code, out, err = run(capsys, "verify", suite, "--max-rank", bound)
    assert code == 2
    assert out == ""
    assert err == f"error: --max-rank must be at least 1, got {bound}\n"


@pytest.mark.parametrize("suite", ["tables", "invariants", "all"])
@pytest.mark.parametrize("cap", ["0", "-1"])
def test_verify_rejects_group_cap_below_one(capsys, suite, cap):
    code, out, err = run(capsys, "verify", suite, "--type", "A3",
                         "--space", "FQ0", "--group-cap", cap)
    assert code == 2
    assert out == ""
    assert err == f"error: --group-cap must be at least 1, got {cap}\n"


def test_verify_reports_mismatch(capsys, monkeypatch):
    wrong = ReferenceRow("A2", "FP",
                         (HomologyGroup(1), HomologyGroup(3)), -2,
                         "test", "ok")
    monkeypatch.setattr("ncphom.cli.lookup", lambda *a: wrong)
    code, out, _ = run(capsys, "verify", "tables",
                       "--type", "A2", "--space", "FP")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == ("FAIL tables A2 FP: computed H0=Z H1=Z^2 "
                        "expected H0=Z H1=Z^3")
    assert lines[1] == "0 passed, 1 failed, 0 skipped"


def test_verify_reports_a_wrong_euler_characteristic(capsys, monkeypatch):
    wrong = ReferenceRow("A2", "FP",
                         (HomologyGroup(1), HomologyGroup(2)), -2,
                         "test", "ok")
    monkeypatch.setattr("ncphom.cli.lookup", lambda *a: wrong)
    code, out, _ = run(capsys, "verify", "tables",
                       "--type", "A2", "--space", "FP")
    assert code == 1
    assert out.splitlines() == [
        "FAIL tables A2 FP: euler -1 expected -2",
        "0 passed, 1 failed, 0 skipped",
    ]


def test_verify_skips_a_table_without_a_reference_row(capsys):
    code, out, _ = run(capsys, "verify", "tables",
                       "--type", "E6", "--space", "FQ0")
    assert code == 0
    assert out.splitlines() == [
        "SKIP tables E6 FQ0: no reference row",
        "0 passed, 0 failed, 1 skipped",
    ]


def test_verify_runs_every_task_in_the_calling_process(capsys, monkeypatch):
    # A worker count left in the environment moves no work out of this
    # process.
    monkeypatch.setenv("NCPHOM_WORKERS", "2")
    seen = []
    answer = cli.homology_of
    monkeypatch.setattr("ncphom.cli.homology_of",
                        lambda cx: seen.append(os.getpid()) or answer(cx))
    code, out, _ = run(capsys, "verify", "tables", "--space", "FP",
                       "--type", "I2(3)", "--type", "I2(4)")
    assert code == 0
    assert out.splitlines() == [
        "PASS tables I2(3) FP: H0=Z H1=Z^2",
        "PASS tables I2(4) FP: H0=Z H1=Z^3",
        "2 passed, 0 failed, 0 skipped",
    ]
    assert seen == [os.getpid()] * 2


def test_verify_all_runs_tables_then_invariants(capsys):
    code, out, err = run(capsys, "verify", "all", "--max-rank", "1")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "PASS tables A1 FP: H0=Z",
        "PASS tables A1 FQ0: H0=Z",
        "PASS invariants A1 hurwitz-braid-relations: "
        "1000 random length-4 sequences",
        "PASS invariants A1 mobius-counts-factorizations: all 2 elements",
        "PASS invariants A1 unique-increasing-chain: 3 intervals",
        "PASS invariants A1 quadratic-relations: "
        "1 vanishing pairs, 0 rank-2 sums",
        "PASS invariants A1 unitriangular-bases: 3 basis chains",
        "PASS invariants A1 span-equality: "
        "2 reduced factorizations of 2 elements",
        "PASS invariants A1 algebra-differential-exact: "
        "acyclic with predicted differential ranks",
        "PASS invariants A1 boundary-squares-vanish: FP materialized, "
        "MW materialized, FQ materialized, FQ0 materialized, M materialized",
        "PASS invariants A1 fibre-doubling: "
        "support check + numeric comparison",
        "PASS invariants A1 leibniz-rule: no elements of rank 2 or more",
        "PASS invariants A1 moebius-polynomial-ranks: coefficients [1, 1]",
        "PASS invariants A1 shuffle-associative: 50 random triples",
        "14 passed, 0 failed, 0 skipped",
    ]


def _fresh_python(*args):
    """Run ``python *args`` in a fresh interpreter that imports ncphom from
    this checkout's ``src``."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=60)


def test_python_dash_m_runs_the_cli():
    proc = _fresh_python("-m", "ncphom", "homology", "A3", "FP")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "H0=Z H1=Z^2 H2=Z^2\n"


UNUSED_AT_START_UP = ("dataclasses", "inspect", "typing",
                      "importlib.resources", "pathlib", "concurrent.futures",
                      "random")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_start_up_loads_only_what_a_table_run_needs(flags):
    """Importing the CLI and loading the reference rows leaves the named
    standard-library modules unloaded: nothing imports a process pool,
    and ``random`` is imported where it is used.  A fresh interpreter is
    needed, as pytest has loaded them here, and ``-S`` keeps ``.pth``
    files in site-packages from loading modules first."""
    script = ("import sys\n"
              "import ncphom.cli\n"
              "ncphom.load_rows()\n"
              "print(*sorted(sys.modules))\n")
    proc = _fresh_python("-S", *flags, "-c", script)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert [m for m in UNUSED_AT_START_UP if m in loaded] == []
    assert len(loaded) <= 85


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_reference_rows_load_without_the_compute_layers(flags):
    """``import ncphom`` loads none of its submodules, and loading the rows
    and looking one up loads only ``refdata`` and what it imports, none of
    the group, lattice, chain, complex, invariant or CLI modules.  The
    first use of a name loads the submodule that defines it, and then
    every exported name and submodule resolves."""
    submodules = ("chain_algebra complexes coxgroup homology lattice "
                  "properties refdata rootsys")
    script = ("import sys\n"
              "def loaded():\n"
              "    print(*sorted(m[7:] for m in sys.modules\n"
              "                  if m.startswith('ncphom.')))\n"
              "import ncphom\n"
              "loaded()\n"
              "ncphom.load_rows()\n"
              "ncphom.lookup('A3', 'FP')\n"
              "loaded()\n"
              "ncphom.CoxeterGroup\n"
              "loaded()\n"
              f"for name in {submodules.split()} + ncphom.__all__:\n"
              "    getattr(ncphom, name)\n"
              "loaded()\n")
    proc = _fresh_python("-S", *flags, "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        "", "homology refdata rootsys", "coxgroup homology refdata rootsys",
        submodules, ""]


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_failed_invariant_reports_fail_under_optimize(flags):
    """A failing check is reported as FAIL with and without ``python -O``:
    the group-ring checks are patched to fail, and the boundary squares
    are sent down the group-ring route even for A2."""
    script = (
        "import sys\n"
        "import ncphom.properties as p\n"
        "from ncphom.cli import main\n"
        "p.group_ring_square_is_zero = lambda *args: False\n"
        "p.fibre_support_is_reflections = lambda *args: False\n"
        "p.MATERIALIZE_LIMIT = 0\n"
        "print('optimize', sys.flags.optimize)\n"
        "sys.exit(main(['verify', 'invariants', '--type', 'A2']))\n")
    proc = _fresh_python(*flags, "-c", script)
    lines = proc.stdout.splitlines()
    assert lines[0] == f"optimize {len(flags)}"
    assert proc.returncode == 1, proc.stderr
    failed = [line.split(":")[0] for line in lines if line.startswith("FAIL")]
    assert failed == ["FAIL invariants A2 boundary-squares-vanish",
                      "FAIL invariants A2 fibre-doubling"]
    assert lines[-1].endswith("2 failed, 0 skipped")
