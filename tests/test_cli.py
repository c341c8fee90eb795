"""End-to-end tests of the command-line interface.

Everything goes through ``main(argv)`` so the tests exercise argument
parsing, exit codes, and the emitted JSON exactly as a shell user would.
"""

import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import pytest

import tessella
from tessella import cli, equivariant
from tessella.cli import (
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_NO_CHOICE,
    EXIT_OK,
    EXIT_VERIFY,
    PipelineConfig,
    RunReport,
    main,
    run_pipeline,
)
from tessella.datafiles import load_data
from tessella.equivariant import tiling_automorphism_to_json
from tessella.pathalg import (InverseOfNonLocalized, cyclic_derivative,
                              parse_letters, qpot_from_json, qpot_to_json)

from conftest import (SQUARE_TORUS, cyclic_cover, genus2_potential,
                      genus2_quiver)


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(argv, capsys):
    rc, out, err = run(argv, capsys)
    assert rc == EXIT_OK, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# single-purpose subcommands on the bundled example


def test_dual_defaults_to_bundled_tiling(capsys):
    obj = run_json(["dual"], capsys)
    quiver, W = qpot_from_json(obj)
    assert len(quiver.vertices) == 2
    assert len(quiver.arrows) == 10
    assert len(W.terms()) == 6


def test_dual_explicit_path_matches_default(tmp_path, capsys):
    path = tmp_path / "tiling.json"
    path.write_text(json.dumps(load_data("genus2_tiling.json")))
    explicit = run_json(["dual", str(path)], capsys)
    default = run_json(["dual"], capsys)
    assert explicit == default


def test_dual_missing_file_is_input_error(tmp_path, capsys):
    rc, _, err = run(["dual", str(tmp_path / "nope.json")], capsys)
    assert rc == EXIT_INPUT
    assert "error" in err


def _bundled_tiling_with(**fields):
    obj = load_data("genus2_tiling.json")
    obj.update(fields)
    return obj


@pytest.mark.parametrize("field, tiling", [
    ("half_edges", {"half_edges": 3}),
    ("half_edges", _bundled_tiling_with(half_edges=[0, "1", 2])),
    ("involution", _bundled_tiling_with(involution=5)),
    ("involution", _bundled_tiling_with(involution=[[0, 1], [2]])),
    ("rotation", _bundled_tiling_with(rotation={"0": [0]})),
    ("rotation", _bundled_tiling_with(rotation=[[0, 2], []])),
    ("coloring", _bundled_tiling_with(coloring=["w", "b"])),
    ("coloring", _bundled_tiling_with(coloring={"6": "w"})),
    ("coloring", _bundled_tiling_with(coloring={"first": "w"})),
    ("labels", _bundled_tiling_with(labels=["a"])),
    ("labels", _bundled_tiling_with(labels={"zz": "x"})),
    ("labels", _bundled_tiling_with(labels={"0": ["x"]})),
])
def test_dual_malformed_tiling_names_the_field(tmp_path, capsys, field,
                                                tiling):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(tiling))
    rc, out, err = run(["dual", str(path)], capsys)
    assert rc == EXIT_INPUT and out == ""
    assert err.startswith(f"error: InputError: tiling field '{field}'")
    assert err.count("\n") == 1


def test_tiling_that_is_not_an_object_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]")
    rc, _, err = run(["refine", "--tiling", str(path)], capsys)
    assert rc == EXIT_INPUT
    assert err == "error: InputError: a tiling file holds a JSON object, " \
                  "not list\n"


def _bundled_perm_with(**entries):
    perm = dict(load_data("genus2_automorphism.json")["half_edge_perm"])
    perm.update(entries)
    return perm


@pytest.mark.parametrize("autom, message", [
    ([0, 1], "an automorphism file holds a JSON object, not list"),
    (3, "an automorphism file holds a JSON object, not int"),
    ({"half_edge_perm": 3},
     "automorphism field 'half_edge_perm' must be an object, not int"),
    ({"half_edge_perm": [18, 19]},
     "automorphism field 'half_edge_perm' must be an object, not list"),
    ({"half_edge_perm": _bundled_perm_with(x=1)},
     "automorphism field 'half_edge_perm' must map integer keys to integers"),
    ({"half_edge_perm": _bundled_perm_with(**{"0": "18"})},
     "automorphism field 'half_edge_perm' must map integer keys to integers"),
    ({"half_edge_perm": _bundled_perm_with(**{"0": 18.5})},
     "automorphism field 'half_edge_perm' must map integer keys to integers"),
    ({"half_edge_perm": _bundled_perm_with(**{"0": True})},
     "automorphism field 'half_edge_perm' must map integer keys to integers"),
    (_bundled_perm_with(**{"1.5": 2}),
     "automorphism field 'half_edge_perm' must map integer keys to integers"),
    ({"half_edge_perm": _bundled_perm_with(), "order": "2"},
     "automorphism field 'order' must be an integer"),
    ({"half_edge_perm": _bundled_perm_with(), "order": 2.0},
     "automorphism field 'order' must be an integer"),
])
def test_malformed_automorphism_names_the_field(tmp_path, capsys, autom,
                                                message):
    path = tmp_path / "autom.json"
    path.write_text(json.dumps(autom))
    rc, out, err = run(["refine", "--automorphism", str(path)], capsys)
    assert rc == EXIT_INPUT and out == ""
    assert err == f"error: InputError: {message}\n"


@pytest.mark.parametrize("autom", [
    {"half_edge_perm": _bundled_perm_with(), "order": 2},
    {"half_edge_perm": _bundled_perm_with()},
    _bundled_perm_with(),
])
def test_well_formed_automorphism_shapes_still_load(tmp_path, capsys, autom):
    path = tmp_path / "autom.json"
    path.write_text(json.dumps(autom))
    obj = run_json(["refine", "--automorphism", str(path)], capsys)
    assert obj["automorphism"]["order"] == 2


def test_pipeline_malformed_automorphism_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad_autom.json"
    bad.write_text(json.dumps({"half_edge_perm": 3}))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"automorphism": str(bad),
                                    "output_dir": str(tmp_path / "out")}))
    rc, out, _ = run(["pipeline", "--config", str(cfg_path)], capsys)
    assert rc == EXIT_INPUT
    assert json.loads(out)["stages"][0] == {
        "name": "tile", "status": "failed",
        "detail": "InputError: automorphism field 'half_edge_perm' must be "
                  "an object, not int"}


def test_refine_reports_no_split_needed(capsys):
    obj = run_json(["refine"], capsys)
    assert obj["changed"] is False
    assert obj["automorphism"]["order"] == 2


def test_dimer_emits_a_perfect_matching(capsys):
    obj = run_json(["dimer"], capsys)
    assert len(obj["matching"]) == 3
    assert len(obj["dual_arrows"]) == 3


def test_choose_xi_prefers_smallest_generator_letters(capsys):
    obj = run_json(["choose-xi"], capsys)
    assert obj["generators"] == ["a", "b", "c", "d", "e"]
    assert obj["bases"] == {"1": 2}
    assert obj["dimer_duals"] == ["f", "g", "h"]


def test_transport_emits_the_expected_potential(capsys):
    obj = run_json(["transport"], capsys)
    assert obj["homogeneous"] is True
    assert obj["degree"] == 2
    words = {"".join(a for a, _ in t["word"]): t["coeff"]
             for t in obj["potential"]}
    assert words == {"abreabre": 1, "crdr": 2, "ardbrc": -2, "erer": -1}


def test_transport_with_explicit_choice_file(tmp_path, capsys):
    choice = {"generators": ["a", "b", "c", "d", "e"], "bases": {"1": 2}}
    path = tmp_path / "choice.json"
    path.write_text(json.dumps(choice))
    with_choice = run_json(["transport", "--choice", str(path)], capsys)
    automatic = run_json(["transport"], capsys)
    assert with_choice == automatic


def test_a_choice_that_is_not_homogeneous_fails_verification(tmp_path,
                                                            capsys):
    """Only a choice file reaches the check: the search keeps homogeneous
    choices.  Generators a, c, e, g, i transport W with mixed degrees."""
    path = tmp_path / "choice.json"
    path.write_text(json.dumps({"generators": ["a", "c", "e", "g", "i"],
                                "bases": {"1": 1},
                                "require_common_source": False}))
    rc, out, err = run(["transport", "--choice", str(path)], capsys)
    assert rc == EXIT_VERIFY
    assert json.loads(out)["homogeneous"] is False
    assert err == "error: transported potential is not homogeneous\n"
    assert run(["transport", "--choice", str(path),
                "--no-require-homogeneous"], capsys) == (EXIT_OK, out, "")


def test_a_choice_with_mixed_signs_is_input_error(tmp_path, capsys):
    path = tmp_path / "choice.json"
    path.write_text(json.dumps({"generators": ["a", "b", "c", "d", "f"],
                                "bases": {"1": 1},
                                "require_common_source": False}))
    rc, out, err = run(["transport", "--choice", str(path)], capsys)
    assert (rc, out) == (EXIT_INPUT, "")
    assert err == ("error: MixedInverseViolation: isomorphism arrows "
                   "occurring with both signs: ['r']\n")


_GENERATORS = ["a", "b", "c", "d", "e"]


@pytest.mark.parametrize("choice, message", [
    ([], "a choice file holds a JSON object, not list"),
    ({"generators": "abcde"}, "choice field 'generators' must be a list of "
                              "arrow ids"),
    ({"bases": {"1": 2}}, "choice field 'generators' is missing"),
    ({"generators": _GENERATORS}, "choice field 'bases' is missing"),
    ({"generators": _GENERATORS, "bases": [[1, 2]]},
     "choice field 'bases' must be an object"),
    ({"generators": _GENERATORS, "bases": {"1": 2},
      "require_common_source": 1},
     "choice field 'require_common_source' must be a boolean"),
])
def test_malformed_choice_file_names_the_field(tmp_path, capsys, choice,
                                               message):
    path = tmp_path / "choice.json"
    path.write_text(json.dumps(choice))
    rc, out, err = run(["transport", "--choice", str(path)], capsys)
    assert rc == EXIT_INPUT and out == ""
    assert err == f"error: InputError: {message}\n"


def test_derive_lists_one_relation_per_generator(capsys):
    obj = run_json(["derive"], capsys)
    assert [r["arrow"] for r in obj["relations"]] == ["a", "b", "c", "d", "e"]
    for r in obj["relations"]:
        assert r["element"], "every derivative of the orbit potential is nonzero"


def test_gdga_check_passes_on_base_data(capsys):
    obj = run_json(["gdga-check"], capsys)
    assert obj == {"ok": True, "witnesses": {}}


def test_verify_eq31_passes_every_generator(capsys):
    obj = run_json(["verify-eq31"], capsys)
    assert obj["ok"] is True
    assert sorted(c["arrow"] for c in obj["checks"]) == list("abcde")
    assert all(c["passed"] for c in obj["checks"])


def test_psi_verify_certificate_mode(capsys):
    obj = run_json(["psi-verify"], capsys)
    assert obj["ok"] is True
    assert obj["mode"] == "certificate"
    assert len(obj["checks"]) == 5


def test_psi_verify_dehn_mode_with_bundled_config(capsys):
    obj = run_json(["psi-verify", "--mode", "dehn", "--bundled-phi-star"],
                   capsys)
    assert obj["ok"] is True
    assert all(c["method"] == "dehn" for c in obj["checks"])


def test_psi_verify_dehn_mode_without_config_is_input_error(capsys):
    rc, _, err = run(["psi-verify", "--mode", "dehn"], capsys)
    assert rc == EXIT_INPUT
    assert err.startswith("error: MissingPhiAction: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def _bundled_phi_star_with(**fields):
    return dict(load_data("genus2_phi_star.json"), **fields)


_BAD_PAIRS = ("phi_star field 'psi_assignment' must be an object of "
              "[group-word string, integer] pairs")


@pytest.mark.parametrize("phi_star, message", [
    ([], "a phi_star file holds a JSON object, not list"),
    ("x1", "a phi_star file holds a JSON object, not str"),
    ({"genus": 2, "order": 2, "phi_star": {"x1": 5}},
     "phi_star field 'phi_star' must be an object of group-word strings"),
    (_bundled_phi_star_with(phi_star=["x2", "y2"]),
     "phi_star field 'phi_star' must be an object of group-word strings"),
    (_bundled_phi_star_with(genus="2"),
     "phi_star field 'genus' must be an integer"),
    (_bundled_phi_star_with(genus=2.0),
     "phi_star field 'genus' must be an integer"),
    (_bundled_phi_star_with(order=True),
     "phi_star field 'order' must be an integer"),
    ({"genus": 2, "phi_star": {}}, "phi_star field 'order' is missing"),
    (_bundled_phi_star_with(psi_assignment=[]), _BAD_PAIRS),
    (_bundled_phi_star_with(psi_assignment={"a": "x1^-1"}), _BAD_PAIRS),
    (_bundled_phi_star_with(psi_assignment={"a": ["x1^-1"]}), _BAD_PAIRS),
    (_bundled_phi_star_with(psi_assignment={"a": ["x1^-1", "0"]}), _BAD_PAIRS),
    (_bundled_phi_star_with(psi_assignment={"a": [3, 0]}), _BAD_PAIRS),
    (_bundled_phi_star_with(genus=3),
     "the phi_star file is for genus 3, but the tiling has genus 2"),
])
def test_malformed_phi_star_names_the_field(tmp_path, capsys, phi_star,
                                            message):
    path = tmp_path / "phi_star.json"
    path.write_text(json.dumps(phi_star))
    rc, out, err = run(["psi-verify", "--mode", "dehn", "--phi-star",
                        str(path)], capsys)
    assert rc == EXIT_INPUT and out == ""
    assert err == f"error: InputError: {message}\n"


def test_a_copy_of_the_bundled_phi_star_file_still_loads(tmp_path, capsys):
    path = tmp_path / "phi_star.json"
    path.write_text(json.dumps(load_data("genus2_phi_star.json")))
    obj = run_json(["psi-verify", "--mode", "dehn", "--phi-star", str(path)],
                   capsys)
    assert obj == run_json(["psi-verify", "--mode", "dehn",
                            "--bundled-phi-star"], capsys)


@pytest.mark.parametrize("mode", ["certificate", "dehn"])
def test_psi_verify_refuses_a_missing_phi_star_file_in_either_mode(
        tmp_path, capsys, mode):
    """As a pipeline config does, whose ``validate`` prints the same line;
    certificate mode reads no surface action, but a path that names no file
    is still bad input."""
    missing = tmp_path / "nothere.json"
    line = f"error: InputError: phi_star file {missing} does not exist\n"
    assert run(["psi-verify", "--mode", mode, "--phi-star", str(missing)],
               capsys) == (EXIT_INPUT, "", line)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"phi_star": str(missing), "psi_mode": mode}))
    assert run(["pipeline", "--config", str(config), "--output-dir",
                str(tmp_path / "out")], capsys) == (EXIT_INPUT, "", line)


def test_a_phi_star_file_for_a_huge_genus_fails_at_once(tmp_path):
    """The genus is compared before the presentation, 8g rotations of
    length 4g, is built.  The child's address space is capped, so that a
    regression fails here and does not exhaust the machine."""
    resource = pytest.importorskip("resource")
    path = tmp_path / "phi_star.json"
    path.write_text(json.dumps(_bundled_phi_star_with(genus=10 ** 6)))
    limit = 1_500_000_000
    env_path = os.pathsep.join(filter(None, [str(SRC),
                                             os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "tessella.cli", "psi-verify", "--mode", "dehn",
         "--phi-star", str(path)],
        env={**os.environ, "PYTHONPATH": env_path}, capture_output=True,
        text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (limit, limit)))
    assert (done.returncode, done.stdout, done.stderr) == (
        EXIT_INPUT, "", "error: InputError: the phi_star file is for genus "
        "1000000, but the tiling has genus 2\n")


def test_a_phi_star_order_at_a_multiple_of_the_period_finishes(tmp_path,
                                                               capsys):
    """The bundled order-2 action declared with ``order`` 10 is valid, and
    every power of it is Dehn-reduced as it is taken, so dehn mode ends
    with the bundled verdict; free-reduced powers grow exponentially and
    the run hung.  The child's address space is capped as above."""
    resource = pytest.importorskip("resource")
    path = tmp_path / "phi_star.json"
    path.write_text(json.dumps(_bundled_phi_star_with(order=10)))
    limit = 1_500_000_000
    env_path = os.pathsep.join(filter(None, [str(SRC),
                                             os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "tessella.cli", "psi-verify", "--mode", "dehn",
         "--phi-star", str(path)],
        env={**os.environ, "PYTHONPATH": env_path}, capture_output=True,
        text=True, timeout=20,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (limit, limit)))
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    assert json.loads(done.stdout) == run_json(
        ["psi-verify", "--mode", "dehn", "--bundled-phi-star"], capsys)


def _capped_psi_verify(phi_star_path) -> subprocess.CompletedProcess:
    """``psi-verify --mode dehn`` in a child whose address space is capped,
    so that a regression fails the test and does not exhaust the machine."""
    resource = pytest.importorskip("resource")
    limit = 1_500_000_000
    env_path = os.pathsep.join(filter(None, [str(SRC),
                                             os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "tessella.cli", "psi-verify", "--mode", "dehn",
         "--phi-star", str(phi_star_path)],
        env={**os.environ, "PYTHONPATH": env_path}, capture_output=True,
        text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (limit, limit)))


def test_a_phi_star_order_past_wimans_bound_fails_at_once(tmp_path, capsys):
    """An order above 4g + 2 is refused before phi_star is applied even
    once: 10^7 applications of it used to exhaust memory."""
    path = tmp_path / "phi_star.json"
    path.write_text(json.dumps(_bundled_phi_star_with(order=10 ** 7)))
    message = ("error: InputError: phi_star field 'order' must be at most "
               "4g+2 = 10 at genus 2, got 10000000\n")
    done = _capped_psi_verify(path)
    assert (done.returncode, done.stdout, done.stderr) == (EXIT_INPUT, "",
                                                           message)
    start = time.perf_counter()
    assert run(["psi-verify", "--mode", "dehn", "--phi-star", str(path)],
               capsys) == (EXIT_INPUT, "", message)
    assert time.perf_counter() - start < 1.0


def test_a_wrong_phi_star_order_within_the_bound_fails_at_once(tmp_path):
    """Each power of phi_star is Dehn-reduced: the bundled phi has order 2,
    and checking phi^9 with free reduction alone grew the words
    exponentially."""
    path = tmp_path / "phi_star.json"
    path.write_text(json.dumps(_bundled_phi_star_with(order=9)))
    done = _capped_psi_verify(path)
    assert (done.returncode, done.stdout, done.stderr) == (
        EXIT_INPUT, "", "error: InputError: phi^9 does not fix 'x1' in the "
        "group\n")


def test_pipeline_malformed_phi_star_fails_the_verify_stage(tmp_path, capsys):
    bad = tmp_path / "phi_star.json"
    bad.write_text(json.dumps({"genus": 2, "order": 2, "phi_star": {"x1": 5}}))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"phi_star": str(bad), "psi_mode": "dehn",
                                    "field_sizes": [2],
                                    "output_dir": str(tmp_path / "out")}))
    rc, out, _ = run(["pipeline", "--config", str(cfg_path)], capsys)
    stages = {s["name"]: s for s in json.loads(out)["stages"]}
    assert rc == EXIT_INPUT
    assert stages["verify"]["detail"] == (
        "InputError: phi_star field 'phi_star' must be an object of "
        "group-word strings")


def test_check_script_bundled_derivation_verifies(capsys):
    obj = run_json(["check-script"], capsys)
    assert obj["ok"] is True
    assert obj["failed_step"] is None
    assert "mapping-relator" in obj["established"]


def test_check_script_rejects_corrupt_step(tmp_path, capsys):
    blob = load_data("genus2_derivation.json")
    blob["steps"][4]["target"] = ["a", "b"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    rc, out, _ = run(["check-script", str(path)], capsys)
    assert rc == EXIT_VERIFY
    assert json.loads(out)["failed_step"] == 5


def test_check_script_reads_list_shaped_words(tmp_path, capsys):
    blob = load_data("genus2_derivation.json")
    blob["steps"][1]["move"]["word"] = [["a", 1]]
    blob["steps"][4]["target"] = [[["r", 1]], "d r c"]
    path = tmp_path / "script.json"
    path.write_text(json.dumps(blob))
    assert run_json(["check-script", str(path)], capsys) == \
        run_json(["check-script"], capsys)


def _bundled_script_with(step: int, **fields):
    blob = load_data("genus2_derivation.json")
    blob["steps"][step].update(fields)
    return blob


_BAD_STEPS = ("derivation script field 'steps' must be a list of step "
              "objects with a 'from', a 'move' object (integer 'relation' and "
              "'step', a word 'word', where given), a 'target' list of two "
              "words and an optional string 'establishes'")


_UNKNOWN_CONTRACT = ("derivation script field 'contract' names arrows "
                     "['zz'] that the orbit quiver does not have")


@pytest.mark.parametrize("script, message", [
    ({"steps": 3}, _BAD_STEPS),
    ({"contract": 5, "steps": []},
     "derivation script field 'contract' must be a list of arrow ids"),
    ("hello", "a derivation script file holds a JSON object, not str"),
    ({"contract": ["e"]}, "derivation script field 'steps' is missing"),
    ([5], _BAD_STEPS),
    (_bundled_script_with(2, move={"kind": "substitute", "relation": "5"}),
     _BAD_STEPS),
    (_bundled_script_with(2, move=[]), _BAD_STEPS),
    (_bundled_script_with(1, move={"kind": "multiply", "word": 5,
                                   "side": "left"}), _BAD_STEPS),
    (_bundled_script_with(4, target="a b"), _BAD_STEPS),
    (_bundled_script_with(4, target=["a"]), _BAD_STEPS),
    (_bundled_script_with(4, target=[5, 6]), _BAD_STEPS),
    (_bundled_script_with(0, establishes=["name"]), _BAD_STEPS),
    ({"contract": ["zz"], "steps": []}, _UNKNOWN_CONTRACT),
    (_bundled_script_with(1, move={"kind": "multiply", "word": [5],
                                   "side": "left"}), _BAD_STEPS),
    (_bundled_script_with(1, move={"kind": "multiply", "word": [["a", 2]],
                                   "side": "left"}), _BAD_STEPS),
    (_bundled_script_with(4, target=[[5], "d r c"]), _BAD_STEPS),
    (_bundled_script_with(4, target=["r", [[["d"], 1]]]), _BAD_STEPS),
])
def test_malformed_derivation_script_names_the_field(tmp_path, capsys, script,
                                                     message):
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    rc, out, err = run(["check-script", str(path)], capsys)
    assert rc == EXIT_INPUT and out == ""
    assert err == f"error: InputError: {message}\n"


def _pipeline_with_script(tmp_path, capsys, script):
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"script": str(path), "field_sizes": [2],
                                    "output_dir": str(tmp_path / "out")}))
    rc, out, _ = run(["pipeline", "--config", str(cfg_path)], capsys)
    return rc, {s["name"]: s for s in json.loads(out)["stages"]}


def test_pipeline_malformed_derivation_script_is_input_error(tmp_path, capsys):
    rc, stages = _pipeline_with_script(tmp_path, capsys, {"steps": 3})
    assert rc == EXIT_INPUT
    assert stages["verify"]["detail"] == f"InputError: {_BAD_STEPS}"
    assert stages["count"]["status"] == "skipped"


_REL1_CANCEL = {"from": "rel:1", "move": {"kind": "cancel"},
                "target": ["r d b r c", "b r e a b r e"]}


@pytest.mark.parametrize("script, code, total", [
    ([], EXIT_OK, 0),
    ([_REL1_CANCEL], EXIT_OK, 1),
    ([dict(_REL1_CANCEL, target=["a", "b"])], EXIT_VERIFY, 1),
])
def test_check_script_without_contract_uses_the_whole_orbit_quiver(
        tmp_path, capsys, script, code, total):
    # a list-shaped script contracts nothing: its relations keep both
    # vertices of the orbit quiver
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    rc, out, _ = run(["check-script", str(path)], capsys)
    assert rc == code
    report = json.loads(out)
    assert report["steps_total"] == total
    assert report["ok"] is (code == EXIT_OK)


def test_pipeline_checks_a_list_shaped_script(tmp_path, capsys):
    rc, stages = _pipeline_with_script(tmp_path, capsys, [])
    assert rc == EXIT_OK
    assert stages["verify"]["status"] == "ok"
    verify = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert verify["derivation_script"]["steps_total"] == 0


def test_pipeline_unknown_contract_arrow_is_input_error(tmp_path, capsys):
    rc, stages = _pipeline_with_script(tmp_path, capsys,
                                       {"contract": ["zz"], "steps": []})
    assert rc == EXIT_INPUT
    assert stages["verify"]["detail"] == f"InputError: {_UNKNOWN_CONTRACT}"
    assert stages["count"]["status"] == "skipped"


def test_count_q2_matches_the_closed_form(capsys):
    obj = run_json(["count", "--q", "2"], capsys)
    assert obj["total"] == 2
    assert obj["histogram"] == {"0": 2, "1": 0}


def test_count_q3_histogram(capsys):
    obj = run_json(["count", "--q", "3"], capsys)
    assert obj["total"] == 96
    assert obj["histogram"] == {"0": 64, "1": 16, "2": 16}


def test_count_rejects_composite_field_size(capsys):
    rc, _, err = run(["count", "--q", "4"], capsys)
    assert rc == EXIT_INPUT
    assert "not prime" in err


def test_count_sample_mode_requires_seed(capsys):
    rc, _, err = run(["count", "--q", "3", "--mode", "sample",
                      "--sample-size", "10"], capsys)
    assert rc == EXIT_INPUT
    assert "seed" in err


def test_count_explicit_qpot_file(tmp_path, capsys):
    quiver = genus2_quiver()
    payload = qpot_to_json(quiver, genus2_potential(quiver))
    path = tmp_path / "base.json"
    path.write_text(json.dumps(payload))
    obj = run_json(["count", str(path), "--q", "2"], capsys)
    assert obj["total"] == 2 ** 10


def test_probe_emits_both_sides(capsys):
    obj = run_json(["probe", "--q", "3"], capsys)
    assert obj["q"] == 3
    assert obj["weight_total"] == 48 and obj["nilpotent_times_q"] == 96
    assert obj["total_matches"] is False
    assert obj["invertible_matches"] is False


def test_probe_rejects_even_characteristic(capsys):
    rc, _, err = run(["probe", "--q", "2"], capsys)
    assert rc == EXIT_INPUT


def test_probe_explicit_qpot_needs_omega(tmp_path, capsys):
    quiver = genus2_quiver()
    payload = qpot_to_json(quiver, genus2_potential(quiver))
    path = tmp_path / "base.json"
    path.write_text(json.dumps(payload))
    rc, _, err = run(["probe", str(path), "--q", "3"], capsys)
    assert rc == EXIT_INPUT
    assert "omega" in err


def test_probe_omega_file_without_qpot_must_exist(tmp_path, capsys):
    missing = tmp_path / "nothere.json"
    rc, out, err = run(["probe", "--q", "3", "--omega", str(missing)], capsys)
    assert rc == EXIT_INPUT and out == ""
    assert err == f"error: InputError: input file {missing} does not exist\n"


def test_probe_omega_file_is_read_against_the_bundled_quiver(tmp_path,
                                                             capsys):
    path = tmp_path / "omega.json"
    path.write_text(json.dumps(
        [{"coeff": 1, "word": [[a, e] for a, e in parse_letters(w)]}
         for w in ("rere", "erer")]))
    rc, out, err = run(["probe", "--q", "3", "--omega", str(path)], capsys)
    assert rc == EXIT_OK, err
    assert out.encode() == (BENCHMARKS / "golden" / "probe_q_3.out").read_bytes()


@pytest.mark.parametrize("omega, message", [
    ({"terms": 5}, "omega file must be a list of terms, not dict"),
    ([1, 2], "omega file term 0 must be an object with fields 'coeff' and "
             "'word'"),
    ({"terms": [[1, 5]]}, "omega file must be a list of terms, not dict"),
    ([{"coeff": 1, "word": "rere"}],
     "omega file term 0 field 'word' must be a list of [arrow, exponent] "
     "pairs"),
    ([{"coeff": [1], "word": [["r", 1]]}],
     "omega file term 0 field 'coeff' must be an integer or a fraction "
     "string"),
    ([{"coeff": "1/0", "word": [["r", 1]]}],
     "omega file term 0 field 'coeff' must be an integer or a fraction "
     "string"),
    ([{"coeff": "one", "word": [["r", 1]]}],
     "omega file term 0 field 'coeff' must be an integer or a fraction "
     "string"),
    ([{"coeff": 1, "word": [[["x"], 1]]}],
     "omega file term 0 field 'word' must be a list of [arrow, exponent] "
     "pairs"),
    ([{"coeff": 1, "word": [["r", 1]]}, {"coeff": 1, "word": [], "at": [1]}],
     "omega file term 1 field 'at' must be an integer or a string"),
])
def test_malformed_omega_file_names_the_field(tmp_path, capsys, omega,
                                              message):
    path = tmp_path / "omega.json"
    path.write_text(json.dumps(omega))
    rc, out, err = run(["probe", "--q", "3", "--omega", str(path)], capsys)
    assert rc == EXIT_INPUT and out == ""
    assert err == f"error: InputError: {message}\n"


def test_malformed_omega_in_a_qpot_file_names_the_field(tmp_path, capsys):
    quiver = genus2_quiver()
    payload = qpot_to_json(quiver, genus2_potential(quiver))
    payload["omega"] = [1, 2]
    path = tmp_path / "base.json"
    path.write_text(json.dumps(payload))
    rc, out, err = run(["probe", str(path), "--q", "3"], capsys)
    assert rc == EXIT_INPUT and out == ""
    assert err == ("error: InputError: qpot field 'omega' term 0 must be an "
                   "object with fields 'coeff' and 'word'\n")


_ONE_LOOP = {"id": "a", "src": 1, "tgt": 1}
_BAD_ARROWS = ("qpot field 'arrows' must be a list of objects with integer or "
               "string 'id', 'src' and 'tgt' and an optional boolean "
               "'localized'")


@pytest.mark.parametrize("qpot, message", [
    ([], "a qpot file holds a JSON object, not list"),
    ({"arrows": []}, "qpot field 'vertices' is missing"),
    ({"vertices": 3, "arrows": []},
     "qpot field 'vertices' must be a list of integers or strings"),
    ({"vertices": [1], "arrows": {"a": [1, 1]}}, _BAD_ARROWS),
    ({"vertices": [1], "arrows": [{"id": "a", "src": 1}], "potential": []},
     _BAD_ARROWS),
    ({"vertices": [1], "arrows": [{**_ONE_LOOP, "localized": 1}]},
     _BAD_ARROWS),
    ({"vertices": [1], "arrows": [_ONE_LOOP],
      "potential": [{"coeff": 1, "word": "aaa"}]},
     "qpot field 'potential' term 0 field 'word' must be a list of "
     "[arrow, exponent] pairs"),
    ({"vertices": [1], "arrows": [_ONE_LOOP],
      "potential": [{"coeff": 1, "word": [[["a"], 1]]}]},
     "qpot field 'potential' term 0 field 'word' must be a list of "
     "[arrow, exponent] pairs"),
    ({"vertices": [1], "arrows": [_ONE_LOOP],
      "potential": [{"coeff": "1/0", "word": [["a", 1]]}]},
     "qpot field 'potential' term 0 field 'coeff' must be an integer or a "
     "fraction string"),
])
@pytest.mark.parametrize("argv", [["count", "--q", "2"], ["probe", "--q", "3"],
                                  ["derive"], ["gdga-check"]],
                         ids=lambda argv: argv[0])
def test_malformed_qpot_file_names_the_field(tmp_path, capsys, qpot, message,
                                             argv):
    path = tmp_path / "qpot.json"
    path.write_text(json.dumps(qpot))
    rc, out, err = run([argv[0], str(path), *argv[1:]], capsys)
    assert rc == EXIT_INPUT and out == ""
    assert err == f"error: InputError: {message}\n"


def test_dimer_stuck_on_a_cover_exits_as_bad_input(tmp_path, capsys):
    """The 3-fold cover of the two-square torus with voltages (0, 0, 0, 1):
    its colours do not balance modulo the symmetry order."""
    tiling, taut = cyclic_cover(SQUARE_TORUS, 3, (0, 0, 0, 1), seed=0)
    tiling_path = tmp_path / "tiling.json"
    tiling_path.write_text(json.dumps(cli.tiling_to_json(tiling)))
    autom_path = tmp_path / "autom.json"
    autom_path.write_text(json.dumps(tiling_automorphism_to_json(taut)))
    rc, out, err = run(["dimer", "--tiling", str(tiling_path),
                        "--automorphism", str(autom_path)], capsys)
    assert rc == EXIT_INPUT and out == ""
    assert err.startswith("error: MatchingStuck: colour imbalance")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_output_file_flag_writes_the_same_bytes(tmp_path, capsys):
    to_stdout = run(["choose-xi"], capsys)[1]
    out = tmp_path / "choice.json"
    rc, stdout, _ = run(["choose-xi", "-o", str(out)], capsys)
    assert rc == EXIT_OK
    assert stdout == ""
    assert out.read_text() == to_stdout


# ---------------------------------------------------------------------------
# the pipeline


def test_pipeline_defaults_pass_end_to_end(tmp_path, capsys):
    rc, out, _ = run(["pipeline", "--output-dir", str(tmp_path)], capsys)
    assert rc == EXIT_OK
    report = json.loads(out)
    assert report["ok"] is True
    assert [s["name"] for s in report["stages"]] == [
        "tile", "dual", "refine", "dimer", "choice", "transport",
        "verify", "count"]
    assert all(s["status"] == "ok" for s in report["stages"])
    for name in report["artifacts"]:
        assert (tmp_path / name).exists()
    counts = json.loads((tmp_path / "counts.json").read_text())
    assert [(c["q"], c["total"]) for c in counts] == [(2, 2), (3, 96)]
    orbit = json.loads((tmp_path / "orbit_qpot.json").read_text())
    assert orbit["homogeneous"] is True and orbit["degree"] == 2
    verify = json.loads((tmp_path / "verify.json").read_text())
    assert verify["transport_identity"]["ok"] is True
    assert verify["d_squared"]["ok"] is True
    assert verify["psi_relations"]["ok"] is True


def test_pipeline_reports_are_byte_identical_for_identical_configs(tmp_path):
    cfg = PipelineConfig(output_dir=str(tmp_path / "out"))
    run_pipeline(cfg)
    first = (tmp_path / "out" / "report.json").read_bytes()
    run_pipeline(PipelineConfig(output_dir=str(tmp_path / "out")))
    assert (tmp_path / "out" / "report.json").read_bytes() == first


def test_pipeline_config_file_with_script_and_dehn_mode(tmp_path, capsys):
    outdir = tmp_path / "artifacts"
    datadir = tmp_path / "inputs"
    datadir.mkdir()
    for name in ("genus2_tiling.json", "genus2_automorphism.json",
                 "genus2_phi_star.json", "genus2_derivation.json"):
        (datadir / name).write_text(json.dumps(load_data(name)))
    cfg = {"tiling": "inputs/genus2_tiling.json",
           "automorphism": "inputs/genus2_automorphism.json",
           "phi_star": "inputs/genus2_phi_star.json",
           "script": "inputs/genus2_derivation.json",
           "psi_mode": "dehn",
           "field_sizes": [3],
           "output_dir": str(outdir)}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    rc, out, _ = run(["pipeline", "--config", str(cfg_path)], capsys)
    assert rc == EXIT_OK
    report = json.loads(out)
    assert report["ok"] is True
    assert set(report["input_digests"]) == {"tiling", "automorphism",
                                            "phi_star", "script"}
    verify = json.loads((outdir / "verify.json").read_text())
    assert verify["derivation_script"]["ok"] is True
    assert all(c["method"] == "dehn"
               for c in verify["psi_relations"]["checks"])


def test_pipeline_digests_reproduce_the_inputs(tmp_path, capsys):
    import hashlib
    tiling_path = tmp_path / "t.json"
    tiling_path.write_text(json.dumps(load_data("genus2_tiling.json")))
    cfg = {"tiling": str(tiling_path), "output_dir": str(tmp_path / "out")}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    rc, out, _ = run(["pipeline", "--config", str(cfg_path)], capsys)
    assert rc == EXIT_OK
    digest = json.loads(out)["input_digests"]["tiling"]
    assert digest["sha256"] == hashlib.sha256(
        tiling_path.read_bytes()).hexdigest()


def test_pipeline_rejects_composite_field_size(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"field_sizes": [2, 4],
                                    "output_dir": str(tmp_path / "out")}))
    rc, _, err = run(["pipeline", "--config", str(cfg_path)], capsys)
    assert rc == EXIT_INPUT
    assert "not prime" in err


def test_pipeline_dehn_mode_without_phi_star_surfaces_missing_action(
        tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"psi_mode": "dehn",
                                    "output_dir": str(tmp_path / "out")}))
    rc, _, err = run(["pipeline", "--config", str(cfg_path)], capsys)
    assert rc == EXIT_INPUT
    assert err.startswith("error: MissingPhiAction: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("config, message", [
    ({"field_sizes": "ab"}, "'field_sizes' must be a list of integers"),
    ({"field_sizes": ["3"]}, "'field_sizes' must be a list of integers"),
    ({"field_sizes": [2.0]}, "'field_sizes' must be a list of integers"),
    ({"dimension": "2"}, "'dimension' must be an integer"),
    ({"dimension": True}, "'dimension' must be an integer"),
    ({"sample_size": "100"}, "'sample_size' must be an integer or null"),
    ({"seed": 1.5}, "'seed' must be an integer or null"),
    ({"tiling": 3}, "'tiling' must be a path string or null"),
    ({"phi_star": ["a.json"]}, "'phi_star' must be a path string or null"),
    ({"psi_mode": 1}, "'psi_mode' must be a string"),
    ({"mode": None}, "'mode' must be a string"),
    ({"require_homogeneous": "yes"}, "'require_homogeneous' must be a boolean"),
    ({"output_dir": None}, "'output_dir' must be a path string"),
])
def test_pipeline_config_value_of_the_wrong_type_names_the_field(
        tmp_path, capsys, config, message):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    rc, out, err = run(["pipeline", "--config", str(cfg_path),
                        "--output-dir", str(tmp_path / "out")], capsys)
    assert rc == EXIT_INPUT and out == ""
    assert err == f"error: InputError: pipeline config field {message}\n"
    assert not (tmp_path / "out").exists()


def test_a_tiling_that_is_not_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc, out, err = run(["dual", str(path)], capsys)
    assert (rc, out) == (EXIT_INPUT, "") and err.count("\n") == 1
    assert err.startswith(f"error: InputError: {path} is not valid JSON: ")


def test_a_directory_as_the_tiling_is_input_error(tmp_path, capsys):
    rc, out, err = run(["dual", str(tmp_path)], capsys)
    assert (rc, out) == (EXIT_INPUT, "") and err.count("\n") == 1
    assert err.startswith(f"error: InputError: cannot read {tmp_path}: ")


def test_a_dimension_below_one_is_input_error(tmp_path, capsys):
    message = "error: InputError: dimension must be >= 1, got 0\n"
    assert run(["count", "--q", "2", "--d", "0"], capsys) == \
        (EXIT_INPUT, "", message)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"dimension": 0,
                                    "output_dir": str(tmp_path / "out")}))
    assert run(["pipeline", "--config", str(cfg_path)], capsys) == \
        (EXIT_INPUT, "", message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config, message", [
    ({"mode": "fast"}, "unknown mode 'fast'"),
    ({"mode": "sample"}, "sample mode needs a sample size"),
    ({"mode": "sample", "sample_size": 5},
     "sample mode needs an explicit seed"),
    ({"psi_mode": "x"}, "unknown psi_mode 'x'"),
    ({"field_sizes": []}, "field_sizes must list at least one prime"),
])
def test_a_pipeline_config_value_out_of_range_is_input_error(
        tmp_path, capsys, config, message):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**config,
                                    "output_dir": str(tmp_path / "out")}))
    assert run(["pipeline", "--config", str(cfg_path)], capsys) == \
        (EXIT_INPUT, "", f"error: InputError: {message}\n")
    assert not (tmp_path / "out").exists()


def test_dehn_mode_needs_a_psi_assignment(tmp_path, capsys):
    phi_star = load_data("genus2_phi_star.json")
    del phi_star["psi_assignment"]
    path = tmp_path / "phi_star.json"
    path.write_text(json.dumps(phi_star))
    rc, out, err = run(["psi-verify", "--mode", "dehn", "--phi-star",
                        str(path)], capsys)
    assert (rc, out) == (EXIT_INPUT, "")
    assert err == ("error: InputError: the surface-action config lacks a "
                   "psi_assignment table, which dehn mode needs\n")


def test_pipeline_rejects_unknown_config_keys(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"tilnig": "x.json"}))
    rc, _, err = run(["pipeline", "--config", str(cfg_path)], capsys)
    assert rc == EXIT_INPUT
    assert "tilnig" in err


def test_pipeline_missing_input_file_fails_before_any_stage(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"tiling": "absent.json",
                                    "output_dir": str(tmp_path / "out")}))
    rc, _, err = run(["pipeline", "--config", str(cfg_path)], capsys)
    assert rc == EXIT_INPUT
    assert "absent.json" in err


def test_pipeline_verification_failure_still_runs_counts(tmp_path, capsys):
    """A failing check marks its stage failed (exit 2) without stopping the
    later stages, so every stage still gets an outcome."""
    blob = load_data("genus2_derivation.json")
    blob["steps"][0]["target"] = ["a", "b"]
    script_path = tmp_path / "broken_script.json"
    script_path.write_text(json.dumps(blob))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"script": str(script_path),
                                    "field_sizes": [2],
                                    "output_dir": str(tmp_path / "out")}))
    rc, out, _ = run(["pipeline", "--config", str(cfg_path)], capsys)
    assert rc == EXIT_VERIFY
    report = json.loads(out)
    status = {s["name"]: s["status"] for s in report["stages"]}
    assert status["verify"] == "failed"
    assert status["count"] == "ok"
    assert report["ok"] is False


def test_pipeline_hard_error_short_circuits(tmp_path, capsys):
    bad = tmp_path / "bad_tiling.json"
    bad.write_text(json.dumps({"sigma": {}, "labels": {}}))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"tiling": str(bad),
                                    "output_dir": str(tmp_path / "out")}))
    rc, out, _ = run(["pipeline", "--config", str(cfg_path)], capsys)
    assert rc != EXIT_OK
    report = json.loads(out)
    status = {s["name"]: s["status"] for s in report["stages"]}
    assert status["tile"] == "failed"
    assert all(status[name] == "skipped"
               for name in ("dual", "refine", "dimer", "choice",
                            "transport", "verify", "count"))


def test_pipeline_malformed_tiling_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad_tiling.json"
    bad.write_text(json.dumps({"half_edges": 3}))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"tiling": str(bad),
                                    "output_dir": str(tmp_path / "out")}))
    rc, out, _ = run(["pipeline", "--config", str(cfg_path)], capsys)
    assert rc == EXIT_INPUT
    tile = json.loads(out)["stages"][0]
    assert tile == {"name": "tile", "status": "failed",
                    "detail": "InputError: tiling field 'half_edges' must be "
                              "a list of integers"}


def test_pipeline_malformed_labels_fail_the_tile_stage(tmp_path, capsys):
    bad = tmp_path / "bad_tiling.json"
    bad.write_text(json.dumps(_bundled_tiling_with(labels={"0": True})))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"tiling": str(bad),
                                    "output_dir": str(tmp_path / "out")}))
    rc, out, _ = run(["pipeline", "--config", str(cfg_path)], capsys)
    assert rc == EXIT_INPUT
    tile = json.loads(out)["stages"][0]
    assert tile == {"name": "tile", "status": "failed",
                    "detail": "InputError: tiling field 'labels' must be an "
                              "object of string or integer names keyed by "
                              "half-edge numbers"}


@pytest.mark.parametrize("labels", [{}, {"0": "a", "2": 7}])
def test_well_formed_labels_still_load(tmp_path, capsys, labels):
    path = tmp_path / "tiling.json"
    path.write_text(json.dumps(_bundled_tiling_with(labels=labels)))
    obj = run_json(["dual", str(path)], capsys)
    assert len(obj["arrows"]) == 10


def test_run_report_json_carries_no_timing(tmp_path):
    report = run_pipeline(PipelineConfig(output_dir=str(tmp_path)))
    assert isinstance(report, RunReport)
    assert report.timing  # measured ...
    assert "timing" not in report.to_json()  # ... but kept out of the record
    assert (tmp_path / "timings.json").exists()


def test_pipeline_exit_code_mirrors_report(tmp_path):
    report = run_pipeline(PipelineConfig(output_dir=str(tmp_path)))
    assert report.ok and report.exit_code == EXIT_OK


# ---------------------------------------------------------------------------
# one exit code per fault class, from the subcommands and the pipeline alike


def _cover_files(tmp_path, voltages) -> dict:
    """Tiling and symmetry files of a 3-fold two-square-torus cover."""
    tiling, taut = cyclic_cover(SQUARE_TORUS, 3, voltages, seed=0)
    files = {"tiling": tmp_path / "tiling.json",
             "automorphism": tmp_path / "autom.json"}
    files["tiling"].write_text(json.dumps(cli.tiling_to_json(tiling)))
    files["automorphism"].write_text(json.dumps(tiling_automorphism_to_json(taut)))
    return {key: str(path) for key, path in files.items()}


def _not_a_symmetry(tmp_path):
    """The bundled genus-2 symmetry with two images swapped."""
    perm = load_data("genus2_automorphism.json")["half_edge_perm"]
    path = tmp_path / "autom.json"
    path.write_text(json.dumps(
        _bundled_perm_with(**{"0": perm["1"], "1": perm["0"]})))
    return ["refine", "--automorphism", str(path)], {"automorphism": str(path)}


def _stuck_dimer(tmp_path):
    files = _cover_files(tmp_path, (0, 0, 0, 1))
    return ["dimer", "--tiling", files["tiling"],
            "--automorphism", files["automorphism"]], files


def _count_defect(tmp_path):
    """The cover whose transported potential inverts the isomorphism arrow
    ``r_1_1``, which the counting quiver frees; ``count`` reads its counting
    quiver with potential from a file."""
    files = _cover_files(tmp_path, (0, 0, 1, 1))
    path = tmp_path / "counting.json"
    path.write_text(json.dumps(qpot_to_json(*cli._Run(files)["counting"])))
    return ["count", str(path), "--q", "2"], {**files, "field_sizes": [2]}


@pytest.mark.parametrize("fault, kind, same_detail", [
    (_not_a_symmetry, "InvalidAutomorphism", True),
    (_stuck_dimer, "MatchingStuck", True),
    (_count_defect, "InverseOfNonLocalized", False),
])
def test_a_fault_exits_alike_from_its_subcommand_and_the_pipeline(
        tmp_path, capsys, fault, kind, same_detail):
    argv, config = fault(tmp_path)
    rc, out, err = run(argv, capsys)
    assert rc == EXIT_INPUT and out == "" and err.count("\n") == 1
    line = err.removeprefix("error: ").rstrip("\n")
    assert line.startswith(f"{kind}: ")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**config,
                                    "output_dir": str(tmp_path / "out")}))
    rc, out, _ = run(["pipeline", "--config", str(cfg_path)], capsys)
    stages = json.loads(out)["stages"]
    failed = [i for i, s in enumerate(stages) if s["status"] != "ok"][0]
    assert rc == EXIT_INPUT and stages[failed]["status"] == "failed"
    assert stages[failed]["detail"].startswith(f"{kind}: ")
    assert all(s["status"] == "skipped" for s in stages[failed + 1:])
    if same_detail:
        assert stages[failed]["detail"] == line


def test_the_count_defect_is_raised_by_the_derivative_check(tmp_path):
    """On the counting quiver every cyclic derivative of the cover's
    transported potential meets the freed inverse letter ``r_1_1^-1``."""
    quiver, W = cli._Run(_cover_files(tmp_path, (0, 0, 1, 1)))["counting"]
    for a in quiver.arrow_ids():
        with pytest.raises(InverseOfNonLocalized):
            cyclic_derivative(quiver, W, a)


@pytest.mark.parametrize("fault", [RuntimeError, TypeError, ValueError,
                                   KeyError])
def test_an_internal_fault_exits_5_from_both_drivers(tmp_path, monkeypatch,
                                                     capsys, fault):
    """A ``TypeError``, a bare ``ValueError`` or a bare ``KeyError`` is a bug
    too: every fault that input can cause is an ``InputError``
    (``test_malformed_inputs``), so none of them may pass for bad input."""
    def boom(tiling, taut):
        raise fault("boom")

    detail = f"{fault.__name__}: {fault('boom')}"  # a KeyError quotes 'boom'
    monkeypatch.setattr(equivariant, "refine_tiling", boom)
    assert run(["refine"], capsys) == (EXIT_INTERNAL, "",
                                       f"error: {detail}\n")
    rc, out, _ = run(["pipeline", "--output-dir", str(tmp_path)], capsys)
    report = json.loads(out)
    assert rc == report["exit_code"] == EXIT_INTERNAL
    assert {"name": "refine", "status": "failed",
            "detail": detail} in report["stages"]


def test_a_coefficient_not_defined_in_the_field_is_input_error(tmp_path,
                                                               capsys):
    message = "error: InputError: coefficient 1/3 is not defined in F_3\n"
    quiver = genus2_quiver()
    payload = qpot_to_json(quiver, genus2_potential(quiver))
    payload["potential"][0]["coeff"] = "1/3"
    path = tmp_path / "base.json"
    path.write_text(json.dumps(payload))
    assert run(["count", str(path), "--q", "3"], capsys) == (EXIT_INPUT, "",
                                                            message)
    omega = tmp_path / "omega.json"
    omega.write_text(json.dumps(
        [{"coeff": c, "word": [[a, e] for a, e in parse_letters(w)]}
         for c, w in (("1/3", "rere"), (1, "erer"))]))
    assert run(["probe", "--q", "3", "--omega", str(omega)], capsys) == (
        EXIT_INPUT, "", message)


def _fault_classes() -> set:
    """Every exception class that a module of the package defines."""
    faults = set()
    for info in pkgutil.iter_modules(tessella.__path__):
        module = importlib.import_module(f"tessella.{info.name}")
        faults.update(value for value in vars(module).values()
                      if isinstance(value, type)
                      and issubclass(value, BaseException)
                      and value.__module__ == module.__name__)
    return faults


def test_a_fault_class_carries_its_exit_code():
    """Every fault that the package defines is an ``InputError`` (exit 4),
    but ``NoChoiceFound`` (exit 3) and the stage-internal
    ``_VerificationFailed`` (exit 2, never raised out of a stage)."""
    faults = _fault_classes()
    others = {equivariant.NoChoiceFound, cli._VerificationFailed}
    assert others <= faults
    untyped = sorted(f.__name__ for f in faults - others
                     if not issubclass(f, cli.InputError))
    assert untyped == []
    assert {cli._exit_code(f("x")) for f in faults - others} == {EXIT_INPUT}
    assert cli._exit_code(equivariant.NoChoiceFound("x")) == EXIT_NO_CHOICE


def test_an_os_error_exits_4(tmp_path, capsys):
    """An ``OSError`` is the user's: an unwritable ``-o`` path or output
    directory."""
    assert cli._exit_code(PermissionError("x")) == EXIT_INPUT
    rc, out, err = run(["dual", "-o", str(tmp_path)], capsys)
    assert (rc, out, err.count("\n")) == (EXIT_INPUT, "", 1)
    assert err.startswith("error: IsADirectoryError: ")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def _metadata(version: str, body: str = "") -> str:
    return f"Metadata-Version: 2.1\nName: tessella\nVersion: {version}\n\n{body}"


def _write_files(root: Path, files: dict) -> None:
    root.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)


# fake installs, one item per sys.path entry: a dict of the files in that
# directory, None for a directory that does not exist, a string for a file;
# and the version they give
VERSION_CASES = {
    "no install": ([{}], "0.0.0"),
    "a Version line in the body": (
        [{"tessella-0.1.0.dist-info/METADATA":
          _metadata("0.1.0", "Version: 9.9\n")}], "0.1.0"),
    "upper case": ([{"Tessella-2.0.dist-info/METADATA": _metadata("2.0")}],
                   "2.0"),
    "egg-info directory": ([{"tessella.egg-info/PKG-INFO": _metadata("0.3")}],
                           "0.3"),
    "egg-info file": ([{"tessella-0.4.egg-info": _metadata("0.4")}], "0.4"),
    "look-alike": ([{"tessella_extra-1.0.dist-info/METADATA":
                     _metadata("1.0")}], "0.0.0"),
    "first entry wins": ([{"tessella-1.5.dist-info/METADATA": _metadata("1.5")},
                          {"tessella-2.5.dist-info/METADATA": _metadata("2.5")}],
                         "1.5"),
    "missing and file entries skipped": (
        [None, "not a directory",
         {"tessella-3.0.dist-info/METADATA": _metadata("3.0")}], "3.0"),
}


@pytest.mark.parametrize("entries, version", VERSION_CASES.values(),
                         ids=VERSION_CASES)
def test_tool_version_agrees_with_importlib_metadata(tmp_path, monkeypatch,
                                                     entries, version):
    path = [str(tmp_path / str(i)) for i in range(len(entries))]
    for entry, root in zip(entries, path):
        if isinstance(entry, dict):
            _write_files(Path(root), entry)
        elif entry is not None:
            Path(root).write_text(entry)
    found = next(metadata.distributions(name="tessella", path=path), None)
    assert (found.version if found else "0.0.0") == version
    monkeypatch.setattr(sys, "path", path)
    assert cli.tool_version() == version


def test_tool_version_reads_the_working_directory_for_an_empty_entry(
        tmp_path, monkeypatch):
    _write_files(tmp_path, {"tessella-0.5.dist-info/METADATA": _metadata("0.5")})
    monkeypatch.chdir(tmp_path)
    assert next(metadata.distributions(name="tessella", path=[""])).version \
        == "0.5"
    monkeypatch.setattr(sys, "path", ["", str(tmp_path / "missing")])
    assert cli.tool_version() == "0.5"


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _scripts_by_lines(text: str) -> dict:
    """``[project.scripts]`` of a pyproject file, read line by line (Python
    3.10 has no ``tomllib``)."""
    scripts, section = {}, None
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and "=" in line:
            name, target = line.split("=", 1)
            scripts[name.strip().strip('"')] = target.strip().strip('"')
    return scripts


def declared_scripts() -> dict:
    text = PYPROJECT.read_text()
    try:
        import tomllib
    except ModuleNotFoundError:
        return _scripts_by_lines(text)
    return tomllib.loads(text)["project"]["scripts"]


def test_console_entry_point_is_exposed():
    assert declared_scripts()["tessella"] == "tessella.cli:entry"
    try:
        dist = metadata.distribution("tessella")
    except metadata.PackageNotFoundError:
        return  # running from the source tree; the declaration is the contract
    ours = [e for e in dist.entry_points
            if e.group == "console_scripts" and e.name == "tessella"]
    assert ours and ours[0].value == "tessella.cli:entry"


def test_pyproject_line_parse_agrees_with_tomllib():
    tomllib = pytest.importorskip("tomllib")
    text = PYPROJECT.read_text()
    assert _scripts_by_lines(text) == tomllib.loads(text)["project"]["scripts"]


@pytest.mark.parametrize("q,d", [(3, 3), (7, 2)])
def test_count_over_the_guard_exits_as_bad_input(q, d, capsys):
    rc, out, err = run(["count", "--q", str(q), "--d", str(d)], capsys)
    assert rc == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: StateSpaceTooLarge: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_a_pool_beyond_int64_is_named_by_its_power(capsys):
    # 3^10000 has 4772 digits, past what Python prints of an integer
    rc, out, err = run(["count", "--q", "3", "--d", "100"], capsys)
    assert (rc, out, err) == (
        EXIT_INPUT, "", "error: StateSpaceTooLarge: a single arrow already "
        "has 3^10000 matrices; the per-arrow pool guard is 4000000\n")


def test_pipeline_count_over_the_pool_guard_exits_as_bad_input(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"field_sizes": [47], "dimension": 2,
                                    "output_dir": str(tmp_path / "out")}))
    rc, out, _ = run(["pipeline", "--config", str(cfg_path)], capsys)
    assert rc == EXIT_INPUT
    report = json.loads(out)
    assert report["exit_code"] == EXIT_INPUT
    count = report["stages"][-1]
    assert count["name"] == "count" and count["status"] == "failed"
    assert count["detail"].startswith(
        "StateSpaceTooLarge: a single arrow already has 4879681 matrices")
    assert all(s["status"] == "ok" for s in report["stages"][:-1])


@pytest.mark.parametrize("size", [0, -3])
def test_a_sample_size_below_one_is_input_error(tmp_path, capsys, size):
    message = f"error: InputError: sample size must be >= 1, got {size}\n"
    rc, out, err = run(["count", "--q", "3", "--mode", "sample",
                        "--sample-size", str(size), "--seed", "1"], capsys)
    assert (rc, out, err) == (EXIT_INPUT, "", message)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"field_sizes": [3], "mode": "sample",
                                    "sample_size": size, "seed": 1,
                                    "output_dir": str(tmp_path / "out")}))
    rc, out, err = run(["pipeline", "--config", str(cfg_path)], capsys)
    assert (rc, out, err) == (EXIT_INPUT, "", message)
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# every subcommand is a view over the one stage table


BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _benchmark_module(name: str):
    """A module of the benchmark, read from its file so that this suite
    checks what the benchmark runs."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv", _benchmark_module("workloads").BUNDLED_CALLS,
                         ids=lambda argv: "_".join(a.lstrip("-") for a in argv))
def test_bundled_call_prints_the_golden_bytes(argv, capsys):
    name = "_".join(a.lstrip("-") for a in argv)
    rc, out, err = run(list(argv), capsys)
    assert rc == EXIT_OK, err
    assert out.encode() == (BENCHMARKS / "golden" / f"{name}.out").read_bytes()


def _broken_tilings() -> dict:
    good = load_data("genus2_tiling.json")
    return {
        "all_white": dict(good, coloring={k: "w" for k in good["coloring"]}),
        "involution_short": dict(good, involution=good["involution"][:-1]),
    }


PAIR_SUBCOMMANDS = ("refine", "dimer", "choose-xi", "transport",
                    "verify-eq31", "psi-verify", "check-script")


@pytest.mark.parametrize("broken", sorted(_broken_tilings()))
@pytest.mark.parametrize("subcommand", PAIR_SUBCOMMANDS + ("dual",))
def test_every_subcommand_rejects_an_invalid_tiling(tmp_path, capsys,
                                                    subcommand, broken):
    path = tmp_path / "tiling.json"
    path.write_text(json.dumps(_broken_tilings()[broken]))
    argv = ([subcommand, str(path)] if subcommand == "dual"
            else [subcommand, "--tiling", str(path)])
    rc, out, err = run(argv, capsys)
    assert rc == EXIT_INPUT and out == ""
    assert err.startswith("error: InputError: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("config, kind", [([], "list"), (["ab"], "list"),
                                          ("x", "str")])
def test_pipeline_config_that_is_not_an_object_is_input_error(
        tmp_path, capsys, config, kind):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    rc, out, err = run(["pipeline", "--config", str(cfg_path),
                        "--output-dir", str(tmp_path / "out")], capsys)
    assert rc == EXIT_INPUT and out == ""
    assert err == ("error: InputError: a pipeline config file holds a JSON "
                   f"object, not {kind}\n")
    assert not (tmp_path / "out").exists()


CHAIN = ("tiling", "automorphism", "refine", "dimer", "choice", "transport")


@pytest.mark.parametrize("target, computed", [
    ("dual", {"tiling", "dual"}),
    ("refine", {"tiling", "automorphism", "refine"}),
    ("dimer", {"tiling", "automorphism", "refine", "dimer"}),
    ("transport_identity", {*CHAIN, "transport_identity"}),
    ("derivation_script", {*CHAIN, "derivation_script"}),
    ("count", {*CHAIN, "orbit", "counting", "count"}),
])
def test_a_target_computes_only_the_stages_it_reads(target, computed):
    run_state = cli._Run({})
    run_state[target]
    assert set(run_state.values) == computed


def test_the_choice_stage_builds_the_dual_quiver_once(tmp_path, monkeypatch):
    """Without a choice file the choice stage takes the dual quiver, its
    potential and the symmetry from its ChoiceSearch, so a pipeline on a
    cover computes each once in the search, besides the dual stage."""
    from collections import Counter

    from tessella import surfacemap

    tiling, taut = cyclic_cover(load_data("torus_tiling.json"), 10, (1, 0, 2),
                                seed=1)
    tiling_path = tmp_path / "tiling.json"
    tiling_path.write_text(json.dumps(cli.tiling_to_json(tiling)))
    autom_path = tmp_path / "autom.json"
    autom_path.write_text(json.dumps(tiling_automorphism_to_json(taut)))
    calls = Counter()

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call
    for name in ("dual_quiver", "validate_tiling",
                 "induced_quiver_automorphism"):
        for module in (cli, equivariant, surfacemap):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))
    report = run_pipeline(PipelineConfig(
        tiling=str(tiling_path), automorphism=str(autom_path),
        field_sizes=(2,), output_dir=str(tmp_path / "out")))
    assert report.exit_code == EXIT_OK
    assert calls == {"dual_quiver": 2, "validate_tiling": 3,
                     "induced_quiver_automorphism": 1}


def test_dual_reads_no_automorphism(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the automorphism was loaded")
    monkeypatch.setattr(equivariant, "tiling_automorphism_from_json", refuse)
    monkeypatch.setattr(equivariant, "refine_tiling", refuse)
    assert run_json(["dual"], capsys)["vertices"]


def test_refine_runs_no_dimer(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the dimer ran")
    monkeypatch.setattr(equivariant, "equivariant_dimer", refuse)
    assert run_json(["refine"], capsys)["changed"] is False


def test_a_qpot_file_stands_in_for_the_chain(tmp_path, monkeypatch, capsys):
    quiver = genus2_quiver()
    payload = qpot_to_json(quiver, genus2_potential(quiver))
    path = tmp_path / "base.json"
    path.write_text(json.dumps(payload))

    def refuse(*args):
        raise AssertionError("the tiling was loaded")
    monkeypatch.setattr(cli, "tiling_from_json", refuse)
    for argv in (["derive", str(path)], ["gdga-check", str(path)],
                 ["count", str(path), "--q", "2"]):
        rc, _, err = run(argv, capsys)
        assert rc == EXIT_OK, err


def test_probe_reads_its_qpot_file_once(tmp_path, monkeypatch, capsys):
    quiver = genus2_quiver()
    payload = qpot_to_json(quiver, genus2_potential(quiver))
    payload["omega"] = []
    path = tmp_path / "base.json"
    path.write_text(json.dumps(payload))
    reads = []
    real = cli._read_input

    def counted(path, bundled_name=None):
        reads.append(path)
        return real(path, bundled_name)
    monkeypatch.setattr(cli, "_read_input", counted)
    rc, _, err = run(["probe", str(path), "--q", "3"], capsys)
    assert rc == EXIT_OK, err
    assert reads == [str(path)]


# ---------------------------------------------------------------------------
# import hygiene: each process loads only the modules of what it runs


SRC = Path(__file__).resolve().parents[1] / "src"
# the counting kernel comes with a count, and the numpy sweep with numpy only
# with a count that sweeps (sample mode, d >= 2, or past the monomial budget
# at d = 1); the per-point oracle with no CLI run; the symmetry stages with
# every stage from the automorphism on, so not with dual or gdga-check;
# the matrix-unit map and derivation scripts only with psi-verify,
# check-script and the pipeline;
# hashlib only with the pipeline report's input digests;
# importlib.metadata and dataclasses with nothing: the version is read from
# the metadata file, and no record generates code at import.
# inspect is not listed: from Python 3.12 importlib.resources imports it.
HEAVY = ("numpy", "tessella.repcount", "tessella.sweep", "tessella.matrixrep",
         "tessella.equivariant", "tessella.psi", "hashlib",
         "importlib.metadata", "dataclasses")
# what a count or probe of the bundled example loads of HEAVY on the monomial
# route: the chain up to the counting quiver, and the counting kernel
ROUTE = {"tessella.equivariant", "tessella.repcount"}
_FRESH = """
import contextlib, io, json, sys
from tessella.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    try:
        rc = main(sys.argv[1:])
    except SystemExit as exc:
        rc = exc.code
print(json.dumps({"rc": rc, "out": out.getvalue(), "modules": sorted(sys.modules)}))
"""


def in_fresh_process(argv, flags=(), watched=HEAVY) -> tuple:
    """(exit code, stdout, the ``watched`` modules loaded) of ``main(argv)``
    in a new interpreter started with ``flags``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *flags, "-c", _FRESH, *argv],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    result = json.loads(done.stdout)
    return (result["rc"], result["out"],
            {m for m in watched if m in result["modules"]})


@pytest.mark.parametrize("subcommand",
                         ["dual", "refine", "dimer", "choose-xi", "transport",
                          "derive", "gdga-check", "verify-eq31", "psi-verify",
                          "check-script"])
def test_a_subcommand_that_does_not_count_loads_no_numpy(subcommand):
    """``dual`` and ``gdga-check`` read no symmetry, so they load no
    :mod:`tessella.equivariant` either; only ``psi-verify`` and
    ``check-script`` load :mod:`tessella.psi`."""
    rc, out, loaded = in_fresh_process([subcommand])
    assert rc == EXIT_OK and out
    if subcommand in ("dual", "gdga-check"):
        assert loaded == set()
    elif subcommand in ("psi-verify", "check-script"):
        assert loaded == {"tessella.equivariant", "tessella.psi"}
    else:
        assert loaded == {"tessella.equivariant"}


def test_count_loads_the_counting_kernel():
    """The monomial route counts q = 3 without numpy, the numpy sweep or
    the per-point oracle."""
    rc, out, loaded = in_fresh_process(["count", "--q", "3", "--d", "1"])
    golden = BENCHMARKS / "golden" / "count_q_3_d_1.out"
    assert rc == EXIT_OK and out.encode() == golden.read_bytes()
    assert loaded == ROUTE


def test_a_small_probe_loads_the_counting_kernel_but_no_numpy():
    rc, out, loaded = in_fresh_process(["probe", "--q", "3"])
    golden = BENCHMARKS / "golden" / "probe_q_3.out"
    assert rc == EXIT_OK and out.encode() == golden.read_bytes()
    assert loaded == ROUTE


@pytest.mark.parametrize("argv, name", [
    (["count", "--q", "11", "--d", "1"], "count_q11_d1"),
    (["probe", "--q", "11"], "probe_q11")])
def test_a_q11_count_or_probe_loads_the_counting_kernel_but_no_numpy(argv,
                                                                    name):
    """Over F_11 the bundled example's image groups hold 501 elements,
    within the monomial budget, where the numpy sweep would visit 110,000
    gauge-slice points."""
    rc, out, loaded = in_fresh_process(argv)
    golden = BENCHMARKS / "golden" / f"{name}.out"
    assert rc == EXIT_OK and out.encode() == golden.read_bytes()
    assert loaded == ROUTE


@pytest.mark.parametrize("argv, name", [
    (["count", "--q", "37", "--d", "1"], "count_q37_d1"),
    (["probe", "--q", "37"], "probe_q37")])
def test_a_q37_count_or_probe_loads_the_counting_kernel_but_no_numpy(argv,
                                                                    name):
    """Over F_37, the largest field the bundled counts use, the image groups
    hold 23,329 elements over 2 strata, within the monomial budget, where
    the numpy sweep would visit 62,145,792 gauge-slice points.  The goldens
    in ``tests/golden`` were written by that sweep."""
    rc, out, loaded = in_fresh_process(argv)
    golden = Path(__file__).resolve().parent / "golden" / f"{name}.out"
    assert rc == EXIT_OK and out.encode() == golden.read_bytes()
    assert loaded == ROUTE


def test_counts_that_take_the_monomial_route_build_no_pool(capsys):
    """The route and the exhaustive guard read pool sizes only, so no module
    that builds a pool loads: not the numpy sweep (entry pools) and not the
    per-point oracle (tuple pools).  The bundled q = 3, 11 and 37 counts and
    probes above load neither, and nor does a count at q = 999983, which
    the guard refuses."""
    argv = ["count", "--q", "999983", "--d", "1"]
    rc, out, loaded = in_fresh_process(argv)
    assert (rc, out, loaded) == (EXIT_INPUT, "", ROUTE)
    rc, out, err = run(argv, capsys)
    assert rc == EXIT_INPUT and out == ""
    assert err == (
        "error: StateSpaceTooLarge: 999982^4 * 999983 points to sweep (state "
        "space 999982^5 * 999983 modulo a gauge tree of 1 arrow) exceed the "
        "exhaustive guard 100000000\n")


def test_a_count_the_guard_refuses_loads_no_numpy(capsys):
    """The exhaustive guard runs before any route is picked, so a d = 2
    count that it refuses exits 4 without importing the numpy sweep that
    would have counted it."""
    argv = ["count", "--q", "3", "--d", "2"]
    rc, out, loaded = in_fresh_process(argv)
    assert (rc, out, loaded) == (EXIT_INPUT, "", ROUTE)
    assert run(argv, capsys) == (EXIT_INPUT, "", (
        "error: StateSpaceTooLarge: 429981696 points to sweep (state space "
        "20639121408 modulo a gauge tree of 1 arrow) exceed the exhaustive "
        "guard 100000000\n"))


def test_a_count_past_the_scalar_budget_loads_numpy():
    """A count that the monomial route does not take, here one at d = 2,
    sweeps with numpy, and still loads no per-point oracle."""
    rc, out, loaded = in_fresh_process(["count", "--q", "2", "--d", "2"])
    golden = BENCHMARKS / "golden" / "count_q2_d2.out"
    assert rc == EXIT_OK and out.encode() == golden.read_bytes()
    assert loaded == ROUTE | {"numpy", "tessella.sweep"}


def test_a_sample_loads_the_sweep_but_not_the_oracle():
    rc, out, loaded = in_fresh_process(
        ["count", "--q", "17", "--mode", "sample", "--sample-size", "150000",
         "--seed", "1"])
    golden = Path(__file__).resolve().parent / "golden" / "count_q17_sample.out"
    assert rc == EXIT_OK and out.encode() == golden.read_bytes()
    assert loaded == ROUTE | {"numpy", "tessella.sweep"}


def test_version_flag_in_a_fresh_process_prints_the_tool_version():
    rc, out, loaded = in_fresh_process(["--version"])
    assert rc == 0 and out == cli.tool_version() + "\n"
    assert loaded == set()
    rc, out, _ = in_fresh_process(["--help"])
    assert rc == 0 and "--version" in out


def test_the_pipeline_hashes_its_inputs_but_reads_no_installed_metadata(
        tmp_path):
    rc, out, loaded = in_fresh_process(
        ["pipeline", "--output-dir", str(tmp_path / "out")])
    report = json.loads(out)
    assert rc == EXIT_OK and report["version"] == cli.tool_version()
    assert set(report["input_digests"]) == {"tiling", "automorphism"}
    assert loaded == ROUTE | {"hashlib", "tessella.psi"}


def test_only_a_run_that_reads_bundled_files_loads_importlib_resources(
        tmp_path):
    """Under ``python -S``, where no site hook imports it first: a pipeline
    on its own tiling and symmetry files (the benchmark's 6-fold cover)
    loads no importlib.resources, and ``dual`` on the bundled tiling does."""
    tiling, automorphism = _benchmark_module("covers").cyclic_cover(6, 1)
    (tmp_path / "tiling.json").write_text(json.dumps(tiling))
    (tmp_path / "automorphism.json").write_text(json.dumps(automorphism))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "tiling": "tiling.json", "automorphism": "automorphism.json",
        "field_sizes": [2], "output_dir": "out"}))
    watched = ("importlib.resources",)
    rc, out, loaded = in_fresh_process(["pipeline", "--config", str(config)],
                                       ["-S"], watched)
    assert rc == EXIT_OK and json.loads(out)["ok"] is True
    assert loaded == set()
    rc, out, loaded = in_fresh_process(["dual"], ["-S"], watched)
    assert rc == EXIT_OK and out.encode() == (
        BENCHMARKS / "golden" / "dual.out").read_bytes()
    assert loaded == set(watched)


def test_the_cli_raises_and_catches_the_parsers_input_error():
    from tessella import datafiles
    assert cli.InputError is datafiles.InputError


# A count that sweeps with numpy (d = 2) in a new process, started as
# ``python -m tessella.cli`` ("-m") or through the console script's target
# (as "module:function").  The profile hook lists the process's threads
# when the numpy sweep evaluates its first slice, if numpy is loaded by
# then; the sweep runs on the calling thread.
_COUNT_THREADS = """
import importlib, json, os, runpy, sys
how, threads = sys.argv[1], []

def profile(frame, event, arg):
    if (event == "call" and frame.f_code.co_name == "_evaluate"
            and not threads and "numpy" in sys.modules):
        threads.append(len(os.listdir("/proc/self/task")))

sys.argv = ["tessella", "count", "--q", "2", "--d", "2"]
sys.setprofile(profile)
try:
    if how == "-m":
        runpy.run_module("tessella.cli", run_name="__main__", alter_sys=True)
    else:
        module, name = how.split(":")
        sys.exit(getattr(importlib.import_module(module), name)())
except SystemExit as exc:
    rc = exc.code
sys.setprofile(None)
print(json.dumps([rc, threads, os.environ.get("OPENBLAS_NUM_THREADS")]),
      file=sys.stderr)
"""


def count_in_a_new_process(how: str, **env) -> list:
    """[exit code, threads when the numpy sweep starts, as a list of one
    entry or empty if numpy never loaded, OPENBLAS_NUM_THREADS]."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    done = subprocess.run([sys.executable, "-c", _COUNT_THREADS, how],
                          env={**base, "PYTHONPATH": path, **env},
                          capture_output=True, text=True, check=True)
    return json.loads(done.stderr.splitlines()[-1])


def _usable_cpus() -> int:
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or _usable_cpus() < 2,
                    reason="needs /proc/self/task and two usable CPUs")
@pytest.mark.parametrize("how", ["-m", "script"])
def test_a_counting_process_starts_no_blas_thread_pool(how):
    """OpenBLAS starts a thread per usable CPU at ``import numpy`` unless
    OPENBLAS_NUM_THREADS says otherwise; no count calls BLAS.  The threads
    are read once numpy has loaded."""
    how = declared_scripts()["tessella"] if how == "script" else how
    assert count_in_a_new_process(how) == [EXIT_OK, [1], "1"]


@pytest.mark.parametrize("how", ["-m", "script"])
def test_a_caller_set_blas_thread_count_is_kept(how):
    how = declared_scripts()["tessella"] if how == "script" else how
    rc, _, value = count_in_a_new_process(how, OPENBLAS_NUM_THREADS="2")
    assert (rc, value) == (EXIT_OK, "2")


def test_main_in_process_leaves_the_environment_alone(monkeypatch, capsys):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    assert main(["count", "--q", "2"]) == EXIT_OK
    assert dict(os.environ) == before


_COUNT_ON_ONE_THREAD = """
import contextlib, io, sys, threading
started, start = [], threading.Thread.start
threading.Thread.start = lambda t: (started.append(t.name), start(t))
from tessella import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["count", "--q", "2", "--d", "2"])
print(rc, started, "concurrent.futures" in sys.modules)
"""


def test_a_count_starts_no_thread_and_imports_no_pool():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _COUNT_ON_ONE_THREAD],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert done.stdout == f"{EXIT_OK} [] False\n"


_TRACED_NAMES = """
import contextlib, io, sys
from tessella.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(["count", "--q", "11", "--d", "1"])
counted = "tessella.psi" in sys.modules
sys.path.insert(0, sys.argv[1])
from layers import SPECS
for module, function, *_ in SPECS:
    getattr(sys.modules[module], function)
print(rc, counted, "tessella.psi" in sys.modules)
"""


def test_every_traced_function_resolves_after_a_count():
    """The traced benchmark imports ``tessella.cli``, runs counts in
    process and then reads each function it wraps from ``sys.modules``.
    A count loads no :mod:`tessella.psi`, and ``tessella.presentation``,
    which ``cli`` imports, serves the psi functions the tracer names."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _TRACED_NAMES,
                           str(BENCHMARKS)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert done.stdout == f"{EXIT_OK} False True\n"


def test_the_counting_kernel_does_not_import_presentation():
    """repcount takes the spanning-forest helper of its gauge tree from
    pathalg."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, tessella.repcount; "
         "print('tessella.presentation' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        text=True, check=True)
    assert done.stdout == "False\n"
