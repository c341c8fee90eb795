"""The full JSON of reports that no golden file covers, byte for byte: a
failing psi check with its witnesses, a failing derivation-script step, a
pipeline run with a failed and a skipped stage, and a sample-mode count with
its seed.  Each report is dumped as the CLI dumps it (sorted keys, two-space
indent) and compared with the dump of a pinned object."""

import json

from test_presentation import orbit_setup
from tessella import cli
from tessella.datafiles import load_data
from tessella.pathalg import Potential
from tessella.presentation import (check_derivation_script,
                                   contracted_relations, verify_psi_relations)


def _check(arrow, ok, method, witness):
    return {"arrow": arrow, "degree_ok": ok, "group_ok": ok,
            "method": method, "ok": ok, "witness": witness}


PSI_FAILURE = {
    "checks": [
        _check("a", False, "degree", "deg(rc) = 1 but deg(b) = 0"),
        _check("b", False, "not-binomial", "derivative has 1 distinct paths"),
        _check("c", False, "not-binomial", "derivative has 1 distinct paths"),
        _check("d", True, "zero-derivative", None),
        _check("e", True, "zero-derivative", None),
    ],
    "mode": "certificate",
    "ok": False,
}

SCRIPT_FAILURE = {
    "equations": {
        "b-elimination": ["b", "a^-1 c a r r c^-1 r^-1 a^-1 r^-1"],
        "d-elimination": ["r c^-1 r^-1", "d"],
        "square-identity": [
            "c a r r c^-1 r^-1 a^-1 c a r r c^-1 r^-1 a^-1", "r r"],
    },
    "established": ["d-elimination", "b-elimination", "square-identity"],
    "failed_step": 17,
    "ok": False,
    "reason": "the declared move does not produce the target equation",
    "steps_checked": 16,
    "steps_total": 39,
}

_BAD_STEPS = (
    "InputError: derivation script field 'steps' must be a list of step "
    "objects with a 'from', a 'move' object (integer 'relation' and 'step', "
    "a word 'word', where given), a 'target' list of two words and an "
    "optional string 'establishes'")


def _pipeline_failure(tmp: str) -> dict:
    def digest(sha, source):
        return {"sha256": sha, "source": source}

    return {
        "artifacts": ["base_qpot.json", "choice.json", "dimer.json",
                      "orbit_qpot.json", "refined_automorphism.json",
                      "refined_tiling.json", "report.json", "timings.json"],
        "config": {"automorphism": None, "dimension": 1, "field_sizes": [2],
                   "mode": "exhaustive", "output_dir": f"{tmp}/out",
                   "phi_star": None, "psi_mode": "certificate",
                   "require_homogeneous": True, "sample_size": None,
                   "script": f"{tmp}/script.json", "seed": None,
                   "tiling": None},
        "exit_code": cli.EXIT_INPUT,
        "input_digests": {
            "automorphism": digest(
                "7d9780c3eb5fcac3278d555e0a8161e2"
                "f9662345c887df8785fc1212307194fa",
                "bundled:genus2_automorphism.json"),
            "script": digest(
                "6f35973e41fd89bcbae96685388d127a"
                "eb24e29d3bf7c725bc94def4ca0128df",
                f"{tmp}/script.json"),
            "tiling": digest(
                "a2bc08c85b77949d13bc46ad55be03ff"
                "12aa4427f742a2624bc27518732c4499",
                "bundled:genus2_tiling.json"),
        },
        "ok": False,
        "stages": [
            {"detail": "symmetry order 2", "name": "tile", "status": "ok"},
            {"detail": "2 vertices, 10 arrows, 6 terms", "name": "dual",
             "status": "ok"},
            {"detail": "no refinement needed", "name": "refine",
             "status": "ok"},
            {"detail": "dual arrows {c, d, e}", "name": "dimer",
             "status": "ok"},
            {"detail": "generators abcde, dimer duals {f, g, h}",
             "name": "choice", "status": "ok"},
            {"detail": "homogeneous of degree 2", "name": "transport",
             "status": "ok"},
            {"detail": _BAD_STEPS, "name": "verify", "status": "failed"},
            {"detail": "earlier stage stopped the run", "name": "count",
             "status": "skipped"},
        ],
        "version": cli.tool_version(),
    }


SAMPLE_COUNT = {
    "critical": 241,
    "d": 1,
    "histogram": {"0": 506, "1": 155, "2": 92, "3": 91, "4": 156},
    "mode": "sample",
    "normalization": {"GL_exponent": -2, "GL_order": 4, "L_exponent": "-3"},
    "ones": 155,
    "q": 5,
    "seed": 3,
    "state_space": 5120,
    "total": 1000,
    "zeros": 506,
}


def test_a_failing_psi_check_dumps_its_witnesses():
    ctx = orbit_setup()[0]
    V = Potential.build(ctx.quiver, [(1, "arc"), (-1, "ab")])
    report = verify_psi_relations(ctx, V)
    assert cli._dumps(report.to_json()) == cli._dumps(PSI_FAILURE)


def test_a_failing_script_step_dumps_what_it_established():
    ctx, _, wprime = orbit_setup()
    blob = load_data("genus2_derivation.json")
    q2, rels = contracted_relations(ctx.quiver, wprime,
                                    contract=blob["contract"])
    steps = [dict(s) for s in blob["steps"]]
    steps[16] = dict(steps[16], target=["r", "d r r"])
    report = check_derivation_script(rels, steps, q2)
    assert cli._dumps(report.to_json()) == cli._dumps(SCRIPT_FAILURE)


def test_a_pipeline_with_a_failed_and_a_skipped_stage_dumps_both(
        tmp_path, capsys):
    (tmp_path / "script.json").write_text(json.dumps({"steps": 3}))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"script": "script.json", "field_sizes": [2],
                                  "output_dir": "out"}))
    rc = cli.main(["pipeline", "--config", str(config)])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_INPUT
    assert out == cli._dumps(_pipeline_failure(str(tmp_path)))
    assert (tmp_path / "out" / "report.json").read_text() == out


def test_a_sample_count_dumps_its_seed(capsys):
    rc = cli.main(["count", "--q", "5", "--mode", "sample",
                   "--sample-size", "1000", "--seed", "3"])
    assert rc == cli.EXIT_OK
    assert capsys.readouterr().out == cli._dumps(SAMPLE_COUNT)
