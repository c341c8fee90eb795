"""A table-driven battery of malformed input files.

For each file kind the CLI reads, every field of a few chosen places in a
well-formed file (the top level, the first term, letter, step and move) is
replaced by a value of each other JSON type, and the cheapest subcommand
that reads the file runs on the result in-process.  Whatever the fault, the
run must end in a documented exit code (never 5, the internal fault) with
at most one line on stderr, and the error must not be a bare ``TypeError``,
``KeyError`` or ``AttributeError``, which would mean that a parser let a
wrong shape through to code that trusts it.
"""

import copy
import json

import pytest

from tessella.cli import main
from tessella.datafiles import load_data
from tessella.pathalg import parse_letters, qpot_to_json
from tessella.surfacemap import dual_quiver, tiling_from_json

# one value of each JSON type
JSON_VALUES = (None, True, 0, "", [], {})
ALLOWED_EXITS = {0, 2, 3, 4}
BARE_ERRORS = {"TypeError", "KeyError", "AttributeError"}


def _term(word: str) -> dict:
    return {"coeff": 1, "word": [[a, e] for a, e in parse_letters(word)]}


def _bases() -> dict:
    """kind -> (well-formed file, the argv that reads a file given last)."""
    tiling = load_data("genus2_tiling.json")
    qpot = qpot_to_json(*dual_quiver(tiling_from_json(tiling)))
    omega = [_term("rere"), _term("erer"), {"coeff": 0, "word": [], "at": 1}]
    choice = {"generators": ["a", "b", "c", "d", "e"], "bases": {"1": 2},
              "require_common_source": True}
    return {
        "tiling": (tiling, ["dual"]),
        "automorphism": (load_data("genus2_automorphism.json"),
                         ["refine", "--automorphism"]),
        "qpot": (qpot, ["derive"]),
        "omega": (omega, ["probe", "--q", "3", "--omega"]),
        "choice": (choice, ["transport", "--choice"]),
        "phi_star": (load_data("genus2_phi_star.json"),
                     ["psi-verify", "--mode", "dehn", "--phi-star"]),
        "script": (load_data("genus2_derivation.json"), ["check-script"]),
    }


# kind -> the places whose every field is replaced: () is the top level
_PLACES = {
    "tiling": [()],
    "automorphism": [()],
    "qpot": [(), ("potential", 0), ("potential", 0, "word", 0)],
    "omega": [(), (0,), (0, "word", 0), (2,)],
    "choice": [(), ("bases",)],
    "phi_star": [(), ("psi_assignment", "a")],
    # step 1 multiplies, step 2 substitutes
    "script": [(), ("steps", 0), ("steps", 0, "target"), ("steps", 1, "move"),
               ("steps", 2, "move")],
}


BASES = _bases()


def _at(obj, place):
    for key in place:
        obj = obj[key]
    return obj


def _mutations():
    for kind, places in _PLACES.items():
        base = BASES[kind][0]
        for value in JSON_VALUES:  # the whole file
            if type(value) is not type(base):
                yield kind, (), value, value
        for place in places:
            holder = _at(base, place)
            keys = holder.keys() if isinstance(holder, dict) \
                else range(len(holder))
            for key in keys:
                for value in JSON_VALUES:
                    if type(value) is not type(holder[key]):
                        obj = copy.deepcopy(base)
                        _at(obj, place)[key] = value
                        yield kind, (*place, key), value, obj


_CASES = list(_mutations())


def _outcome(capsys, tmp_path, kind: str, obj):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(obj))
    rc = main([*BASES[kind][1], str(path)])
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("kind", sorted(_PLACES))
def test_the_well_formed_base_file_runs(capsys, tmp_path, kind):
    rc, err = _outcome(capsys, tmp_path, kind, BASES[kind][0])
    assert rc == 0, err


@pytest.mark.parametrize(
    "kind, where, value, obj", _CASES,
    ids=[f"{k}-{'.'.join(map(str, w)) or 'file'}-{json.dumps(v)}"
         for k, w, v, _ in _CASES])
def test_a_malformed_file_exits_cleanly(capsys, tmp_path, kind, where, value,
                                        obj):
    rc, err = _outcome(capsys, tmp_path, kind, obj)
    assert rc in ALLOWED_EXITS, err
    assert err.count("\n") <= 1, err
    error_type = err.removeprefix("error: ").partition(":")[0]
    assert error_type not in BARE_ERRORS, err


@pytest.mark.parametrize("bases, bad", [({"1": [2]}, "[2]"), ({"7": 2}, "'7'"),
                                        ({"1": 9}, "9")])
def test_a_choice_base_that_names_no_vertex_is_named(capsys, tmp_path, bases,
                                                     bad):
    choice = dict(BASES["choice"][0], bases=bases)
    assert _outcome(capsys, tmp_path, "choice", choice) == (
        4, f"error: InputError: choice field 'bases' names no vertex: {bad}\n")


@pytest.mark.parametrize("argv, qpot", [
    (["count", "--q", "3"], {"vertices": [1, 1], "arrows": [],
                             "potential": []}),
    (["gdga-check"], {"vertices": [1, 1],
                      "arrows": [{"id": "x", "src": 1, "tgt": 1}],
                      "potential": [_term("xx")]}),
], ids=["count", "gdga-check"])
def test_a_repeated_vertex_id_is_named(capsys, tmp_path, argv, qpot):
    """A quiver that lists a vertex twice is refused, as one that lists an
    arrow twice is, before any stage counts it once or twice."""
    path = tmp_path / "qpot.json"
    path.write_text(json.dumps(qpot))
    assert main([*argv, str(path)]) == 4
    assert capsys.readouterr().err == (
        "error: InputError: duplicate vertex id 1\n")
