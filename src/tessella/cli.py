"""Command-line orchestration of the tiling-to-counts toolchain.

``tessella <subcommand>`` runs the paper's chain, or the part of it one
subcommand shows: tiling, automorphism, dual quiver, refinement, dimer,
embedding choice, transport, the verification checks and finite-field
counts.  Every input defaults to the bundled genus-2 running example, so
``tessella transport`` or ``tessella psi-verify`` work with no arguments.

The stage table
---------------
``_STAGES`` writes each stage once: its name, the stages it reads and the
function that computes it; a stage the pipeline reports also names its
pipeline step and the report that writes the step's artifacts.  A ``_Run``
holds one run's options (under the pipeline config's names) and computes
each stage on first use, so a run computes only what its target reads.

* A subcommand (``_COMMANDS``) names its target stage and a view that turns
  the run into the stdout payload; ``derive``, ``gdga-check``, ``count``
  and ``probe`` take a qpot file in place of the stage their entry names.
* ``tessella pipeline`` walks the table in order, one step per reported
  stage.

Conventions
-----------
* All emitted JSON is byte-stable: sorted keys, two-space indent, trailing
  newline.  Two runs with the same inputs and seed write identical bytes.
* Exit codes, from a subcommand and the pipeline alike (``_FAULTS``): 0
  all checks pass; 2 a verification failed; 3 no admissible embedding
  choice exists; 4 input/configuration error, including a count over its
  state-space, pool or int64 guard, an empty ``field_sizes``, a sample
  size below 1, an input file that is missing or not JSON, a file of the
  wrong shape (the library parser that reads each format raises the
  ``InputError``; only the pipeline config's shape is checked here), a
  tiling that ``validate_tiling`` rejects, a dehn-mode phi_star file for
  another genus than the tiling's, an automorphism that is not a
  symmetry, and a stuck equivariant dimer (``MatchingStuck``); 5 an
  internal fault.
* A count sweeps its points on the calling thread, with elementwise
  products of int64 entry arrays that never reach BLAS, and a ``tessella``
  process (:func:`entry`) starts no OpenBLAS thread pool unless the caller
  sets ``OPENBLAS_NUM_THREADS``.
* Paths inside a pipeline config file are resolved relative to the config
  file's directory.
* Only the stages that count (``count``, ``probe`` and the pipeline's count
  step) import :mod:`tessella.repcount`; every other subcommand, and
  ``--version``, runs without it.  A count loads numpy only in sample
  mode, at d >= 2, or past the monomial budget of an exhaustive d = 1
  count (``repcount._MONOMIAL_BUDGET`` image-group elements, each stratum
  charged ``repcount._STRATUM_COST`` more), so every exhaustive d = 1
  count and probe of the bundled example, ``count --q 37 --d 1`` and
  ``probe --q 37`` included, runs without numpy too.
* No process imports :mod:`importlib.metadata`: :func:`tool_version` reads
  the installed version from the metadata files on ``sys.path``.  Only the
  pipeline report, which records input digests, imports :mod:`hashlib`, and
  only a run that reads a bundled file imports :mod:`importlib.resources`.
* Records are NamedTuples or plain classes: at import a NamedTuple compiles
  only its one-line ``__new__``, and no module generates other methods.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .datafiles import InputError, check_object, is_int, list_of, read_data
from .equivariant import (
    ChoiceSearch,
    MatchingStuck,
    NoChoiceFound,
    build_orbit_quiver,
    equivariant_dimer,
    induced_quiver_automorphism,
    orbit_choice_from_json,
    orbit_choice_to_json,
    refine_tiling,
    tiling_automorphism_from_json,
    tiling_automorphism_to_json,
    transport_potential,
    verify_transport_identity,
)
from .pathalg import (
    Element,
    Quiver,
    StateSpaceTooLarge,
    _idkey,
    _is_prime,
    check_d_squared,
    derivatives,
    element_from_json,
    element_to_json,
    ginzburg_dga,
    parse_letters,
    qpot_from_json,
    qpot_to_json,
)
from .presentation import (
    MissingPhiAction,
    check_derivation_script,
    check_phi_star,
    contracted_relations,
    derivation_script_from_json,
    phi_action_from_json,
    psi_assignment_from_json,
    verify_psi_relations,
)
from .surfacemap import (
    dual_quiver,
    genus,
    tiling_from_json,
    tiling_to_json,
    validate_tiling,
)

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_NO_CHOICE = 3
EXIT_INPUT = 4
EXIT_INTERNAL = 5

# input file -> the bundled file read when no path is given
_BUNDLED = {"tiling": "genus2_tiling.json",
            "automorphism": "genus2_automorphism.json",
            "phi_star": "genus2_phi_star.json",
            "script": "genus2_derivation.json"}


# (exception types, exit code): the first row that matches a fault decides,
# in ``main`` and in ``run_pipeline``; a fault no row names is internal
_FAULTS = (
    ((NoChoiceFound,), EXIT_NO_CHOICE),
    ((InputError, StateSpaceTooLarge, MatchingStuck, OSError, ValueError,
      KeyError, TypeError), EXIT_INPUT),
)


def _exit_code(exc: Exception) -> int:
    return next((code for types, code in _FAULTS if isinstance(exc, types)),
                EXIT_INTERNAL)


def tool_version() -> str:
    """The version ``importlib.metadata.version("tessella")`` finds, or
    "0.0.0" when no distribution is installed (a run from the source tree).

    Read without importing :mod:`importlib.metadata`: the first entry of a
    ``sys.path`` directory, in path order, whose lower-cased name ends in
    ``.dist-info`` or ``.egg-info`` and is ``tessella`` before its first
    ``-`` holds the version in the ``Version:`` header of its ``METADATA``
    or ``PKG-INFO`` file (an ``.egg-info`` file is itself the header
    block).  Zip files and ``.egg`` bundles on the path are not searched.
    """
    for entry in sys.path:
        try:
            names = os.listdir(entry or ".")
        except OSError:  # a missing entry, or a file
            continue
        for name in names:
            low = name.lower()
            if (low.endswith((".dist-info", ".egg-info"))
                    and low.rpartition(".")[0].partition("-")[0] == "tessella"):
                return _metadata_version(os.path.join(entry, name))
    return "0.0.0"


def _metadata_version(info: str) -> str:
    """The ``Version:`` header of the first non-empty file of ``METADATA``,
    ``PKG-INFO`` and ``info`` itself; "0.0.0" if it has none."""
    for path in (os.path.join(info, "METADATA"),
                 os.path.join(info, "PKG-INFO"), info):
        try:
            with open(path, encoding="utf-8") as f:
                lines = f.read().splitlines()
        except OSError:  # not there, or a directory
            continue
        if lines:
            for line in lines:
                if not line:  # the headers end at the first blank line
                    break
                key, colon, value = line.partition(":")
                if colon and key.lower() == "version":
                    return value.strip()
            break
    return "0.0.0"


class _VersionAction(argparse.Action):
    """``--version``: prints ``tool_version()`` when the flag is given, so a
    parser built for any other call never looks the version up."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0,
                         default=argparse.SUPPRESS,
                         help="show program's version number and exit")

    def __call__(self, parser, namespace, values, option_string=None):
        sys.stdout.write(tool_version() + "\n")
        parser.exit()


# ---------------------------------------------------------------------------
# canonical serialization and input files


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _read_input(path: Optional[str],
                bundled_name: Optional[str] = None) -> tuple[bytes, str]:
    """(bytes, source) of an input file, or of a bundled file when ``path``
    is None."""
    if path is None:
        return read_data(bundled_name), f"bundled:{bundled_name}"
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        raise InputError(f"input file {path} does not exist") from None
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return raw, str(path)


def _input_digests(inputs: dict) -> dict:
    """The pipeline report's record of each input (key -> (bytes, source)):
    its source and sha256.  Only the pipeline imports :mod:`hashlib`."""
    import hashlib

    return {key: {"source": source, "sha256": hashlib.sha256(raw).hexdigest()}
            for key, (raw, source) in inputs.items()}


def _parse_json(raw: bytes, path):
    try:
        return json.loads(raw)
    except ValueError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _check_counting(opts: dict) -> None:
    """Checks the count options (``field_sizes``, ``dimension``, ``mode``,
    ``sample_size``, ``seed``) of ``count``, ``probe`` and a pipeline
    config."""
    if not opts["field_sizes"]:
        raise InputError("field_sizes must list at least one prime")
    for q in opts["field_sizes"]:
        if not _is_prime(q):
            raise InputError(f"field size {q} is not prime")
    if opts["dimension"] < 1:
        raise InputError(f"dimension must be >= 1, got {opts['dimension']}")
    mode = opts.get("mode", "exhaustive")
    if mode not in ("exhaustive", "sample"):
        raise InputError(f"unknown mode {mode!r}")
    if mode == "sample":
        if opts.get("sample_size") is None:
            raise InputError("sample mode needs a sample size")
        if opts["sample_size"] < 1:
            raise InputError(f"sample size must be >= 1, "
                             f"got {opts['sample_size']}")
        if opts.get("seed") is None:
            raise InputError("sample mode needs an explicit seed")


# ---------------------------------------------------------------------------
# the stages


def _counting_quiver(quiver: Quiver) -> Quiver:
    """The counting localization: generator arrows invertible, the
    isomorphism arrows free."""
    flipped = [a for a in quiver.arrow_ids() if not quiver.is_localized(a)]
    return Quiver(quiver.vertices, quiver.arrows, localized=flipped)


class _Choice(NamedTuple):
    matching: object
    ctx: object  # the orbit quiver, a SemidirectQuiver
    W: object    # the potential of the dual of the dimer's tiling


def _tiling(run):
    tiling = tiling_from_json(run.load("tiling"))
    report = validate_tiling(tiling)
    if not report["valid"]:
        raise InputError("; ".join(report["problems"]))
    return tiling


def _choice(run, dimer) -> _Choice:
    tiling, taut, matching = dimer
    if run.opts.get("choice"):
        quiver, W = dual_quiver(tiling)
        phi = induced_quiver_automorphism(tiling, taut, quiver)
        choice = orbit_choice_from_json(quiver, run.load("choice"))
    else:  # the search holds the dual quiver and symmetry it built
        search = ChoiceSearch(tiling, taut)
        quiver, W, phi = search.quiver, search.W, search.phi
        matching, choice = search.canonical(matching)
    return _Choice(matching, build_orbit_quiver(quiver, phi, choice), W)


def _transport_identity(run, c: _Choice, tp) -> dict:
    checks = []
    for a in c.ctx.choice.generators:
        res = verify_transport_identity(c.ctx, c.W, tp.potential, a)
        checks.append({"arrow": str(a), "passed": res.passed,
                       "witness": element_to_json(res.witness)})
    return {"ok": all(c["passed"] for c in checks), "checks": checks}


def _d_squared(quiver, W) -> dict:
    ok, witnesses = check_d_squared(ginzburg_dga(quiver, W))
    return {"ok": ok, "witnesses": {str(g): element_to_json(x)
                                    for g, x in witnesses.items()}}


def _surface_action(run) -> tuple:
    """(PhiAction, psi assignment) in dehn mode, (None, None) otherwise."""
    if run.opts["psi_mode"] != "dehn":
        return None, None
    if run.opts["phi_star"] is None and not run.opts.get("bundled_phi_star"):
        raise MissingPhiAction(
            "psi-verify in dehn mode needs a surface-action config "
            "(--phi-star FILE, or --bundled-phi-star for the packaged one)")
    cfg = run.load("phi_star")
    check_phi_star(cfg)
    # before the presentation, whose size grows with the file's genus
    surface = genus(run["tiling"].map)
    if cfg["genus"] != surface:
        raise InputError(f"the phi_star file is for genus {cfg['genus']}, "
                         f"but the tiling has genus {surface}")
    phi = phi_action_from_json(cfg)
    if "psi_assignment" not in cfg:
        raise InputError("the surface-action config lacks a psi_assignment "
                         "table, which dehn mode needs")
    return phi, psi_assignment_from_json(cfg["psi_assignment"])


def _psi_relations(run, action, c: _Choice, tp) -> dict:
    phi, assignment = action
    return verify_psi_relations(c.ctx, tp.potential, mode=run.opts["psi_mode"],
                                phi=phi, assignment=assignment).to_json()


def _derivation_script(run, c: _Choice, tp) -> dict:
    script = derivation_script_from_json(run.load("script"))
    contract = script.get("contract", ())
    unknown = [a for a in contract if not c.ctx.quiver.has_arrow(a)]
    if unknown:
        raise InputError(f"derivation script field 'contract' names arrows "
                         f"{unknown} that the orbit quiver does not have")
    quiver, relations = contracted_relations(c.ctx.quiver, tp.potential,
                                             contract)
    return check_derivation_script(relations, script, quiver).to_json()


def _verify(run, transport_identity, d_squared, psi_relations) -> dict:
    out = {"transport_identity": transport_identity, "d_squared": d_squared,
           "psi_relations": psi_relations}
    # check-script checks the bundled script when given none; the pipeline
    # checks a script only when its config names one
    if run.opts["script"]:
        out["derivation_script"] = run["derivation_script"]
    return out


def _count(run, counting) -> list:
    from .repcount import enumerate_reps  # loaded only to count

    quiver, W = counting
    o = run.opts
    return [enumerate_reps(quiver, W, o["dimension"], q, mode=o["mode"],
                           sample_size=o["sample_size"], seed=o["seed"]
                           ).to_json()
            for q in o["field_sizes"]]


# -- payloads: what a subcommand prints and the pipeline writes


def _dual_names(tiling, matching) -> list:
    return sorted(tiling.dual_arrow(h) for h, _ in matching)


def _refine_json(run, refined) -> dict:
    tiling, taut = refined
    return {"tiling": tiling_to_json(tiling),
            "automorphism": tiling_automorphism_to_json(taut),
            "changed": tiling is not run["tiling"]}


def _dimer_json(dimer) -> dict:
    tiling, _, matching = dimer
    return {"matching": sorted(sorted(e) for e in matching),
            "dual_arrows": _dual_names(tiling, matching)}


def _choice_json(run, c: _Choice) -> dict:
    payload = orbit_choice_to_json(c.ctx.choice)
    payload["dimer_duals"] = _dual_names(run["dimer"][0], c.matching)
    return payload


def _transport_json(run, tp) -> dict:
    payload = qpot_to_json(run["choice"].ctx.quiver, tp.potential)
    payload["homogeneous"] = tp.homogeneous
    payload["degree"] = tp.degree
    return payload


def _homogeneity_error(run, payload) -> Optional[str]:
    if run.opts["require_homogeneous"] and not payload["homogeneous"]:
        return "transported potential is not homogeneous"
    return None


def _derive_json(run, qpot) -> dict:
    quiver, W = qpot
    arrows = [a for a in sorted(quiver.arrow_ids(), key=_idkey)
              if not quiver.is_localized(a)]
    derivs = derivatives(quiver, W)
    return {"relations": [
        {"arrow": str(a), "element": element_to_json(derivs[a])}
        for a in arrows]}


def _probe_json(run, counting) -> dict:
    from .repcount import conjecture_probe_d1  # loaded only to count

    quiver, W = counting
    if run.opts.get("omega"):  # with or without a qpot file
        omega = element_from_json(quiver, run.load("omega"), "omega file")
    elif not run.opts.get("qpot"):
        omega = Element((quiver.word(parse_letters(w)), 1)
                        for w in ("rere", "erer"))
    elif "omega" in run.load("qpot"):
        omega = element_from_json(quiver, run.load("qpot")["omega"],
                                  "qpot field 'omega'")
    else:
        raise InputError("the probe needs an omega element: embed an "
                         "\"omega\" key in the file or pass --omega")
    return conjecture_probe_d1(quiver, W, omega,
                               run.opts["field_sizes"][0]).to_json()


# -- pipeline reports: write a step's artifacts, return its outcome detail


class _VerificationFailed(Exception):
    """Stage-internal: the stage ran to completion but its checks failed."""


def _tile_report(run, taut, write) -> str:
    for key in ("phi_star", "script"):
        if run.opts[key]:
            run.read(key)  # recorded among the input digests
    return f"symmetry order {taut.order}"


def _dual_report(run, qpot, write) -> str:
    quiver, W = qpot
    write("base_qpot.json", qpot_to_json(quiver, W))
    return (f"{len(quiver.vertices)} vertices, "
            f"{len(quiver.arrows)} arrows, {len(W.terms())} terms")


def _refine_report(run, refined, write) -> str:
    payload = _refine_json(run, refined)
    write("refined_tiling.json", payload["tiling"])
    write("refined_automorphism.json", payload["automorphism"])
    return ("split symmetric tiles" if payload["changed"]
            else "no refinement needed")


def _dimer_report(run, dimer, write) -> str:
    payload = _dimer_json(dimer)
    write("dimer.json", payload)
    return f"dual arrows {{{', '.join(payload['dual_arrows'])}}}"


def _choice_report(run, c: _Choice, write) -> str:
    payload = _choice_json(run, c)
    write("choice.json", payload)
    return (f"generators {''.join(str(g) for g in c.ctx.choice.generators)}, "
            f"dimer duals {{{', '.join(payload['dimer_duals'])}}}")


def _transport_report(run, tp, write) -> str:
    payload = _transport_json(run, tp)
    write("orbit_qpot.json", payload)
    error = _homogeneity_error(run, payload)
    if error:
        raise _VerificationFailed(error)
    return f"homogeneous of degree {tp.degree}"


def _verify_report(run, out, write) -> str:
    write("verify.json", out)
    bad = [k for k, v in out.items() if not v["ok"]]
    if bad:
        raise _VerificationFailed("failing checks: " + ", ".join(bad))
    return f"{len(out)} check groups passed"


def _count_report(run, reports, write) -> str:
    write("counts.json", reports)
    return "; ".join(f"q={r['q']}: total {r['total']}" for r in reports)


class _Stage(NamedTuple):
    name: str
    reads: tuple
    compute: Callable  # (run, *values of the stages read) -> value
    step: Optional[str] = None  # the pipeline step that reports the stage
    report: Optional[Callable] = None  # (run, value, write) -> detail


_STAGES = (
    _Stage("tiling", (), _tiling),
    _Stage("automorphism", ("tiling",),
           lambda run, t: tiling_automorphism_from_json(
               t, run.load("automorphism")),
           "tile", _tile_report),
    _Stage("dual", ("tiling",), lambda run, t: dual_quiver(t),
           "dual", _dual_report),
    _Stage("refine", ("tiling", "automorphism"),
           lambda run, t, a: refine_tiling(t, a), "refine", _refine_report),
    _Stage("dimer", ("refine",), lambda run, r: equivariant_dimer(*r),
           "dimer", _dimer_report),
    _Stage("choice", ("dimer",), _choice, "choice", _choice_report),
    _Stage("transport", ("choice",),
           lambda run, c: transport_potential(c.W, c.ctx),
           "transport", _transport_report),
    _Stage("transport_identity", ("choice", "transport"), _transport_identity),
    _Stage("d_squared", ("choice",), lambda run, c: _d_squared(c.ctx.base, c.W)),
    _Stage("surface_action", (), _surface_action),
    _Stage("psi_relations", ("surface_action", "choice", "transport"),
           _psi_relations),
    _Stage("derivation_script", ("choice", "transport"), _derivation_script),
    _Stage("verify", ("transport_identity", "d_squared", "psi_relations"),
           _verify, "verify", _verify_report),
    _Stage("orbit", ("choice", "transport"),
           lambda run, c, tp: (c.ctx.quiver, tp.potential)),
    _Stage("counting", ("orbit",),
           lambda run, qpot: (_counting_quiver(qpot[0]), qpot[1])),
    _Stage("count", ("counting",), _count, "count", _count_report),
)
_STAGE_BY_NAME = {s.name: s for s in _STAGES}


class _Run:
    """One run of the chain.  ``run[name]`` is the value of stage ``name``,
    computed from the stages it reads the first time it is asked for.

    ``opts`` are the run's options under the pipeline config's names (plus
    ``choice``, ``qpot``, ``omega`` and ``bundled_phi_star`` from the
    subcommands); a key not given takes the config's default.  An input
    file is read once, and ``inputs`` keeps its (bytes, source) for the
    pipeline report's digests.
    """

    def __init__(self, opts: dict):
        self.opts = {**PipelineConfig()._asdict(), **opts}
        self.values: dict = {}
        self.inputs: dict = {}
        self._json: dict = {}

    def __getitem__(self, name: str):
        if name not in self.values:
            stage = _STAGE_BY_NAME[name]
            self.values[name] = stage.compute(
                self, *[self[r] for r in stage.reads])
        return self.values[name]

    def read(self, key: str) -> bytes:
        """The bytes of input file ``key`` (the bundled one when its path
        is None)."""
        if key not in self.inputs:
            self.inputs[key] = _read_input(self.opts.get(key),
                                           _BUNDLED.get(key))
        return self.inputs[key][0]

    def load(self, key: str):
        if key not in self._json:
            self._json[key] = _parse_json(self.read(key), self.opts.get(key))
        return self._json[key]


# ---------------------------------------------------------------------------
# subcommands


def _output(args, payload) -> None:
    text = _dumps(payload)
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _count_options(args) -> dict:
    """``count`` and ``probe`` flags under the pipeline config's names,
    checked as a config is."""
    opts = dict(vars(args), field_sizes=(args.q,),
                dimension=getattr(args, "d", 1))
    _check_counting(opts)
    return opts


class _Command(NamedTuple):
    target: str
    view: Callable = lambda run, value: value  # (run, value) -> payload
    qpot: Optional[str] = None  # the stage that a qpot file stands in for
    options: Callable = vars  # args -> run options
    error: Optional[Callable] = None  # (run, payload) -> failure message


_COMMANDS = {
    "dual": _Command("dual", lambda run, qpot: qpot_to_json(*qpot)),
    "refine": _Command("refine", _refine_json),
    "dimer": _Command("dimer", lambda run, d: {
        **_dimer_json(d), "tiling": tiling_to_json(d[0]),
        "automorphism": tiling_automorphism_to_json(d[1])}),
    "choose-xi": _Command("choice", _choice_json),
    "transport": _Command("transport", _transport_json,
                          error=_homogeneity_error),
    "derive": _Command("orbit", _derive_json, qpot="orbit"),
    # the dual of the input tiling; the pipeline's d_squared checks the dual
    # of the tiling after refine and dimer
    "gdga-check": _Command("dual", lambda run, qpot: _d_squared(*qpot),
                           qpot="dual"),
    "verify-eq31": _Command("transport_identity"),
    "psi-verify": _Command("psi_relations"),
    "check-script": _Command("derivation_script"),
    "count": _Command("count", lambda run, reports: reports[0],
                      qpot="counting", options=_count_options),
    "probe": _Command("counting", _probe_json, qpot="counting",
                      options=_count_options),
}


def _run_command(args) -> int:
    command = _COMMANDS[args.command]
    run = _Run(command.options(args))
    if run.opts.get("qpot"):
        run.values[command.qpot] = qpot_from_json(run.load("qpot"))
    payload = command.view(run, run[command.target])
    _output(args, payload)
    error = command.error(run, payload) if command.error else None
    if error:
        print(f"error: {error}", file=sys.stderr)
    return EXIT_VERIFY if error or payload.get("ok") is False else EXIT_OK


# ---------------------------------------------------------------------------
# the pipeline


_CONFIG_FIELDS = (
    *((key, "a path string or null",
       lambda x: x is None or isinstance(x, str))
      for key in ("tiling", "automorphism", "phi_star", "script")),
    ("psi_mode", "a string", lambda x: isinstance(x, str)),
    ("require_homogeneous", "a boolean", lambda x: isinstance(x, bool)),
    ("field_sizes", "a list of integers", list_of(is_int)),
    ("dimension", "an integer", is_int),
    ("mode", "a string", lambda x: isinstance(x, str)),
    ("sample_size", "an integer or null", lambda x: x is None or is_int(x)),
    ("seed", "an integer or null", lambda x: x is None or is_int(x)),
    ("output_dir", "a path string", lambda x: isinstance(x, str)),
)


class PipelineConfig(NamedTuple):
    """Everything a full run needs; None paths mean the bundled example."""

    tiling: Optional[str] = None
    automorphism: Optional[str] = None
    phi_star: Optional[str] = None
    script: Optional[str] = None
    psi_mode: str = "certificate"
    require_homogeneous: bool = True
    field_sizes: tuple = (2, 3)
    dimension: int = 1
    mode: str = "exhaustive"
    sample_size: Optional[int] = None
    seed: Optional[int] = None
    output_dir: str = "tessella_out"

    @staticmethod
    def from_json(obj: dict,
                  base_dir: Optional[Path] = None) -> "PipelineConfig":
        check_object(obj, "pipeline config", _CONFIG_FIELDS,
                     optional=[key for key, _, _ in _CONFIG_FIELDS])
        unknown = sorted(set(obj) - set(PipelineConfig._fields))
        if unknown:
            raise InputError(f"unknown config keys: {unknown}")
        kwargs = dict(obj)
        if "field_sizes" in kwargs:
            kwargs["field_sizes"] = tuple(kwargs["field_sizes"])
        if base_dir is not None:
            for key in ("tiling", "automorphism", "phi_star", "script",
                        "output_dir"):
                if kwargs.get(key) is not None:
                    kwargs[key] = str((base_dir / kwargs[key]))
        return PipelineConfig(**kwargs)

    def validate(self) -> None:
        for key in ("tiling", "automorphism", "phi_star", "script"):
            path = getattr(self, key)
            if path is not None and not Path(path).exists():
                raise InputError(f"{key} file {path} does not exist")
        _check_counting(self._asdict())
        if self.psi_mode not in ("certificate", "dehn"):
            raise InputError(f"unknown psi_mode {self.psi_mode!r}")
        if self.psi_mode == "dehn" and self.phi_star is None:
            raise MissingPhiAction(
                "psi_mode dehn needs a phi_star config file")

    def to_json(self) -> dict:
        return {**self._asdict(), "field_sizes": list(self.field_sizes)}


class StageOutcome(NamedTuple):
    name: str
    status: str  # ok | failed | skipped
    detail: str = ""


class RunReport(NamedTuple):
    """Outcome of a full pipeline run.

    ``timing`` (stage -> seconds) is kept out of the canonical JSON so that
    identical inputs produce byte-identical report files; it is written to a
    separate timings artifact instead.
    """

    version: str
    config: dict
    input_digests: dict
    stages: list
    artifacts: list
    ok: bool
    exit_code: int
    timing: dict

    def to_json(self) -> dict:
        out = self._asdict()
        del out["timing"]
        out["stages"] = [s._asdict() for s in self.stages]
        return out


def run_pipeline(config: PipelineConfig) -> RunReport:
    """Execute tile -> dual -> refine -> dimer -> choice -> transport ->
    verify -> count, short-circuiting the rest on a fault.

    Verification stages that complete with failing checks mark the stage
    failed (exit 2) but let later stages run; any other exception stops the
    pipeline with the exit code ``_FAULTS`` gives it.  Every stage gets an
    outcome either way.
    """
    config.validate()
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    run = _Run(config._asdict())
    stages: list[StageOutcome] = []
    artifacts: list[str] = []
    timing: dict[str, float] = {}
    exit_code = EXIT_OK
    aborted = False

    def write(name: str, payload) -> None:
        (outdir / name).write_text(_dumps(payload))
        artifacts.append(name)

    for stage in (s for s in _STAGES if s.step):
        name = stage.step
        if aborted:
            stages.append(StageOutcome(name, "skipped",
                                       "earlier stage stopped the run"))
            continue
        started = time.perf_counter()
        try:
            detail = stage.report(run, run[stage.name], write)
            stages.append(StageOutcome(name, "ok", detail))
        except _VerificationFailed as exc:
            stages.append(StageOutcome(name, "failed", str(exc)))
            exit_code = max(exit_code, EXIT_VERIFY)
        except Exception as exc:  # a fault: record it and stop the run
            stages.append(StageOutcome(name, "failed",
                                       f"{type(exc).__name__}: {exc}"))
            exit_code, aborted = _exit_code(exc), True
        finally:
            timing[name] = round(time.perf_counter() - started, 6)

    ok = all(s.status == "ok" for s in stages)
    report = RunReport(version=tool_version(), config=config.to_json(),
                       input_digests=_input_digests(run.inputs), stages=stages,
                       artifacts=sorted(artifacts + ["report.json",
                                                     "timings.json"]),
                       ok=ok, exit_code=exit_code, timing=timing)
    (outdir / "report.json").write_text(_dumps(report.to_json()))
    (outdir / "timings.json").write_text(_dumps(timing))
    return report


def cmd_pipeline(args) -> int:
    cfg = PipelineConfig()
    if args.config:
        obj = _parse_json(_read_input(args.config)[0], args.config)
        cfg = PipelineConfig.from_json(obj, Path(args.config).resolve().parent)
    if args.output_dir is not None:
        cfg = cfg._replace(output_dir=args.output_dir)
    report = run_pipeline(cfg)
    sys.stdout.write(_dumps(report.to_json()))
    return report.exit_code


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tessella",
        description="Tiling symmetries, orbit quivers with potential, and "
                    "finite-field representation counts.",
        epilog="Exit codes: 0 ok, 2 verification failure, 3 no admissible "
               "choice, 4 input error, 5 internal fault.")
    parser.add_argument("--version", action=_VersionAction)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, pair: bool = True):
        """A subparser for one entry of ``_COMMANDS``."""
        p = sub.add_parser(name, help=help)
        if pair:
            p.add_argument("--tiling",
                           help="tiling file (default: bundled example)")
            p.add_argument("--automorphism",
                           help="symmetry file (default: bundled example)")
        p.add_argument("-o", "--out", help="write JSON here instead of stdout")
        p.set_defaults(func=_run_command)
        return p

    p = command("dual", "dual quiver with potential of a tiling", pair=False)
    p.add_argument("tiling", nargs="?", help="tiling file (default: bundled)")
    command("refine", "split tiles until face orbits are free")
    command("dimer", "symmetry-compatible perfect matching")
    command("choose-xi", "search for a homogeneous embedding choice")
    p = command("transport", "push the potential to the orbit quiver")
    p.add_argument("--choice", help="embedding-choice file (default: search)")
    p.add_argument("--no-require-homogeneous", dest="require_homogeneous",
                   action="store_false",
                   help="do not fail when the image is inhomogeneous")
    p = command("derive", "cyclic-derivative relations", pair=False)
    p.add_argument("qpot", nargs="?",
                   help="quiver+potential file (default: bundled orbit data)")
    p = command("gdga-check", "verify the differential squares to zero",
                pair=False)
    p.add_argument("qpot", nargs="?",
                   help="quiver+potential file (default: bundled base data)")
    command("verify-eq31", "check the transport identity per generator")
    p = command("psi-verify", "verify the matrix-unit map on all relations")
    p.add_argument("--mode", dest="psi_mode", choices=("certificate", "dehn"),
                   default="certificate")
    p.add_argument("--phi-star", dest="phi_star",
                   help="surface-action config (needed in dehn mode)")
    p.add_argument("--bundled-phi-star", action="store_true",
                   help="use the packaged surface-action config")
    p = command("check-script", "verify a derivation script")
    p.add_argument("script", nargs="?",
                   help="script file (default: bundled derivation)")
    p = command("count", "finite-field representation counts", pair=False)
    p.add_argument("qpot", nargs="?", help="quiver+potential file (default: "
                                           "bundled counting localization)")
    p.add_argument("--q", type=int, required=True, help="prime field size")
    p.add_argument("--d", type=int, default=1, help="representation dimension")
    p.add_argument("--mode", choices=("exhaustive", "sample"),
                   default="exhaustive")
    p.add_argument("--sample-size", type=int)
    p.add_argument("--seed", type=int)
    p = command("probe", "report both sides of the degree-one comparison",
                pair=False)
    p.add_argument("qpot", nargs="?", help="quiver+potential file (default: "
                                           "bundled counting localization)")
    p.add_argument("--q", type=int, required=True, help="odd prime field size")
    p.add_argument("--omega", help="element file for the central element "
                                   "(default: the qpot file's \"omega\", or "
                                   "rere + erer on the bundled data)")

    p = sub.add_parser("pipeline", help="run every stage and write artifacts")
    p.add_argument("--config", help="pipeline config file (default: bundled "
                                    "example with q in {2, 3}, d = 1)")
    p.add_argument("--output-dir", help="artifact directory (default: "
                                        "tessella_out or the config value)")
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # one line, never a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _exit_code(exc)


def entry() -> int:
    """The process entry (``python -m tessella.cli`` and the ``tessella``
    script): :func:`main` with numpy's OpenBLAS held to one thread unless
    the caller set ``OPENBLAS_NUM_THREADS``.  No computation here calls
    BLAS: the counting sweep multiplies int64 entry arrays elementwise and
    makes no matrix product call, and OpenBLAS would otherwise start a
    thread per usable CPU at ``import numpy``.  Nothing imports
    numpy before this runs, and :func:`main` called in process leaves
    ``os.environ`` alone."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    return main()


if __name__ == "__main__":
    sys.exit(entry())
