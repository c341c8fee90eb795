"""Command-line orchestration of the tiling-to-counts toolchain.

``tessella <subcommand>`` wires the library stages together: tile loading,
dual quiver extraction, symmetry refinement, dimer selection, embedding
choice, potential transport, the verification suite, and finite-field
counts.  Subcommands default to the bundled genus-2 running example, so
``tessella transport`` or ``tessella psi-verify`` work with no arguments.

Conventions
-----------
* All emitted JSON is byte-stable: sorted keys, two-space indent, trailing
  newline.  Two runs with the same inputs and seed write identical bytes.
* Exit codes: 0 all checks pass; 2 a verification failed; 3 no admissible
  embedding choice exists for the input; 4 input/configuration error,
  including a count over its state-space or int64 guard and a tiling or
  automorphism file of the wrong shape.
* ``TESSELLA_THREADS`` sets the worker threads of an exhaustive count's
  sweep; it never changes a count.
* Paths inside a pipeline config file are resolved relative to the config
  file's directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata, resources
from pathlib import Path
from typing import Optional

from .datafiles import load_data
from .equivariant import (
    ChoiceSearch,
    NoChoiceFound,
    all_dimers,
    build_orbit_quiver,
    equivariant_dimer,
    induced_quiver_automorphism,
    orbit_choice_from_json,
    orbit_choice_to_json,
    refine_tiling,
    tiling_automorphism_from_json,
    transport_potential,
    verify_transport_identity,
)
from .pathalg import (
    Element,
    Quiver,
    _idkey,
    check_d_squared,
    cyclic_derivative,
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
    contracted_relations,
    phi_action_from_json,
    psi_assignment_from_json,
    verify_psi_relations,
)
from .repcount import (
    StateSpaceTooLarge,
    _is_prime,
    conjecture_probe_d1,
    enumerate_reps,
)
from .surfacemap import (
    dual_quiver,
    tiling_from_json,
    tiling_to_json,
    validate_tiling,
)

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_NO_CHOICE = 3
EXIT_INPUT = 4

_BUNDLED_TILING = "genus2_tiling.json"
_BUNDLED_AUTOMORPHISM = "genus2_automorphism.json"
_BUNDLED_PHI_STAR = "genus2_phi_star.json"
_BUNDLED_SCRIPT = "genus2_derivation.json"

_PIPELINE_STAGES = ("tile", "dual", "refine", "dimer", "choice",
                    "transport", "verify", "count")


class InputError(ValueError):
    """Bad paths, malformed files, or invalid option combinations."""


def tool_version() -> str:
    try:
        return metadata.version("tessella")
    except metadata.PackageNotFoundError:
        return "0.0.0"


# ---------------------------------------------------------------------------
# canonical serialization


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _read_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _load_input(path: Optional[str], bundled_name: str) -> tuple[dict, dict]:
    """Returns (parsed object, digest record) for a path or a bundled file."""
    if path is None:
        raw = (resources.files("tessella") / "data" / bundled_name).read_bytes()
        return json.loads(raw), {"source": f"bundled:{bundled_name}",
                                 "sha256": _digest_bytes(raw)}
    raw = Path(path).read_bytes() if Path(path).exists() else None
    if raw is None:
        raise InputError(f"input file {path} does not exist")
    return json.loads(raw.decode()), {"source": str(path),
                                      "sha256": _digest_bytes(raw)}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


_TILING_FIELDS = (  # (key, shape, test of each list entry)
    ("half_edges", "a list of integers", _is_int),
    ("involution", "a list of integer pairs",
     lambda p: isinstance(p, list) and len(p) == 2 and all(map(_is_int, p))),
    ("rotation", "a list of nonempty integer lists",
     lambda c: isinstance(c, list) and bool(c) and all(map(_is_int, c))),
)


def _tiling_from_json(obj):
    """``tiling_from_json`` behind a check of the file's shape, so that a
    malformed tiling is an input error that names the bad field."""
    if not isinstance(obj, dict):
        raise InputError(f"a tiling file holds a JSON object, "
                         f"not {type(obj).__name__}")
    for key, shape, ok in _TILING_FIELDS:
        if key not in obj:
            raise InputError(f"tiling field {key!r} is missing")
        if not (isinstance(obj[key], list) and all(map(ok, obj[key]))):
            raise InputError(f"tiling field {key!r} must be {shape}")
    rotation = obj["rotation"]
    coloring = obj.get("coloring", {})
    if not (isinstance(coloring, dict)
            and all(k.isdecimal() and int(k) < len(rotation) for k in coloring)):
        raise InputError("tiling field 'coloring' must be keyed by rotation "
                         f"cycle indices 0..{len(rotation) - 1}")
    return tiling_from_json(obj)


def _automorphism_from_json(tiling, obj):
    """``tiling_automorphism_from_json`` behind a check of the file's shape:
    an object whose ``half_edge_perm`` (or the object itself) maps integer
    keys to integers, and whose optional ``order`` is an integer."""
    if not isinstance(obj, dict):
        raise InputError(f"an automorphism file holds a JSON object, "
                         f"not {type(obj).__name__}")
    perm = obj.get("half_edge_perm", obj)
    if not isinstance(perm, dict):
        raise InputError(f"automorphism field 'half_edge_perm' must be an "
                         f"object, not {type(perm).__name__}")
    if not all(k.removeprefix("-").isdecimal() and _is_int(v)
               for k, v in perm.items()):
        raise InputError("automorphism field 'half_edge_perm' must map "
                         "integer keys to integers")
    if "order" in obj and not _is_int(obj["order"]):
        raise InputError("automorphism field 'order' must be an integer")
    return tiling_automorphism_from_json(tiling, obj)


def _taut_to_json(taut) -> dict:
    return {"half_edge_perm": {str(h): k for h, k in
                               sorted(taut.half_edge_perm.items())},
            "order": taut.order}


# ---------------------------------------------------------------------------
# shared stage plumbing


def _load_pair(tiling_path, autom_path):
    tobj, tdig = _load_input(tiling_path, _BUNDLED_TILING)
    aobj, adig = _load_input(autom_path, _BUNDLED_AUTOMORPHISM)
    tiling = _tiling_from_json(tobj)
    taut = _automorphism_from_json(tiling, aobj)
    return tiling, taut, {"tiling": tdig, "automorphism": adig}


def _canonical_choice(tiling, taut, matching):
    """The admissible (matching, choice) with the smallest generator letters.

    Distinct matchings can certify differently-lettered sections of the same
    arrow orbits.  To make the emitted presentation deterministic (and to
    line companion data such as derivation scripts up with it), every perfect
    matching is tried, the given one first and then the others sorted by
    their dual arrows, and the lexicographically smallest generator tuple
    wins (the first on a tie).  One ``ChoiceSearch`` serves every matching,
    so each candidate's degrees and transport certificate are worked out at
    most once.  When no matching admits a choice, the last failure is raised.
    """
    search = ChoiceSearch(tiling, taut)
    seen = {frozenset(frozenset(e) for e in matching)}
    candidates = [matching]
    for m in sorted(all_dimers(tiling),
                    key=lambda m: sorted(tiling.arrow_name(min(e)) for e in m)):
        key = frozenset(frozenset(e) for e in m)
        if key not in seen:
            seen.add(key)
            candidates.append(m)
    best = None
    failure = None
    for m in candidates:
        try:
            choice = search.choose(m)
        except NoChoiceFound as exc:
            failure = exc
            continue
        letters = tuple(str(g) for g in choice.generators)
        if best is None or letters < best[0]:
            best = (letters, m, choice)
    if best is None:
        raise failure if failure is not None else NoChoiceFound(
            "the tiling has no perfect matching")
    return best[1], best[2]


def _prepare_context(tiling, taut, choice_obj=None):
    """refine -> dimer -> (dual, induced symmetry) -> choice -> orbit quiver."""
    tiling, taut = refine_tiling(tiling, taut)
    tiling, taut, matching = equivariant_dimer(tiling, taut)
    quiver, W = dual_quiver(tiling)
    phi = induced_quiver_automorphism(tiling, taut, quiver)
    if choice_obj is None:
        matching, choice = _canonical_choice(tiling, taut, matching)
    else:
        choice = orbit_choice_from_json(quiver, choice_obj)
    ctx = build_orbit_quiver(quiver, phi, choice)
    return ctx, W, matching, tiling


def _counting_quiver(quiver: Quiver) -> Quiver:
    """The counting localization: generator arrows invertible, the
    isomorphism arrows free."""
    flipped = [a for a in quiver.arrow_ids() if not quiver.is_localized(a)]
    return Quiver(quiver.vertices, quiver.arrows, localized=flipped)


def _bundled_orbit():
    tiling, taut, _ = _load_pair(None, None)
    ctx, W, _, _ = _prepare_context(tiling, taut)
    Wp = transport_potential(W, ctx).potential
    return ctx, W, Wp


def _output(args, payload) -> None:
    text = _dumps(payload)
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_dual(args) -> int:
    obj, _ = _load_input(args.tiling, _BUNDLED_TILING)
    tiling = _tiling_from_json(obj)
    quiver, W = dual_quiver(tiling)
    _output(args, qpot_to_json(quiver, W))
    return EXIT_OK


def cmd_refine(args) -> int:
    tiling, taut, _ = _load_pair(args.tiling, args.automorphism)
    out_t, out_a = refine_tiling(tiling, taut)
    _output(args, {"tiling": tiling_to_json(out_t),
                   "automorphism": _taut_to_json(out_a),
                   "changed": out_t is not tiling})
    return EXIT_OK


def cmd_dimer(args) -> int:
    tiling, taut, _ = _load_pair(args.tiling, args.automorphism)
    tiling, taut = refine_tiling(tiling, taut)
    tiling, taut, matching = equivariant_dimer(tiling, taut)
    duals = sorted(tiling.arrow_name(min(h, k)) for h, k in matching)
    _output(args, {"matching": sorted(sorted(e) for e in matching),
                   "dual_arrows": duals,
                   "tiling": tiling_to_json(tiling),
                   "automorphism": _taut_to_json(taut)})
    return EXIT_OK


def cmd_choose_xi(args) -> int:
    tiling, taut, _ = _load_pair(args.tiling, args.automorphism)
    tiling, taut = refine_tiling(tiling, taut)
    tiling, taut, matching = equivariant_dimer(tiling, taut)
    matching, choice = _canonical_choice(tiling, taut, matching)
    payload = orbit_choice_to_json(choice)
    payload["dimer_duals"] = sorted(tiling.arrow_name(min(h, k))
                                    for h, k in matching)
    _output(args, payload)
    return EXIT_OK


def cmd_transport(args) -> int:
    tiling, taut, _ = _load_pair(args.tiling, args.automorphism)
    choice_obj = _read_json(args.choice) if args.choice else None
    ctx, W, _, _ = _prepare_context(tiling, taut, choice_obj)
    tp = transport_potential(W, ctx)
    payload = qpot_to_json(ctx.quiver, tp.potential)
    payload["homogeneous"] = tp.homogeneous
    payload["degree"] = tp.degree
    _output(args, payload)
    if args.require_homogeneous and not tp.homogeneous:
        print("error: transported potential is not homogeneous",
              file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _load_qpot(args, orbit_default: bool):
    """A (quiver, potential) pair from a file, or from the bundled chain."""
    if args.qpot:
        return qpot_from_json(_read_json(args.qpot))
    if orbit_default:
        ctx, _, Wp = _bundled_orbit()
        return ctx.quiver, Wp
    tiling = _tiling_from_json(_load_input(None, _BUNDLED_TILING)[0])
    return dual_quiver(tiling)


def cmd_derive(args) -> int:
    quiver, W = _load_qpot(args, orbit_default=True)
    arrows = [a for a in sorted(quiver.arrow_ids(), key=_idkey)
              if not quiver.is_localized(a)]
    _output(args, {"relations": [
        {"arrow": str(a),
         "element": element_to_json(cyclic_derivative(quiver, W, a))}
        for a in arrows]})
    return EXIT_OK


def cmd_gdga_check(args) -> int:
    quiver, W = _load_qpot(args, orbit_default=False)
    ok, witnesses = check_d_squared(ginzburg_dga(quiver, W))
    _output(args, {"ok": ok,
                   "witnesses": {str(g): element_to_json(x)
                                 for g, x in witnesses.items()}})
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_verify_eq31(args) -> int:
    tiling, taut, _ = _load_pair(args.tiling, args.automorphism)
    ctx, W, _, _ = _prepare_context(tiling, taut)
    Wp = transport_potential(W, ctx).potential
    checks = []
    for a in ctx.choice.generators:
        res = verify_transport_identity(ctx, W, Wp, a)
        checks.append({"arrow": str(a), "passed": res.passed,
                       "witness": element_to_json(res.witness)})
    ok = all(c["passed"] for c in checks)
    _output(args, {"ok": ok, "checks": checks})
    return EXIT_OK if ok else EXIT_VERIFY


def _psi_inputs(args):
    """mode, PhiAction, assignment — honouring the bundled default config."""
    if args.mode != "dehn":
        return args.mode, None, None
    if args.phi_star is None and not args.bundled_phi_star:
        raise MissingPhiAction(
            "psi-verify in dehn mode needs a surface-action config "
            "(--phi-star FILE, or --bundled-phi-star for the packaged one)")
    cfg = (_read_json(args.phi_star) if args.phi_star
           else load_data(_BUNDLED_PHI_STAR))
    phi = phi_action_from_json(cfg)
    if "psi_assignment" not in cfg:
        raise InputError("the surface-action config lacks a psi_assignment "
                         "table, which dehn mode needs")
    return "dehn", phi, psi_assignment_from_json(cfg["psi_assignment"])


def cmd_psi_verify(args) -> int:
    mode, phi, assignment = _psi_inputs(args)
    tiling, taut, _ = _load_pair(args.tiling, args.automorphism)
    ctx, W, _, _ = _prepare_context(tiling, taut)
    Wp = transport_potential(W, ctx).potential
    report = verify_psi_relations(ctx, Wp, mode=mode, phi=phi,
                                  assignment=assignment)
    _output(args, report.to_json())
    return EXIT_OK if report.ok else EXIT_VERIFY


def cmd_check_script(args) -> int:
    blob, _ = _load_input(args.script, _BUNDLED_SCRIPT)
    tiling, taut, _ = _load_pair(args.tiling, args.automorphism)
    ctx, W, _, _ = _prepare_context(tiling, taut)
    Wp = transport_potential(W, ctx).potential
    contract = blob.get("contract", ()) if isinstance(blob, dict) else ()
    _, relations = contracted_relations(ctx.quiver, Wp, contract)
    report = check_derivation_script(relations, blob)
    _output(args, report.to_json())
    return EXIT_OK if report.ok else EXIT_VERIFY


def _check_count_args(q: int, d: int, mode: str, sample_size, seed) -> None:
    if not _is_prime(q):
        raise InputError(f"field size {q} is not prime")
    if d < 1:
        raise InputError(f"dimension must be >= 1, got {d}")
    if mode not in ("exhaustive", "sample"):
        raise InputError(f"unknown mode {mode!r}")
    if mode == "sample":
        if sample_size is None:
            raise InputError("sample mode needs --sample-size")
        if seed is None:
            raise InputError("sample mode needs an explicit --seed")


def cmd_count(args) -> int:
    _check_count_args(args.q, args.d, args.mode, args.sample_size, args.seed)
    if args.qpot:
        quiver, W = qpot_from_json(_read_json(args.qpot))
    else:
        ctx, _, W = _bundled_orbit()
        quiver = _counting_quiver(ctx.quiver)
    report = enumerate_reps(quiver, W, args.d, args.q, mode=args.mode,
                            sample_size=args.sample_size, seed=args.seed)
    _output(args, report.to_json())
    return EXIT_OK


def cmd_probe(args) -> int:
    if not _is_prime(args.q):
        raise InputError(f"field size {args.q} is not prime")
    if args.qpot:
        quiver, W = qpot_from_json(_read_json(args.qpot))
        obj = _read_json(args.qpot)
        if args.omega:
            omega = element_from_json(quiver, _read_json(args.omega))
        elif "omega" in obj:
            omega = element_from_json(quiver, obj["omega"])
        else:
            raise InputError("the probe needs an omega element: embed an "
                             "\"omega\" key in the file or pass --omega")
    else:
        ctx, _, W = _bundled_orbit()
        quiver = _counting_quiver(ctx.quiver)
        omega = (Element.from_word(quiver.word(parse_letters("rere")))
                 + Element.from_word(quiver.word(parse_letters("erer"))))
    report = conjecture_probe_d1(quiver, W, omega, args.q)
    _output(args, report.to_json())
    return EXIT_OK


# ---------------------------------------------------------------------------
# the pipeline


@dataclass
class PipelineConfig:
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

    _KEYS = ("tiling", "automorphism", "phi_star", "script", "psi_mode",
             "require_homogeneous", "field_sizes", "dimension", "mode",
             "sample_size", "seed", "output_dir")

    @staticmethod
    def from_json(obj: dict, base_dir: Optional[Path] = None,
                  output_dir: Optional[str] = None) -> "PipelineConfig":
        unknown = sorted(set(obj) - set(PipelineConfig._KEYS))
        if unknown:
            raise InputError(f"unknown config keys: {unknown}")
        kwargs = dict(obj)
        if "field_sizes" in kwargs:
            kwargs["field_sizes"] = tuple(int(q) for q in kwargs["field_sizes"])
        if base_dir is not None:
            for key in ("tiling", "automorphism", "phi_star", "script",
                        "output_dir"):
                if kwargs.get(key) is not None:
                    kwargs[key] = str((base_dir / kwargs[key]))
        cfg = PipelineConfig(**kwargs)
        if output_dir is not None:
            cfg.output_dir = output_dir
        return cfg

    def validate(self) -> None:
        for key in ("tiling", "automorphism", "phi_star", "script"):
            path = getattr(self, key)
            if path is not None and not Path(path).exists():
                raise InputError(f"{key} file {path} does not exist")
        for q in self.field_sizes:
            if not _is_prime(q):
                raise InputError(f"field size {q} is not prime")
        if self.dimension < 1:
            raise InputError(f"dimension must be >= 1, got {self.dimension}")
        if self.mode not in ("exhaustive", "sample"):
            raise InputError(f"unknown mode {self.mode!r}")
        if self.mode == "sample" and (self.sample_size is None
                                      or self.seed is None):
            raise InputError("sample mode needs sample_size and seed")
        if self.psi_mode not in ("certificate", "dehn"):
            raise InputError(f"unknown psi_mode {self.psi_mode!r}")
        if self.psi_mode == "dehn" and self.phi_star is None:
            raise MissingPhiAction(
                "psi_mode dehn needs a phi_star config file")

    def to_json(self) -> dict:
        return {"tiling": self.tiling, "automorphism": self.automorphism,
                "phi_star": self.phi_star, "script": self.script,
                "psi_mode": self.psi_mode,
                "require_homogeneous": self.require_homogeneous,
                "field_sizes": list(self.field_sizes),
                "dimension": self.dimension, "mode": self.mode,
                "sample_size": self.sample_size, "seed": self.seed,
                "output_dir": str(self.output_dir)}


@dataclass
class StageOutcome:
    name: str
    status: str  # ok | failed | skipped
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "status": self.status,
                "detail": self.detail}


@dataclass
class RunReport:
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
    timing: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"version": self.version, "config": self.config,
                "input_digests": self.input_digests,
                "stages": [s.to_json() for s in self.stages],
                "artifacts": sorted(self.artifacts),
                "ok": self.ok, "exit_code": self.exit_code}


class _VerificationFailed(Exception):
    """Stage-internal: the stage ran to completion but its checks failed."""


def run_pipeline(config: PipelineConfig) -> RunReport:
    """Execute tile -> dual -> refine -> dimer -> choice -> transport ->
    verify -> count, short-circuiting the rest on hard errors.

    Verification stages that complete with failing checks mark the stage
    failed but let later stages run; exceptions stop the pipeline.  Every
    stage gets an outcome either way.
    """
    config.validate()
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    stages: list[StageOutcome] = []
    artifacts: list[str] = []
    timing: dict[str, float] = {}
    digests: dict[str, dict] = {}
    state: dict = {}
    exit_code = EXIT_OK
    aborted = False

    def write(name: str, payload) -> None:
        (outdir / name).write_text(_dumps(payload))
        artifacts.append(name)

    def stage_tile() -> str:
        tobj, digests["tiling"] = _load_input(config.tiling, _BUNDLED_TILING)
        aobj, digests["automorphism"] = _load_input(config.automorphism,
                                                    _BUNDLED_AUTOMORPHISM)
        tiling = _tiling_from_json(tobj)
        report = validate_tiling(tiling)
        if not report["valid"]:
            raise InputError("; ".join(report["problems"]))
        state["tiling"] = tiling
        state["taut"] = _automorphism_from_json(tiling, aobj)
        if config.phi_star:
            raw = Path(config.phi_star).read_bytes()
            digests["phi_star"] = {"source": config.phi_star,
                                   "sha256": _digest_bytes(raw)}
        if config.script:
            raw = Path(config.script).read_bytes()
            digests["script"] = {"source": config.script,
                                 "sha256": _digest_bytes(raw)}
        return f"symmetry order {state['taut'].order}"

    def stage_dual() -> str:
        quiver, W = dual_quiver(state["tiling"])
        write("base_qpot.json", qpot_to_json(quiver, W))
        return (f"{len(quiver.vertices)} vertices, "
                f"{len(quiver.arrows)} arrows, {len(W.terms())} terms")

    def stage_refine() -> str:
        t2, a2 = refine_tiling(state["tiling"], state["taut"])
        changed = t2 is not state["tiling"]
        state["tiling"], state["taut"] = t2, a2
        write("refined_tiling.json", tiling_to_json(t2))
        write("refined_automorphism.json", _taut_to_json(a2))
        return "split symmetric tiles" if changed else "no refinement needed"

    def stage_dimer() -> str:
        t3, a3, matching = equivariant_dimer(state["tiling"], state["taut"])
        state["tiling"], state["taut"] = t3, a3
        state["matching"] = matching
        duals = sorted(t3.arrow_name(min(h, k)) for h, k in matching)
        write("dimer.json", {"matching": sorted(sorted(e) for e in matching),
                             "dual_arrows": duals})
        return f"dual arrows {{{', '.join(duals)}}}"

    def stage_choice() -> str:
        tiling, taut = state["tiling"], state["taut"]
        matching, choice = _canonical_choice(tiling, taut, state["matching"])
        state["matching"] = matching
        quiver, W = dual_quiver(tiling)
        phi = induced_quiver_automorphism(tiling, taut, quiver)
        state["W"] = W
        state["ctx"] = build_orbit_quiver(quiver, phi, choice)
        duals = sorted(tiling.arrow_name(min(h, k)) for h, k in matching)
        payload = orbit_choice_to_json(choice)
        payload["dimer_duals"] = duals
        write("choice.json", payload)
        return (f"generators {''.join(str(g) for g in choice.generators)}, "
                f"dimer duals {{{', '.join(duals)}}}")

    def stage_transport() -> str:
        tp = transport_potential(state["W"], state["ctx"])
        state["Wp"] = tp.potential
        payload = qpot_to_json(state["ctx"].quiver, tp.potential)
        payload["homogeneous"] = tp.homogeneous
        payload["degree"] = tp.degree
        write("orbit_qpot.json", payload)
        if config.require_homogeneous and not tp.homogeneous:
            raise _VerificationFailed("transported potential is not "
                                      "homogeneous")
        return f"homogeneous of degree {tp.degree}"

    def stage_verify() -> str:
        ctx, W, Wp = state["ctx"], state["W"], state["Wp"]
        out: dict = {}
        eq_checks = []
        for a in ctx.choice.generators:
            res = verify_transport_identity(ctx, W, Wp, a)
            eq_checks.append({"arrow": str(a), "passed": res.passed,
                              "witness": element_to_json(res.witness)})
        out["transport_identity"] = {"ok": all(c["passed"] for c in eq_checks),
                                     "checks": eq_checks}
        base_quiver, _ = dual_quiver(state["tiling"])
        d2_ok, d2_wit = check_d_squared(ginzburg_dga(base_quiver, W))
        out["d_squared"] = {"ok": d2_ok,
                            "witnesses": {str(g): element_to_json(x)
                                          for g, x in d2_wit.items()}}
        phi = assignment = None
        if config.psi_mode == "dehn":
            cfg = _read_json(config.phi_star)
            phi = phi_action_from_json(cfg)
            if "psi_assignment" not in cfg:
                raise InputError("the surface-action config lacks a "
                                 "psi_assignment table")
            assignment = psi_assignment_from_json(cfg["psi_assignment"])
        psi = verify_psi_relations(ctx, Wp, mode=config.psi_mode, phi=phi,
                                   assignment=assignment)
        out["psi_relations"] = psi.to_json()
        if config.script:
            blob = _read_json(config.script)
            contract = blob.get("contract", ()) if isinstance(blob, dict) else ()
            _, relations = contracted_relations(ctx.quiver, Wp, contract)
            out["derivation_script"] = check_derivation_script(
                relations, blob).to_json()
        write("verify.json", out)
        bad = [k for k, v in out.items() if not v["ok"]]
        if bad:
            raise _VerificationFailed("failing checks: " + ", ".join(bad))
        return f"{len(out)} check groups passed"

    def stage_count() -> str:
        quiver = _counting_quiver(state["ctx"].quiver)
        reports = []
        for q in config.field_sizes:
            rep = enumerate_reps(quiver, state["Wp"], config.dimension, q,
                                 mode=config.mode,
                                 sample_size=config.sample_size,
                                 seed=config.seed)
            reports.append(rep.to_json())
        write("counts.json", reports)
        return "; ".join(f"q={r['q']}: total {r['total']}" for r in reports)

    stage_fns = {"tile": stage_tile, "dual": stage_dual,
                 "refine": stage_refine, "dimer": stage_dimer,
                 "choice": stage_choice, "transport": stage_transport,
                 "verify": stage_verify, "count": stage_count}

    for name in _PIPELINE_STAGES:
        if aborted:
            stages.append(StageOutcome(name, "skipped",
                                       "earlier stage stopped the run"))
            continue
        started = time.perf_counter()
        try:
            detail = stage_fns[name]()
            stages.append(StageOutcome(name, "ok", detail))
        except _VerificationFailed as exc:
            stages.append(StageOutcome(name, "failed", str(exc)))
            exit_code = max(exit_code, EXIT_VERIFY)
        except NoChoiceFound as exc:
            stages.append(StageOutcome(name, "failed",
                                       f"NoChoiceFound: {exc}"))
            exit_code, aborted = EXIT_NO_CHOICE, True
        except (InputError, MissingPhiAction) as exc:
            stages.append(StageOutcome(name, "failed",
                                       f"{type(exc).__name__}: {exc}"))
            exit_code, aborted = EXIT_INPUT, True
        except Exception as exc:  # hard error: record and short-circuit
            stages.append(StageOutcome(name, "failed",
                                       f"{type(exc).__name__}: {exc}"))
            exit_code, aborted = max(exit_code, EXIT_VERIFY), True
        finally:
            timing[name] = round(time.perf_counter() - started, 6)

    ok = all(s.status == "ok" for s in stages)
    report = RunReport(version=tool_version(), config=config.to_json(),
                       input_digests=digests, stages=stages,
                       artifacts=artifacts + ["report.json", "timings.json"],
                       ok=ok, exit_code=exit_code, timing=timing)
    (outdir / "report.json").write_text(_dumps(report.to_json()))
    (outdir / "timings.json").write_text(_dumps(timing))
    return report


def cmd_pipeline(args) -> int:
    if args.config:
        base = Path(args.config).resolve().parent
        cfg = PipelineConfig.from_json(_read_json(args.config), base_dir=base,
                                       output_dir=args.output_dir)
    else:
        cfg = PipelineConfig()
        if args.output_dir is not None:
            cfg.output_dir = args.output_dir
    report = run_pipeline(cfg)
    sys.stdout.write(_dumps(report.to_json()))
    return report.exit_code


# ---------------------------------------------------------------------------
# argument parsing


def _add_pair_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tiling", help="tiling file (default: bundled example)")
    p.add_argument("--automorphism",
                   help="symmetry file (default: bundled example)")


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--out", help="write JSON here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tessella",
        description="Tiling symmetries, orbit quivers with potential, and "
                    "finite-field representation counts.",
        epilog="Exit codes: 0 ok, 2 verification failure, 3 no admissible "
               "choice, 4 input error.  TESSELLA_THREADS caps parallelism.")
    parser.add_argument("--version", action="version", version=tool_version())
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dual", help="dual quiver with potential of a tiling")
    p.add_argument("tiling", nargs="?", help="tiling file (default: bundled)")
    _add_out(p)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("refine", help="split tiles until face orbits are free")
    _add_pair_options(p)
    _add_out(p)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("dimer", help="symmetry-compatible perfect matching")
    _add_pair_options(p)
    _add_out(p)
    p.set_defaults(func=cmd_dimer)

    p = sub.add_parser("choose-xi",
                       help="search for a homogeneous embedding choice")
    _add_pair_options(p)
    _add_out(p)
    p.set_defaults(func=cmd_choose_xi)

    p = sub.add_parser("transport",
                       help="push the potential to the orbit quiver")
    _add_pair_options(p)
    p.add_argument("--choice", help="embedding-choice file (default: search)")
    p.add_argument("--no-require-homogeneous", dest="require_homogeneous",
                   action="store_false",
                   help="do not fail when the image is inhomogeneous")
    _add_out(p)
    p.set_defaults(func=cmd_transport)

    p = sub.add_parser("derive", help="cyclic-derivative relations")
    p.add_argument("qpot", nargs="?",
                   help="quiver+potential file (default: bundled orbit data)")
    _add_out(p)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("gdga-check",
                       help="verify the differential squares to zero")
    p.add_argument("qpot", nargs="?",
                   help="quiver+potential file (default: bundled base data)")
    _add_out(p)
    p.set_defaults(func=cmd_gdga_check)

    p = sub.add_parser("verify-eq31",
                       help="check the transport identity per generator")
    _add_pair_options(p)
    _add_out(p)
    p.set_defaults(func=cmd_verify_eq31)

    p = sub.add_parser("psi-verify",
                       help="verify the matrix-unit map on all relations")
    _add_pair_options(p)
    p.add_argument("--mode", choices=("certificate", "dehn"),
                   default="certificate")
    p.add_argument("--phi-star", dest="phi_star",
                   help="surface-action config (needed in dehn mode)")
    p.add_argument("--bundled-phi-star", action="store_true",
                   help="use the packaged surface-action config")
    _add_out(p)
    p.set_defaults(func=cmd_psi_verify)

    p = sub.add_parser("check-script", help="verify a derivation script")
    p.add_argument("script", nargs="?",
                   help="script file (default: bundled derivation)")
    _add_pair_options(p)
    _add_out(p)
    p.set_defaults(func=cmd_check_script)

    p = sub.add_parser("count", help="finite-field representation counts")
    p.add_argument("qpot", nargs="?",
                   help="quiver+potential file (default: bundled counting "
                        "localization)")
    p.add_argument("--q", type=int, required=True, help="prime field size")
    p.add_argument("--d", type=int, default=1, help="representation dimension")
    p.add_argument("--mode", choices=("exhaustive", "sample"),
                   default="exhaustive")
    p.add_argument("--sample-size", type=int)
    p.add_argument("--seed", type=int)
    _add_out(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("probe",
                       help="report both sides of the degree-one comparison")
    p.add_argument("qpot", nargs="?",
                   help="quiver+potential file (default: bundled counting "
                        "localization)")
    p.add_argument("--q", type=int, required=True, help="odd prime field size")
    p.add_argument("--omega", help="element file for the central element")
    _add_out(p)
    p.set_defaults(func=cmd_probe)

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
    except NoChoiceFound as exc:
        print(f"error: NoChoiceFound: {exc}", file=sys.stderr)
        return EXIT_NO_CHOICE
    except MissingPhiAction as exc:
        print(f"error: MissingPhiAction: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InputError, StateSpaceTooLarge, OSError, ValueError, KeyError,
            TypeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
