"""Command-line front end.

Subcommands map to the main constructions: ``classify`` runs the Cartan
test on a matrix subspace, ``cover-build`` rebuilds the spectral cover of
a Cartan algebra subbundle and verifies the round trip, ``pushforward``
computes direct images (of a line bundle on a cover, or of weighted
parabolic data along a ramified cover), ``factor`` enumerates the
intermediate covers of a cover, and ``selftest`` runs the seeded
randomized property suites.

Exit codes: 0 all checks pass, 1 a mathematical check failed (the report
carries a witness), 2 the input was rejected. Each error type's code is
its ``exit_code`` in ``errors.py``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from random import Random

from . import __version__
from .cartan import CartanStatus, MatrixSubspace, classify_subspace
from .covers import (
    canonical_algebra_map,
    cover_report,
    cover_roundtrip,
    roundtrip_verify,
    trivial_line_bundle,
)
from .errors import CartanCoverError, DegreeTooLarge, ParseError
from .factorization import (
    ENUMERATION_DEGREE_BOUND,
    block_systems,
    intermediate_cover,
    monodromy_generators,
    summand_embedding_check,
)
from .fields import GF, QQ, field_label, field_to_json
from .instances import (
    BundleInstance,
    CartanInstance,
    CoverInstance,
    ParabolicInstance,
    cartan_bundle_instance_to_json,
    cover_instance_to_json,
    line_bundle_instance_to_json,
    load_instance,
)
from .parabolic import check_pardeg_conservation
from .randgen import (
    DEFAULT_FIELDS,
    CoverInstanceConfig,
    random_cover_instance,
    random_ramified_cover_data,
)
from .reports import (
    Report,
    filtration_oneline,
    matrix_oneline,
    perm_to_json,
    render_filtration,
    render_matrix,
)


def _error_report(command: str, exc: CartanCoverError) -> Report:
    detail = {"type": type(exc).__name__, "message": str(exc)}
    carried = vars(exc)
    for key in ("vertex", "edge", "seed", "index"):
        if key in carried:
            detail[key] = carried[key]
    if "witness" in carried:
        detail["witness"] = str(carried["witness"])
    return Report(
        command,
        {"ok": False, "error": detail},
        [f"error: {detail['type']}: {detail['message']}"],
        exc.exit_code,
    )


def cmd_classify(instance: CartanInstance) -> Report:
    field = instance.field
    subspace = MatrixSubspace(field, instance.dimension, instance.basis)
    verdict = classify_subspace(subspace)
    machine = {
        "field": field_to_json(field),
        "d": instance.dimension,
        "span_dimension": subspace.dim,
        "status": verdict.status.value,
        "reason": verdict.reason.value if verdict.reason else None,
        "witness": None,
        "eigenlines": None,
        "functionals": None,
        "ok": verdict.status is not CartanStatus.NOT_CARTAN,
    }
    human = [str(verdict)]
    if verdict.witness_poly is not None:
        machine["witness"] = {"poly": str(verdict.witness_poly)}
        if verdict.witness_index is not None:
            machine["witness"]["basis_index"] = verdict.witness_index
    if verdict.witness_pair is not None:
        machine["witness"] = {"basis_pair": list(verdict.witness_pair)}
    eig = verdict.eigenlines
    if eig is not None:
        # each line is written leading-one normalized: over its leading entry
        lines = [field.render_ints(line, next(filter(None, line))) for line in eig.ints]
        functionals = render_matrix(eig.values)
        machine["eigenlines"] = lines
        machine["functionals"] = functionals
        for t, (line, mu) in enumerate(zip(lines, functionals)):
            human.append(f"line {t + 1}: ({', '.join(line)})  mu: ({', '.join(mu)})")
    code = 0 if machine["ok"] else 1
    return Report("classify", machine, human, code)


def cmd_cover_build(instance: BundleInstance) -> Report:
    if instance.algebra is None:
        raise ParseError("payload.cartan_bundle is required for cover-build")
    field = instance.field
    record = roundtrip_verify(instance.algebra)
    result, report = record.result, record.report
    machine = {
        "field": field_to_json(field),
        "cover": line_bundle_instance_to_json(result.line_bundle),
        "eta": [render_matrix(m) for m in result.eta],
        "component_count": report.component_count,
        "degree_profile": list(report.degree_profile),
        "split": report.split,
        "flat_section_dim": record.flat_section_dim,
        # roundtrip_verify raises unless every check holds; the component
        # count is the flat-section dimension (argued there)
        "checks": {
            "eta_intertwines": True,
            "algebra_matches": True,
            "components_match_sections": True,
        },
        "ok": True,
    }
    human = [
        f"cover: degree {result.cover.degree}, "
        f"{report.component_count} component(s), profile {list(report.degree_profile)}"
        + (", split" if report.split else ""),
    ]
    # the line bundle's scalar matrix as render_matrix writes it
    scalars = machine["cover"]["payload"]["scalars"]
    for e, perm in enumerate(result.cover.sigma):
        human.append(f"edge {e}: sigma {perm_to_json(perm)}, scalars ({', '.join(scalars[e])})")
    for v, m in enumerate(result.eta):
        human.append(f"eta at vertex {v}: {matrix_oneline(m)}")
    human.append(f"flat sections of the algebra bundle: dimension {record.flat_section_dim}")
    human.append(
        "checks: eta intertwines = True, algebra matches = True, components = sections: True"
    )
    return Report("cover-build", machine, human, 0)


def cmd_pushforward(instance) -> Report:
    if isinstance(instance, CoverInstance):
        return _pushforward_cover(instance)
    if isinstance(instance, ParabolicInstance):
        return _pushforward_parabolic(instance)
    raise ParseError("pushforward expects a cover or parabolic instance")


# the most matrix entries a cover's pushforward report may hold: n d^3 for
# the diagonal algebras, e d^2 for the transitions; 10^6 is degree 100 on one vertex
PUSHFORWARD_ENTRY_BOUND = 10**6


def _pushforward_cover(instance: CoverInstance) -> Report:
    graph, d = instance.cover.base, instance.cover.degree
    entries = graph.num_vertices * d**3 + len(graph.edges) * d**2
    if entries > PUSHFORWARD_ENTRY_BOUND:
        raise DegreeTooLarge(
            f"pushforward of degree {d} would write {entries} matrix entries, "
            f"above the bound {PUSHFORWARD_ENTRY_BOUND}"
        )
    field = instance.field
    line = instance.line_bundle or trivial_line_bundle(instance.cover, field)
    algebra = canonical_algebra_map(line)
    bundle = algebra.parent
    report = cover_report(instance.cover)
    machine = {
        "field": field_to_json(field),
        "bundle": cartan_bundle_instance_to_json(algebra),
        "component_count": report.component_count,
        "split": report.split,
        "ok": True,
    }
    human = [f"pushforward bundle of rank {bundle.rank}"]
    for e, t in enumerate(bundle.transitions):
        human.append(f"edge {e}: {matrix_oneline(t)}")
    human.append(
        f"canonical algebra bundle: diagonal in the label basis at each of "
        f"{bundle.graph.num_vertices} vertex fiber(s)"
    )
    return Report("pushforward", machine, human, 0)


def _pushforward_parabolic(instance: ParabolicInstance) -> Report:
    conservation = check_pardeg_conservation(instance.data, instance.line_degree)
    result, genus = conservation.pushforward, conservation.genus
    machine = {
        "field": field_to_json(instance.field),
        "degree": result.degree,
        "rank": result.rank,
        "points": [
            {"label": p.label, "filtration": render_filtration(p.filtration)}
            for p in result.points
        ],
        "genus_per_component": list(genus.per_component),
        "genus_total": genus.total,
        "pardeg_upstairs": str(conservation.upstairs),
        "pardeg_downstairs": str(conservation.downstairs),
        "conservation_ok": conservation.equal,
        "ok": conservation.equal,
    }
    human = [
        f"pushforward: rank {result.rank}, degree {result.degree}",
        f"component genera: {list(genus.per_component)}",
    ]
    for p in result.points:
        human.append(f"point {p.label}: [{filtration_oneline(p.filtration)}]")
    human.append(
        f"parabolic degree: upstairs {conservation.upstairs} = "
        f"downstairs {conservation.downstairs}: {conservation.equal}"
    )
    return Report("pushforward", machine, human, 0 if conservation.equal else 1)


def cmd_factor(instance: CoverInstance, max_degree: int) -> Report:
    if max_degree < 1:
        raise ParseError(f"--max-degree expects a positive integer, got {max_degree}")
    cover = instance.cover
    if cover.degree > max_degree:
        raise DegreeTooLarge(
            f"degree {cover.degree} exceeds --max-degree {max_degree}"
        )
    field = instance.field
    mono = monodromy_generators(cover)
    catalog = block_systems(mono)
    systems = []
    all_ok = True
    for system in catalog.proper:
        quotient = intermediate_cover(cover, system)
        check = summand_embedding_check(cover, system, field)
        all_ok = all_ok and check.ok
        systems.append(
            {
                "blocks": [[x + 1 for x in b] for b in system.blocks],
                "intermediate": cover_instance_to_json(field, quotient),
                # intermediate_cover raises unless the composite is consistent
                "composite_consistent": True,
                "summand_ok": check.ok,
                "retraction_agrees": check.average_retraction_agrees,
                "witness": check.witness,
            }
        )
    machine = {
        "field": field_to_json(field),
        "degree": cover.degree,
        "monodromy": {
            "tree_edges": list(mono.tree_edge_indices),
            "generators": [
                {"edge": e, "perm": perm_to_json(p)} for e, p in mono.generators
            ],
        },
        "proper_block_systems": systems,
        "trivial_block_systems": [
            [[x + 1 for x in b] for b in s.blocks] for s in catalog.trivial
        ],
        "proper_count": len(systems),
        "ok": all_ok,
    }
    human = [
        f"monodromy generators: "
        + (
            ", ".join(str(perm_to_json(p)) for _e, p in mono.generators)
            or "(none; trivial holonomy)"
        ),
        f"proper block systems: {len(systems)}",
    ]
    for entry in systems:
        human.append(
            f"  blocks {entry['blocks']} -> intermediate degree "
            f"{entry['intermediate']['payload']['degree']}, summand check "
            f"{'pass' if entry['summand_ok'] else 'FAIL'}"
        )
    human.append(f"trivial block systems: {machine['trivial_block_systems']}")
    return Report("factor", machine, human, 0 if all_ok else 1)


# the highest cover degree selftest draws, its --max-degree default
SELFTEST_DEGREE_BOUND = 6


def cmd_selftest(seed: int, count: int, fields, max_degree: int) -> Report:
    if not 1 <= max_degree <= SELFTEST_DEGREE_BOUND:
        bound = "a positive integer" if max_degree < 1 else f"at most {SELFTEST_DEGREE_BOUND}"
        raise ParseError(f"--max-degree expects {bound}, got {max_degree}")
    if count < 0:
        raise ParseError(f"--count expects a non-negative integer, got {count}")
    config = CoverInstanceConfig(max_degree=max_degree)
    entries = []
    failures = 0
    for i in range(count):
        instance_seed = seed * 1_000_003 + i
        field = fields[i % len(fields)]
        try:
            rng = Random(instance_seed)
            cover, line = random_cover_instance(rng, field, config)
            # cover_roundtrip raises unless the round trip holds, corollary included
            roundtrip_ok = cover_roundtrip(cover, line).all_ok()
            prng = Random(instance_seed + 7919)
            data, line_degree = random_ramified_cover_data(prng)
            conservation = check_pardeg_conservation(data, line_degree)
        except CartanCoverError as exc:
            # the error report names the instance: the same flags with
            # --count index + 1 end at it
            exc.seed, exc.index = seed, i
            raise
        ok = roundtrip_ok and conservation.equal
        if not ok:
            failures += 1
        entries.append(
            {
                "index": i,
                "seed": instance_seed,
                "field": field_label(field),
                "cover_degree": cover.degree,
                "roundtrip_ok": roundtrip_ok,
                "components_equal_sections": roundtrip_ok,
                "conservation_ok": conservation.equal,
                "ok": ok,
            }
        )
    machine = {
        "seed": seed,
        "count": count,
        "fields": [field_label(f) for f in fields],
        "results": entries,
        "failures": failures,
        "ok": failures == 0,
    }
    human = [f"selftest: {count} instance(s), seed {seed}"]
    for e in entries:
        status = "pass" if e["ok"] else f"FAIL (seed {e['seed']})"
        human.append(
            f"  [{e['index']}] field {e['field']}, degree {e['cover_degree']}: {status}"
        )
    human.append(f"failures: {failures}")
    return Report("selftest", machine, human, 0 if failures == 0 else 1)


def _parse_field_flag(value: str):
    if value == "Q":
        return (QQ,)
    if value.startswith("F"):
        try:
            return (GF(int(value[1:])),)
        except (ValueError, ParseError):
            pass
    raise ParseError(f"--field expects Q or F<prime>, got {value!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by later calls
    in the process; ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cartancover",
        description="Exact computations with Cartan algebra bundles, covers, and parabolic pushforwards.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--format",
        choices=("human", "machine"),
        default="human",
        help="report rendering (machine is byte-stable JSON)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("classify", help="Cartan test on a matrix subspace instance")
    p.add_argument("instance", help="instance file path, or - for stdin")

    p = sub.add_parser("cover-build", help="rebuild the spectral cover of a Cartan algebra bundle")
    p.add_argument("instance")

    p = sub.add_parser("pushforward", help="direct image of a cover or parabolic instance")
    p.add_argument("instance")

    p = sub.add_parser("factor", help="intermediate covers via block systems")
    p.add_argument("instance")
    p.add_argument("--max-degree", type=int, default=ENUMERATION_DEGREE_BOUND)

    p = sub.add_parser("selftest", help="seeded randomized property suites")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=25)
    p.add_argument("--field", default=None, help="restrict to Q or F<prime>")
    p.add_argument("--max-degree", type=int, default=SELFTEST_DEGREE_BOUND)

    return parser


def run(argv=None) -> tuple[Report, str]:
    args = build_parser().parse_args(argv)
    command = args.subcommand
    try:
        if command == "classify":
            report = cmd_classify(_load(args.instance, CartanInstance, "cartan"))
        elif command == "cover-build":
            report = cmd_cover_build(_load(args.instance, BundleInstance, "bundle"))
        elif command == "pushforward":
            report = cmd_pushforward(load_instance(args.instance))
        elif command == "factor":
            report = cmd_factor(_load(args.instance, CoverInstance, "cover"), args.max_degree)
        else:
            fields = DEFAULT_FIELDS if args.field is None else _parse_field_flag(args.field)
            report = cmd_selftest(args.seed, args.count, fields, args.max_degree)
    except CartanCoverError as exc:
        report = _error_report(command, exc)
    return report, args.format


def _load(path, expected_type, kind_name):
    instance = load_instance(path)
    if not isinstance(instance, expected_type):
        raise ParseError(f"expected a {kind_name!r} instance")
    return instance


def main(argv=None) -> int:
    report, fmt = run(argv)
    text = report.to_machine_text() if fmt == "machine" else report.to_human_text()
    sys.stdout.write(text)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
