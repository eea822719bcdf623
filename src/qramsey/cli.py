"""Command line front end: one verb per decision procedure.

Exit codes: 0 success, 1 invalid input or I/O failure, 2 internal
inconsistency (the bit-level and dense routes disagree, or a channel
classifies as Inconsistent).  Exit 2 always prints a reproduction blob
with a greedily minimized channel.  Reports are JSON by default
(deterministic: sorted keys), ``--text`` renders a short summary.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable

from . import channel, oracle, ramsey, selftest, stabilizer
from .channel import PauliChannel

__all__ = ["main"]

PRIVACY_SAMPLES = 100


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; 2 is reserved for inconsistencies here
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _Inconsistency(Exception):
    """Carries the reproduction blob up to main()."""

    def __init__(self, blob: dict):
        super().__init__(blob["detail"])
        self.blob = blob


def _emit(args: argparse.Namespace, doc: dict, text: Callable[[dict], str]) -> None:
    if args.text:
        print(text(doc))
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))


def _minimize_channel(
    ch: PauliChannel, still_fails: Callable[[PauliChannel], bool]
) -> PauliChannel:
    """Greedily drop noise operators while the failure reproduces."""
    ops = [op for op, _ in ch.noise]
    shrinking = True
    while shrinking and len(ops) > 1:
        shrinking = False
        for i in range(len(ops)):
            trial_ops = ops[:i] + ops[i + 1 :]
            try:
                trial = channel.from_noise(trial_ops, n=ch.n)
                failed = still_fails(trial)
            except (ValueError, RuntimeError):
                continue
            if failed:
                ops = trial_ops
                shrinking = True
                break
    return channel.from_noise(ops, n=ch.n)


def _inconsistency(
    subcommand: str,
    detail: str,
    ch: PauliChannel,
    still_fails: Callable[[PauliChannel], bool],
    extra: dict | None = None,
) -> _Inconsistency:
    reproduction: dict = {"channel": channel.to_document(_minimize_channel(ch, still_fails))}
    if extra:
        reproduction.update(extra)
    return _Inconsistency(
        {
            "error": "internal inconsistency",
            "subcommand": subcommand,
            "detail": detail,
            "reproduction": reproduction,
        }
    )


def _cmd_dim(args: argparse.Namespace) -> int:
    ch = channel.load_path(args.channel)
    group = stabilizer.from_string(args.stabilizer, n=ch.n)
    dim = ramsey.compressed_dimension(ch, group)
    if args.oracle:
        dense = oracle.dense_compressed_dimension(ch, group).rank
        if dense != dim:
            raise _inconsistency(
                "dim",
                f"compressed dimension {dim} but dense Gram rank {dense}",
                ch,
                lambda c: ramsey.compressed_dimension(c, group)
                != oracle.dense_compressed_dimension(c, group).rank,
                {"stabilizer": str(group)},
            )
    doc = {"dim_PGP": dim, "code_dim": 1 << group.k}
    _emit(args, doc, lambda d: f"dim(PGP) = {d['dim_PGP']}\ncode dimension = {d['code_dim']}")
    return 0


def _classify_text(doc: dict) -> str:
    lines = [f"verdict: {doc['verdict']}"]
    if "witness_generators" in doc:
        lines.append("witness: " + ",".join(doc["witness_generators"]))
    if "dim_PGP" in doc:
        lines.append(f"dim(PGP) = {doc['dim_PGP']}")
    if "diagnostic" in doc:
        lines.append(f"diagnostic: {doc['diagnostic']}")
    lines.append(f"candidates examined: {doc['examined']}")
    return "\n".join(lines)


def _cmd_classify(args: argparse.Namespace) -> int:
    ch = channel.load_path(args.channel)
    result = ramsey.classify(ch)
    if result.tag == "Inconsistent":
        raise _inconsistency(
            "classify",
            result.diagnostic or "no witness found",
            ch,
            lambda c: ramsey.classify(c).tag == "Inconsistent",
        )
    if args.oracle and not selftest.dense_verdict_check(ch, result):
        raise _inconsistency(
            "classify",
            f"dense oracle rejects the {result.tag} witness {result.witness}",
            ch,
            lambda c: (r := ramsey.classify(c)).tag != "Inconsistent"
            and not selftest.dense_verdict_check(c, r),
            {"stabilizer": str(result.witness)},
        )
    _emit(args, result.to_json_dict(), _classify_text)
    return 0


def _search_text(doc: dict) -> str:
    lines = [
        f"mode: {doc['mode']}  k: {','.join(str(k) for k in doc['k_range'])}",
        "examined: "
        + "  ".join(
            f"k={k}: {m}"
            for k, m in sorted(doc["examined"].items(), key=lambda kv: int(kv[0]))
        ),
    ]
    if doc["witnesses"]:
        for w in doc["witnesses"]:
            gens = ",".join(w["witness_generators"]) or "(full space)"
            lines.append(
                f"  k={w['k']} {w['kind']}: {gens}  dim(PGP)={w['dim_PGP']}"
            )
    else:
        lines.append("  no witnesses")
    return "\n".join(lines)


def _cmd_search(args: argparse.Namespace) -> int:
    ch = channel.load_path(args.channel)
    k_range = None
    if args.k is not None:
        try:
            k_range = tuple(int(part) for part in args.k.split(","))
        except ValueError:
            print(f"error: --k expects a comma separated integer list, got {args.k!r}",
                  file=sys.stderr)
            return 1
    report = ramsey.search(ch, args.mode, k_range)
    _emit(args, report.to_json_dict(), _search_text)
    return 0


def _cmd_construct_maximal(args: argparse.Namespace) -> int:
    if args.generators is not None:
        group = stabilizer.from_string(args.generators, n=args.n)
    else:
        group = stabilizer.validate(
            stabilizer.extend_to_maximal(stabilizer.validate([], n=args.n))
        )
    ch = channel.maximal_stabilizer_channel(group)
    doc = channel.to_document(ch)
    with open(args.output, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    _emit(
        args,
        doc,
        lambda d: f"wrote uniform channel over {len(d['noise'])} stabilizer "
        f"elements (n={d['n']}) to {args.output}",
    )
    return 0


def _verify_report(ch: PauliChannel, group: stabilizer.StabilizerGroup, seed: int):
    dim = ramsey.compressed_dimension(ch, group)
    dense_dim = oracle.dense_compressed_dimension(ch, group).rank
    graph = channel.graph_dimension(ch)
    dense_graph = oracle.dense_graph_dimension(ch).rank
    # is_anticlique and is_clique, read off the one count
    anticlique = dim == 1
    clique = dim == 1 << (2 * group.k)
    gottesman = ramsey.gottesman_correctable(ch, group)
    kl = oracle.kl_check(ch, group)
    failures = []
    if dim != dense_dim:
        failures.append(f"dim_PGP: symplectic {dim} vs dense {dense_dim}")
    if graph != dense_graph:
        failures.append(f"graph_dim: symplectic {graph} vs dense {dense_graph}")
    if anticlique != (dense_dim == 1):
        failures.append("is_anticlique disagrees with the dense rank")
    if clique != (dense_dim == 1 << (2 * group.k)):
        failures.append("is_clique disagrees with the dense rank")
    if gottesman != anticlique:
        failures.append("gottesman_correctable disagrees with is_anticlique")
    if kl != anticlique:
        failures.append("kl_check disagrees with is_anticlique")
    doc = {
        "n": ch.n,
        "stabilizer": str(group),
        "code_dim": 1 << group.k,
        "dim_PGP": {"symplectic": dim, "dense": dense_dim},
        "graph_dim": {"symplectic": graph, "dense": dense_graph},
        "is_anticlique": anticlique,
        "is_clique": clique,
        "gottesman_correctable": gottesman,
        "kl_check": kl,
    }
    if clique and group.k >= 1:
        private = oracle.private_witness_check(
            ch, group, samples=PRIVACY_SAMPLES, seed=seed
        )
        doc["privacy"] = {"samples": PRIVACY_SAMPLES, "all_pairs_overlap": private}
        if not private:
            failures.append("privacy sampling refuted the clique")
    doc["agreement"] = not failures
    return doc, failures


def _verify_text(doc: dict) -> str:
    lines = [
        f"n = {doc['n']}  stabilizer: {doc['stabilizer']}  "
        f"code dimension = {doc['code_dim']}",
        f"dim(PGP): symplectic={doc['dim_PGP']['symplectic']} "
        f"dense={doc['dim_PGP']['dense']}",
        f"graph dim: symplectic={doc['graph_dim']['symplectic']} "
        f"dense={doc['graph_dim']['dense']}",
        f"anticlique={doc['is_anticlique']}  clique={doc['is_clique']}  "
        f"gottesman={doc['gottesman_correctable']}  kl={doc['kl_check']}",
    ]
    if "privacy" in doc:
        lines.append(
            f"privacy sampling: {doc['privacy']['samples']} pairs, "
            f"all overlap = {doc['privacy']['all_pairs_overlap']}"
        )
    lines.append("agreement: " + ("yes" if doc["agreement"] else "NO"))
    return "\n".join(lines)


def _cmd_verify(args: argparse.Namespace) -> int:
    ch = channel.load_path(args.channel)
    group = stabilizer.from_string(args.stabilizer, n=ch.n)
    doc, failures = _verify_report(ch, group, args.seed)
    if failures:
        raise _inconsistency(
            "verify",
            "; ".join(failures),
            ch,
            lambda c: bool(_verify_report(c, group, args.seed)[1]),
            {"stabilizer": str(group)},
        )
    _emit(args, doc, _verify_text)
    return 0


def _selftest_text(doc: dict) -> str:
    lines = []
    for entry in doc["criteria"]:
        status = "PASS" if entry["passed"] else "FAIL"
        lines.append(f"criterion {entry['criterion']}: {status} - {entry['detail']}")
    lines.append("all passed" if doc["passed"] else "FAILED")
    return "\n".join(lines)


def _cmd_selftest(args: argparse.Namespace) -> int:
    results = selftest.run(exhaustive=args.exhaustive, seed=args.seed, max_n=args.n)
    doc = {
        "passed": all(res.passed for _, res in results),
        "exhaustive": args.exhaustive,
        "criteria": [
            {
                "criterion": number,
                "name": res.name,
                "passed": res.passed,
                "detail": res.detail,
            }
            for number, res in results
        ],
    }
    _emit(args, doc, _selftest_text)
    return 0 if doc["passed"] else 2


def _seed(text: str) -> int:
    # numpy's generators take no negative seed
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _qubits(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qramsey", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--text", action="store_true", help="human readable output")
        return p

    p = add("dim", _cmd_dim, "compressed dimension of a code under a channel")
    p.add_argument("--channel", required=True, metavar="FILE")
    p.add_argument("--stabilizer", required=True, metavar="GENS")
    p.add_argument("--oracle", action="store_true", help="cross-check densely")

    p = add("classify", _cmd_classify, "anticlique / clique / maximal trichotomy")
    p.add_argument("--channel", required=True, metavar="FILE")
    p.add_argument("--oracle", action="store_true", help="re-verify the witness densely")

    p = add("search", _cmd_search, "enumerate witness codes")
    p.add_argument("--channel", required=True, metavar="FILE")
    p.add_argument(
        "--mode", required=True, choices=("clique", "anticlique", "both")
    )
    p.add_argument("--k", metavar="LIST", help="comma separated logical qubit counts")

    p = add("construct-maximal", _cmd_construct_maximal, "write a maximal stabilizer channel")
    p.add_argument("--n", type=_qubits, required=True)
    p.add_argument("--generators", metavar="GENS", help="defaults to the X-type group")
    p.add_argument("-o", "--output", required=True, metavar="FILE")

    p = add("verify", _cmd_verify, "run every predicate through both routes")
    p.add_argument("--channel", required=True, metavar="FILE")
    p.add_argument("--stabilizer", required=True, metavar="GENS")
    p.add_argument("--seed", type=_seed, default=0, help="seed for privacy sampling")

    p = add("selftest", _cmd_selftest, "run the nine-part verification battery")
    p.add_argument("--n", type=_qubits, default=None, help="cap the qubit count")
    p.add_argument("--seed", type=_seed, default=0, help="seed for the sampled criteria")
    p.add_argument("--exhaustive", action="store_true",
                   help="full acceptance parameters (about six seconds)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _Inconsistency as exc:
        print(json.dumps(exc.blob, indent=2, sort_keys=True))
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
