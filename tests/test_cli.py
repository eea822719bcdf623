"""CLI behavior: exit codes, JSON shape, determinism, reproduction blobs."""

import argparse
import json
from types import SimpleNamespace

import numpy as np
import pytest

from qramsey import channel, cli, oracle, ramsey, selftest
from qramsey.pauli import parse


def invoke(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def maximal_file(tmp_path, capsys):
    path = tmp_path / "maximal.json"
    code = cli.main(["construct-maximal", "--n", "2", "-o", str(path)])
    assert code == 0
    capsys.readouterr()
    return str(path)


def write_channel(tmp_path, ops, name="ch.json"):
    ch = channel.from_noise([parse(op) for op in ops])
    path = tmp_path / name
    path.write_text(json.dumps(channel.to_document(ch)))
    return str(path)


class TestDim:
    def test_maximal_channel_against_zz(self, capsys, maximal_file):
        code, out, _ = invoke(capsys, "dim", "--channel", maximal_file,
                              "--stabilizer", "ZZ")
        assert code == 0
        assert json.loads(out) == {"dim_PGP": 2, "code_dim": 2}

    def test_oracle_flag_agrees_silently(self, capsys, maximal_file):
        code, out, _ = invoke(capsys, "dim", "--channel", maximal_file,
                              "--stabilizer", "ZZ", "--oracle")
        assert code == 0
        assert json.loads(out) == {"dim_PGP": 2, "code_dim": 2}

    def test_text_rendering(self, capsys, maximal_file):
        code, out, _ = invoke(capsys, "dim", "--channel", maximal_file,
                              "--stabilizer", "ZZ", "--text")
        assert code == 0
        assert out == "dim(PGP) = 2\ncode dimension = 2\n"

    def test_anticommuting_generators_rejected(self, capsys, maximal_file):
        code, _, err = invoke(capsys, "dim", "--channel", maximal_file,
                              "--stabilizer", "XX,ZX")
        assert code == 1
        assert "generators anticommute: (1,2)" in err

    def test_missing_channel_file(self, capsys):
        code, _, err = invoke(capsys, "dim", "--channel", "/no/such/file.json",
                              "--stabilizer", "ZZ")
        assert code == 1
        assert "error:" in err

    def test_oracle_disagreement_exits_2(self, capsys, maximal_file, monkeypatch):
        monkeypatch.setattr(
            "qramsey.oracle.dense_compressed_dimension",
            lambda ch, group, **kw: SimpleNamespace(rank=99),
        )
        code, out, _ = invoke(capsys, "dim", "--channel", maximal_file,
                              "--stabilizer", "ZZ", "--oracle")
        assert code == 2
        blob = json.loads(out)
        assert blob["error"] == "internal inconsistency"
        assert blob["subcommand"] == "dim"
        # greedy minimization must shrink the four-element channel
        assert len(blob["reproduction"]["channel"]["noise"]) == 1
        assert blob["reproduction"]["stabilizer"] == "ZZ"


class TestClassify:
    def test_maximal_channel(self, capsys, maximal_file):
        code, out, _ = invoke(capsys, "classify", "--channel", maximal_file,
                              "--oracle")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "MaximalStabilizerChannel"
        assert doc["witness_generators"] == ["XI", "IX"]

    def test_clique_channel(self, capsys, tmp_path):
        path = write_channel(tmp_path, ["II", "XI", "ZI"])
        code, out, _ = invoke(capsys, "classify", "--channel", path)
        assert code == 0
        assert json.loads(out) == {
            "verdict": "Clique",
            "witness_generators": ["IX"],
            "dim_PGP": 4,
            "examined": 0,
        }

    def test_repeated_invocations_byte_identical(self, capsys, tmp_path):
        path = write_channel(tmp_path, ["II", "XI", "ZI"])
        _, first, _ = invoke(capsys, "classify", "--channel", path)
        _, second, _ = invoke(capsys, "classify", "--channel", path)
        assert first == second

    def test_inconsistent_exits_2_with_blob(self, capsys, tmp_path, monkeypatch):
        path = write_channel(tmp_path, ["II", "XI", "ZI"])
        forced = ramsey.ClassificationResult(
            tag="Inconsistent", witness=None, dim_pgp=None, examined=7,
            diagnostic="forced for the test",
        )
        monkeypatch.setattr("qramsey.ramsey.classify", lambda ch, **kw: forced)
        code, out, _ = invoke(capsys, "classify", "--channel", path)
        assert code == 2
        blob = json.loads(out)
        assert blob["detail"] == "forced for the test"
        assert len(blob["reproduction"]["channel"]["noise"]) == 1

    def test_oracle_rejection_exits_2(self, capsys, tmp_path, monkeypatch):
        path = write_channel(tmp_path, ["II", "XI", "ZI"])
        monkeypatch.setattr(
            "qramsey.selftest.dense_verdict_check", lambda ch, result: False
        )
        code, out, _ = invoke(capsys, "classify", "--channel", path, "--oracle")
        assert code == 2
        assert "rejects the Clique witness" in json.loads(out)["detail"]

    def test_six_qubit_maximal_channel(self, capsys, tmp_path):
        path = str(tmp_path / "m6.json")
        assert cli.main(["construct-maximal", "--n", "6", "-o", path]) == 0
        capsys.readouterr()
        code, out, _ = invoke(capsys, "classify", "--channel", path)
        assert code == 0
        assert json.loads(out)["verdict"] == "MaximalStabilizerChannel"
        code, _, err = invoke(capsys, "classify", "--channel", path, "--oracle")
        assert code == 1
        assert "dense oracle limited to 4 qubits" in err

    def test_text_rendering(self, capsys, tmp_path):
        path = write_channel(tmp_path, ["II", "XI", "ZI"])
        code, out, _ = invoke(capsys, "classify", "--channel", path, "--text")
        assert code == 0
        assert out.splitlines() == [
            "verdict: Clique",
            "witness: IX",
            "dim(PGP) = 4",
            "candidates examined: 0",
        ]


class TestSearch:
    def test_identity_channel_all_anticliques(self, capsys, tmp_path):
        path = write_channel(tmp_path, ["II"])
        code, out, _ = invoke(capsys, "search", "--channel", path,
                              "--mode", "anticlique", "--k", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "anticlique"
        assert doc["examined"] == {"1": 15}
        assert len(doc["witnesses"]) == 15
        assert all(w["kind"] == "anticlique" for w in doc["witnesses"])

    def test_maximal_channel_no_witnesses(self, capsys, maximal_file):
        code, out, _ = invoke(capsys, "search", "--channel", maximal_file,
                              "--mode", "both")
        assert code == 0
        doc = json.loads(out)
        assert doc["examined"] == {"1": 15, "2": 1}
        assert doc["witnesses"] == []

    def test_bad_k_list(self, capsys, maximal_file):
        code, _, err = invoke(capsys, "search", "--channel", maximal_file,
                              "--mode", "both", "--k", "one")
        assert code == 1
        assert "--k" in err

    def test_k_out_of_range(self, capsys, maximal_file):
        code, _, err = invoke(capsys, "search", "--channel", maximal_file,
                              "--mode", "both", "--k", "3")
        assert code == 1
        assert "k must lie in" in err

    def test_bad_mode_rejected_by_parser(self, capsys, maximal_file):
        with pytest.raises(SystemExit) as exc:
            cli.main(["search", "--channel", maximal_file, "--mode", "bogus"])
        assert exc.value.code == 1

    def test_text_rendering(self, capsys, maximal_file):
        code, out, _ = invoke(capsys, "search", "--channel", maximal_file,
                              "--mode", "both", "--text")
        assert code == 0
        assert "no witnesses" in out


class TestConstructMaximal:
    def test_default_is_x_type(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = invoke(capsys, "construct-maximal", "--n", "2",
                              "-o", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert [e["op"] for e in doc["noise"]] == ["II", "XI", "IX", "XX"]
        assert json.loads(out) == doc

    def test_custom_generators(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, _, _ = invoke(capsys, "construct-maximal", "--n", "2",
                            "--generators", "ZI,IZ", "-o", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert sorted(e["op"] for e in doc["noise"]) == ["II", "IZ", "ZI", "ZZ"]

    def test_file_bytes_deterministic(self, capsys, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        invoke(capsys, "construct-maximal", "--n", "3", "-o", str(first))
        invoke(capsys, "construct-maximal", "--n", "3", "-o", str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_too_few_generators_rejected(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "construct-maximal", "--n", "2",
                              "--generators", "XX", "-o", str(tmp_path / "x.json"))
        assert code == 1
        assert "error:" in err

    def test_nonpositive_n_rejected(self, capsys, tmp_path):
        code, _, _ = invoke(capsys, "construct-maximal", "--n", "0",
                            "-o", str(tmp_path / "x.json"))
        assert code == 1


class TestVerify:
    def test_maximal_channel_agreement(self, capsys, maximal_file):
        code, out, _ = invoke(capsys, "verify", "--channel", maximal_file,
                              "--stabilizer", "ZZ")
        assert code == 0
        doc = json.loads(out)
        assert doc["agreement"] is True
        assert doc["dim_PGP"] == {"symplectic": 2, "dense": 2}
        assert doc["is_anticlique"] is False
        assert doc["is_clique"] is False

    def test_clique_witness_includes_privacy(self, capsys, tmp_path):
        path = write_channel(tmp_path, ["II", "XI", "ZI"])
        code, out, _ = invoke(capsys, "verify", "--channel", path,
                              "--stabilizer", "IX")
        assert code == 0
        doc = json.loads(out)
        assert doc["is_clique"] is True
        assert doc["privacy"] == {"samples": 100, "all_pairs_overlap": True}

    @pytest.mark.parametrize("flags, seed", [((), 0), (("--seed", "7"), 7)])
    def test_privacy_sampling_seed(self, capsys, tmp_path, monkeypatch, flags, seed):
        # the sampled pairs overlap under any seed, so the report cannot
        # show which seed drew them: the oracle call is watched instead
        path = write_channel(tmp_path, ["II", "XI", "ZI"])
        seeds = []
        real = oracle.private_witness_check

        def watched(*args, **kwargs):
            seeds.append(kwargs.get("seed"))
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle, "private_witness_check", watched)
        code, out, _ = invoke(capsys, "verify", "--channel", path,
                              "--stabilizer", "IX", *flags)
        assert code == 0
        assert json.loads(out)["privacy"]["all_pairs_overlap"] is True
        assert seeds == [seed]

    def test_anticlique_witness(self, capsys, tmp_path):
        path = write_channel(tmp_path, ["XI", "ZI"])
        code, out, _ = invoke(capsys, "verify", "--channel", path,
                              "--stabilizer", "ZI")
        assert code == 0
        doc = json.loads(out)
        assert doc["is_anticlique"] is True
        assert doc["gottesman_correctable"] is True
        assert doc["kl_check"] is True
        assert "privacy" not in doc

    def test_one_count_per_report(self, capsys, tmp_path, monkeypatch, maximal_file):
        # is_anticlique and is_clique are read off the report's one
        # compressed_dimension: an anticlique, a clique and neither
        calls = []
        real = ramsey.compressed_dimension
        monkeypatch.setattr(
            ramsey,
            "compressed_dimension",
            lambda ch, group: calls.append(str(group)) or real(ch, group),
        )
        for path, code_text, anticlique, clique in (
            (write_channel(tmp_path, ["XI", "ZI"], "anti.json"), "ZI", True, False),
            (write_channel(tmp_path, ["II", "XI", "ZI"], "clique.json"), "IX", False, True),
            (maximal_file, "ZZ", False, False),
        ):
            calls.clear()
            code, out, _ = invoke(capsys, "verify", "--channel", path,
                                  "--stabilizer", code_text)
            assert code == 0
            doc = json.loads(out)
            assert (doc["is_anticlique"], doc["is_clique"]) == (anticlique, clique)
            assert calls == [code_text]

    def test_route_disagreement_exits_2(self, capsys, maximal_file, monkeypatch):
        monkeypatch.setattr(
            "qramsey.oracle.dense_compressed_dimension",
            lambda ch, group, **kw: SimpleNamespace(rank=99),
        )
        code, out, _ = invoke(capsys, "verify", "--channel", maximal_file,
                              "--stabilizer", "ZZ")
        assert code == 2
        blob = json.loads(out)
        assert blob["subcommand"] == "verify"
        assert "dim_PGP" in blob["detail"]
        assert len(blob["reproduction"]["channel"]["noise"]) == 1


class TestSelftest:
    def test_quick_run_passes(self, capsys):
        code, out, _ = invoke(capsys, "selftest", "--n", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert [e["criterion"] for e in doc["criteria"]] == list(range(1, 10))

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_nonpositive_n_rejected(self, capsys, monkeypatch, n):
        monkeypatch.setattr("qramsey.selftest.run", lambda **kw: pytest.fail("ran"))
        code, out, err = invoke(capsys, "selftest", "--n", n)
        assert code == 1
        assert out == ""
        assert err == "error: --n must be a positive integer\n"

    def test_failure_exits_2(self, capsys, monkeypatch):
        broken = [(1, selftest.CheckResult("forced", False, "boom"))]
        monkeypatch.setattr("qramsey.selftest.run", lambda **kw: broken)
        code, out, _ = invoke(capsys, "selftest")
        assert code == 2
        assert json.loads(out)["passed"] is False

    def test_text_rendering(self, capsys, monkeypatch):
        fine = [(1, selftest.CheckResult("pauli algebra vs dense matrices",
                                         True, "everything agreed"))]
        monkeypatch.setattr("qramsey.selftest.run", lambda **kw: fine)
        code, out, _ = invoke(capsys, "selftest", "--text")
        assert code == 0
        assert out.splitlines() == [
            "criterion 1: PASS - everything agreed",
            "all passed",
        ]

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_cap_bounds_every_sampled_n(self, exhaustive):
        plan = selftest._plan(exhaustive, seed=0, cap=2)
        assert plan[selftest.check_pauli_algebra]["max_n"] == 2
        assert plan[selftest.check_centralizer_dimension]["max_n"] == 2
        assert plan[selftest.check_oracle_equivalence]["n3_cases"] == 0
        assert plan[selftest.check_main_theorem]["n3_cases"] == 0
        assert plan[selftest.check_completion_lemmas]["max_n"] == 2

    def test_default_cap_keeps_the_acceptance_strength(self):
        plan = selftest._plan(True, seed=0, cap=4)
        assert plan[selftest.check_oracle_equivalence]["n3_cases"] == 200
        assert plan[selftest.check_main_theorem]["n3_cases"] == 10
        assert plan[selftest.check_completion_lemmas]["max_n"] == 4

    def test_capped_details_name_the_n_that_ran(self, monkeypatch):
        drawn = []
        random_group = selftest._random_group

        def spy(rng, n, *args, **kwargs):
            drawn.append(n)
            return random_group(rng, n, *args, **kwargs)

        monkeypatch.setattr(selftest, "_random_group", spy)
        result = selftest.check_completion_lemmas(cases=30, seed=0, max_n=2)
        assert result.passed
        assert "at n<=2:" in result.detail
        assert set(drawn) == {1, 2}
        result = selftest.check_centralizer_dimension(max_n=2)
        assert result.passed
        assert "n<=2," in result.detail

    def test_cap_one_runs_no_two_qubit_case(self, monkeypatch):
        # every channel a criterion builds or searches reaches one of these
        seen = []

        def spy(module, name):
            real = getattr(module, name)

            def wrapper(ch, *args, **kwargs):
                seen.append(ch.n)
                return real(ch, *args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("classify", "search", "compressed_dimension",
                     "gottesman_correctable"):
            spy(ramsey, name)
        for name in ("dense_compressed_dimension", "kl_check",
                     "private_witness_check"):
            spy(selftest.oracle, name)
        for exhaustive in (False, True):
            seen.clear()
            results = dict(selftest.run(exhaustive=exhaustive, max_n=1))
            assert all(r.passed for r in results.values())
            assert seen and set(seen) == {1}
            assert "exhaustive n=1 cases" in results[3].detail
            assert "all 3 Lagrangians at n=1" in results[4].detail
            assert results[5].name == "trichotomy over every n=1 channel"
            assert "15 channels classified" in results[5].detail
            assert "15 verdicts re-verified densely" in results[5].detail
            for number in (6, 7, 9):
                assert results[number].detail.endswith("; capped at n=1")
            assert "from 15 sampled channels" in results[9].detail
            assert all("n=3" not in r.detail for r in results.values())

    def test_cap_two_names_no_three_qubit_case(self):
        # criteria 3 and 4 sample n = 3 only when the cap allows it, and a
        # detail names only what ran
        results = dict(selftest.run(max_n=2))
        assert all(r.passed for r in results.values())
        assert all("n=3" not in r.detail for r in results.values())
        assert results[3].detail.endswith(" exhaustive n=2 cases, exact")
        assert results[4].detail.startswith("all 15 Lagrangians at n=2; ")

    def test_criterion_4_requires_the_closed_form(self, monkeypatch):
        # a walk count of 2^k + 1 on a maximal n=2 channel is neither 1 nor
        # 4^k, so no witness appears; the closed form alone catches it
        walk = ramsey._coset_counts

        def off_by_one(diffs, n, depth):
            counts = walk(diffs, n, depth)
            counts[-1] = counts[-1] + (np.arange(len(counts[-1])) == 3)
            return counts

        assert selftest.check_main_theorem(n3_cases=0).passed
        monkeypatch.setattr(ramsey, "_coset_counts", off_by_one)
        result = selftest.check_main_theorem(n3_cases=0)
        assert not result.passed
        assert "hits 3 cosets, not 2^1, of the k=1 code at position 3 of the walk" in result.detail

    def test_default_run_details_are_unchanged(self):
        # the quick default run names n=2 where it always did, and nothing
        # more; pinned from the run before the cap reached these criteria
        results = dict(selftest.run())
        assert all(r.passed for r in results.values())
        pinned = [results[number] for number in (3, 4, 5, 6, 7, 9)]
        assert [(r.name, r.detail) for r in pinned] == [
            ("compressed dimension vs dense Gram rank",
             "2176 exhaustive n=2 cases and 20 random n=3 cases, exact"),
            ("maximal stabilizer channels have no witnesses",
             "all 15 Lagrangians at n=2 plus 3 random maximal stabilizers at n=3; "
             "1377 candidate codes examined, zero witnesses"),
            ("trichotomy over every n=2 channel",
             "1500 channels classified: 5 anticliques, 1488 cliques, 7 maximal; "
             "16 verdicts re-verified densely"),
            ("correctability criteria agree",
             "2176 (channel, code) cases: gottesman == anticlique == KL throughout"),
            ("sign invariance of the compressed rank",
             "20 single-sign flips over 15 random (channel, code) cases; "
             "projector always changed, dense rank never did"),
            ("clique witnesses are private codes",
             "87 clique witnesses from 90 sampled channels, 25 orthogonal pairs "
             "each, all pairs saw noise overlap"),
        ]


class TestParser:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 1

    def test_unknown_flag(self, capsys, maximal_file):
        with pytest.raises(SystemExit) as exc:
            cli.main(["classify", "--channel", maximal_file, "--frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["dim", "--stabilizer", "ZZ"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["verify", "--stabilizer", "ZZ", "--seed", "-3"],
        ["selftest", "--seed", "-1"],
    ], ids=["verify", "selftest"])
    def test_negative_seed_rejected_by_the_parser(self, capsys, monkeypatch, maximal_file, argv):
        # numpy's seeding would refuse it, after a verify's counts or, for
        # selftest, after criteria 1-8; the parser names the flag first
        monkeypatch.setattr("qramsey.selftest.run", lambda **kw: pytest.fail("ran"))
        monkeypatch.setattr(cli, "_verify_report", lambda *a: pytest.fail("ran"))
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--channel", maximal_file] if argv[0] == "verify" else argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --seed: must be a non-negative integer, got '-" in captured.err


class TestOptionSurface:
    # every option each verb accepts: --seed only where a sampler reads it,
    # --oracle only where it adds a dense check
    EXPECTED = {
        "dim": {"--channel", "--stabilizer", "--oracle"},
        "classify": {"--channel", "--oracle"},
        "search": {"--channel", "--mode", "--k"},
        "construct-maximal": {"--n", "--generators", "-o", "--output"},
        "verify": {"--channel", "--stabilizer", "--seed"},
        "selftest": {"--n", "--seed", "--exhaustive"},
    }

    def test_each_verb_accepts_exactly_its_options(self):
        (verbs,) = [
            action for action in cli._build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        surface = {
            name: {s for action in parser._actions for s in action.option_strings}
            for name, parser in verbs.choices.items()
        }
        assert surface == {
            name: options | {"-h", "--help", "--text"}
            for name, options in self.EXPECTED.items()
        }

    @pytest.mark.parametrize("argv, extra", [
        (["classify", "--seed", "1"], "--seed 1"),
        (["verify", "--stabilizer", "ZZ", "--oracle"], "--oracle"),
    ])
    def test_removed_flags_exit_1(self, capsys, maximal_file, argv, extra):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--channel", maximal_file])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: unrecognized arguments: {extra}\n" in captured.err
