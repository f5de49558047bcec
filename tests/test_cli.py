"""End-to-end tests of the command line interface."""

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc

import pytest

import fujiki_oka.cli
import fujiki_oka.fan
import fujiki_oka.verify
from fujiki_oka.cli import main


class TestExpand:
    def test_text_output(self, capsys):
        assert main(["expand", "-r", "12", "-w", "1,2,7"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "(1,2,7)/12",
            "(1,0,1)/2 * x2",
            "(1,2,2)/7 * x3",
            "(1,1,0)/2 * x3 x2",
            "(1,0,1)/2 * x3 x3",
        ]

    def test_json_output(self, capsys):
        assert main(["expand", "-r", "5", "-w", "1,2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["denominator"] == 5

    def test_rejects_bad_type(self, capsys):
        assert main(["expand", "-r", "5", "-w", "2,3"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_rejects_malformed_weights(self):
        with pytest.raises(SystemExit) as exc:
            main(["expand", "-r", "5", "-w", "1;2"])
        assert exc.value.code == 2


class TestResolve:
    def test_summary(self, capsys):
        assert main(["resolve", "-r", "12", "-w", "1,2,7"]) == 0
        out = capsys.readouterr().out
        assert "type 1/12(1,2,7)" in out
        assert "maximal cones 8" in out
        assert "rays 7" in out
        assert "smooth yes" in out
        assert "crepant no" in out
        assert "ray (1,2,7) exceptional discrepancy -1/6" in out

    def test_smooth_reads_the_leaf_determinants(self, monkeypatch, capsys):
        # the report's smooth_all, not the builder's own stopping rule
        monkeypatch.setattr(fujiki_oka.fan, "cone_multiplicity", lambda cone, group: 2)
        assert main(["resolve", "-r", "12", "-w", "1,2,7"]) == 0
        out = capsys.readouterr().out
        assert "smooth no" in out
        assert "maximal cones 8" in out

    def test_max_depth_is_not_an_option(self, capsys):
        # every fan is a complete resolution
        with pytest.raises(SystemExit) as exc:
            main(["resolve", "-r", "12", "-w", "1,2,7", "--max-depth", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--max-depth" in captured.err
        assert captured.out == ""


class TestVerify:
    def test_passes(self, capsys):
        assert main(["verify", "-r", "12", "-w", "1,2,7", "--samples", "200"]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("PASS")
        assert "[ok] size = height + r" in out
        assert "[FAIL]" not in out

    def test_two_dimensional_adds_continued_fraction(self, capsys):
        assert main(["verify", "-r", "12", "-w", "1,7", "--samples", "100"]) == 0
        out = capsys.readouterr().out
        assert "continued fraction [2, 4, 2]" in out

    @pytest.mark.parametrize("r, weights", [(4, "1,2"), (4, "2,1"), (6, "1,4"), (6, "4,1")])
    def test_two_dimensional_non_coprime_passes(self, r, weights, capsys):
        # r/a has no continued fraction when gcd(r, a) > 1; the comparison
        # is skipped, not an input error
        assert main(["verify", "-r", str(r), "-w", weights, "--samples", "100"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip().endswith("PASS")
        assert "continued fraction" not in captured.out
        assert captured.err == ""

    def test_failed_check_exits_one(self, monkeypatch, capsys):
        real = fujiki_oka.fan.validate_fan

        def bad_faces(*args, **kwargs):
            return dataclasses.replace(
                real(*args, **kwargs), faces_ok=False, bad_pairs=((0, 1),)
            )

        monkeypatch.setattr(fujiki_oka.fan, "validate_fan", bad_faces)
        assert main(["verify", "-r", "12", "-w", "1,2,7", "--samples", "100"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] cone pairs meet in common faces" in out
        assert out.strip().endswith("FAIL")

    def test_failed_two_dimensional_comparison_exits_one(self, monkeypatch, capsys):
        real = fujiki_oka.cli.compare_2d
        monkeypatch.setattr(
            fujiki_oka.cli,
            "compare_2d",
            lambda fan: dataclasses.replace(real(fan), rays_on_hull=False),
        )
        assert main(["verify", "-r", "12", "-w", "1,7", "--samples", "100"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] matches continued fraction [2, 4, 2] and hull" in out
        assert out.count("[FAIL]") == 1
        assert out.strip().endswith("FAIL")

    def test_bad_type_is_input_error(self, capsys):
        assert main(["verify", "-r", "9", "-w", "3,6"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-5", "abc"])
    def test_sample_count_below_one_is_input_error(self, samples, capsys):
        # zero samples would test no coverage at all and still print [ok]
        with pytest.raises(SystemExit) as exc:
            main(["verify", "-r", "12", "-w", "1,2,7", "--samples", samples])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--samples" in captured.err
        assert "PASS" not in captured.out

    def test_negative_seed_is_input_error(self, monkeypatch, capsys):
        # refused before the fan is built, so a large type fails at once
        def no_resolution(group):
            raise AssertionError("build_resolution called")

        assert main(["verify", "-r", "12", "-w", "1,2,7", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "seed" in captured.err
        assert "PASS" not in captured.out
        monkeypatch.setattr(fujiki_oka.fan, "build_resolution", no_resolution)
        assert main(["verify", "-r", "12", "-w", "1,2,7", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "error: sampling seed must be at least 0, got -1" in captured.err
        assert "PASS" not in captured.out

    def test_huge_sample_count_is_input_error(self, monkeypatch, capsys):
        # refused before the fan is built or any sample is drawn; the stubs
        # keep a regression from resolving or allocating gigabytes
        def no_draw(n, samples, seed):
            raise RuntimeError("samples drawn")

        def no_resolution(group):
            raise AssertionError("build_resolution called")

        monkeypatch.setattr(fujiki_oka.fan, "_samples", no_draw)
        argv = ["verify", "-r", "12", "-w", "1,2,7", "--samples", "1000000000"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "sample coordinates" in captured.err
        assert "PASS" not in captured.out
        monkeypatch.setattr(fujiki_oka.fan, "build_resolution", no_resolution)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "1000000000 samples in dimension 3 exceed the bound" in captured.err
        assert "sample coordinates" in captured.err
        assert "PASS" not in captured.out

    def test_seed_beyond_64_bits_passes(self, capsys):
        # the stream folds in every 64-bit limb of the seed
        assert main(["verify", "-r", "12", "-w", "1,2,7", "--seed", str(10**30)]) == 0
        assert capsys.readouterr().out.strip().endswith("PASS")

    def test_validation_does_not_import_numpy_random(self):
        # the samples come from the package's own stream; a fresh
        # interpreter shows what a verify loads
        src = os.path.dirname(os.path.dirname(fujiki_oka.__file__))
        code = (
            "import io, sys, contextlib, numpy\n"
            "print('numpy.random' in sys.modules)\n"
            "from fujiki_oka.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['verify', '-r', '12', '-w', '1,2,7'])\n"
            "print(code, 'numpy.random' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        with_numpy, after_verify = proc.stdout.splitlines()
        if with_numpy == "True":
            pytest.skip("this numpy imports numpy.random with numpy itself")
        assert after_verify == "0 False"


class TestSweep:
    def test_writes_csv(self, tmp_path, capsys):
        dest = tmp_path / "out.csv"
        code = main(["sweep", "--dim", "2", "--r-max", "6", "--csv", str(dest)])
        assert code == 0
        out = capsys.readouterr().out
        assert "all identities hold" in out
        text = dest.read_text()
        assert text.startswith("r,weights,S,h,chi,")

    def test_unwritable_csv_is_input_error(self, tmp_path, capsys):
        dest = tmp_path / "missing_dir" / "x.csv"
        assert main(["sweep", "--dim", "2", "--r-max", "5", "--csv", str(dest)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not dest.exists()

    def test_unwritable_csv_fails_before_any_type_is_resolved(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(fujiki_oka.cli, "sweep", lambda **kwargs: calls.append(kwargs))
        dest = tmp_path / "missing_dir" / "x.csv"
        assert main(["sweep", "--dim", "3", "--r-max", "20", "--csv", str(dest)]) == 2
        assert "error:" in capsys.readouterr().err
        assert calls == []

    def test_bad_input_writes_no_csv(self, tmp_path, capsys):
        fresh, kept = tmp_path / "new.csv", tmp_path / "kept.csv"
        kept.write_bytes(b"earlier contents\n")
        for dest in (fresh, kept):
            assert main(["sweep", "--dim", "1", "--r-max", "5", "--csv", str(dest)]) == 2
            assert "dimension" in capsys.readouterr().err
        assert not fresh.exists()
        assert kept.read_bytes() == b"earlier contents\n"

    def test_interrupt_leaves_no_csv(self, tmp_path, monkeypatch):
        def interrupted(**kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(fujiki_oka.cli, "sweep", interrupted)
        dest = tmp_path / "x.csv"
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", "--dim", "2", "--r-max", "5", "--csv", str(dest)])
        assert list(tmp_path.iterdir()) == []

    def test_failed_record_exits_one(self, monkeypatch, capsys):
        real = fujiki_oka.verify.measure_type

        def measure(group):
            rec = real(group)
            if group.weights == (1, 2):
                return dataclasses.replace(rec, euler=rec.euler + 1)
            return rec

        monkeypatch.setattr(fujiki_oka.verify, "measure_type", measure)
        assert main(["sweep", "--dim", "2", "--r-max", "6"]) == 1
        out = capsys.readouterr().out
        assert "all identities hold" not in out
        # the same label as GroupType's
        assert out.splitlines()[-1] == "FAILURES: 1/3(1,2), 1/4(1,2), 1/5(1,2), 1/6(1,2)"

    def test_crepant_only_still_judges_every_type(self, monkeypatch, capsys):
        # a failing type the filter hides from the rows still fails the sweep
        real = fujiki_oka.verify.measure_type

        def measure(group):
            rec = real(group)
            return rec if rec.crepant else dataclasses.replace(rec, euler=rec.euler + 1)

        monkeypatch.setattr(fujiki_oka.verify, "measure_type", measure)
        argv = ["sweep", "--dim", "3", "--r-max", "5"]
        for flags in ([], ["--crepant-only"]):
            assert main(argv + flags) == 1
            out = capsys.readouterr().out
            assert "all identities hold" not in out
            assert out.splitlines()[-1].startswith("FAILURES: 1/2(0,0,1), ")

    def test_crepant_only_filters_rows_and_counts(self, tmp_path, capsys):
        every, crepant = tmp_path / "every.csv", tmp_path / "crepant.csv"
        argv = ["sweep", "--dim", "3", "--r-max", "8", "--csv"]
        assert main(argv + [str(every)]) == 0
        assert main(argv + [str(crepant), "--crepant-only"]) == 0
        out = capsys.readouterr().out.splitlines()
        # every column but the wall-clock ms
        header, *rows = [line.rsplit(",", 1)[0] for line in every.read_text().splitlines()]
        kept = [row for row in rows if row.split(",")[6] == "true"]
        assert kept and len(kept) < len(rows)
        lines = crepant.read_text().splitlines()
        assert [line.rsplit(",", 1)[0] for line in lines] == [header] + kept
        assert out[-3] == f"wrote {len(kept)} records to {crepant}"
        assert out[-2].startswith(f"types {len(kept)}  crepant {len(kept)}  ")
        assert out[-1] == "all identities hold"

    def test_cap_is_enforced(self, capsys):
        assert main(["sweep", "--dim", "3", "--r-max", "200"]) == 2
        assert "allow_large" in capsys.readouterr().err

    def test_cap_decides_a_huge_dimension_at_once(self, capsys):
        # 3**100000000 is never computed, nor formatted into the message
        start = time.perf_counter()
        assert main(["sweep", "--dim", "100000000", "--r-max", "3"]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert "allow_large" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("jobs", ["0", "-4", "1", "2"])
    def test_jobs_below_one_is_input_error(self, jobs, capsys):
        # a sweep runs in one process; --jobs is not an option of any value
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--dim", "2", "--r-max", "6", "--jobs", jobs])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--jobs" in captured.err
        assert captured.out == ""

    def test_gorenstein_flag(self, capsys):
        assert main(["sweep", "--dim", "3", "--r-max", "6", "--gorenstein"]) == 0
        out = capsys.readouterr().out
        assert "types " in out


class TestFamily:
    def test_single_member(self, capsys):
        assert main(["family", "plus", "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "[ok] k=2 1/13(1,3,7) euler 13" in out

    def test_range(self, capsys):
        assert main(["family", "minus", "--k-max", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 3
        assert all(line.startswith("[ok]") for line in out)

    def test_long_range_resolves_as_it_goes(self, monkeypatch, capsys):
        real = fujiki_oka.cli.family_type

        def refuses_the_third(name, k):
            if k == 3:
                raise ValueError("member 3 refused")
            return real(name, k)

        monkeypatch.setattr(fujiki_oka.cli, "family_type", refuses_the_third)
        tracemalloc.start()
        try:
            code = main(["family", "plus", "--k-max", "1000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert len(capsys.readouterr().out.splitlines()) == 2
        # a list of all million members alone would take tens of MB
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("k_max", ["0", "-3"])
    def test_empty_range_is_input_error(self, k_max, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["family", "plus", "--k-max", k_max])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--k-max" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "selector", [[], ["-k", "1", "--k-max", "2"], ["-k", "0"]], ids=["none", "both", "k0"]
    )
    def test_requires_exactly_one_selector(self, selector, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["family", "plus", *selector])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestExport:
    def test_artifacts(self, tmp_path, capsys):
        paths = {
            "json": tmp_path / "fan.json",
            "poly": tmp_path / "poly.json",
            "svg": tmp_path / "fan.svg",
            "dot": tmp_path / "tree.dot",
        }
        code = main(
            [
                "export",
                "-r",
                "12",
                "-w",
                "1,2,7",
                "--json",
                str(paths["json"]),
                "--poly",
                str(paths["poly"]),
                "--svg",
                str(paths["svg"]),
                "--dot",
                str(paths["dot"]),
            ]
        )
        assert code == 0
        fan_data = json.loads(paths["json"].read_text())
        assert fan_data["euler"] == 8
        poly_data = json.loads(paths["poly"].read_text())
        assert len(poly_data) == 5
        svg = paths["svg"].read_text()
        assert svg.count("<polygon") == 8
        assert paths["dot"].read_text().startswith("digraph")

    def test_only_the_polynomial_is_expanded(self, tmp_path, monkeypatch, capsys):
        # the fan renderers read S and h from the fan itself, so an expand
        # that raises leaves their bytes as they were; --poly expands once
        real = fujiki_oka.cli.expand
        calls = []

        def expand(root):
            calls.append(root)
            assert poly, "expand called"
            return real(root)

        monkeypatch.setattr(fujiki_oka.cli, "expand", expand)
        for order, weights, command, digest in GOLDEN_OUTPUT:
            if not command.startswith("export"):
                continue
            flag = command.split()[1]
            poly = flag == "--poly"
            calls.clear()
            dest = tmp_path / "out"
            code = main(["export", "-r", order, "-w", weights, flag, str(dest)])
            text = dest.read_text()
            assert hashlib.sha256(f"{code}\n{text}".encode()).hexdigest() == digest
            assert len(calls) == poly, command

    def test_the_polynomial_needs_no_fan(self, tmp_path, monkeypatch, capsys):
        def no_resolution(group):
            raise AssertionError("build_resolution called")

        monkeypatch.setattr(fujiki_oka.cli, "build_resolution", no_resolution)
        for order, weights, command, digest in GOLDEN_OUTPUT:
            if command != "export --poly":
                continue
            dest = tmp_path / "poly.json"
            code = main(["export", "-r", order, "-w", weights, "--poly", str(dest)])
            text = dest.read_text()
            assert hashlib.sha256(f"{code}\n{text}".encode()).hexdigest() == digest
            assert capsys.readouterr().out == f"wrote {dest}\n"

    def test_bad_input_writes_no_file(self, tmp_path, capsys):
        # the SVG needs three weights; the JSON must not be written either
        fan_json, svg = tmp_path / "a.json", tmp_path / "b.svg"
        code = main(
            ["export", "-r", "5", "-w", "1,2", "--json", str(fan_json), "--svg", str(svg)]
        )
        assert code == 2
        assert "3 weights" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_path_is_input_error(self, tmp_path, capsys):
        dest = tmp_path / "missing_dir" / "x.json"
        assert main(["export", "-r", "12", "-w", "1,2,7", "--json", str(dest)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not dest.exists()

    def test_unwritable_later_path_writes_nothing(self, tmp_path, capsys):
        # every destination is opened before any is emptied
        kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.json"
        kept.write_bytes(b"earlier contents\n")
        dot = tmp_path / "missing_dir" / "x.dot"
        argv = ["export", "-r", "12", "-w", "1,2,7", "--json", str(kept)]
        code = main(argv + ["--poly", str(fresh), "--dot", str(dot)])
        assert code == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "wrote" not in captured.out
        assert kept.read_bytes() == b"earlier contents\n"
        assert not fresh.exists()
        assert not dot.exists()

    def test_one_path_for_two_artifacts_is_input_error(self, tmp_path, monkeypatch, capsys):
        # each artifact would empty the file before writing its own text
        kept = tmp_path / "kept.txt"
        kept.write_bytes(b"earlier contents\n")
        fresh = tmp_path / "fresh.txt"
        monkeypatch.chdir(tmp_path)
        for first, second in [
            (str(kept), str(kept)),
            (str(fresh), str(fresh)),
            (str(kept), "kept.txt"),
            (str(tmp_path / "sub" / ".." / "fresh.txt"), "./fresh.txt"),
        ]:
            argv = ["export", "-r", "12", "-w", "1,2,7", "--json", first, "--dot", second]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert "name the same file" in captured.err
            assert captured.out == ""
        assert kept.read_bytes() == b"earlier contents\n"
        assert list(tmp_path.iterdir()) == [kept]

    def test_render_error_keeps_existing_file(self, tmp_path, capsys):
        # the 4-weight type has no SVG; the existing JSON must keep its bytes
        svg, kept = tmp_path / "a.svg", tmp_path / "b.json"
        kept.write_bytes(b"earlier contents\n")
        argv = ["export", "-r", "101", "-w", "1,2,3,95", "--svg", str(svg), "--json", str(kept)]
        assert main(argv) == 2
        assert "3 weights" in capsys.readouterr().err
        assert not svg.exists()
        assert kept.read_bytes() == b"earlier contents\n"

    def test_svg_dimension_error_comes_before_resolving(self, tmp_path, capsys, monkeypatch):
        # the weight count is known from the input: no fan, no file
        def no_resolution(*args, **kwargs):
            raise AssertionError("build_resolution called")

        monkeypatch.setattr(fujiki_oka.cli, "build_resolution", no_resolution)
        for weights in ("1,2", "1,2,3,95"):
            svg = tmp_path / "x.svg"
            argv = ["export", "-r", "101", "-w", weights, "--svg", str(svg)]
            assert main(argv) == 2
            n = len(weights.split(","))
            err = capsys.readouterr().err
            assert err == f"error: cross-section drawing needs 3 weights, got {n}\n"
            assert list(tmp_path.iterdir()) == []

    def test_requires_some_output(self, capsys):
        assert main(["export", "-r", "12", "-w", "1,2,7"]) == 2
        assert "nothing to export" in capsys.readouterr().err


# sha256 of the exit code, a newline and the output: stdout for the printing
# verbs, the written file for export
GOLDEN_OUTPUT = [
    ("12", "1,2,7", "expand", "dda1d03c7ad392681266814701cfbb929aae00af927f5aa31c9b8212416beaba"),
    ("12", "1,2,7", "expand --json", "3fdb04efe01ad4e99c47cd16519e7d8acbabec2e9c652cf915f8c54897d34aad"),
    ("12", "1,2,7", "resolve", "0f6ae99c30ee43855c42e35ed414af7fbadc5c5b68aa125461d8f1705d381b18"),
    ("12", "1,2,7", "verify", "8255a22a267fdef85c7183235f3e8c32089291533256019d3dd9100a77a050c9"),
    ("12", "1,2,7", "export --json", "89c287ae3902c5e3bb917be28cc2d66a775023acd923102c228997b4420198ce"),
    ("12", "1,2,7", "export --poly", "3fdb04efe01ad4e99c47cd16519e7d8acbabec2e9c652cf915f8c54897d34aad"),
    ("12", "1,2,7", "export --svg", "b831ff214223e097f72110f3bc3a66e27647859fc4cdb5093742c5e4382b4d81"),
    ("12", "1,2,7", "export --dot", "45a08d6885d035235b96d7c4bf8c457ddd7053e05997cd1571db613feddcece9"),
    ("30", "1,11", "expand", "0cd0b3260383588d614a3311c42c1f6973b1442ef21a8449c97a396007afac85"),
    ("30", "1,11", "expand --json", "e3c3b31467f8e9aaef556ef2eb60327c7130a53e8748543711cbc1520f794c92"),
    ("30", "1,11", "resolve", "e0c353b7741b9b2efff7e1f3273f5c21ab60c2b37f906dda1639950e55a0504b"),
    ("30", "1,11", "verify", "75583b6808d56686798a5c08a1af06b4e895a194cdba133b8872a24b299d2b5c"),
    ("30", "1,11", "export --json", "5d54ebebcdf1fedfd007c730fd554711d1ab35908bde104d0285bc9bda1ba6fe"),
    ("30", "1,11", "export --poly", "e3c3b31467f8e9aaef556ef2eb60327c7130a53e8748543711cbc1520f794c92"),
    ("30", "1,11", "export --dot", "91d27b9ccc51f74bf1dd7a12d13ff97513a3cc77682a1cc64bee8193e7b959ec"),
    ("101", "1,2,3,95", "expand", "09d785d503bf44f3ef705468569cbbf17413840cb6a075e828e46af3efcc1a56"),
    ("101", "1,2,3,95", "expand --json", "88a9a3fb492b4256d777da60de1e3fc656d6b56178eda64efc6f833ba47c4d17"),
    ("101", "1,2,3,95", "resolve", "390c95d4a6c88f8b767a2d5dbfd6f75a1577f9ac323a83d387ee5748dee11375"),
    ("101", "1,2,3,95", "verify", "086ad12958dab453f4edff8b14c162bf62391415292e85954aeb0ab6f2fc1fa9"),
    ("101", "1,2,3,95", "export --json", "d5938b6ed2b28741afa4fe63192da477221ec33791fc2a9b885ddb2c92d31171"),
    ("101", "1,2,3,95", "export --poly", "88a9a3fb492b4256d777da60de1e3fc656d6b56178eda64efc6f833ba47c4d17"),
    ("101", "1,2,3,95", "export --dot", "e022819cf1f715228c5a1ee6dcaffecfa5f30d979d777b79eec889145d8ae911"),
]


@pytest.mark.parametrize(
    "order, weights, command, digest",
    GOLDEN_OUTPUT,
    ids=[f"1/{r}({w})-{c.replace(' --', '-')}" for r, w, c, _ in GOLDEN_OUTPUT],
)
def test_golden_output(order, weights, command, digest, tmp_path, capsys):
    verb, *flags = command.split()
    argv = [verb, "-r", order, "-w", weights]
    if verb == "export":
        dest = tmp_path / "out"
        code = main(argv + [flags[0], str(dest)])
        text = dest.read_text()
    else:
        code = main(argv + flags)
        text = capsys.readouterr().out
    assert hashlib.sha256(f"{code}\n{text}".encode()).hexdigest() == digest


class TestConsoleScript:
    def test_installed_entry_point(self):
        exe = shutil.which("fujiki-oka")
        if exe is None:
            pytest.skip("console script not installed")
        proc = subprocess.run(
            [exe, "expand", "-r", "12", "-w", "1,2,7"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "(1,2,7)/12"
