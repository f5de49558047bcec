"""End-to-end tests of the command line interface."""

import json
import shutil
import subprocess

import pytest

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

    def test_max_depth(self, capsys):
        assert main(["resolve", "-r", "12", "-w", "1,2,7", "--max-depth", "1"]) == 0
        out = capsys.readouterr().out
        assert "maximal cones 3" in out
        assert "smooth no" in out

    def test_max_depth_zero_is_the_orthant(self, capsys):
        assert main(["resolve", "-r", "12", "-w", "1,2,7", "--max-depth", "0"]) == 0
        assert "maximal cones 1" in capsys.readouterr().out

    def test_negative_max_depth_is_input_error(self, capsys):
        # it would print the unsubdivided orthant as if it were asked for
        assert main(["resolve", "-r", "12", "-w", "1,2,7", "--max-depth", "-1"]) == 2
        captured = capsys.readouterr()
        assert "max_depth" in captured.err
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

    def test_bad_type_is_input_error(self, capsys):
        assert main(["verify", "-r", "9", "-w", "3,6"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_sample_count_below_one_is_input_error(self, samples, capsys):
        # zero samples would test no coverage at all and still print [ok]
        with pytest.raises(SystemExit) as exc:
            main(["verify", "-r", "12", "-w", "1,2,7", "--samples", samples])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--samples" in captured.err
        assert "PASS" not in captured.out


class TestSweep:
    def test_writes_csv(self, tmp_path, capsys):
        dest = tmp_path / "out.csv"
        code = main(["sweep", "--dim", "2", "--r-max", "6", "--csv", str(dest)])
        assert code == 0
        out = capsys.readouterr().out
        assert "all identities hold" in out
        text = dest.read_text()
        assert text.startswith("r,weights,S,h,chi,")

    def test_cap_is_enforced(self, capsys):
        assert main(["sweep", "--dim", "3", "--r-max", "200"]) == 2
        assert "allow_large" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_is_input_error(self, jobs, capsys):
        # it would run serially and exit 0 as if the value were valid
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

    @pytest.mark.parametrize("k_max", ["0", "-3"])
    def test_empty_range_is_input_error(self, k_max, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["family", "plus", "--k-max", k_max])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--k-max" in captured.err
        assert captured.out == ""

    def test_requires_exactly_one_selector(self, capsys):
        assert main(["family", "plus"]) == 2
        assert main(["family", "plus", "-k", "1", "--k-max", "2"]) == 2


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

    def test_bad_input_writes_no_file(self, tmp_path, capsys):
        # the SVG needs three weights; the JSON must not be written either
        fan_json, svg = tmp_path / "a.json", tmp_path / "b.svg"
        code = main(
            ["export", "-r", "5", "-w", "1,2", "--json", str(fan_json), "--svg", str(svg)]
        )
        assert code == 2
        assert "3 weights" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_requires_some_output(self, capsys):
        assert main(["export", "-r", "12", "-w", "1,2,7"]) == 2
        assert "nothing to export" in capsys.readouterr().err


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
