"""End-to-end tests for the command-line interface."""

import pytest

from repro.cli import main


class TestGen:
    def test_gen_and_extract_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "mult.eqn"
        assert main(
            ["gen", "--p", "x^8+x^4+x^3+x+1", "-o", str(path)]
        ) == 0
        assert path.exists()
        assert main(["extract", str(path)]) == 0
        out = capsys.readouterr().out
        assert "P(x) = x^8 + x^4 + x^3 + x + 1" in out

    @pytest.mark.parametrize("algo", ["mastrovito", "montgomery", "schoolbook"])
    def test_all_algorithms(self, tmp_path, algo, capsys):
        path = tmp_path / f"{algo}.eqn"
        assert main(
            ["gen", "--p", "x^4+x+1", "--algorithm", algo, "-o", str(path)]
        ) == 0
        assert main(["extract", str(path)]) == 0
        assert "x^4 + x + 1" in capsys.readouterr().out

    def test_gen_blif_format(self, tmp_path, capsys):
        path = tmp_path / "mult.blif"
        assert main(["gen", "--p", "x^4+x+1", "-o", str(path)]) == 0
        assert main(["extract", str(path)]) == 0

    def test_gen_verilog_format(self, tmp_path, capsys):
        path = tmp_path / "mult.v"
        assert main(["gen", "--p", "x^4+x+1", "-o", str(path)]) == 0
        assert main(["extract", str(path)]) == 0

    def test_reducible_warning(self, tmp_path, capsys):
        path = tmp_path / "bad.eqn"
        main(["gen", "--p", "x^4+x^2+1", "-o", str(path)])
        assert "reducible" in capsys.readouterr().err

    def test_synthesized_output(self, tmp_path, capsys):
        path = tmp_path / "syn.eqn"
        assert main(
            ["gen", "--p", "x^4+x+1", "--synthesize", "-o", str(path)]
        ) == 0
        assert main(["extract", str(path)]) == 0


class TestAudit:
    def test_audit_report(self, tmp_path, capsys):
        path = tmp_path / "mult.eqn"
        main(["gen", "--p", "x^4+x^3+1", "-o", str(path)])
        assert main(["audit", str(path)]) == 0
        out = capsys.readouterr().out
        assert "reverse engineering report" in out
        assert "x^4 + x^3 + 1" in out
        assert "EQUIVALENT" in out

    def test_audit_jobs_flag(self, tmp_path, capsys):
        path = tmp_path / "mult.eqn"
        main(["gen", "--p", "x^4+x+1", "-o", str(path)])
        assert main(["audit", str(path), "--jobs", "2"]) == 0

    def test_audit_peak_rss_without_tracemalloc(
        self, tmp_path, capsys, monkeypatch
    ):
        """The report's memory figure is a kernel reading: the audit
        never starts Python's allocation tracer."""
        import tracemalloc

        path = tmp_path / "mult.eqn"
        main(["gen", "--p", "x^8+x^4+x^3+x+1", "-o", str(path)])
        capsys.readouterr()

        def refuse(*args):
            raise AssertionError("tracemalloc.start called")

        monkeypatch.setattr(tracemalloc, "start", refuse)
        assert main(["audit", "--engine", "aig", str(path)]) == 0
        out = capsys.readouterr().out
        (line,) = [row for row in out.splitlines() if "peak RSS" in row]
        assert float(line.split(":")[1].split()[0]) > 0


class TestEngineProbe:
    def _probes(self, monkeypatch, reasons):
        """Replace every engine probe with one that logs its call and
        returns ``reasons.get(name)``."""
        from repro.engine import registry

        called = []
        probes = {}
        for name in registry.registered_engines():

            def probe(name=name):
                called.append(name)
                return reasons.get(name)

            probes[name] = probe
        monkeypatch.setattr(registry, "_PROBES", probes)
        return called

    def test_only_the_selected_engine_is_probed(
        self, tmp_path, monkeypatch, capsys
    ):
        path = tmp_path / "mult.eqn"
        main(["gen", "--p", "x^4+x+1", "-o", str(path)])
        called = self._probes(monkeypatch, {})
        assert main(["extract", str(path), "--engine", "bitpack"]) == 0
        assert set(called) == {"bitpack"}

    def test_unavailable_engine_names_the_reason(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "mult.eqn"
        main(["gen", "--p", "x^4+x+1", "-o", str(path)])
        self._probes(monkeypatch, {"aig": "no aig today"})
        with pytest.raises(SystemExit) as caught:
            main(["extract", str(path), "--engine", "aig"])
        assert str(caught.value) == "engine 'aig' is unavailable: no aig today"


class TestSynth:
    def test_synth_command(self, tmp_path, capsys):
        src = tmp_path / "flat.eqn"
        dst = tmp_path / "opt.eqn"
        main(["gen", "--p", "x^4+x+1", "-o", str(src)])
        assert main(["synth", str(src), "-o", str(dst)]) == 0
        assert dst.exists()
        assert main(["extract", str(dst)]) == 0

    @pytest.mark.parametrize("ir", ["aig", "netlist"])
    def test_synth_ir_flag(self, tmp_path, capsys, ir):
        src = tmp_path / "flat.eqn"
        dst = tmp_path / f"opt_{ir}.eqn"
        main(["gen", "--p", "x^4+x+1", "-o", str(src)])
        assert main(["synth", str(src), "--ir", ir, "-o", str(dst)]) == 0
        assert main(["extract", str(dst), "--engine", "aig"]) == 0
        out = capsys.readouterr().out
        assert "x^4 + x + 1" in out


class TestInfoCommands:
    def test_reduction_tables(self, capsys):
        assert main(
            ["reduction", "--p", "x^4+x^3+1", "--p", "x^4+x+1"]
        ) == 0
        out = capsys.readouterr().out
        assert "reduction XOR count: 9" in out
        assert "reduction XOR count: 6" in out

    def test_search(self, capsys):
        assert main(["search", "--m", "8"]) == 0
        out = capsys.readouterr().out
        assert "no irreducible trinomials" in out
        assert "x^8 + x^4 + x^3 + x + 1" in out

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["extract", str(tmp_path / "file.xyz")])
