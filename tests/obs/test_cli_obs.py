"""CLI observability: --trace/--metrics, gpumem trace, gpumem profile."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.obs import validate_chrome_trace
from repro.sequence.fasta import write_fasta
from repro.sequence.synthetic import markov_dna, plant_homology


@pytest.fixture
def fasta_pair(tmp_path):
    ref = markov_dna(2500, seed=5)
    qry = plant_homology(ref, 1500, seed=6, coverage=0.7, divergence=0.02)
    rp, qp = tmp_path / "ref.fa", tmp_path / "qry.fa"
    write_fasta(rp, [("ref", ref)])
    write_fasta(qp, [("qry", qry)])
    return str(rp), str(qp)


@pytest.fixture
def tiny_pair(tmp_path):
    ref = markov_dna(250, seed=7)
    qry = ref[50:170].copy()
    rp, qp = tmp_path / "tref.fa", tmp_path / "tqry.fa"
    write_fasta(rp, [("ref", ref)])
    write_fasta(qp, [("qry", qry)])
    return str(rp), str(qp)


class TestMatchTrace:
    def test_trace_flag_writes_valid_chrome_trace(self, fasta_pair, tmp_path,
                                                  capsys):
        rp, qp = fasta_pair
        out = tmp_path / "trace.json"
        rc = main(["match", rp, qp, "-l", "30", "-s", "8",
                   "--trace", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"pipeline.run", "stage:prep", "stage:index",
                "stage:tile_match"} <= names
        assert "stage:host_merge" not in names
        assert "session.cache.queries" in doc["metrics"]
        err = capsys.readouterr().err
        assert "# trace:" in err

    def test_metrics_flag_prints_registry(self, fasta_pair, capsys):
        rp, qp = fasta_pair
        rc = main(["match", rp, qp, "-l", "30", "-s", "8", "--metrics"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "== metrics ==" in err
        assert "pipeline.runs{backend=vectorized}" in err
        assert "load_balance.seed_slots" in err

    def test_no_flags_no_observability_output(self, fasta_pair, capsys):
        rp, qp = fasta_pair
        rc = main(["match", rp, qp, "-l", "30", "-s", "8"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "# trace:" not in err
        assert "== metrics ==" not in err

    def test_index_subcommand_traces_warm(self, fasta_pair, tmp_path):
        rp, _ = fasta_pair
        out = tmp_path / "idx.json"
        rc = main(["index", rp, "-l", "30", "-s", "8", "--trace", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "session.warm" in names
        assert "pipeline.build_index" in names


class TestTraceSubcommand:
    def _record(self, fasta_pair, tmp_path):
        rp, qp = fasta_pair
        out = tmp_path / "trace.json"
        main(["match", rp, qp, "-l", "30", "-s", "8", "--trace", str(out)])
        return out

    def test_valid_trace_exit_zero(self, fasta_pair, tmp_path, capsys):
        out = self._record(fasta_pair, tmp_path)
        rc = main(["trace", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "schema: OK" in text
        assert "hottest spans" in text
        assert "pipeline.run" in text

    def test_tree_rendering(self, fasta_pair, tmp_path, capsys):
        out = self._record(fasta_pair, tmp_path)
        rc = main(["trace", str(out), "--tree"])
        assert rc == 0
        text = capsys.readouterr().out
        assert f"-- lane pid={os.getpid()} tid=0 --" in text
        assert "stage:tile_match" in text

    def test_invalid_schema_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [
            {"ph": "X", "name": "a", "ts": 0, "dur": 10, "tid": 0},
            {"ph": "X", "name": "b", "ts": 5, "dur": 10, "tid": 0},
        ]}))
        rc = main(["trace", str(bad)])
        assert rc == 1
        assert "schema problem" in capsys.readouterr().out

    def test_unreadable_file_exit_two(self, tmp_path, capsys):
        rc = main(["trace", str(tmp_path / "missing.json")])
        assert rc == 2
        assert "cannot load" in capsys.readouterr().err


class TestProfileSubcommand:
    def test_prints_device_rollup(self, tiny_pair, capsys):
        rp, qp = tiny_pair
        rc = main(["profile", rp, qp, "-l", "15", "-s", "6"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "== device profile:" in text
        assert "match:block" in text
        assert "kernel launches:" in text

    def test_profile_with_trace(self, tiny_pair, tmp_path, capsys):
        rp, qp = tiny_pair
        out = tmp_path / "prof.json"
        rc = main(["profile", rp, qp, "-l", "15", "-s", "6",
                   "--trace", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert any(n.startswith("kernel:") for n in names)
