"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.sequence.fasta import write_fasta
from repro.sequence.synthetic import markov_dna, plant_homology


@pytest.fixture
def fasta_pair(tmp_path):
    ref = markov_dna(3000, seed=1)
    qry = plant_homology(ref, 2000, seed=2, coverage=0.7, divergence=0.02)
    rp = tmp_path / "ref.fa"
    qp = tmp_path / "qry.fa"
    write_fasta(rp, [("ref", ref)])
    write_fasta(qp, [("qry", qry)])
    return str(rp), str(qp), ref, qry


class TestMatch:
    def test_outputs_one_based_triplets(self, fasta_pair, capsys):
        rp, qp, ref, qry = fasta_pair
        rc = main(["match", rp, qp, "-l", "25", "-s", "8"])
        assert rc == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert lines
        import repro

        expect = {
            (r + 1, q + 1, l)
            for r, q, l in repro.find_mems(ref, qry, min_length=25, seed_length=8)
        }
        got = {tuple(int(x) for x in line.split()) for line in lines}
        assert got == expect

    def test_verbose_stats(self, fasta_pair, capsys):
        rp, qp, *_ = fasta_pair
        main(["match", rp, qp, "-l", "30", "-s", "8", "-v"])
        err = capsys.readouterr().err
        assert "total_time" in err and "# matches:" in err

    def test_seed_clipped_to_L(self, fasta_pair, capsys):
        rp, qp, *_ = fasta_pair
        assert main(["match", rp, qp, "-l", "6", "-s", "10"]) == 0

    def test_paf_output(self, fasta_pair, capsys):
        rp, qp, ref, qry = fasta_pair
        assert main(["match", rp, qp, "-l", "25", "-s", "8", "--paf"]) == 0
        from repro.sequence.formats import read_paf

        records = read_paf(capsys.readouterr().out)
        assert records
        assert all(r.query_len == qry.size for r in records)
        assert all(r.n_match == r.target_end - r.target_start for r in records)


    def test_executor_choices(self, fasta_pair, capsys):
        rp, qp, *_ = fasta_pair
        for name in ("threads", "banded"):
            with pytest.raises(SystemExit) as err:
                main(["match", rp, qp, "--executor", name])
            assert err.value.code == 2
            assert "invalid choice" in capsys.readouterr().err
        args = ["match", rp, qp, "-l", "25", "-s", "8"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--executor", "process", "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial


class TestMatchVariants:
    def test_unique_flag(self, fasta_pair, capsys):
        rp, qp, ref, qry = fasta_pair
        assert main(["match", rp, qp, "-l", "25", "-s", "8", "--unique"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        from repro.core.variants import find_mums

        expect = {
            (r + 1, q + 1, l)
            for r, q, l in find_mums(ref, qry, 25, seed_length=8)
        }
        got = {tuple(int(x) for x in line.split()) for line in lines}
        assert got == expect

    def test_rare_flag(self, fasta_pair, capsys):
        rp, qp, *_ = fasta_pair
        assert main(["match", rp, qp, "-l", "25", "-s", "8", "--rare", "3"]) == 0

    def test_both_strands_flag(self, fasta_pair, capsys):
        rp, qp, *_ = fasta_pair
        assert main(["match", rp, qp, "-l", "25", "-s", "8", "-b"]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            if line.strip():
                assert line.split("\t")[0] in "+-"


class TestPerRecord:
    def test_multi_record_query(self, tmp_path, capsys):
        ref = markov_dna(2000, seed=4)
        q1 = plant_homology(ref, 800, seed=5, coverage=0.8, divergence=0.01)
        q2 = plant_homology(ref, 700, seed=6, coverage=0.8, divergence=0.01)
        rp = tmp_path / "r.fa"
        qp = tmp_path / "q.fa"
        write_fasta(rp, [("ref", ref)])
        write_fasta(qp, [("read1", q1), ("read2", q2)])
        assert main(["match", str(rp), str(qp), "-l", "25", "-s", "8",
                     "--per-record"]) == 0
        out = capsys.readouterr().out
        assert "> read1" in out and "> read2" in out
        # per-record coordinates are record-local
        import repro

        expect1 = repro.find_mems(ref, q1, min_length=25, seed_length=8)
        section1 = out.split("> read1")[1].split("> read2")[0]
        lines = [l for l in section1.splitlines() if l.strip()]
        assert len(lines) == len(expect1)


class TestIndex:
    def test_reports_build_time(self, fasta_pair, capsys):
        rp, *_ = fasta_pair
        assert main(["index", rp, "-l", "30", "-s", "8"]) == 0
        out = capsys.readouterr().out
        assert "index build:" in out and "Δs=" in out


class TestIndexSave:
    def test_save_and_load(self, fasta_pair, tmp_path, capsys):
        rp, *_ = fasta_pair
        out = tmp_path / "idx.npz"
        assert main(["index", rp, "-l", "30", "-s", "8", "--save", str(out)]) == 0
        assert "saved full-reference index" in capsys.readouterr().out
        from repro.index.serialize import load_kmer_index

        idx = load_kmer_index(out)
        assert idx.seed_length == 8
        idx.check()


class TestIndexStoreFlags:
    @pytest.fixture(autouse=True)
    def _clean(self, monkeypatch):
        from repro.core.session import clear_session_cache
        from repro.index.store import STORE_ENV_VAR, clear_store_registry

        monkeypatch.delenv(STORE_ENV_VAR, raising=False)
        clear_session_cache()
        clear_store_registry()
        yield
        # the flag sets the env var process-wide; scrub it between tests
        import os

        os.environ.pop(STORE_ENV_VAR, None)
        clear_session_cache()
        clear_store_registry()

    def test_index_store_persists_bundles(self, fasta_pair, tmp_path, capsys):
        rp, *_ = fasta_pair
        cache = tmp_path / "store"
        assert main(["index", rp, "-l", "30", "-s", "8",
                     "--store", str(cache)]) == 0
        out, err = capsys.readouterr().out, capsys.readouterr().err
        from repro.index.store import store_at

        assert store_at(cache).stats()["n_bundles"] >= 1

    def test_match_warm_starts_from_store(self, fasta_pair, tmp_path, capsys):
        rp, qp, *_ = fasta_pair
        cache = tmp_path / "store"
        assert main(["match", rp, qp, "-l", "25", "-s", "8",
                     "--index-store", str(cache)]) == 0
        cold = capsys.readouterr().out
        from repro.core.session import clear_session_cache
        from repro.index.store import clear_store_registry, store_at

        clear_session_cache()
        clear_store_registry()  # fresh store handle = fresh hot tier
        assert main(["match", rp, qp, "-l", "25", "-s", "8",
                     "--index-store", str(cache), "-v"]) == 0
        captured = capsys.readouterr()
        assert captured.out == cold  # identical matches either way
        assert "# index store" in captured.err
        st = store_at(cache).stats()
        assert st["builds"] == 0 and st["warm_hits"] >= 1


class TestDataset:
    def test_writes_fasta(self, tmp_path, capsys):
        out = tmp_path / "x.fa"
        assert main(["dataset", "chrXII", str(out)]) == 0
        from repro.sequence.fasta import read_fasta

        recs = read_fasta(out)
        assert len(recs[0]) == 10_900

    def test_unknown_dataset(self, tmp_path, capsys):
        assert main(["dataset", "nope", str(tmp_path / "x.fa")]) == 2


class TestServe:
    @pytest.fixture
    def serve_setup(self, tmp_path, fasta_pair):
        import json

        rp, _, ref, qry = fasta_pair
        from repro.sequence.alphabet import decode

        text = decode(qry[:500])
        reqs = tmp_path / "reqs.jsonl"
        reqs.write_text(
            json.dumps({"id": "r1", "query": text}) + "\n"
            + text[:200] + "\n"            # bare-sequence line
            + "\n"                          # blank: skipped
            + json.dumps({"id": "noq"}) + "\n"
        )
        return rp, str(reqs), ref, qry

    def test_jsonl_round_trip(self, serve_setup, capsys):
        import json

        rp, reqs, ref, qry = serve_setup
        rc = main(["serve", rp, reqs, "-l", "25", "-s", "8", "--workers", "2"])
        assert rc == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        by_id = {l["id"]: l for l in lines}
        assert by_id["noq"]["ok"] is False
        ok = by_id["r1"]
        assert ok["ok"] and ok["n_mems"] == len(ok["mems"])
        import repro

        expect = {
            (r + 1, q + 1, l)
            for r, q, l in repro.find_mems(
                ref, qry[:500], min_length=25, seed_length=8
            )
        }
        assert {tuple(m) for m in ok["mems"]} == expect
        assert by_id[1]["ok"]  # the bare line got its line number as id

    def test_count_only_and_verbose(self, serve_setup, capsys):
        import json

        rp, reqs, *_ = serve_setup
        rc = main(["serve", rp, reqs, "-l", "25", "-s", "8",
                   "--count-only", "-v"])
        assert rc == 0
        out = capsys.readouterr()
        lines = [json.loads(l) for l in out.out.splitlines()]
        assert all("mems" not in l for l in lines)
        assert "# served: 2" in out.err
        assert "tier: thread" in out.err


class TestStats:
    def _stats_file(self, tmp_path, n=2):
        import json

        path = tmp_path / "stats.jsonl"
        snaps = []
        for i in range(n):
            snaps.append({
                "ts": 1_700_000_000.0 + i, "tier": "thread",
                "queue_depth": i, "admission_limit": 4,
                "in_flight": 1, "max_in_flight": 2,
                "submitted": i + 1, "completed": i, "errors": 0,
                "shed": 0, "cancelled": 0,
                "latency": {"count": i, "mean": 0.002, "min": 0.001,
                            "max": 0.003, "p50": 0.002, "p95": 0.003,
                            "p99": 0.003},
            })
        path.write_text("".join(json.dumps(s) + "\n" for s in snaps))
        return str(path), snaps

    def test_renders_last_snapshot(self, tmp_path, capsys):
        path, snaps = self._stats_file(tmp_path, n=3)
        assert main(["stats", path]) == 0
        out = capsys.readouterr().out
        assert "tier=thread" in out
        assert f"queue={snaps[-1]['queue_depth']}/4" in out
        assert "p95=3.00ms" in out
        # only the newest snapshot is rendered
        assert out.count("tier=thread") == 1

    def test_raw_prints_json_line(self, tmp_path, capsys):
        import json

        path, snaps = self._stats_file(tmp_path)
        assert main(["stats", path, "--raw"]) == 0
        line = capsys.readouterr().out.strip()
        assert json.loads(line) == snaps[-1]

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "absent.jsonl")]) == 2
        assert "cannot open" in capsys.readouterr().err

    def test_empty_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["stats", str(path)]) == 1
        assert "no snapshots yet" in capsys.readouterr().err

    def test_serve_stats_jsonl_end_to_end(self, tmp_path, serve_fasta, capsys):
        rp, reqs = serve_fasta
        stats = tmp_path / "s.jsonl"
        rc = main(["serve", rp, reqs, "-l", "25", "-s", "8",
                   "--stats-jsonl", str(stats), "--stats-interval", "0.05",
                   "--metrics"])
        assert rc == 0
        capsys.readouterr()  # drop the serve output
        assert main(["stats", str(stats)]) == 0
        out = capsys.readouterr().out
        assert "tier=thread" in out
        assert "latency:" in out  # --metrics turns the summary on


@pytest.fixture
def serve_fasta(tmp_path, fasta_pair):
    import json

    rp, _, _, qry = fasta_pair
    from repro.sequence.alphabet import decode

    reqs = tmp_path / "reqs.jsonl"
    reqs.write_text(json.dumps({"id": "r1", "query": decode(qry[:400])}) + "\n")
    return rp, str(reqs)
