"""The top-level ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["brew"])

    def test_soup_defaults(self):
        args = build_parser().parse_args(["soup", "ls", "gcn", "flickr"])
        assert args.epochs == 40 and args.lr == 1.0 and args.normalize == "softmax"

    def test_bad_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "gcn", "cora"])

    def test_bad_normalize_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["soup", "ls", "gcn", "flickr", "--normalize", "entmax"])

    def test_executor_defaults(self):
        args = build_parser().parse_args(["train", "gcn", "flickr"])
        assert args.executor == "serial"
        assert args.checkpoint_dir is None and args.resume is False and args.workers is None

    def test_executor_flags_parsed(self):
        args = build_parser().parse_args(
            ["train", "gcn", "flickr", "--executor", "process", "--workers", "4",
             "--checkpoint-dir", "ckpt", "--resume"]
        )
        assert args.executor == "process" and args.workers == 4
        assert args.checkpoint_dir == "ckpt" and args.resume is True

    def test_soup_accepts_executor_flags(self):
        args = build_parser().parse_args(["soup", "ls", "gcn", "flickr", "--executor", "process"])
        assert args.executor == "process"

    def test_bad_executor_rejected(self):
        for flags in (
            ["--executor", "mpi"], ["--executor", "thread"], ["--queue", "rounds"], ["--shards", "2"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["train", "gcn", "flickr", *flags])
        # Phase 2 runs in-process: the retired evaluator flags are gone
        for flags in (["--soup-workers", "2"], ["--soup-nodes", "h:1"], ["--soup-shards", "2"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["soup", "us", "gcn", "flickr", *flags])


class TestInformationalCommands:
    def test_datasets_lists_all_four(self, capsys):
        assert main(["datasets", "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        for name in ("flickr", "ogbn-arxiv", "reddit", "ogbn-products"):
            assert name in out

    def test_methods_lists_registry(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        for name in ("us", "gis", "ls", "pls", "radin", "sparse"):
            assert name in out


class TestTrainExecutors:
    def test_train_process_executor_with_checkpoint_and_resume(self, tmp_path, monkeypatch, capsys):
        """End-to-end: `train --executor process --checkpoint-dir … --resume`
        trains, checkpoints, and resumes from a fresh pool cache."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        ckpt = tmp_path / "ckpt"
        argv = [
            "train", "gcn", "flickr", "-n", "2", "--scale", "0.1",
            "--executor", "process", "--workers", "2",
            "--checkpoint-dir", str(ckpt),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "pool: 2 x gcn" in first
        assert sorted(p.name for p in ckpt.glob("*/*.npz")) == [
            "ingredient-00000.npz",
            "ingredient-00001.npz",
        ]
        # second run with a clean pool cache resumes from the checkpoints
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache2"))
        assert main(argv + ["--resume"]) == 0
        assert "pool: 2 x gcn" in capsys.readouterr().out


class TestSimulate:
    def test_clean_simulation(self, capsys):
        assert main(["simulate", "-n", "8", "-w", "4"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out and "utilisation" in out
        assert "dead workers" not in out

    def test_fault_injection_reported(self, capsys):
        assert main(["simulate", "-n", "8", "-w", "4", "--fail-at", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "dead workers: [0]" in out

    def test_straggler_flag(self, capsys):
        assert main(["simulate", "-n", "8", "-w", "2", "--straggler", "0.25"]) == 0
        assert "makespan" in capsys.readouterr().out


class TestPipelineCommands:
    """train/soup/partition on a tiny scaled dataset (cache-backed)."""

    SCALE = ["--scale", "0.25"]

    def test_train_then_soup_uses_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["train", "gcn", "flickr", "-n", "3"] + self.SCALE) == 0
        out = capsys.readouterr().out
        assert "pool: 3 x gcn" in out
        cached = list(tmp_path.glob("*.npz"))
        assert len(cached) == 1
        # souping afterwards must reuse the cached pool (no new files)
        assert main(["soup", "us", "gcn", "flickr", "-n", "3"] + self.SCALE) == 0
        out = capsys.readouterr().out
        assert "test acc" in out
        assert list(tmp_path.glob("*.npz")) == cached

    def test_soup_unknown_method_exits_nonzero(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["soup", "gazpacho", "gcn", "flickr"] + self.SCALE) == 2

    def test_soup_sparsemax_ls(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert (
            main(
                ["soup", "ls", "gcn", "flickr", "-n", "3", "--epochs", "5",
                 "--normalize", "sparsemax"] + self.SCALE
            )
            == 0
        )
        assert "val acc" in capsys.readouterr().out

    def test_partition_reports_stats(self, capsys):
        assert main(["partition", "flickr", "-k", "8"] + self.SCALE) == 0
        out = capsys.readouterr().out
        assert "cut edges" in out and "imbalance" in out
