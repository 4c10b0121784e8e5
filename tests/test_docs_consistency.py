"""Documentation stays in sync with the code it describes."""

import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(relative):
    with open(os.path.join(ROOT, relative), encoding="utf-8") as handle:
        return handle.read()


class TestDesignDocument:
    def test_every_bench_in_design_exists(self):
        design = read("DESIGN.md")
        for match in re.finditer(r"benchmarks/(bench_\w+\.py)", design):
            path = os.path.join(ROOT, "benchmarks", match.group(1))
            assert os.path.exists(path), f"{match.group(1)} listed but absent"

    def test_every_module_in_design_importable(self):
        import importlib

        design = read("DESIGN.md")
        for name in sorted(set(re.findall(r"`(repro(?:\.\w+)+)`", design))):
            try:
                importlib.import_module(name)
            except ModuleNotFoundError:
                # Dotted references may name a class inside a module.
                parent, _, attribute = name.rpartition(".")
                module = importlib.import_module(parent)
                assert hasattr(module, attribute), f"{name} does not exist"


class TestReadme:
    def test_every_bench_file_mentioned(self):
        readme = read("README.md")
        import glob

        for path in glob.glob(os.path.join(ROOT, "benchmarks", "bench_*.py")):
            assert os.path.basename(path) in readme, (
                f"{os.path.basename(path)} missing from README bench table"
            )

    def test_every_example_mentioned(self):
        readme = read("README.md")
        import glob

        for path in glob.glob(os.path.join(ROOT, "examples", "*.py")):
            assert os.path.basename(path) in readme

    def test_quickstart_snippet_runs(self, system):
        # The README's quickstart subscription must actually parse.
        readme = read("README.md")
        match = re.search(
            r'system\.subscribe\("""(.+?)"""', readme, re.DOTALL
        )
        assert match is not None
        system.subscribe(match.group(1), owner_email="readme@example.org")


class TestExperimentsDocument:
    def test_every_experiment_has_a_bench(self):
        experiments = read("EXPERIMENTS.md")
        for match in re.finditer(r"`(bench_\w+\.py)`", experiments):
            path = os.path.join(ROOT, "benchmarks", match.group(1))
            assert os.path.exists(path)

    def test_summary_table_covers_core_experiments(self):
        experiments = read("EXPERIMENTS.md")
        for experiment in ("Fig 5", "Fig 6", "T-c", "T-thr", "T-mem",
                           "T-base", "T-fsa", "T-url", "T-xml", "T-rep",
                           "T-dist", "T-load", "T-sub"):
            assert experiment in experiments


class TestPipelineDocument:
    def test_migration_table_present(self):
        """Every surface the migration table marks removed is really gone:
        no such name in ``repro.api`` / ``repro.pipeline`` and no such CLI
        flag on any subcommand."""
        import argparse

        import repro.api
        import repro.pipeline
        from repro.cli import _build_parser

        doc = read("docs/PIPELINE.md")
        assert "## Migration from the executor API" in doc
        removed_rows = [
            line.split("|")[0]
            for line in doc.splitlines()
            if line.startswith("`") and "| removed" in line
        ]
        assert len(removed_rows) >= 12, "migration rows missing"

        flags = set()
        parser = _build_parser()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for subparser in action.choices.values():
                    for sub_action in subparser._actions:
                        flags.update(sub_action.option_strings)
        for old in removed_rows:
            for token in re.findall(r"`([^`]+)`", old):
                word = token.split("(")[0].split()[0]
                if word.startswith("--"):
                    assert word not in flags, f"{word} is still a CLI flag"
                elif word.isidentifier():
                    for module in (repro.api, repro.pipeline):
                        assert not hasattr(module, word), (
                            f"{word} is still exported"
                        )

    def test_documented_batch_settings_match_code(self):
        from repro.pipeline import DEFAULT_BATCH_SIZE

        doc = read("docs/PIPELINE.md")
        for setting in ("`batch_size=`", "`queue_bound=`",
                        "`--batch-size`", "`--queue-depth`"):
            assert setting in doc, f"{setting} undocumented"
        assert f"| {DEFAULT_BATCH_SIZE} (`DEFAULT_BATCH_SIZE`) |" in doc

    def test_ingest_metrics_mentioned(self):
        from repro.observability.names import (
            COUNTER_FRONTEND_FETCHES,
            COUNTER_INGEST_BACKPRESSURE_WAITS,
        )

        doc = read("docs/PIPELINE.md")
        assert COUNTER_INGEST_BACKPRESSURE_WAITS in doc
        assert COUNTER_FRONTEND_FETCHES in doc

    def test_readme_links_pipeline_doc(self):
        assert "docs/PIPELINE.md" in read("README.md")


class TestObservabilityDocument:
    #: Backticked dotted lowercase tokens are metric-shaped; module paths
    #: (``repro...``) and file names are not metric references.
    METRIC_TOKEN = re.compile(r"`([a-z_]+(?:\.[a-z_]+)+)`")
    IGNORED_SUFFIXES = (".py", ".md", ".json", ".yml")

    def test_every_metric_name_documented(self):
        from repro.observability.names import ALL_METRIC_NAMES

        doc = read("docs/OBSERVABILITY.md")
        for name in ALL_METRIC_NAMES:
            assert f"`{name}`" in doc, f"{name} missing from OBSERVABILITY.md"

    def test_every_documented_metric_exists(self):
        from repro.observability.names import (
            ALL_METRIC_NAMES,
            EXECUTOR_STAGE_NAMES,
            STAGE_NAMES,
        )

        known = (
            set(ALL_METRIC_NAMES)
            | set(STAGE_NAMES)
            | set(EXECUTOR_STAGE_NAMES)
        )
        doc = read("docs/OBSERVABILITY.md")
        for token in self.METRIC_TOKEN.findall(doc):
            if token.startswith("repro") or token.endswith(
                self.IGNORED_SUFFIXES
            ):
                continue
            assert token in known, f"OBSERVABILITY.md names unknown {token}"

    def test_readme_links_observability_doc(self):
        assert "docs/OBSERVABILITY.md" in read("README.md")


class TestRobustnessDocument:
    def test_doc_exists_and_linked_from_readme(self):
        assert "Fault tolerance" in read("docs/ROBUSTNESS.md")
        assert "docs/ROBUSTNESS.md" in read("README.md")

    def test_every_fault_metric_documented(self):
        from repro.observability.names import (
            COUNTER_BREAKER_STATE_CHANGES,
            COUNTER_DLQ_QUARANTINED,
            COUNTER_FAULTS_INJECTED,
            COUNTER_RETRY_ATTEMPTS,
            GAUGE_DLQ_DEPTH,
        )

        doc = read("docs/ROBUSTNESS.md")
        for name in (
            COUNTER_BREAKER_STATE_CHANGES,
            COUNTER_DLQ_QUARANTINED,
            COUNTER_FAULTS_INJECTED,
            COUNTER_RETRY_ATTEMPTS,
            GAUGE_DLQ_DEPTH,
        ):
            assert name in doc, f"{name} missing from ROBUSTNESS.md"

    def test_every_documented_fault_class_exists(self):
        import repro.errors

        doc = read("docs/ROBUSTNESS.md")
        for token in re.findall(r"`(Fetch\w+|TruncatedFetch|GarbageFetch)`",
                                doc):
            assert hasattr(repro.errors, token), f"{token} does not exist"

    def test_documented_fault_kinds_match_code(self):
        from repro.faults import FAULT_KINDS

        doc = read("docs/ROBUSTNESS.md")
        for kind in FAULT_KINDS:
            assert f"`{kind}`" in doc, f"kind {kind} missing"

    def test_chaos_command_in_ci_workflow(self):
        workflow = read(".github/workflows/ci.yml")
        assert "repro chaos" in workflow
        assert "--fault-rate" in workflow

    def test_recovery_section_documents_metrics_and_kill_points(self):
        from repro.faults import KILL_POINTS
        from repro.observability.names import (
            COUNTER_RECOVERY_CHECKPOINTS,
            COUNTER_RECOVERY_DEDUPED,
            COUNTER_RECOVERY_REPLAYED,
        )

        doc = read("docs/ROBUSTNESS.md")
        assert "Crash recovery & exactly-once delivery" in doc
        for name in (
            COUNTER_RECOVERY_CHECKPOINTS,
            COUNTER_RECOVERY_REPLAYED,
            COUNTER_RECOVERY_DEDUPED,
        ):
            assert name in doc, f"{name} missing from ROBUSTNESS.md"
        for point in KILL_POINTS:
            assert f"`{point}`" in doc, f"kill point {point} undocumented"

    def test_resume_command_in_ci_workflow(self):
        workflow = read(".github/workflows/ci.yml")
        assert "repro resume" in workflow
        assert "--kill" in workflow
        assert "--journal" in workflow


class TestLanguageReference:
    def test_grammar_examples_parse(self):
        from repro.language import parse_subscription

        # The reference's canonical shapes.
        parse_subscription(
            'subscription S\nmonitoring\nselect <UpdatedPage url=URL/>\n'
            'where URL extends "http://inria.fr/Xy/"\n  and modified self\n'
            "report when immediate"
        )

    def test_language_doc_exists(self):
        assert "subscription" in read("docs/LANGUAGE.md")
