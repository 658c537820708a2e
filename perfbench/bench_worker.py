"""One benchmark run of one workload, in its own process.

Started by run.py with the generated inputs in --work (it becomes the
working directory). Every command goes through `coqharness.cli.main`
in-process, as `coqharness <args>` would; this process's peak resident
memory is the run's `peak_rss_mb`. The result (metrics, operations
attempted and failed, problems found by the output checks) is written as
JSON to --result.

A run sets up (ingest + index), makes the record pass that fills the
cache on replay-interactive, then repeats whole rounds of one eval, one
prove round and SETUPS_PER_ROUND set-ups until --seconds have passed and at
least MIN_PROVES prove commands ran. With --trace 1, evals alternate
untraced and traced for EVAL_SHARE of --seconds, and per-layer numbers come
from the last traced eval, one traced set-up, one traced prove round and a
query probe of the real backend against the fake toplevel.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from coqharness import cli  # noqa: E402
from coqharness.driver import SessionConfig, start_session  # noqa: E402

import bench_check as check  # noqa: E402
from bench_trace import LAYERS, Tracer  # noqa: E402

SETUPS_PER_ROUND = 2
EVAL_SHARE = 0.5
MIN_PROVES = 100
MIN_TRACED_PAIRS = 2
PROBE_REPS = 3
PROBE_SIZES = {"2k": 2048, "8k": 8192, "32k": 32768}


def run_cli(argv: list[str], tracer: Tracer | None = None) -> tuple[int, str, float, int]:
    """Run one `coqharness` command in-process: (exit code, stdout, wall s,
    root span index or -1)."""
    buffer = io.StringIO()
    root = -1
    # Start from a collected heap, as a fresh `coqharness` process would, so
    # that no command pays for collecting the garbage of the one before.
    gc.collect()
    if tracer is not None:
        tracer.install()
        root = tracer.open("command")
    started = time.perf_counter()
    try:
        with redirect_stdout(buffer):
            code = cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, not a dead run
        print(f"command {argv[:4]} raised {exc!r}", file=sys.stderr)
        code = 1
    wall = time.perf_counter() - started
    if tracer is not None:
        tracer.close(root)
        tracer.uninstall()
    return code, buffer.getvalue(), wall, root


def percentile(values: list[float], q: float) -> float:
    """Nearest rank: the smallest value with at least q of the values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Run:
    def __init__(self, plan: dict):
        self.plan = plan
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.evals = 0
        self.record_report: str | None = None
        self.last_report: str | None = None
        self.recomputed = False

    # -- commands --

    def setup(self, traced: bool = False) -> tuple[float, list[tuple[Tracer | None, int]]]:
        """ingest + index; returns (wall s, (tracer, root span) per command)."""
        ingest = ["--config", "eval.ini", "ingest", "--root", "project", "--out", "corpus.jsonl",
                  "--split", "explicit", "--explicit-test", *self.plan["test_ids"]]
        index = ["--config", "eval.ini", "index", "--out", "index.json"]
        total, traces = 0.0, []
        for argv in (ingest, index):
            tracer = Tracer() if traced else None
            code, _, wall, root = run_cli(argv, tracer)
            if code != 0:
                self.problems.append(f"{argv[2]} exited {code}")
            total += wall
            traces.append((tracer, root))
        return total, traces

    def eval(self, tracer: Tracer | None = None) -> tuple[float, int]:
        """One eval with its output checks; returns (wall s, root span)."""
        if not self.plan["replay"]:
            # record mode must miss and append every time: start from the
            # cache as the generator left it
            shutil.rmtree("cache", ignore_errors=True)
            shutil.copytree("cache-pristine", "cache")
        out = f"out/eval-{self.evals}"
        self.evals += 1
        argv = ["--config", "eval.ini", "eval", "--manifest", "manifest.json", "--out", out,
                "--index", "index.json", "--workers", str(self.plan["workers"])]
        if self.plan["replay"]:
            argv.append("--replay")
        code, _, wall, root = run_cli(argv, tracer)
        self.check_eval(code, Path(out))
        shutil.rmtree(out, ignore_errors=True)
        return wall, root

    def check_eval(self, code: int, out: Path) -> None:
        tcs = self.plan["tcs_per_eval"]
        self.attempted += tcs
        if code != 0:
            self.failed += tcs
            self.problems.append(f"eval exited {code}")
            return
        rows = check.attempts(out / "attempts")
        failed = check.failed_operations(rows)
        self.failed += len(failed)
        if failed:
            return
        report_text = (out / "report.json").read_text(encoding="utf-8")
        report = json.loads(report_text)
        self.problems += check.check_report(report, self.plan["expected"])
        if self.plan["queries"]:
            checked, problems = check.check_queries(rows, self.plan["queries"])
            self.problems += problems
            if not checked:
                self.problems.append("no Search output was recorded")
        if self.record_report is not None and report_text != self.record_report:
            self.problems.append("replay report differs from its record pass")
        if not self.recomputed:
            self.recomputed = True
            code, _, _, _ = run_cli(["report", "--attempts", str(out / "attempts"),
                                     "--out", str(out / "recomputed")])
            if code != 0:
                self.problems.append(f"report exited {code}")
            else:
                recomputed = check.read_json(out / "recomputed" / "report.json")
                self.problems += check.check_recomputed(report, recomputed)
        self.last_report = report_text

    def record_pass(self) -> None:
        """replay-interactive: fill the cache with this run's own transcripts."""
        shutil.rmtree("cache", ignore_errors=True)
        shutil.copytree("cache-pristine", "cache")
        out = Path("out/record")
        code, _, _, _ = run_cli(["--config", "eval.ini", "eval", "--manifest", "manifest.json",
                                 "--out", str(out), "--index", "index.json"])
        if code != 0:
            self.problems.append(f"record pass exited {code}")
            return
        report_text = (out / "report.json").read_text(encoding="utf-8")
        self.problems += check.check_report(json.loads(report_text), self.plan["expected"])
        self.record_report = report_text
        shutil.rmtree(out)

    def prove_round(self, traced: bool = False) -> list[tuple[float, Tracer | None, int]]:
        """One round of `prove` commands; returns (wall s, tracer, root span) each."""
        out = []
        for theorem, tag in self.plan["prove_round"]:
            argv = ["--config", "prove.ini", "prove", "--theorem", theorem,
                    "--manifest", "manifest.json", "--config-tag", tag]
            if self.plan["replay"]:
                argv.append("--replay")
            tracer = Tracer() if traced else None
            code, stdout, wall, root = run_cli(argv, tracer)
            self.attempted += 1
            lines = stdout.strip().splitlines()
            if code != 0:
                self.failed += 1
            elif not lines or lines[-1] != "ACCEPTED":
                self.problems.append(f"prove {theorem} {tag} did not end ACCEPTED")
            out.append((wall, tracer, root))
        return out

    # -- phases --

    def measure(self, seconds: float) -> dict:
        """Whole rounds of set-up, one eval and one prove round, interleaved
        so that every metric samples the same stretch of machine time."""
        setups = [self.setup()[0]]
        if self.plan["replay"]:
            self.record_pass()
        started = time.perf_counter()
        rates: list[float] = []
        proves: list[float] = []
        while True:
            wall, _ = self.eval()
            rates.append(self.plan["tcs_per_eval"] / wall)
            proves += [wall for wall, _, _ in self.prove_round()]
            if time.perf_counter() - started >= seconds and len(proves) >= MIN_PROVES:
                break
            setups += [self.setup()[0] for _ in range(SETUPS_PER_ROUND)]
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "setup_s": (statistics.median(setups), "s"),
            "tc_per_s": (statistics.median(rates), "1/s"),
            "prove_ms.p50": (1000 * percentile(proves, 0.5), "ms"),
            "prove_ms.p90": (1000 * percentile(proves, 0.9), "ms"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }

    def trace(self, seconds: float, dump: Path) -> dict:
        _, ((ingest, ingest_root), (index, index_root)) = self.setup(traced=True)
        if self.plan["replay"]:
            self.record_pass()
        started = time.perf_counter()
        untraced, traced = [], []
        reports = []
        pairs = 0
        while pairs < MIN_TRACED_PAIRS or time.perf_counter() - started < EVAL_SHARE * seconds:
            wall, _ = self.eval()
            untraced.append(wall)
            reports.append(self.last_report)
            tracer = Tracer()
            wall, root = self.eval(tracer)
            traced.append(wall)
            reports.append(self.last_report)
            pairs += 1
        if len(set(reports)) != 1:
            self.problems.append("traced report.json differs from the untraced one")
        # the cache as the traced eval found it
        entries = sum(len(p.read_text(encoding="utf-8").splitlines())
                      for p in Path("cache" if self.plan["replay"] else "cache-pristine").glob("*.jsonl"))
        tracer.dump(dump)
        proves = self.prove_round(traced=True)
        build_deps = [t.totals(r)["names"]["cli.build_deps"]["incl_s"] for _, t, r in proves]
        metrics = layer_metrics(tracer.totals(root), tracer.counters, self.plan, entries)
        metrics["corpus.ingest_project_s"] = (
            ingest.totals(ingest_root)["names"]["corpus.ingest_project"]["incl_s"], "s")
        metrics["retriever.build_index_s"] = (
            index.totals(index_root)["names"]["retriever.build_index"]["incl_s"], "s")
        metrics["cli.build_deps_s"] = (statistics.mean(build_deps), "s")
        metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(untraced) - 1, "ratio")
        metrics.update(self.probe())
        return metrics

    def probe(self) -> dict:
        """Search queries of stated sizes through `RealCoqSession`, against a
        fake toplevel that holds only the probe's answers."""
        session = start_session(SessionConfig(backend="real", prover_command=self.plan["probe_command"]))
        metrics = {}
        try:
            for label, size in PROBE_SIZES.items():
                times = []
                for _ in range(PROBE_REPS):
                    started = time.perf_counter()
                    output = session.query("Search", f"probe_{size}")
                    times.append(time.perf_counter() - started)
                    if len(output) != size:
                        self.problems.append(f"probe of {size} chars returned {len(output)}")
                metrics[f"driver.query_ms.{label}"] = (1000 * statistics.median(times), "ms")
        finally:
            session.close()
        return metrics


def layer_metrics(totals: dict, counters, plan: dict, cache_entries: int) -> dict:
    names = totals["names"]

    def calls(name):
        return names[name]["calls"] if name in names else 0

    def incl(name):
        return names[name]["incl_s"] if name in names else 0.0

    tcs = plan["tcs_per_eval"]
    candidates = sum(c["n_attempts"] for c in plan["expected"]["per_config"].values())
    sessions = calls("driver.start_session")
    steps = names.get("driver.execute") or names.get("mockprover.execute")
    lookups = calls("client.cache_lookup")
    m = {
        "corpus.load_corpus_s": (incl("corpus.load_corpus"), "s"),
        "corpus.preceding_lemmas_calls": (calls("corpus.preceding_lemmas"), "count"),
        "corpus.preceding_lemmas_s": (incl("corpus.preceding_lemmas"), "s"),
        "sentences.segment_calls": (calls("sentences.segment"), "count"),
        "sentences.segment_s": (incl("sentences.segment"), "s"),
        "sentences.chars_per_corpus_char": (counters["sentences.chars"] / plan["corpus_chars"], "ratio"),
        "retriever.retrieve_calls": (calls("retriever.retrieve"), "count"),
        "retriever.retrieve_s": (incl("retriever.retrieve"), "s"),
        "prompting.build_prompt_s": (incl("prompting.build_prompt"), "s"),
        "prompting.parse_completion_s": (incl("prompting.parse_completion"), "s"),
        "prompting.template_loads": (calls("prompting.template_load"), "count"),
        "client.complete_calls": (calls("client.complete"), "count"),
        "client.model_s": (incl("client.model"), "s"),
        "client.cache_entries": (cache_entries, "count"),
        "client.cache_lookups": (lookups, "count"),
        "client.cache_lookup_s": (incl("client.cache_lookup"), "s"),
        "client.cache_hit_ratio": (counters["client.cache_hits"] / lookups if lookups else 0.0, "ratio"),
        "client.cache_appends": (calls("client.cache_append"), "count"),
        "client.cache_append_s": (incl("client.cache_append"), "s"),
        "mockprover.init_s": (incl("mockprover.init"), "s"),
        "mockprover.execute_calls": (calls("mockprover.execute"), "count"),
        "mockprover.execute_s": (incl("mockprover.execute"), "s"),
        "driver.sessions_started": (sessions, "count"),
        "driver.sessions_per_tc": (sessions / tcs, "ratio"),
        "driver.start_session_s": (incl("driver.start_session"), "s"),
        "driver.prelude_sentences_per_tc": (counters["driver.prelude_sentences"] / tcs, "ratio"),
        "driver.check_proof_calls": (calls("driver.check_proof"), "count"),
        "driver.check_proof_per_candidate": (calls("driver.check_proof") / candidates, "ratio"),
        "driver.check_proof_s": (incl("driver.check_proof"), "s"),
        "driver.spawns": (calls("driver.spawn"), "count"),
        "driver.restarts": (calls("driver.restart"), "count"),
        "driver.step_ms.p50": (1000 * statistics.median(steps["durations"]) if steps else 0.0, "ms"),
        "proofstate.parse_calls": (calls("proofstate.parse"), "count"),
        "proofstate.parse_s": (incl("proofstate.parse"), "s"),
        "agent.prove_calls": (calls("agent.prove"), "count"),
        "agent.self_s": (names["agent.prove"]["self_s"] if "agent.prove" in names else 0.0, "s"),
        "evaluate.classify_s": (incl("evaluate.classify"), "s"),
        "evaluate.rules_loads": (calls("evaluate.rules_load"), "count"),
        "evaluate.emit_report_s": (incl("evaluate.emit_report"), "s"),
        "trace.named_share": (1 - totals["root_self_s"] / totals["root_s"], "ratio"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (totals["layers"][layer], "s")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    result_path = Path(args.result).resolve()
    work = Path(args.work).resolve()
    os.chdir(work)
    run = Run(check.read_json(work / "plan.json"))
    if args.trace:
        metrics = run.trace(args.seconds, work.parent / f"trace-{work.name}.json.gz")
    else:
        metrics = run.measure(args.seconds)
    result = {
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    result_path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
