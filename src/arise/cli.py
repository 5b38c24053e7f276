"""Command-line surface: run evaluations, recompute bundles, replicate studies, export report files.

Exit codes, which the command group `_Commands` alone maps: 0 on success,
2 when `run --resume` continues the run (a torn last record line, a
configuration short of its stop rule, an aborted trial), 1 on every other
error, click's usage errors included. Output files are written to a temp
sibling and renamed on success, so a failed invocation leaves no partial
artifacts.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import click
from click.core import ParameterSource

from .sampling import (
    AdaptiveMode,
    ConfigurationError,
    ConvergenceConfig,
    FixedBudgetMode,
    NaiveMode,
    RunMode,
    check_mode,
    parse_mode,
    run_evaluation,
)
from .simulator import SimulatorBackend, SyntheticModelSpec, check_study, replicate_study
from .store import (
    IncompleteRunError,
    ResultBundle,
    RunManifest,
    TraceStore,
    config_hash,
    decode_file,
    now_rfc3339,
    read_config,
    read_mapping,
    render_table,
    summary_table,
    write_csv,
    write_curve_csv,
    write_document,
    write_results_csv,
    write_transitions_csv,
)

@dataclass
class Options:
    seed: int | None
    fmt: str
    sm_x1000: bool

    @property
    def sm_scale(self) -> float:
        return 1000.0 if self.sm_x1000 else 1.0


class _Commands(click.Group):
    """The command group, the one owner of exit codes. Exit 2 says that `run --resume`
    continues the run: a run short of its records (`IncompleteRunError`) or an aborted
    configuration (`ConfigurationError`). Every other refusal exits 1: a usage error (a bad
    option, argument or command, which click would exit 2), a `ValueError` or an `OSError`. A
    command's own error prints one `error:` line."""

    def make_context(self, *args: object, **kwargs: object) -> click.Context:
        try:  # the group's own options
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            exc.exit_code = 1
            raise

    def invoke(self, ctx: click.Context) -> object:
        try:  # the command's name, options and arguments, then the command itself
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = 1
            raise
        except (IncompleteRunError, ConfigurationError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except (ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_Commands)
@click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=None,
              help="Base seed; overrides the seed in simulator specs.")
@click.option("--format", "fmt", type=click.Choice(["csv", "markdown", "json"]),
              default="markdown", show_default=True, help="Table output format.")
@click.option("--sm-x1000", is_flag=True,
              help="Display the scaling metric multiplied by 1000.")
@click.pass_context
def main(ctx: click.Context, seed: int | None, fmt: str, sm_x1000: bool) -> None:
    """Quantify test-time scaling from per-sample evaluation trajectories."""
    ctx.obj = Options(seed=seed, fmt=fmt, sm_x1000=sm_x1000)


def _locate_run(traces: Path, run_id: str | None) -> tuple[Path, str]:
    if traces.is_file():
        if traces.suffix != ".jsonl":
            raise ValueError(f"{traces} is neither a store directory nor a <run_id>.jsonl record file")
        if run_id not in (None, traces.stem):
            raise ValueError(f"--run-id {run_id!r} names another run than {traces.name}")
        return traces.parent, traces.stem
    store = TraceStore(traces)
    runs = store.run_ids()
    if run_id is not None:
        if run_id not in runs:
            raise ValueError(f"run {run_id!r}: not found under {traces}")
        return traces, run_id
    if not runs:
        raise ValueError(f"no runs found under {traces}")
    if len(runs) > 1:
        raise ValueError(f"multiple runs under {traces}: {runs}; pick one with --run-id")
    return traces, runs[0]


@main.command()
@click.argument("traces", type=click.Path(exists=True, path_type=Path))
@click.option("--run-id", default=None, help="Run to recompute when the store holds several.")
@click.option("--out", type=click.Path(path_type=Path), default=None,
              help="Bundle destination (default: <store>/<run_id>.bundle.json).")
@click.pass_obj
def compute(opts: Options, traces: Path, run_id: str | None, out: Path | None) -> None:
    """Recompute a result bundle from stored trial records."""
    root, rid = _locate_run(traces, run_id)
    store = TraceStore(root)
    bundle = store.recompute(rid)
    destination = out if out is not None else store.bundle_path(rid)
    write_document(destination, bundle)
    click.echo(summary_table([bundle], opts.fmt, opts.sm_scale))
    click.echo(f"bundle written to {destination}", err=True)


def _load_run_config(path: Path) -> dict:
    return read_mapping(path, "run config")


# the run settings a manifest stores, so a resume takes them from it and refuses them as flags
_RUN_SETTINGS = ("adaptive", "budget", "naive", "m_min", "m_max", "tau", "model", "benchmark")


def _pick_mode(adaptive: bool, budget: int | None, naive: int | None) -> RunMode:
    chosen = [name for name, on in (("--adaptive", adaptive), ("--budget", budget is not None),
                                    ("--naive", naive is not None)) if on]
    if len(chosen) > 1:
        raise ValueError(f"pick one evaluation mode, got {' and '.join(chosen)}")
    if budget is not None:
        return FixedBudgetMode(budget)
    if naive is not None:
        return NaiveMode(naive)
    return AdaptiveMode()


@main.command()
@click.argument("config", type=click.Path(exists=True, path_type=Path))
@click.option("--adaptive", is_flag=True, help="CV-based stopping per configuration (default).")
@click.option("--budget", type=int, default=None, help="Fixed total trial budget.")
@click.option("--naive", type=int, default=None, help="Uniform trial count per configuration.")
@click.option("--out", type=click.Path(path_type=Path), default=Path("runs"),
              show_default=True, help="Trace store root.")
@click.option("--run-id", default=None, help="Run identifier (default: timestamp-derived).")
@click.option("--resume", is_flag=True, help="Skip configurations already stored for --run-id.")
@click.option("--model", default=None, help="Model name recorded in the manifest.")
@click.option("--benchmark", default=None, help="Benchmark name recorded in the manifest.")
@click.option("--m-min", type=int, default=ConvergenceConfig.m_min, show_default=True)
@click.option("--m-max", type=int, default=ConvergenceConfig.m_max, show_default=True)
@click.option("--tau", type=float, default=ConvergenceConfig.tau, show_default=True)
@click.option("--dry-run", "dry", is_flag=True, help="Render backend requests without running.")
@click.option("--probe", is_flag=True, help="With --dry-run: send one probe request.")
@click.pass_obj
def run(opts: Options, config: Path, adaptive: bool, budget: int | None, naive: int | None,
        out: Path, run_id: str | None, resume: bool, model: str | None, benchmark: str | None,
        m_min: int, m_max: int, tau: float, dry: bool, probe: bool) -> None:
    """Run an evaluation against a simulator spec or an HTTP backend config."""
    if probe and not dry:
        raise ValueError("--probe needs --dry-run")
    if resume:
        ctx = click.get_current_context()
        flags = [f"--{name.replace('_', '-')}" for name in _RUN_SETTINGS
                 if ctx.get_parameter_source(name) is not ParameterSource.DEFAULT]
        if flags:
            raise ValueError(f"--resume takes the run settings from the stored manifest; "
                             f"drop {', '.join(flags)}")
        if run_id is None:
            raise ValueError("--resume needs --run-id")
    else:  # a resume takes these from the manifest
        cfg = ConvergenceConfig(m_min=m_min, m_max=m_max, tau=tau)
        mode = _pick_mode(adaptive, budget, naive)
    data = _load_run_config(config)
    if "samples" in data:
        if dry:
            raise ValueError("--dry-run applies to HTTP backend configs only")
        spec = SyntheticModelSpec.from_dict(data)
        if opts.seed is not None:
            spec = dataclasses.replace(spec, seed=opts.seed)
        backend = SimulatorBackend(spec)
        digest = config_hash(spec.to_dict())  # the whole spec decides the outcomes, seed included
        samples, labels = spec.sample_ids, spec.level_labels
        seed = spec.seed
        default_model = "simulator"
        workers = 1
    else:  # only HTTP configs load the backend, and with it requests
        from .backend import (BackendConfig, BackendError, HttpBackend, HttpRunConfig, dry_run,
                              parse_tasks, send_probe)

        # each part keeps the name it has on its own: `backend config ...`, `tasks[i] ...`
        http = read_config(HttpRunConfig, data, "run config",
                           backend=lambda value, *_: BackendConfig.from_dict(value),
                           tasks=lambda value, *_: parse_tasks(value))
        backend_cfg, tasks = http.backend, http.tasks
        if dry:
            for level_request in dry_run(backend_cfg):
                click.echo(json.dumps(level_request, indent=2))
            if probe:
                try:
                    tokens = send_probe(backend_cfg)
                except BackendError as exc:
                    click.echo(f"probe failed: {exc}", err=True)
                    sys.exit(1)
                click.echo(f"probe resolved {backend_cfg.usage_path} -> {tokens}", err=True)
            return
        if not tasks:
            raise ValueError("backend run config has no tasks")
        backend = HttpBackend(backend_cfg, tasks)
        digest = config_hash(backend.outcome_config)
        samples, labels = tuple(t.sample_id for t in tasks), backend_cfg.level_labels
        seed = opts.seed
        default_model = backend_cfg.model
        # configurations in flight; the backend's limiter still caps the requests
        workers = backend_cfg.max_in_flight
    del data  # the backend holds what the draws need; free the parsed mapping before them

    store = TraceStore(out)
    if resume:
        read = store.read_manifest(run_id)
        # a simulator spec always has a seed; an HTTP run has one only from --seed
        if seed is not None and seed != read.seed:
            raise ValueError(
                f"run {run_id!r} was started with seed {read.seed}; "
                f"resuming it with seed {seed} would mix draws from both seeds"
            )
        if read.config_hash != digest:
            raise ValueError(
                f"run {run_id!r} was started with a config that hashes to {read.config_hash}; "
                f"this config hashes to {digest}; the hash covers the samples in order, the "
                f"levels, a simulator spec's seed and everything else that decides outcomes, "
                f"so resuming would mix the outcomes of both"
            )
        cfg, mode = read.cfg, read.run_mode

    check_mode(mode, len(samples), len(labels), cfg)  # fail fast, before any state is written
    if not resume:
        if run_id is None:
            run_id = "run-" + dt.datetime.now(dt.timezone.utc).strftime("%Y%m%d-%H%M%S-%f")
        taken = f"run {run_id!r} already exists under {out}; continue it with --resume"
        if store.manifest_path(run_id).exists() or store.trial_path(run_id).exists():
            store.read_manifest(run_id)  # records without a manifest: no command continues them
            raise ValueError(taken)
        read = RunManifest.for_mode(
            mode, run_id=run_id, cfg=cfg, levels=labels, n_samples=len(samples),
            sample_ids=samples, started_at=now_rfc3339(), status="running", seed=seed,
            model=model or default_model, benchmark=benchmark or config.stem, config_hash=digest)

    # a new run is a resume of a run with no records; the opener creates and locks its record file
    preloaded = store.completed_trials(read, resume=True)
    if not resume and (preloaded or store.manifest_path(run_id).exists()):
        store.close()  # another new run of this id passed the check above first: it is the run
        raise ValueError(taken)
    manifest = dataclasses.replace(read, status="running")
    try:
        store.write_manifest(manifest)
        evaluation = run_evaluation(backend, manifest.sample_ids, manifest.levels, manifest.cfg,
                                    manifest.run_mode, preloaded=preloaded,
                                    on_trial=functools.partial(store.append_trial, run_id),
                                    max_workers=workers)
    except ConfigurationError:
        store.write_manifest(dataclasses.replace(manifest, status="failed"))
        raise
    except ValueError:  # e.g. records the run refuses: leave the manifest as read (or built)
        store.write_manifest(read)
        raise
    finally:
        store.close()
    manifest = dataclasses.replace(manifest, status="complete")
    store.write_manifest(manifest)
    # the bundle of the trials drawn, the bytes `compute` rebuilds from the records
    bundle = ResultBundle.from_run(manifest, evaluation)
    del evaluation, preloaded  # free the resumed trials before the bundle is encoded
    write_document(store.bundle_path(run_id), bundle)
    click.echo(summary_table([bundle], opts.fmt, opts.sm_scale))
    click.echo(f"run {run_id} complete; bundle at {store.bundle_path(run_id)}", err=True)


@main.command()
@click.argument("spec", type=click.Path(exists=True, path_type=Path))
@click.option("--runs", "-r", type=int, default=5, show_default=True,
              help="Replications per mode.")
@click.option("--modes", "-m", multiple=True, default=("adaptive",), show_default=True,
              help="Repeatable: adaptive, naive:K, or budget:B.")
@click.option("--m-min", type=int, default=ConvergenceConfig.m_min, show_default=True)
@click.option("--m-max", type=int, default=ConvergenceConfig.m_max, show_default=True)
@click.option("--tau", type=float, default=ConvergenceConfig.tau, show_default=True)
@click.option("--out", type=click.Path(path_type=Path), default=None,
              help="Per-run CSV (mode, run, arise, scaling_metric, trials, unconverged).")
@click.pass_obj
def simulate(opts: Options, spec: Path, runs: int, modes: tuple[str, ...],
             m_min: int, m_max: int, tau: float, out: Path | None) -> None:
    """Replicate a study on the synthetic backend and summarize stability."""
    model_spec = SyntheticModelSpec.from_file(spec)
    cfg = ConvergenceConfig(m_min=m_min, m_max=m_max, tau=tau)
    parsed = [parse_mode(m) for m in modes]
    check_study(model_spec, cfg, parsed, runs)
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)  # fail before any draw, not after the study
    studies = replicate_study(model_spec, cfg, parsed, runs, base_seed=opts.seed)

    headers = ("mode", "arise_mean", "arise_std", "arise_cv",
               "sm_mean", "sm_std", "sm_cv", "total_trials", "unconverged")
    rows = [
        (
            study.mode,
            f"{study.arise_mean:.6f}",
            f"{study.arise_std:.6f}",
            f"{study.arise_cv:.6f}",
            f"{study.scaling_mean * opts.sm_scale:.6f}",
            f"{study.scaling_std * opts.sm_scale:.6f}",
            f"{study.scaling_cv:.6f}",
            study.total_trials,
            sum(study.unconverged),
        )
        for study in studies
    ]
    click.echo(render_table(headers, rows, opts.fmt))

    if out is not None:
        per_run = [
            (study.mode, r, repr(study.arise[r]), repr(study.scaling[r]),
             study.trials[r], study.unconverged[r])
            for study in studies
            for r in range(runs)
        ]
        headers = ("mode", "run", "arise", "scaling_metric", "trials", "unconverged")
        write_csv(out, headers, per_run)
        click.echo(f"per-run rows written to {out}", err=True)


@main.command()
@click.argument("bundles", nargs=-1, required=True, type=click.Path(exists=True, path_type=Path))
@click.option("--curves", is_flag=True, help="Write a scaling-curve CSV per bundle.")
@click.option("--transitions", is_flag=True, help="Write a transition-count CSV per bundle.")
@click.option("--results-csv", type=click.Path(path_type=Path), default=None,
              help="Write the summary table as CSV to this path.")
@click.option("--out-dir", type=click.Path(path_type=Path), default=Path("."),
              show_default=True, help="Destination for exported CSVs.")
@click.pass_obj
def report(opts: Options, bundles: tuple[Path, ...], curves: bool, transitions: bool,
           results_csv: Path | None, out_dir: Path) -> None:
    """Render bundle summaries and export curve/transition CSVs."""
    loaded = [decode_file(path, ResultBundle) for path in bundles]
    click.echo(summary_table(loaded, opts.fmt, opts.sm_scale))
    if results_csv is not None:
        write_results_csv(results_csv, loaded, sm_scale=opts.sm_scale)
        click.echo(f"results table written to {results_csv}", err=True)
    for bundle in loaded:
        rid = bundle.manifest.run_id
        if curves:
            path = out_dir / f"{rid}.curve.csv"
            write_curve_csv(path, bundle)
            click.echo(f"curve written to {path}", err=True)
        if transitions:
            path = out_dir / f"{rid}.transitions.csv"
            write_transitions_csv(path, bundle)
            click.echo(f"transitions written to {path}", err=True)


if __name__ == "__main__":
    main()
