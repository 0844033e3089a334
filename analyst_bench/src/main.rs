//! `analyst-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one summary line, then one JSON object as the last line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer metrics.

use analyst_bench::layers::{per_layer, TracedRun};
use analyst_bench::replay::replay;
use analyst_bench::serve::{check_against_reference, serve, Plan, Served, MIN_SLICE_ROUNDS};
use analyst_bench::setup::{
    build_inputs, build_model, build_model_traced, workload, Inputs, Scale, Workload,
};
use analyst_bench::stats::{median, MIN_BEYOND};
use analyst_bench::trace::Tracer;
use lte_core::parallel::default_threads;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Ticks served before the timed window; the first pass after the build
/// runs slower than later ones.
const WARMUP_TICKS: u64 = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut w, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => w = Some(workload(value).ok_or(format!("unknown workload {value}"))?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad.clone())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad.clone())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: w.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: match trace.unwrap_or(0) {
            0 => false,
            1 => true,
            t => return Err(format!("--trace must be 0 or 1, got {t}")),
        },
    })
}

/// Result of one run: the checks and the metrics it reports.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    completed: u64,
    notes: Vec<String>,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    fn new() -> Self {
        Self {
            correct: true,
            attempted: 0,
            failed: 0,
            completed: 0,
            notes: Vec::new(),
            metrics: Vec::new(),
        }
    }

    fn fail(&mut self, why: String) {
        self.correct = false;
        self.notes.push(why);
    }

    /// Fold in a serving pass and the templates its reference check failed.
    fn absorb(&mut self, served: &Served, bad_templates: &[usize]) {
        let failed = served.failed
            + bad_templates
                .iter()
                .map(|&t| served.completions[t].max(1))
                .sum::<u64>();
        self.attempted += served.attempted;
        self.failed += failed;
        self.completed += served.attempted.saturating_sub(failed);
        if let Some(p) = &served.panic {
            self.fail(format!("service panicked: {p}"));
        }
        if failed > 0 {
            self.fail(format!(
                "{failed} sessions failed; templates off the reference: {bad_templates:?}"
            ));
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Process peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn untraced(args: &Args, scale: &Scale, workers: usize, report: &mut Report) {
    let w = &args.workload;
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs: Option<Inputs> = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let model = build_model(scale);
        inputs = Some(build_inputs(&model, w, scale, args.seed, workers));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("set up at least once");
    let plan = Plan {
        warmup_ticks: WARMUP_TICKS,
        seconds: args.seconds,
        min_slice_rounds: MIN_SLICE_ROUNDS,
        workers,
    };
    let served = serve(&inputs, w, &plan, None);
    let bad = check_against_reference(&inputs, &served, &inputs.checked, workers);
    report.absorb(&served, &bad);

    let (p50, p99, beyond) = served.round_latency_ms();
    if beyond < MIN_BEYOND {
        report.fail(format!(
            "a slice's p99 has {beyond} samples beyond it; {MIN_BEYOND} needed"
        ));
    }
    let ticks = served.window_ticks();
    report.notes.push(format!(
        "window: {} ticks, {} rounds; round_p99_ms {p99:.3} (not bounded, see README), >= {beyond} samples beyond each slice's p99; checked {} of {} requests",
        ticks.len(),
        ticks.iter().map(|t| t.rounds).sum::<usize>(),
        inputs.checked.len(),
        inputs.templates.len()
    ));
    report.metrics = vec![
        ("sessions_per_s", "1/s", served.sessions_per_s()),
        ("round_p50_ms", "ms", p50),
        ("mean_f1", "f1", served.mean_f1()),
        ("setup_s", "s", median(&setups) + served.warmup_wall),
        ("peak_rss_mb", "MB", peak_rss_mb().unwrap_or(f64::NAN)),
    ];
}

fn traced(args: &Args, scale: &Scale, workers: usize, report: &mut Report) {
    let w = &args.workload;
    let plan = Plan {
        warmup_ticks: WARMUP_TICKS,
        seconds: args.seconds / 2.0,
        // No p99 here: the window only has to cover half the run.
        min_slice_rounds: 0,
        workers,
    };
    // Untraced pass: the baseline for the tracing overhead and for the
    // traced build's mean F1.
    let inputs = build_inputs(&build_model(scale), w, scale, args.seed, workers);
    let plain = serve(&inputs, w, &plan, None);
    let bad = check_against_reference(&inputs, &plain, &inputs.checked, workers);
    report.absorb(&plain, &bad);
    drop(inputs);

    // Traced pass: stage-by-stage build, spans around every service call,
    // every request checked against the reference.
    let tracer = Tracer::default();
    let model = build_model_traced(scale, &tracer);
    let inputs = build_inputs(&model, w, scale, args.seed, workers);
    let served = serve(&inputs, w, &plan, Some(&tracer));
    let all: Vec<usize> = (0..inputs.templates.len()).collect();
    let bad = check_against_reference(&inputs, &served, &all, workers);
    report.absorb(&served, &bad);
    if served.mean_f1().to_bits() != plain.mean_f1().to_bits() || served.first != plain.first {
        report.fail(format!(
            "traced build served other outputs: mean_f1 {} vs untraced {}",
            served.mean_f1(),
            plain.mean_f1()
        ));
    }

    let ticks = match replay(&inputs, &served.records, workers, &tracer) {
        Ok(ticks) => ticks,
        Err(why) => {
            report.fail(format!("stage replay: {why}"));
            Vec::new()
        }
    };
    report.notes.push(format!(
        "replayed {} ticks; {} sessions equal to the service's",
        ticks.len(),
        served.records.len()
    ));
    let spans = tracer.snapshot();
    report.metrics = per_layer(&TracedRun {
        spans: &spans,
        served: &served,
        replay: &ticks,
        pipeline: &inputs.pipelines[0],
        scale,
        workers,
        pool_rows: w.pool_rows,
        untraced_sessions_per_s: plain.sessions_per_s(),
    });

    let dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from(".bench_build"), PathBuf::from);
    let path = dir
        .join("analyst-trace")
        .join(format!("{}-seed{}.jsonl", w.name, args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => report
            .notes
            .push(format!("{} spans in {}", spans.len(), path.display())),
        Err(e) => report.fail(format!("writing {}: {e}", path.display())),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: analyst-bench --workload <busy_exact|wide_fast> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let workers = default_threads();
    let mut report = Report::new();
    if args.trace {
        traced(&args, &Scale::BENCH, workers, &mut report);
    } else {
        untraced(&args, &Scale::BENCH, workers, &mut report);
    }
    // JSON has no NaN: a non-finite metric is reported as 0 and fails the run.
    for (name, unit, v) in std::mem::take(&mut report.metrics) {
        if !v.is_finite() {
            report.fail(format!("{name} is not finite"));
        }
        report
            .metrics
            .push((name, unit, if v.is_finite() { v } else { 0.0 }));
    }
    println!(
        "# {} seed={} trace={} nproc={workers} cpu_features={} attempted={} completed={} failed={} | {}",
        args.workload.name,
        args.seed,
        u8::from(args.trace),
        lte_nn::cpu_features(),
        report.attempted,
        report.completed,
        report.failed,
        report.notes.join(" | ")
    );
    println!("{}", report.json());
    ExitCode::SUCCESS
}
