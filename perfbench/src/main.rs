//! Closed-loop benchmark of the TagDM workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mine-exact|mine-heuristic|serve-hits|context-churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The seed generates the workload's requests; the program only receives them.
//! Set-up (engine, server and cluster start, dataset registration, warm context
//! builds, cache priming) runs several times and reports the median. CPU times are
//! reported scaled to a reference core speed (see `gauge`). Every answer
//! is compared with a reference computed outside the timed phases. With `--trace 0`
//! the run measures the end-to-end metrics for `--seconds`; with `--trace 1` it runs
//! half that untraced, half traced (in alternating slices), then probes each layer,
//! and reports the per-layer metrics. The last line of standard output is the JSON result.
//! `perfbench/workloads.json` records why each workload exists, the layers it loads
//! and what the planned optimisations should move.

mod check;
mod gauge;
mod inputs;
mod layers;
mod stats;
mod system;
mod trace;
mod traffic;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use check::{ChurnTraffic, PoolTraffic, Verdict};
use gauge::Gauge;
use inputs::Kind;
use layers::{Counters, Metrics, Run};
use stats::{median_of, ms, ratio};
use system::System;
use traffic::{closed_loop, Phase, Traffic};

/// Set-ups per run; `setup_s` is the median of their CPU times.
const SETUPS: usize = 7;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = raw.next() {
            let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => {
                    kind = Some(
                        Kind::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => trace = Some(number()? != 0),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            kind: kind.ok_or("--workload is required")?,
            seed: seed.unwrap_or(0),
            seconds: seconds.unwrap_or(10),
            trace: trace.unwrap_or(false),
        })
    }
}

struct Report {
    correct: bool,
    verdict: Verdict,
    metrics: Metrics,
}

impl Report {
    fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct,
            self.verdict.attempted.max(1),
            self.verdict.failed
        )
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            for message in &report.verdict.messages {
                eprintln!("perfbench: FAILED {message}");
            }
            println!("{}", report.json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<Report, String> {
    // One core for the program and the gauge alike: the gauge then times the core the
    // program runs on, and only one thread is busy at a time anyway.
    let cpu = stats::pin_to_one_cpu()?;
    let inputs = inputs::generate(args.kind, args.seed);
    let mut setups = Vec::new();
    let mut setup_gauge = Gauge::default();
    let mut system = None;
    for _ in 0..SETUPS {
        drop(system.take());
        let (k0, t0) = (stats::cpu_time(), Instant::now());
        system = Some(System::start(&inputs)?);
        setups.push((stats::cpu_time() - k0, t0.elapsed()));
        setup_gauge.keep_up(setups.iter().map(|s| s.0).sum());
    }
    let system = system.expect("at least one set-up");
    let setup_cpu: Vec<Duration> = setups.iter().map(|s| setup_gauge.scale(s.0)).collect();
    println!(
        "{} seed={} on CPU {cpu}; set-ups: wall {:?} ms, CPU at reference speed {:?} ms",
        args.kind.name(),
        args.seed,
        setups.iter().map(|s| ms(s.1).round()).collect::<Vec<_>>(),
        setup_cpu.iter().map(|&t| ms(t).round()).collect::<Vec<_>>()
    );
    let reference = check::pool_reference(&inputs, &system)?;

    let pool_traffic = PoolTraffic {
        inputs: &inputs,
        reference: &reference,
    };
    let churn_traffic = inputs
        .churn
        .as_ref()
        .map(|churn| ChurnTraffic::new(churn, &system.engines[0], &reference));
    let traffic: &dyn Traffic = match &churn_traffic {
        Some(churn) => churn,
        None => &pool_traffic,
    };
    let seconds = Duration::from_secs(args.seconds);
    let mut cursor = 0;
    let warmup_for = (seconds / 10).min(Duration::from_secs(1));
    let warmup = closed_loop(&system, traffic, &mut cursor, warmup_for, false, None);

    let mut verdict = Verdict::default();
    let metrics = if args.trace {
        verdict.add(&warmup);
        traced(
            args,
            &inputs,
            &system,
            traffic,
            &mut cursor,
            &mut verdict,
            churn_traffic.as_ref(),
        )?
    } else {
        let phase = closed_loop(&system, traffic, &mut cursor, seconds, false, None);
        verdict.add(&warmup);
        verdict.add(&phase);
        println!(
            "{} replies in {:.2}s ({:.1}/s); latency over {} samples: p10 {:.3} p50 {:.3} p90 {:.3} p99 {:.3} max {:.3} ms",
            phase.replies,
            phase.elapsed.as_secs_f64(),
            phase.throughput(),
            phase.latencies.len(),
            phase.latency_ms(0.1),
            phase.latency_ms(0.5),
            phase.latency_ms(0.9),
            phase.latency_ms(0.99),
            phase.latency_ms(1.0)
        );
        println!(
            "CPU per reply: {:.3} ms measured, {:.3} ms at reference speed; reference loop {:.1} us over {} runs",
            ms(phase.cpu) / phase.replies as f64,
            ms(phase.cpu_per_reply()),
            phase.gauge.mean().as_secs_f64() * 1e6,
            phase.gauge.runs()
        );
        vec![
            ("cpu_ms_per_req", ms(phase.cpu_per_reply()), "ms"),
            ("setup_s", median_of(&setup_cpu, |t| t.as_secs_f64()), "s"),
            ("peak_rss_mb", stats::peak_rss_kib()? as f64 / 1024.0, "MB"),
        ]
    };
    drop(churn_traffic);
    drop(system);
    Ok(Report {
        correct: verdict.failed == 0,
        verdict,
        metrics,
    })
}

/// Untraced and traced slices alternate in a traced run, so both halves see the
/// same mix of a shared host's slow and fast spells.
const TRACE_SLICES: u32 = 6;

/// The traced run: half the time untraced (the overhead baseline), half traced, in
/// alternating slices, then the layer probes.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    inputs: &inputs::Inputs,
    system: &System,
    traffic: &dyn Traffic,
    cursor: &mut usize,
    verdict: &mut Verdict,
    churn: Option<&ChurnTraffic>,
) -> Result<Metrics, String> {
    let half = Duration::from_secs(args.seconds) / 2;
    let slice = half / (TRACE_SLICES / 2);
    let (mut untraced, mut traced) = (Phase::empty(), Phase::empty());
    // CPU time of each half as a whole: the client's span recording included.
    let mut cpu = [Duration::ZERO; 2];
    let before = Counters::take(system);
    let epoch = Instant::now();
    for i in 0..TRACE_SLICES {
        let cpu_before = stats::cpu_time();
        if i % 2 == 0 {
            let part = closed_loop(system, traffic, cursor, slice, true, None);
            untraced.absorb(part, true);
        } else {
            let part = closed_loop(system, traffic, cursor, slice, true, Some(epoch));
            traced.absorb(part, true);
        }
        cpu[(i % 2) as usize] += stats::cpu_time() - cpu_before;
    }
    let after = Counters::take(system);
    verdict.add(&untraced);
    verdict.add(&traced);

    let registrations = churn
        .map(|c| c.registrations.borrow().clone())
        .unwrap_or_default();
    let run = Run {
        inputs,
        system,
        samples: untraced.samples.iter().chain(&traced.samples).collect(),
        before,
        after,
        registrations,
        direct_for: half.min(Duration::from_secs(3)),
    };
    let (mut metrics, counts) = layers::measure(&run, verdict)?;

    let times = trace::self_times(&traced.spans);
    let plain = ratio(ms(cpu[0]), untraced.replies as f64);
    let with_spans = ratio(ms(cpu[1]), traced.replies as f64);
    metrics.push((
        "trace.overhead_pct",
        ratio(with_spans - plain, plain) * 100.0,
        "%",
    ));
    println!("self time per request (median): {}", times.render());
    println!(
        "exact counts: {}",
        counts
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    check_counts(args.kind, &counts, verdict)?;

    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let file = out.join(format!(
        "{}-seed{}.trace.jsonl",
        args.kind.name(),
        args.seed
    ));
    std::fs::write(&file, trace::render_file(&traced.spans, &times, 200))
        .map_err(|e| format!("write {}: {e}", file.display()))?;
    println!("trace written to {}", file.display());
    Ok(metrics)
}

/// The determinism guard: every exact count must equal the value pinned in
/// `expected_counts.txt` for this workload.
fn check_counts(
    kind: Kind,
    counts: &[(&'static str, u64)],
    verdict: &mut Verdict,
) -> Result<(), String> {
    let pinned = include_str!("../expected_counts.txt");
    for &(name, value) in counts {
        let expected = pinned
            .lines()
            .map(str::split_whitespace)
            .filter_map(|mut f| Some((f.next()?, f.next()?, f.next()?)))
            .find(|&(w, n, _)| w == kind.name() && n == name)
            .ok_or_else(|| format!("expected_counts.txt has no {} {name}", kind.name()))?
            .2
            .parse::<u64>()
            .map_err(|e| format!("expected_counts.txt: {e}"))?;
        if value != expected {
            verdict.fail(format!("exact count {name} = {value}, expected {expected}"));
        }
    }
    Ok(())
}
