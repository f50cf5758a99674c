//! Per-layer metrics of a traced run.
//!
//! Where the workload's own traffic passes through a layer the metric comes from
//! that traffic (the fields `SolveResponse` and `SolverOutcome` return, and
//! `MetricsSnapshot` counters). Every other layer is measured by direct calls into
//! its crate's public functions over the workload's own context and requests, so
//! every traced run reports every metric.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tagdm_cluster::{Cluster, ClusterConfig, ClusterMetricsSnapshot};
use tagdm_core::context::{MiningContext, SummarizerChoice};
use tagdm_core::solvers::{ConstraintMode, SmLshSolver, SolverOutcome};
use tagdm_data::group::GroupingScheme;
use tagdm_engine::{CacheReport, ContextSpec, JobId, MetricsSnapshot, SolveRequest, SolveResponse};
use tagdm_lsh::index::{LshConfig, LshIndex};
use tagdm_net::frame::{encode_frame, parse_header};
use tagdm_net::proto::{AnswerFrame, Frame, SolveFrame, DEFAULT_MAX_FRAME_LEN, HEADER_LEN};
use tagdm_net::{Client, ClientConfig, Server, ServerConfig};
use tagdm_topics::corpus::Corpus;
use tagdm_topics::lda::LdaSummarizer;
use tagdm_topics::summarizer::GroupSummarizer;

use crate::check::{direct, Verdict};
use crate::inputs::{pinned_requests, Inputs, Kind, Rng, MIN_GROUP, SHARDS};
use crate::stats::{median, median_of, ms, quantile, ratio, time_reps, us};
use crate::system::System;
use crate::traffic::{family, Sample};

/// Metrics in report order: name, value, unit.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Counter snapshots taken around the traced phase.
pub struct Counters {
    pub engines: Vec<MetricsSnapshot>,
    pub cluster: Option<ClusterMetricsSnapshot>,
}

impl Counters {
    pub fn take(system: &System) -> Counters {
        Counters {
            engines: system.engines.iter().map(|e| e.metrics()).collect(),
            cluster: system.cluster.as_ref().map(Cluster::metrics),
        }
    }

    /// Sum over engines of `field(after) − field(before)`.
    fn delta(&self, before: &Counters, field: fn(&MetricsSnapshot) -> u64) -> f64 {
        self.engines
            .iter()
            .zip(&before.engines)
            .map(|(a, b)| (field(a) - field(b)) as f64)
            .sum()
    }
}

/// What the traced run hands over.
pub struct Run<'a> {
    pub inputs: &'a Inputs,
    pub system: &'a System,
    /// Traffic samples of the untraced and traced phases.
    pub samples: Vec<&'a Sample>,
    pub before: Counters,
    pub after: Counters,
    /// `Engine::register_dataset` wall times the traffic itself paid.
    pub registrations: Vec<Duration>,
    /// How long the serve-hits direct-transport phase runs.
    pub direct_for: Duration,
}

/// How far (percent of the client p50) the sum of a breakdown's parts may stray.
const MAX_GAP_PCT: f64 = 10.0;

/// Exact counts by metric name.
pub type Counts = Vec<(&'static str, u64)>;

/// Exact-count metrics of the pinned probe, in report order.
const EXACT_COUNTS: [&str; 6] = [
    "core.exact.candidates",
    "core.sm_lsh.candidates",
    "core.dv_fdp.candidates",
    "lsh.buckets",
    "net.request_bytes",
    "net.answer_bytes",
];

/// Measure every per-layer metric. Probe answers are checked like traffic answers,
/// into `verdict`. Returns the metrics and the exact counts.
pub fn measure(run: &Run, verdict: &mut Verdict) -> Result<(Metrics, Counts), String> {
    let inputs = run.inputs;
    let system = run.system;
    let mut m: Metrics = Vec::new();

    // The pinned probe, through the workload's own entry point: first as misses over a
    // warm context, then repeated as outcome-cache hits.
    let owner = &system.engines[system.owner(&inputs.probe_spec)];
    let context = owner
        .context(&inputs.probe_spec)
        .map_err(|e| format!("probe context: {e}"))?;
    let pinned = pinned_requests(&inputs.probe_spec, inputs.probe_params);
    let mut probe_misses = Vec::new();
    let mut probe_outcomes = Vec::new();
    for request in &pinned {
        let started = Instant::now();
        let response = system.solve(request.clone());
        let latency = started.elapsed();
        let expected = direct(&context, request);
        let sample = Sample::new(latency, &response, Some(&expected));
        verdict.attempted += 1;
        match response.result {
            Ok(outcome) if sample.correct => probe_outcomes.push(outcome),
            Ok(_) => verdict.fail(format!(
                "pinned probe {}: answer differs from direct solve",
                request.solver.tag()
            )),
            Err(e) => verdict.fail(format!("pinned probe {}: {e}", request.solver.tag())),
        }
        probe_misses.push(sample);
    }
    if probe_outcomes.len() != pinned.len() {
        return Err(format!(
            "the pinned probe failed: {}",
            verdict.messages.join("; ")
        ));
    }
    let probe_hits: Vec<Sample> = (0..20)
        .flat_map(|_| pinned.iter().zip(&probe_outcomes))
        .map(|(request, outcome)| {
            let started = Instant::now();
            let response = system.solve(request.clone());
            Sample::new(started.elapsed(), &response, Some(outcome))
        })
        .collect();

    // Solver layers: traffic misses where the traffic runs the solver, else the probe.
    let solved = |f: u8| -> Vec<&Sample> {
        let traffic: Vec<&Sample> = run
            .samples
            .iter()
            .copied()
            .filter(|s| !s.outcome_hit && s.family == f)
            .collect();
        if traffic.is_empty() {
            probe_misses.iter().filter(|s| s.family == f).collect()
        } else {
            traffic
        }
    };
    let solve_ms = |f: u8| {
        median(
            &solved(f)
                .iter()
                .map(|s| s.solve_ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let exact = solved(0);
    let exact_ns: f64 = exact.iter().map(|s| s.solve_ns as f64).sum();
    let exact_candidates: f64 = exact.iter().map(|s| s.candidates as f64).sum();
    let pinned_candidates = |f: u8| -> u64 {
        probe_outcomes
            .iter()
            .filter(|o| family(o) == f)
            .map(|o| o.candidates_evaluated)
            .sum()
    };
    let mut counts = vec![
        (EXACT_COUNTS[0], pinned_candidates(0)),
        (EXACT_COUNTS[1], pinned_candidates(1)),
        (EXACT_COUNTS[2], pinned_candidates(2)),
    ];
    m.push(("core.exact.solve_ms", solve_ms(0), "ms"));
    m.push(("core.exact.candidates", counts[0].1 as f64, "count"));
    m.push((
        "core.exact.ns_per_candidate",
        ratio(exact_ns, exact_candidates),
        "ns",
    ));
    m.push(("core.sm_lsh.solve_ms", solve_ms(1), "ms"));
    m.push(("core.sm_lsh.candidates", counts[1].1 as f64, "count"));
    m.push(("core.dv_fdp.solve_ms", solve_ms(2), "ms"));
    m.push(("core.dv_fdp.candidates", counts[2].1 as f64, "count"));

    // Evaluation kernel: direct calls over the probe context's pairs and seeded k-sets.
    let problem = &pinned[1].problem;
    let n = context.num_groups();
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
        .take(20_000)
        .collect();
    let mut rng = Rng::new(0x6B5E7);
    let sets: Vec<Vec<usize>> = (0..2_000)
        .map(|_| {
            let mut set: Vec<usize> = Vec::new();
            while set.len() < problem.max_groups.min(n) {
                let g = rng.below(n);
                if !set.contains(&g) {
                    set.push(g);
                }
            }
            set.sort_unstable();
            set
        })
        .collect();
    let pair_ns = ns_per_call(pairs.len(), || {
        for &(a, b) in &pairs {
            black_box(problem.pairwise_objective(&context, a, b));
        }
    });
    let constraints_ns = ns_per_call(sets.len(), || {
        for set in &sets {
            black_box(problem.constraints_satisfied(&context, set));
        }
    });
    let support_ns = ns_per_call(sets.len(), || {
        for set in &sets {
            black_box(context.support(set));
        }
    });
    m.push(("core.pair_objective_ns", pair_ns, "ns"));
    m.push(("core.constraints_ns", constraints_ns, "ns"));
    m.push(("core.support_ns", support_ns, "ns"));

    // Context build, its LDA and its grouping, directly over the probe corpus.
    let ContextSpec::Grouped {
        grouping,
        summarizer,
        ..
    } = &inputs.probe_spec
    else {
        return Err("probe specs are grouped".to_string());
    };
    let dataset = &inputs.probe_dataset;
    let attrs: Vec<(&str, &str)> = grouping
        .iter()
        .map(|(d, a)| (d.as_str(), a.as_str()))
        .collect();
    let scheme = GroupingScheme::over(dataset, &attrs)
        .map_err(|e| format!("probe grouping: {e}"))?
        .min_group_size(MIN_GROUP);
    let groups = scheme.enumerate(dataset);
    let budget = Duration::from_millis(1_500);
    let build = time_reps(1, 3, budget, || {
        black_box(MiningContext::build(dataset, groups.clone(), *summarizer));
    });
    m.push(("core.context_build_ms", median_of(&build, ms), "ms"));
    let SummarizerChoice::Lda(lda) = summarizer else {
        return Err("probe specs summarize with LDA".to_string());
    };
    let corpus = Corpus::from_documents(
        dataset.num_tags(),
        groups
            .iter()
            .map(|g| g.tag_counts.iter().map(|&(t, c)| (t.0, c)).collect())
            .collect(),
    );
    let lda_times = time_reps(1, 3, budget, || {
        black_box(LdaSummarizer::new(*lda).summarize(&corpus));
    });
    m.push(("topics.lda_ms", median_of(&lda_times, ms), "ms"));
    let enumerate = time_reps(3, 50, Duration::from_millis(300), || {
        black_box(scheme.enumerate(dataset));
    });
    m.push(("data.enumerate_ms", median_of(&enumerate, ms), "ms"));
    let registrations = if run.registrations.is_empty() {
        (0..5)
            .map(|i| {
                let copy = dataset.clone();
                let started = Instant::now();
                owner.register_dataset(format!("probe-register-{i}"), copy);
                started.elapsed()
            })
            .collect()
    } else {
        run.registrations.clone()
    };
    m.push(("data.register_us", median_of(&registrations, us), "us"));

    // LSH index at SM-LSH-Fo's initial d′ over the folded vectors of P1 (similarity
    // constraints on users and items, so both blocks fold in).
    let sm_lsh = SmLshSolver::new(ConstraintMode::Fold);
    let vectors: Vec<Vec<(u32, f64)>> = (0..n)
        .map(|i| context.folded_vector(i, true, true))
        .collect();
    let config = LshConfig {
        dims: context.folded_dims(true, true).max(1),
        num_bits: sm_lsh.initial_bits,
        num_tables: sm_lsh.num_tables,
        seed: sm_lsh.seed,
    };
    let lsh_times = time_reps(5, 500, Duration::from_millis(200), || {
        black_box(LshIndex::build(
            config,
            vectors.iter().map(|v| v.as_slice()),
        ));
    });
    let index = LshIndex::build(config, vectors.iter().map(|v| v.as_slice()));
    counts.push((EXACT_COUNTS[3], index.num_buckets(0) as u64));
    m.push(("lsh.index_build_us", median_of(&lsh_times, us), "us"));
    m.push(("lsh.buckets", counts[3].1 as f64, "count"));

    // Engine: response fields of the traffic, the probe where the traffic has none.
    let queue: Vec<f64> = run
        .samples
        .iter()
        .map(|s| s.queue_ns as f64 / 1e3)
        .collect();
    m.push(("engine.queue_wait_us.p50", median(&queue), "us"));
    m.push(("engine.queue_wait_us.p99", quantile(&queue, 0.99), "us"));
    let mut overheads = warm_miss_overheads(run.samples.iter().copied());
    if overheads.is_empty() {
        overheads = warm_miss_overheads(probe_misses.iter());
    }
    m.push(("engine.overhead_us", median(&overheads), "us"));
    let mut hit_us = hit_totals(run.samples.iter().copied());
    if hit_us.is_empty() {
        hit_us = hit_totals(probe_hits.iter());
    }
    m.push(("engine.hit_us", median(&hit_us), "us"));
    let (after, before) = (&run.after, &run.before);
    let outcome_hits = after.delta(before, |s| s.outcome_hits);
    let outcome_lookups = outcome_hits + after.delta(before, |s| s.outcome_misses);
    let context_hits = after.delta(before, |s| s.context_hits);
    let context_lookups = context_hits + after.delta(before, |s| s.context_misses);
    let dedup = after.delta(before, |s| s.context_builds_deduped);
    let builds = after.delta(before, |s| s.context_misses) - dedup;
    let completed = after.delta(before, |s| s.jobs_completed);
    m.push((
        "engine.outcome_hit_ratio",
        ratio(outcome_hits, outcome_lookups),
        "ratio",
    ));
    m.push(("engine.outcome_lookups", outcome_lookups, "count"));
    m.push((
        "engine.context_hit_ratio",
        ratio(context_hits, context_lookups),
        "ratio",
    ));
    m.push(("engine.context_lookups", context_lookups, "count"));
    m.push((
        "engine.context_builds_per_req",
        ratio(builds, completed),
        "ratio",
    ));
    m.push(("engine.dedup_waits", dedup, "count"));
    m.push((
        "engine.failed",
        after.delta(before, |s| s.jobs_panicked + s.jobs_expired + s.jobs_shed),
        "count",
    ));
    m.push((
        "engine.retried",
        after.delta(before, |s| s.jobs_retried),
        "count",
    ));
    m.push((
        "engine.rejected",
        after.delta(before, |s| s.jobs_rejected),
        "count",
    ));

    // Transport and routing.
    let net = match inputs.kind {
        Kind::ServeHits => served_transport(run)?,
        _ => probe_transport(system, &pinned)?,
    };
    m.push(("net.rtt_us.p50", median(&net.rtt), "us"));
    m.push(("net.rtt_us.p99", quantile(&net.rtt, 0.99), "us"));
    m.push(("net.transport_us", median(&net.transport), "us"));
    m.push(("net.ping_us", median(&net.ping), "us"));

    // Codec over the pinned frames; their byte counts with timings zeroed.
    let frames: Vec<(Frame, Frame)> = pinned
        .iter()
        .zip(&probe_outcomes)
        .enumerate()
        .map(|(i, (request, outcome))| {
            let id = i as u64 + 1;
            let answer = SolveResponse {
                job: JobId(0),
                result: Ok(SolverOutcome {
                    elapsed: Duration::ZERO,
                    ..outcome.clone()
                }),
                cache: CacheReport::default(),
                deadline_hit: false,
                queue_wait: Duration::ZERO,
                total: Duration::ZERO,
            };
            (
                Frame::Solve(SolveFrame {
                    id,
                    request: request.clone(),
                }),
                Frame::Answer(AnswerFrame {
                    id,
                    response: answer,
                }),
            )
        })
        .collect();
    let encoded = |frame: &Frame| {
        encode_frame(frame, DEFAULT_MAX_FRAME_LEN).map_err(|e| format!("encode: {e}"))
    };
    let mut request_bytes = 0u64;
    let mut answer_bytes = 0u64;
    for (solve, answer) in &frames {
        request_bytes += encoded(solve)?.len() as u64;
        answer_bytes += encoded(answer)?.len() as u64;
    }
    let codec = time_reps(20, 20, Duration::ZERO, || {
        for (solve, answer) in &frames {
            for frame in [solve, answer] {
                let bytes =
                    encode_frame(frame, DEFAULT_MAX_FRAME_LEN).expect("pinned frames encode");
                let header = bytes[..HEADER_LEN]
                    .try_into()
                    .expect("frames start with a header");
                let (kind, _) =
                    parse_header(header, DEFAULT_MAX_FRAME_LEN).expect("pinned headers parse");
                let payload =
                    std::str::from_utf8(&bytes[HEADER_LEN..]).expect("payloads are UTF-8");
                black_box(Frame::decode(kind, payload).expect("pinned frames decode"));
            }
        }
    });
    counts.push((EXACT_COUNTS[4], request_bytes));
    counts.push((EXACT_COUNTS[5], answer_bytes));
    m.push((
        "net.codec_us",
        median_of(&codec, us) / frames.len() as f64,
        "us",
    ));
    m.push(("net.request_bytes", request_bytes as f64, "bytes"));
    m.push(("net.answer_bytes", answer_bytes as f64, "bytes"));

    // The parts a request's latency splits into along its blocking path, against the
    // client's median latency. On serve-hits that median is the cluster's, taken in
    // the stretch where route and transport were measured: a shared host's speed
    // drifts by more than the 10% allowed between stretches of a few seconds.
    let client_p50 = if system.cluster.is_some() {
        median(&net.routed)
    } else {
        median(
            &run.samples
                .iter()
                .map(|s| s.latency_us())
                .collect::<Vec<_>>(),
        )
    };
    let parts = if system.cluster.is_some() {
        [
            ("route", net.route_us),
            ("transport", median(&net.transport)),
            ("engine hit", median(&hit_us)),
        ]
    } else {
        // Every traffic request: engine time outside queue and solver (context
        // resolve, builds, lookups), and solver time (none on outcome hits).
        let solve_us = |s: &Sample| {
            if s.outcome_hit {
                0.0
            } else {
                s.solve_ns as f64 / 1e3
            }
        };
        let engine: Vec<f64> = run
            .samples
            .iter()
            .map(|s| (s.total_ns as f64 - s.queue_ns as f64) / 1e3 - solve_us(s))
            .collect();
        let solves: Vec<f64> = run.samples.iter().map(|s| solve_us(s)).collect();
        [
            ("queue", median(&queue)),
            ("engine", median(&engine)),
            ("solver", median(&solves)),
        ]
    };
    let sum: f64 = parts.iter().map(|p| p.1).sum();
    let gap_pct = ratio(sum - client_p50, client_p50) * 100.0;
    println!(
        "breakdown: {} = {sum:.1}us against client p50 {client_p50:.1}us ({gap_pct:+.1}%)",
        parts
            .iter()
            .map(|(name, v)| format!("{name} {v:.1}"))
            .collect::<Vec<_>>()
            .join(" + ")
    );
    // On mine-exact and serve-hits every request takes the same path, so its parts
    // must account for the client's median latency.
    if matches!(inputs.kind, Kind::MineExact | Kind::ServeHits) && gap_pct.abs() > MAX_GAP_PCT {
        verdict.fail(format!(
            "the breakdown misses the client p50 by {gap_pct:+.1}% (more than {MAX_GAP_PCT}%)"
        ));
    }
    m.push(("trace.breakdown_gap_pct", gap_pct.abs(), "%"));

    m.push(("cluster.route_us", net.route_us, "us"));
    m.push(("cluster.shard_share_max", net.share_max, "ratio"));
    m.push(("cluster.spilled", net.spilled, "count"));
    m.push(("cluster.denied", net.denied, "count"));
    Ok((m, counts))
}

/// Median over five timed passes of `pass`, per call of its `calls` calls, in ns.
fn ns_per_call(calls: usize, pass: impl FnMut()) -> f64 {
    median_of(&time_reps(5, 5, Duration::ZERO, pass), |t| {
        t.as_nanos() as f64
    }) / calls as f64
}

/// Engine time outside queueing and the solver (µs) of answered misses whose
/// context was warm.
fn warm_miss_overheads<'a>(samples: impl Iterator<Item = &'a Sample>) -> Vec<f64> {
    samples
        .filter(|s| s.context_hit && !s.outcome_hit && s.family < 3)
        .map(Sample::overhead_us)
        .collect()
}

/// `SolveResponse::total` (µs) of outcome-cache hits.
fn hit_totals<'a>(samples: impl Iterator<Item = &'a Sample>) -> Vec<f64> {
    samples
        .filter(|s| s.outcome_hit)
        .map(|s| s.total_ns as f64 / 1e3)
        .collect()
}

/// Transport and routing measurements.
struct Net {
    /// Direct `Client::solve` round trips, µs.
    rtt: Vec<f64>,
    /// Round trip minus the engine's `total`, µs.
    transport: Vec<f64>,
    /// `Cluster::solve` latencies of the same requests, µs.
    routed: Vec<f64>,
    ping: Vec<f64>,
    route_us: f64,
    share_max: f64,
    spilled: f64,
    denied: f64,
}

fn connect(server: std::net::SocketAddr) -> Result<Client, String> {
    Client::connect(server, ClientConfig::default()).map_err(|e| format!("connect: {e}"))
}

fn pings(client: &mut Client, count: usize) -> Result<Vec<f64>, String> {
    (0..count)
        .map(|_| client.ping("").map(us).map_err(|e| format!("ping: {e}")))
        .collect()
}

/// serve-hits: the traffic's request stream, each request sent once through the
/// cluster and once straight to its owning shard's server. Routing is the cluster's
/// median latency minus the direct one; alternating the two keeps both in the same
/// stretch of time.
fn served_transport(run: &Run) -> Result<Net, String> {
    let inputs = run.inputs;
    let system = run.system;
    let cluster = system.cluster.as_ref().expect("serve-hits runs a cluster");
    let addrs: Vec<_> = system.servers.iter().map(Server::local_addr).collect();
    let mut links: Vec<Client> = addrs
        .iter()
        .map(|&a| connect(a))
        .collect::<Result<_, _>>()?;
    let (mut routed, mut rtt, mut transport) = (Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + run.direct_for;
    for &key in inputs.schedule.iter().cycle() {
        if Instant::now() >= deadline {
            break;
        }
        let request = inputs.pool[key].clone();
        let t0 = Instant::now();
        let through = cluster.solve(request.clone());
        routed.push(us(t0.elapsed()));
        through.result.map_err(|e| format!("cluster solve: {e}"))?;
        let link = &mut links[system.owner(&request.context)];
        let t1 = Instant::now();
        let response = link
            .solve(request)
            .map_err(|e| format!("direct solve: {e}"))?;
        let took = us(t1.elapsed());
        response.result.map_err(|e| format!("direct solve: {e}"))?;
        rtt.push(took);
        transport.push(took - us(response.total));
    }
    let mut ping = Vec::new();
    for &addr in &addrs {
        ping.extend(pings(&mut connect(addr)?, 50)?);
    }
    let (before, after) = (
        run.before
            .cluster
            .as_ref()
            .expect("serve-hits runs a cluster"),
        run.after
            .cluster
            .as_ref()
            .expect("serve-hits runs a cluster"),
    );
    let per_shard: Vec<f64> = after
        .shards
        .iter()
        .zip(&before.shards)
        .map(|(a, b)| (a.routed - b.routed) as f64)
        .collect();
    let total: f64 = per_shard.iter().sum();
    Ok(Net {
        route_us: median(&routed) - median(&rtt),
        share_max: ratio(per_shard.iter().cloned().fold(0.0, f64::max), total),
        spilled: after
            .shards
            .iter()
            .zip(&before.shards)
            .map(|(a, b)| (a.spilled - b.spilled) as f64)
            .sum(),
        denied: after
            .shards
            .iter()
            .zip(&before.shards)
            .map(|(a, b)| (a.denied - b.denied) as f64)
            .sum(),
        rtt,
        transport,
        routed,
        ping,
    })
}

/// In-process workloads: a loopback server in front of the workload's engine, one
/// direct client and a one-shard cluster, alternating over the (now cached) pinned
/// requests.
fn probe_transport(system: &System, pinned: &[SolveRequest]) -> Result<Net, String> {
    let engine = Arc::clone(&system.engines[0]);
    let server = Server::bind("127.0.0.1:0", engine, ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let mut direct = connect(server.local_addr())?;
    let cluster = Cluster::builder(ClusterConfig::default())
        .remote(SHARDS[0], connect(server.local_addr())?)
        .build();
    let (mut rtt, mut transport, mut routed, mut route) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..400 {
        let request = pinned[i % pinned.len()].clone();
        let t0 = Instant::now();
        let response = direct
            .solve(request.clone())
            .map_err(|e| format!("direct solve: {e}"))?;
        let direct_us = us(t0.elapsed());
        let t1 = Instant::now();
        let through = cluster.solve(request);
        let cluster_us = us(t1.elapsed());
        response.result.map_err(|e| format!("direct solve: {e}"))?;
        through.result.map_err(|e| format!("cluster solve: {e}"))?;
        rtt.push(direct_us);
        transport.push(direct_us - us(response.total));
        routed.push(cluster_us);
        route.push(cluster_us - direct_us);
    }
    let ping = pings(&mut direct, 50)?;
    let snapshot = cluster.metrics();
    let per_shard: Vec<f64> = snapshot.shards.iter().map(|s| s.routed as f64).collect();
    let total: f64 = per_shard.iter().sum();
    let net = Net {
        route_us: median(&route),
        share_max: ratio(per_shard.iter().cloned().fold(0.0, f64::max), total),
        spilled: snapshot.shards.iter().map(|s| s.spilled as f64).sum(),
        denied: snapshot.shards.iter().map(|s| s.denied as f64).sum(),
        rtt,
        transport,
        routed,
        ping,
    };
    drop(cluster);
    drop(direct);
    server.drain();
    Ok(net)
}
