//! Golden wire corpus: every payload a remote caller can see, pinned to exact JSON
//! bytes in `tests/golden/wire.txt` (one `name<TAB>json` line each).
//!
//! For each entry the writer must produce the pinned bytes, and the reader must
//! decode those bytes back to a value equal to the one that was written. The corpus
//! covers SOLVE and ANSWER frames for every solver family and every Table-1
//! problem, an ANSWER per `EngineError` variant, the transport's report and
//! farewell frames, the cluster health report, the retry, admission and breaker
//! settings, and a small dataset through `tagdm_data::io`.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::time::Duration;

use serde::{Deserialize, Serialize};
use tagdm_cluster::{BreakerState, ClusterHealth, ShardHealth};
use tagdm_core::catalog::{problem, ProblemParams};
use tagdm_core::context::SummarizerChoice;
use tagdm_core::solvers::{ConstraintMode, SolverOutcome};
use tagdm_data::dataset::{Dataset, DatasetBuilder};
use tagdm_data::io;
use tagdm_engine::{
    AdmissionPolicy, Backoff, CacheReport, ContextSpec, EngineError, JobId, RetryPolicy,
    SolveRequest, SolveResponse, SolverChoice,
};
use tagdm_net::proto::{
    kind, AnswerFrame, Frame, GoAwayFrame, PingFrame, PongFrame, SolveFrame, WireError,
};
use tagdm_net::{HealthReport, HealthStatus};
use tagdm_topics::lda::LdaConfig;

const GOLDEN: &str = include_str!("golden/wire.txt");

/// Finite floats whose shortest round-trip text is easy to get wrong.
const FLOATS: [f64; 8] = [
    0.30000000000000004,
    -0.0,
    5e-324,
    1e21,
    1e-7,
    123456789.125,
    f64::MAX,
    -2.5,
];

const SOLVERS: [SolverChoice; 8] = [
    SolverChoice::Exact,
    SolverChoice::ExactCapped(5000),
    SolverChoice::SmLsh(ConstraintMode::Ignore),
    SolverChoice::SmLsh(ConstraintMode::Filter),
    SolverChoice::SmLsh(ConstraintMode::Fold),
    SolverChoice::DvFdp(ConstraintMode::Filter),
    SolverChoice::DvFdp(ConstraintMode::Fold),
    SolverChoice::Recommended,
];

/// Checks entries against the pinned file and remembers which names it saw.
struct Corpus {
    pinned: BTreeMap<String, String>,
    seen: Vec<String>,
    failures: Vec<String>,
}

impl Corpus {
    fn load() -> Self {
        let pinned = GOLDEN
            .lines()
            .map(|line| {
                let (name, json) = line.split_once('\t').expect("name<TAB>json");
                (name.to_string(), json.to_string())
            })
            .collect();
        Corpus {
            pinned,
            seen: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Compare `written` with the pinned bytes of `name`; return the pinned bytes.
    fn pinned(&mut self, name: &str, written: String) -> Option<String> {
        self.seen.push(name.to_string());
        let Some(pinned) = self.pinned.get(name).cloned() else {
            self.failures
                .push(format!("{name}: not pinned; writes {written}"));
            return None;
        };
        if written != pinned {
            self.failures
                .push(format!("{name}: writes\n  {written}\nnot\n  {pinned}"));
        }
        Some(pinned)
    }

    /// A serde type: written by `serde_json::to_string`, read by `from_str`.
    fn value<T>(&mut self, name: &str, value: &T)
    where
        T: Serialize + Deserialize + PartialEq + Debug,
    {
        let written = serde_json::to_string(value).expect("encode");
        if let Some(pinned) = self.pinned(name, written) {
            match serde_json::from_str::<T>(&pinned) {
                Ok(decoded) if decoded == *value => {}
                other => self.failures.push(format!("{name}: reads {other:?}")),
            }
        }
    }

    /// A wire frame: written by `Frame::encode_payload`, read by `Frame::decode`.
    fn frame(&mut self, name: &str, frame: Frame) {
        let written = frame.encode_payload().expect("encode");
        if let Some(pinned) = self.pinned(name, written) {
            match Frame::decode(frame.kind(), &pinned) {
                Ok(decoded) if decoded == frame => {}
                other => self.failures.push(format!("{name}: reads {other:?}")),
            }
        }
    }

    fn finish(self) {
        let unseen: Vec<&String> = self
            .pinned
            .keys()
            .filter(|name| !self.seen.contains(name))
            .collect();
        assert!(unseen.is_empty(), "pinned but not checked: {unseen:?}");
        assert!(
            self.failures.is_empty(),
            "{} of {} entries differ:\n{}",
            self.failures.len(),
            self.seen.len(),
            self.failures.join("\n")
        );
    }
}

fn params() -> ProblemParams {
    ProblemParams {
        k: 3,
        min_support: 7,
        user_threshold: 0.2,
        item_threshold: 0.35,
    }
}

fn specs() -> [ContextSpec; 3] {
    [
        ContextSpec::grouped(
            "ml-small",
            &[("user", "gender"), ("item", "genre")],
            5,
            SummarizerChoice::FrequencyNormalized,
        ),
        ContextSpec::grouped(
            "ml \"q\" \\ é😀\u{1}\n",
            &[("user", "occupation")],
            0,
            SummarizerChoice::Lda(LdaConfig {
                num_topics: 25,
                iterations: 150,
                burn_in: 50,
                alpha: 0.1,
                beta: 0.01,
                seed: u64::MAX,
            }),
        ),
        ContextSpec::installed("bin-30k"),
    ]
}

fn outcome(solver: SolverChoice, id: usize) -> SolverOutcome {
    let problem = problem(id, params());
    SolverOutcome {
        solver: solver.instantiate(&problem).name(),
        groups: (0..id).map(|g| g * 37 + id).collect(),
        objective: FLOATS[id % FLOATS.len()],
        feasible: id.is_multiple_of(2),
        elapsed: Duration::new(id as u64 - 1, 123_456_789 * (id as u32 % 3)),
        candidates_evaluated: 1561 * id as u64,
    }
}

fn engine_errors() -> Vec<EngineError> {
    vec![
        EngineError::UnknownDataset("ml-large".into()),
        EngineError::UnknownContext("bin-\u{7f}".into()),
        EngineError::InvalidGrouping("unknown attribute `user.shoe`".into()),
        EngineError::InvalidProblem("k_lo 4 exceeds k_hi 3".into()),
        EngineError::DeadlineExpiredInQueue {
            waited: Duration::from_micros(1_500),
        },
        EngineError::WorkerPanicked {
            payload: "index out of bounds: the len is 3 but the index is 7".into(),
        },
        EngineError::Overloaded { capacity: 64 },
        EngineError::Shutdown,
        EngineError::ShardUnavailable {
            shard: "shard-2".into(),
            detail: "breaker open\tretry later".into(),
        },
    ]
}

fn health(status: HealthStatus, seed: u64) -> HealthReport {
    HealthReport {
        status,
        workers_alive: 3 + seed,
        workers_configured: 4,
        jobs_submitted: 10_000 * seed,
        jobs_completed: 9_999 * seed,
        jobs_rejected: seed,
        queue_depth: 2 * seed,
        worker_restarts: seed / 2,
        connections_open: u64::MAX - seed,
        datasets: 1,
    }
}

fn dataset() -> Dataset {
    let mut builder = DatasetBuilder::movielens_style();
    let ann = builder
        .add_user([
            ("gender", "female"),
            ("age", "25-34"),
            ("occupation", "writer"),
            ("state", "ca"),
        ])
        .unwrap();
    let bo = builder
        .add_user([
            ("gender", "male"),
            ("age", "18-24"),
            ("occupation", "student"),
            ("state", "ny"),
        ])
        .unwrap();
    let amelie = builder
        .add_item([
            ("genre", "comedy"),
            ("actor", "Audrey Tautou"),
            ("director", "Jean-Pierre Jeunet"),
        ])
        .unwrap();
    let heat = builder
        .add_item([
            ("genre", "crime"),
            ("actor", "Al \"Scarface\" Pacino"),
            ("director", "Michael Mann"),
        ])
        .unwrap();
    builder
        .add_action_str(ann, amelie, &["whimsical", "paris", "café"], Some(4.5))
        .unwrap();
    builder
        .add_action_str(bo, heat, &["heist", "l.a.\\night"], None)
        .unwrap();
    builder
        .add_action_str(bo, amelie, &["paris"], Some(3.0))
        .unwrap();
    builder.build()
}

#[test]
fn wire_payloads_match_their_pinned_bytes() {
    let mut corpus = Corpus::load();

    let specs = specs();
    for id in 1..=6 {
        for (s, solver) in SOLVERS.into_iter().enumerate() {
            let tag = solver.tag();
            let request = SolveRequest {
                context: specs[(id + s) % specs.len()].clone(),
                problem: problem(id, params()),
                solver,
                deadline: (s % 2 == 1).then(|| Duration::new(s as u64, 500 * id as u32)),
            };
            corpus.frame(
                &format!("solve/p{id}/{tag}"),
                Frame::Solve(SolveFrame {
                    id: (id * 100 + s) as u64,
                    request,
                }),
            );
            let response = SolveResponse {
                job: JobId(u64::MAX - s as u64),
                result: Ok(outcome(solver, id)),
                cache: CacheReport {
                    context_hit: s.is_multiple_of(2),
                    outcome_hit: s.is_multiple_of(3),
                },
                deadline_hit: id == 6,
                queue_wait: Duration::from_nanos(id as u64 * 999),
                total: Duration::new(id as u64, 1),
            };
            corpus.frame(
                &format!("answer/p{id}/{tag}"),
                Frame::Answer(AnswerFrame {
                    id: (id * 100 + s) as u64,
                    response,
                }),
            );
        }
    }

    for (i, error) in engine_errors().into_iter().enumerate() {
        let response = SolveResponse::failed(
            JobId(i as u64),
            error,
            Duration::from_millis(i as u64),
            Duration::new(i as u64, 999_999_999),
        );
        corpus.frame(
            &format!("answer/error/{i}"),
            Frame::Answer(AnswerFrame {
                id: i as u64,
                response,
            }),
        );
    }

    for (i, status) in [
        HealthStatus::Ok,
        HealthStatus::Degraded,
        HealthStatus::Draining,
    ]
    .into_iter()
    .enumerate()
    {
        corpus.frame(
            &format!("health_report/{status:?}"),
            Frame::HealthReport(health(status, i as u64)),
        );
    }
    corpus.frame(
        "error/malformed",
        Frame::Error(WireError {
            code: tagdm_net::proto::code::MALFORMED,
            message: "decode payload: Error { message: \"expected `,` or `}` at byte 7\" }".into(),
        }),
    );
    corpus.frame(
        "go_away",
        Frame::GoAway(GoAwayFrame {
            reason: "server draining for shutdown".into(),
        }),
    );
    corpus.frame(
        "ping",
        Frame::Ping(PingFrame {
            nonce: 0,
            pad: "\u{0}\u{1f}\"\\/\u{8}\u{c}\r\t€𝄞".into(),
        }),
    );
    corpus.frame(
        "pong",
        Frame::Pong(PongFrame {
            nonce: u64::MAX,
            pad: String::new(),
        }),
    );
    assert_eq!(
        Frame::decode(kind::HEALTH, "").unwrap(),
        Frame::Health,
        "HEALTH has no payload"
    );

    let cluster = ClusterHealth {
        status: HealthStatus::Degraded,
        shards: vec![
            ShardHealth {
                name: "local-0".into(),
                kind: "local".into(),
                in_ring: true,
                breaker: BreakerState::Closed,
                report: Some(health(HealthStatus::Ok, 0)),
            },
            ShardHealth {
                name: "remote-1".into(),
                kind: "remote".into(),
                in_ring: true,
                breaker: BreakerState::Open,
                report: None,
            },
            ShardHealth {
                name: "remote-2".into(),
                kind: "remote".into(),
                in_ring: false,
                breaker: BreakerState::HalfOpen,
                report: Some(health(HealthStatus::Draining, 5)),
            },
        ],
    };
    corpus.value("cluster_health", &cluster);
    corpus.value(
        "cluster_health/empty",
        &ClusterHealth {
            status: HealthStatus::Ok,
            shards: Vec::new(),
        },
    );

    corpus.value("retry/default", &RetryPolicy::default());
    corpus.value("retry/none", &RetryPolicy::none());
    corpus.value(
        "retry/custom",
        &RetryPolicy::attempts(7).with_backoff(Backoff::new(
            Duration::from_nanos(1),
            Duration::new(u64::MAX, 999_999_999),
        )),
    );
    corpus.value("admission/reject", &AdmissionPolicy::Reject);
    corpus.value(
        "admission/block",
        &AdmissionPolicy::Block {
            timeout: Duration::from_millis(250),
        },
    );
    corpus.value("admission/shed_oldest", &AdmissionPolicy::ShedOldest);
    for state in [
        BreakerState::Closed,
        BreakerState::Open,
        BreakerState::HalfOpen,
    ] {
        corpus.value(&format!("breaker/{state:?}"), &state);
    }

    // A dataset has no `PartialEq`: it must read back to a dataset that writes the
    // same bytes and answers the same lookups.
    let dataset = dataset();
    let written = io::to_json(&dataset).unwrap();
    if let Some(pinned) = corpus.pinned("dataset", written) {
        let restored = io::from_json(&pinned).expect("dataset reads back");
        assert_eq!(io::to_json(&restored).unwrap(), pinned);
        assert_eq!(restored.actions, dataset.actions);
        assert_eq!(restored.tags.id("paris"), dataset.tags.id("paris"));
    }

    corpus.finish();
}
