//! The program under test, started the way each workload deploys it. Everything in
//! [`System::start`] counts as set-up time.

use std::sync::Arc;

use tagdm_cluster::{Cluster, ClusterConfig};
use tagdm_engine::{ContextSpec, Engine, EngineConfig, SolveRequest, SolveResponse};
use tagdm_net::{Client, ClientConfig, Server, ServerConfig};

use crate::inputs::{Inputs, Kind, MINE_OUTCOME_CACHE, SHARDS};

/// A started deployment. Fields drop in order: the cluster's connections close
/// before the servers drain, and the servers stop before their engines.
pub struct System {
    pub cluster: Option<Cluster>,
    pub servers: Vec<Server>,
    /// Every engine: the in-process one, or one per shard in [`SHARDS`] order.
    pub engines: Vec<Arc<Engine>>,
}

impl System {
    /// Start engines (and servers and the cluster), register the datasets, build the
    /// warm contexts and prime the outcome caches.
    pub fn start(inputs: &Inputs) -> Result<System, String> {
        let system = match inputs.kind {
            Kind::MineExact | Kind::MineHeuristic => {
                let config = EngineConfig {
                    outcome_cache: MINE_OUTCOME_CACHE,
                    ..EngineConfig::default().with_workers(1)
                };
                System::in_process(inputs, config)?
            }
            Kind::ContextChurn => {
                System::in_process(inputs, EngineConfig::default().with_workers(1))?
            }
            Kind::ServeHits => System::served(inputs)?,
        };
        Ok(system)
    }

    fn in_process(inputs: &Inputs, config: EngineConfig) -> Result<System, String> {
        let engine = Arc::new(Engine::new(config));
        for (name, dataset) in &inputs.datasets {
            engine.register_dataset(name.clone(), dataset.clone());
        }
        for spec in &inputs.warm {
            engine
                .context(spec)
                .map_err(|e| format!("warm context build failed: {e}"))?;
        }
        Ok(System {
            cluster: None,
            servers: Vec::new(),
            engines: vec![engine],
        })
    }

    /// Two loopback servers, each fronting a one-worker engine, behind a cluster of
    /// remote shards; every pool request is solved once so the traffic only hits.
    fn served(inputs: &Inputs) -> Result<System, String> {
        let mut engines = Vec::new();
        let mut servers = Vec::new();
        let mut builder = Cluster::builder(ClusterConfig::default());
        for name in SHARDS {
            let engine = Arc::new(Engine::new(EngineConfig::default().with_workers(1)));
            for (dataset_name, dataset) in &inputs.datasets {
                engine.register_dataset(dataset_name.clone(), dataset.clone());
            }
            let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), ServerConfig::default())
                .map_err(|e| format!("bind {name}: {e}"))?;
            let client = Client::connect(server.local_addr(), ClientConfig::default())
                .map_err(|e| format!("connect {name}: {e}"))?;
            builder = builder.remote(name, client);
            engines.push(engine);
            servers.push(server);
        }
        let cluster = builder.build();
        for request in &inputs.pool {
            cluster
                .solve(request.clone())
                .result
                .map_err(|e| format!("priming: {e}"))?;
        }
        Ok(System {
            cluster: Some(cluster),
            servers,
            engines,
        })
    }

    /// Send one request the way the workload's client does.
    pub fn solve(&self, request: SolveRequest) -> SolveResponse {
        match &self.cluster {
            Some(cluster) => cluster.solve(request),
            None => self.engines[0].solve(request),
        }
    }

    /// The layer a client calls into.
    pub fn entry_layer(&self) -> &'static str {
        if self.cluster.is_some() {
            "cluster"
        } else {
            "engine"
        }
    }

    /// The engine that owns `spec`'s context.
    pub fn owner(&self, spec: &ContextSpec) -> usize {
        match &self.cluster {
            Some(cluster) => cluster
                .shard_for(&spec.key())
                .and_then(|name| SHARDS.iter().position(|s| *s == name))
                .expect("every spec routes to a shard"),
            None => 0,
        }
    }
}
