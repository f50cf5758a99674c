//! The transport's own counters, owned by each [`Server`](crate::Server).

use tagdm_engine::metrics::Counter;

/// Live connection, frame and fault counters of one server, stamped by its acceptor
/// and connection threads. Read them through [`Server::metrics`](crate::Server::metrics);
/// the engine's counters stay on [`Engine::metrics`](tagdm_engine::Engine::metrics).
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// TCP connections accepted.
    pub connections_opened: Counter,
    /// Connections closed, whatever the reason (client EOF, protocol fault, deadline
    /// cut, draining shutdown).
    pub connections_closed: Counter,
    /// Request frames decoded successfully.
    pub frames_received: Counter,
    /// Response frames written successfully.
    pub frames_sent: Counter,
    /// Connections ended by a protocol fault: bad magic, version, kind or length, or
    /// a malformed payload. Deadline cuts, socket errors and injected faults are not
    /// protocol faults.
    pub frame_errors: Counter,
    /// Connections cut because a read or write deadline fired (slow or stalled peer).
    pub deadline_disconnects: Counter,
    /// `GoAway` frames sent while draining for shutdown.
    pub goaways_sent: Counter,
    /// Connection handlers that panicked; the panic was isolated to that connection.
    pub conn_panics: Counter,
    /// Acceptor threads respawned by the supervision guard.
    pub acceptor_restarts: Counter,
}

impl ServerMetrics {
    /// Connections open right now (opened minus closed).
    pub fn connections_open(&self) -> u64 {
        let closed = self.connections_closed.get();
        self.connections_opened.get().saturating_sub(closed)
    }

    /// Plain-text report, e.g. for `examples/net_service.rs`.
    pub fn render(&self) -> String {
        format!(
            "transport metrics\n  conns     opened={} closed={} frames={}rx/{}tx errors={} deadline_cuts={}\n  faults    goaways={} conn_panics={} acceptor_restarts={}\n",
            self.connections_opened.get(),
            self.connections_closed.get(),
            self.frames_received.get(),
            self.frames_sent.get(),
            self.frame_errors.get(),
            self.deadline_disconnects.get(),
            self.goaways_sent.get(),
            self.conn_panics.get(),
            self.acceptor_restarts.get(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_reports_every_counter() {
        let metrics = ServerMetrics::default();
        metrics.connections_opened.inc();
        metrics.connections_opened.inc();
        metrics.connections_closed.inc();
        metrics.frame_errors.inc();
        metrics.acceptor_restarts.inc();
        assert_eq!(metrics.connections_open(), 1);
        let report = metrics.render();
        assert!(report.contains("opened=2 closed=1"));
        assert!(report.contains("errors=1"));
        assert!(report.contains("acceptor_restarts=1"));
    }
}
