//! The TCP front door: a blocking accept loop and thread-per-connection
//! frame handlers that submit straight into the shared [`Served`] queue.
//!
//! ```text
//!   TcpListener ──▶ connection threads ──▶ Served::submit (per-tenant
//!       (accept)      (read_frame/decode)    fair lanes + quota, bounded
//!                          │                 queue, coalesce)
//!                          ▼
//!                    Ticket::wait ──▶ encode_response → write_frame
//! ```
//!
//! No async runtime anywhere: the accept loop and every connection are
//! plain blocking threads. An idle read polls with a short timeout so
//! shutdown is never stuck behind an idle socket; a frame that has
//! started arrives under the longer [`FRAME_DEADLINE`](crate::wire::FRAME_DEADLINE),
//! so a slow peer that pauses mid-frame is waited for.
//!
//! The transport inherits the serving layer's bitwise contract whole: a
//! response read off the socket is `to_bits`-identical to the same
//! request issued through in-process [`Served::serve`], including
//! across mid-traffic engine swaps/refreshes, because tensors travel as
//! raw bit patterns and the socket layer never touches the values.
//! A client that disconnects mid-flight can never wedge a worker: the
//! connection thread is the only thing waiting on its tickets, decode
//! states are checked back in by the `Served` workers regardless, and a
//! dead peer just makes the final `write_frame` fail (ignored).

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use gqa_served::{DecodeSession, HistogramSnapshot, Request, Served, ServedError, Ticket};
use gqa_tensor::Tensor;

use crate::wire::{
    decode_request, encode_response, read_frame, write_frame, FrameRead, RemoteError, RequestFrame,
    ResponseFrame, PROTOCOL_VERSION,
};

/// Network front-door configuration. Admission policy (per-tenant
/// quota, batching deadline) lives in the fronted server's
/// [`gqa_served::BatchConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Idle read-poll timeout on connection sockets: how long a
    /// connection waits for the first byte of a frame before checking
    /// the shutdown flag. Shutdown latency is bounded by this; it never
    /// drops data (the poll peeks before it reads).
    pub read_timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            read_timeout: Duration::from_millis(25),
        }
    }
}

/// Point-in-time network-layer counters (the serving counters live in
/// [`Served::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted since start.
    pub connections: u64,
    /// Socket requests (inferences and decode steps) rejected by the
    /// per-tenant admission quota.
    pub quota_rejections: u64,
    /// Malformed/unspeakable frames received (each closed its
    /// connection after a typed error reply).
    pub protocol_errors: u64,
}

struct Shared {
    served: Served,
    shutdown: AtomicBool,
    read_timeout: Duration,
    connections: AtomicU64,
    quota_rejections: AtomicU64,
    protocol_errors: AtomicU64,
}

/// The running TCP front door. Owns the [`Served`] front-end it fronts;
/// dropping the server stops accepting, shuts the front-end down (every
/// in-flight request resolves), joins every connection thread, then
/// drops the front-end.
pub struct NetServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral loopback port) and
    /// starts the accept loop over `served`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn spawn(
        served: Served,
        addr: impl ToSocketAddrs,
        cfg: NetConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            served,
            shutdown: AtomicBool::new(false),
            read_timeout: cfg.read_timeout,
            connections: AtomicU64::new(0),
            quota_rejections: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
        });
        let conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("gqa-net-accept".into())
                .spawn(move || accept_loop(&shared, &listener, &conns))
                .expect("spawn accept")
        };
        Ok(Self {
            shared,
            addr,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound socket address (the real port when bound with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The fronted serving front-end — control plane for engine swaps
    /// and refreshes under live socket traffic.
    #[must_use]
    pub fn served(&self) -> &Served {
        &self.shared.served
    }

    /// Network-layer counters.
    #[must_use]
    pub fn stats(&self) -> NetStats {
        NetStats {
            connections: self.shared.connections.load(Ordering::Relaxed),
            quota_rejections: self.shared.quota_rejections.load(Ordering::Relaxed),
            protocol_errors: self.shared.protocol_errors.load(Ordering::Relaxed),
        }
    }

    /// Admission-wait snapshot (ticks) for one tenant: the fronted
    /// server's [`Served::queue_wait`], covering the fair-lane delay and
    /// the coalescer deadline, separate from the service-time histograms.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is outside the tenant space.
    #[must_use]
    pub fn admission_wait(&self, tenant: usize) -> HistogramSnapshot {
        self.shared.served.queue_wait(tenant)
    }

    /// The full Prometheus text export — the same body the `Stats`
    /// wire frame returns, callable in-process (the soak binary's
    /// export loop and the CI smoke both scrape this).
    #[must_use]
    pub fn prometheus(&self) -> String {
        render_report(&self.shared)
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Shut the front-end down BEFORE joining connection threads:
        // any handler blocked in `Ticket::wait` is guaranteed a
        // resolution (executed by a draining worker, or failed typed)
        // and any later submit is refused typed, so the joins below
        // cannot deadlock on a parked request.
        self.shared.served.shutdown();
        let handles = std::mem::take(&mut *self.conns.lock().expect("conns lock"));
        for h in handles {
            let _ = h.join();
        }
        // `self.shared.served` drops with the last Arc (here), draining
        // the coalescer queue per Served's own Drop contract.
    }
}

fn accept_loop(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    conns: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let Ok(stream) = stream else { continue };
        shared.connections.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("gqa-net-conn".into())
            .spawn(move || connection_loop(&shared, &stream))
            .expect("spawn connection thread");
        let mut conns = conns.lock().expect("conns lock");
        // Join the connection threads that have exited, so the server
        // holds one handle per open connection rather than one per
        // connection it ever accepted. A panicked thread's error is
        // ignored, as in `Drop`: the panic hook has already reported it,
        // and the other connections keep being served.
        for exited in conns.extract_if(.., |h| h.is_finished()) {
            let _ = exited.join();
        }
        conns.push(handle);
    }
}

/// One connection: lockstep read-frame → handle → write-frame. Returns
/// (closing the socket) on clean EOF, peer death, protocol error, or
/// server shutdown.
fn connection_loop(shared: &Arc<Shared>, stream: &TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.read_timeout));
    let _ = stream.set_nodelay(true);
    // Connection-scoped decode sessions: dropped (with this frame's
    // stack) when the connection ends, which releases their KV state.
    let mut sessions: Vec<DecodeSession> = Vec::new();
    loop {
        // Poll for the next frame without consuming: a timeout here is
        // "no traffic", never "half a frame lost".
        let mut probe = [0u8; 1];
        match stream.peek(&mut probe) {
            Ok(0) => return, // clean EOF
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        let mut reader: &TcpStream = stream;
        let payload = match read_frame(&mut reader) {
            Ok(FrameRead::Frame(p)) => p,
            Ok(FrameRead::Eof) => return,
            Ok(FrameRead::Oversized(e)) => {
                // The stream is unsynchronized past a hostile length
                // prefix: answer typed, then drop the connection.
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                respond(
                    stream,
                    &ResponseFrame::Error(RemoteError::Protocol(e.to_string())),
                );
                return;
            }
            // Abrupt disconnect (EOF mid-frame) or a peer too slow to
            // finish a frame within the frame deadline.
            Err(_) => return,
        };
        let response = match decode_request(&payload) {
            Ok(frame) => handle_frame(shared, frame, &mut sessions),
            Err(e) => {
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                respond(
                    stream,
                    &ResponseFrame::Error(RemoteError::Protocol(e.to_string())),
                );
                return;
            }
        };
        if !respond(stream, &response) {
            return;
        }
    }
}

/// Writes one response; `false` means the peer is gone (ignore and
/// close — the mid-flight-disconnect contract).
fn respond(stream: &TcpStream, frame: &ResponseFrame) -> bool {
    let mut writer: &TcpStream = stream;
    write_frame(&mut writer, &encode_response(frame)).is_ok()
}

fn handle_frame(
    shared: &Arc<Shared>,
    frame: RequestFrame,
    sessions: &mut Vec<DecodeSession>,
) -> ResponseFrame {
    match frame {
        RequestFrame::Hello { client: _ } => ResponseFrame::HelloOk {
            version: PROTOCOL_VERSION,
            models: shared.served.model_count() as u64,
            tenants: shared.served.tenant_count() as u64,
        },
        RequestFrame::Infer {
            tenant,
            model,
            input,
        } => {
            let Ok(tenant_ix) = usize::try_from(tenant) else {
                return ResponseFrame::Error(RemoteError::UnknownTenant(tenant));
            };
            let Ok(model_ix) = usize::try_from(model) else {
                return ResponseFrame::Error(RemoteError::UnknownModel(model));
            };
            let request = Request {
                tenant: tenant_ix,
                model: model_ix,
                input,
            };
            reply(shared, shared.served.submit(request).and_then(Ticket::wait))
        }
        RequestFrame::DecodeOpen { tenant, model } => {
            let Ok(tenant_ix) = usize::try_from(tenant) else {
                return ResponseFrame::Error(RemoteError::UnknownTenant(tenant));
            };
            let Ok(model_ix) = usize::try_from(model) else {
                return ResponseFrame::Error(RemoteError::UnknownModel(model));
            };
            match shared.served.open_decode(tenant_ix, model_ix) {
                Ok(session) => {
                    sessions.push(session);
                    ResponseFrame::DecodeOpened {
                        session: (sessions.len() - 1) as u64,
                    }
                }
                Err(e) => ResponseFrame::Error(RemoteError::from(&e)),
            }
        }
        RequestFrame::DecodeStep { session, input } => {
            let Some(s) = usize::try_from(session).ok().and_then(|i| sessions.get(i)) else {
                return ResponseFrame::Error(RemoteError::UnknownSession(session));
            };
            reply(shared, s.step(input).and_then(Ticket::wait))
        }
        RequestFrame::Stats => ResponseFrame::StatsText {
            text: render_report(shared),
        },
    }
}

/// The reply to an `Infer` or `DecodeStep`: the output row, or the
/// typed refusal (counting quota rejections).
fn reply(shared: &Shared, result: Result<Tensor, ServedError>) -> ResponseFrame {
    match result {
        Ok(output) => ResponseFrame::Output { output },
        Err(e) => {
            if matches!(e, ServedError::QuotaExceeded { .. }) {
                shared.quota_rejections.fetch_add(1, Ordering::Relaxed);
            }
            ResponseFrame::Error(RemoteError::from(&e))
        }
    }
}

/// Renders the full Prometheus text export: serving + engine + network
/// counters as gauges, then the per-tenant service-latency and
/// queue-wait histogram series (via
/// [`HistogramSnapshot::render_prometheus`]).
fn render_report(shared: &Shared) -> String {
    let mut out = String::new();
    let stats = shared.served.stats();
    let mut gauge = |name: &str, v: u64| {
        out.push_str(&format!("{name} {v}\n"));
    };
    gauge("gqa_served_submitted_total", stats.submitted);
    gauge("gqa_served_completed_total", stats.completed);
    gauge("gqa_served_rejected_total", stats.rejected);
    gauge("gqa_served_batches_total", stats.batches);
    gauge("gqa_served_batched_rows_total", stats.batched_rows);
    gauge("gqa_served_queue_depth", stats.depth as u64);
    gauge("gqa_engine_ops", stats.engine.ops as u64);
    gauge("gqa_engine_sessions_total", stats.engine.sessions);
    gauge("gqa_engine_swaps_total", stats.engine.swaps);
    gauge("gqa_engine_refreshes_total", stats.engine.refreshes);
    gauge("gqa_engine_shard_reloads_total", stats.engine.shard_reloads);
    gauge("gqa_engine_shard_errors_total", stats.engine.shard_errors);
    gauge(
        "gqa_net_connections_total",
        shared.connections.load(Ordering::Relaxed),
    );
    gauge(
        "gqa_net_quota_rejections_total",
        shared.quota_rejections.load(Ordering::Relaxed),
    );
    gauge(
        "gqa_net_protocol_errors_total",
        shared.protocol_errors.load(Ordering::Relaxed),
    );
    for tenant in 0..shared.served.tenant_count() {
        let label = tenant.to_string();
        out.push_str(
            &shared
                .served
                .tenant_latency(tenant)
                .render_prometheus("gqa_served_latency_ns", &[("tenant", &label)]),
        );
        out.push_str(
            &shared
                .served
                .queue_wait(tenant)
                .render_prometheus("gqa_served_queue_wait_ticks", &[("tenant", &label)]),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    use gqa_serve::{EngineBuilder, OperatorPlan};
    use gqa_served::{ModelSpec, ServedBuilder};

    /// The front-door types cross thread boundaries by design.
    #[test]
    fn net_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetServer>();
        assert_send_sync::<NetConfig>();
        assert_send_sync::<NetStats>();
    }

    /// A long-lived server keeps no handle for a connection that has
    /// closed: each accept joins the exited connection threads first.
    #[test]
    fn accept_joins_exited_connection_threads() {
        let served = ServedBuilder::new(EngineBuilder::new(OperatorPlan::new()).build().unwrap())
            .with_model(ModelSpec::new("id", &[1], |_, x| x))
            .build();
        let server = NetServer::spawn(served, "127.0.0.1:0", NetConfig::default()).unwrap();
        // The accept loop has taken `accepted` connections and every
        // tracked connection thread has exited.
        let settled = |accepted| {
            let conns = server.conns.lock().unwrap();
            server.stats().connections == accepted
                && !conns.is_empty()
                && conns.iter().all(std::thread::JoinHandle::is_finished)
        };
        for accepted in 1..=32 {
            drop(TcpStream::connect(server.addr()).unwrap());
            while !settled(accepted) {
                std::thread::yield_now();
            }
        }
        // The last connection's handle, plus at most one more whose
        // thread had not yet exited when the last accept ran.
        let held = server.conns.lock().unwrap().len();
        assert!(held <= 2, "{held} connection handles held after 32 closed");
    }
}
