//! One server round: start an in-process server over a fresh warehouse,
//! lay down the tenant's starting state, hand out client connections, and
//! afterwards shut down, measure the tenant directory and time recovery.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use eve_server::{Client, RequestBody, ResponseBody, Server, ServerConfig, Warehouse};
use eve_system::DurableEngine;

use crate::ops::Op;

pub const TENANT: &str = "bench";

/// Recovery time, in seconds, a round times at least (by reopening).
const RECOVERY_MIN_S: f64 = 1.0;

/// Where a run keeps its warehouses: inside the working directory, so the
/// benchmark reads and writes only within its checkout.
pub fn data_root(workload: crate::workload::Workload, seed: u64, traced: bool) -> PathBuf {
    PathBuf::from(".bench_data").join(format!(
        "{}-{seed}-{}-{}",
        workload.name(),
        u8::from(traced),
        std::process::id()
    ))
}

/// Set-up alone: start, lay down the starting state, shut down. Returns
/// the set-up time.
pub fn setup_only(root: &Path, setup: &[Op]) -> Result<f64, String> {
    let (live, conns) = start(root, setup, 1, &mut Tally::default())?;
    let setup_s = live.setup_s;
    live.finish(conns, false)?;
    Ok(setup_s)
}

/// Per-connection request accounting.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Tally {
    fn note(&mut self, reply: &Result<String, String>) {
        self.attempted += 1;
        if let Err(e) = reply {
            self.failed += 1;
            if self.errors.len() < 4 {
                self.errors.push(e.clone());
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 4 {
                self.errors.push(e);
            }
        }
    }
}

/// Sends one request inside a benchmark-owned span and returns its
/// latency in microseconds with the reply text (or why it failed: typed
/// errors, refusals and wire errors alike).
pub fn send(
    client: &mut Client,
    body: RequestBody,
    tally: &mut Tally,
) -> (f64, Result<String, String>) {
    let span = eve_trace::span("bench.request");
    let start = Instant::now();
    let reply = client.request(body);
    let us = start.elapsed().as_secs_f64() * 1e6;
    drop(span);
    let reply = match reply {
        Ok(ResponseBody::Output { text }) => Ok(text),
        Ok(ResponseBody::Err { code, detail }) => Err(format!("{code:?}: {detail}")),
        Ok(other) => Err(format!("unexpected response {other:?}")),
        Err(e) => Err(format!("wire: {e}")),
    };
    tally.note(&reply);
    (us, reply)
}

/// A running server with the tenant's starting state in place.
pub struct Live {
    pub server: Server,
    root: PathBuf,
    pub setup_s: f64,
    pub payload_bytes: u64,
}

/// What shutting down and reopening the tenant measured.
#[derive(Debug)]
pub struct Closed {
    pub disk_bytes: u64,
    /// One sample per reopen.
    pub recovery_s: Vec<f64>,
    pub replayed_records: u64,
}

/// Opens a warehouse at `root`, starts the server with its default
/// topology, connects `clients` sessions to the tenant and runs `setup`
/// through the first. Set-up time covers all of it.
pub fn start(
    root: &Path,
    setup: &[Op],
    clients: usize,
    tally: &mut Tally,
) -> Result<(Live, Vec<Client>), String> {
    std::fs::remove_dir_all(root).ok();
    let t = Instant::now();
    let warehouse = Warehouse::open(root).map_err(|e| format!("warehouse open: {e}"))?;
    let server = Server::start(Arc::new(warehouse), ServerConfig::default());
    let mut conns = Vec::with_capacity(clients);
    for _ in 0..clients {
        let mut c = server.connect().map_err(|e| format!("connect: {e}"))?;
        c.open_session(TENANT)
            .map_err(|e| format!("open_session: {e}"))?;
        conns.push(c);
    }
    let mut payload_bytes = 0;
    for op in setup {
        payload_bytes += op.payload_bytes();
        let (_, reply) = send(&mut conns[0], op.body(), tally);
        reply.map_err(|e| format!("set-up request failed: {e}"))?;
    }
    let setup_s = t.elapsed().as_secs_f64();
    Ok((
        Live {
            server,
            root: root.to_owned(),
            setup_s,
            payload_bytes,
        },
        conns,
    ))
}

impl Live {
    pub fn tenant(&self) -> Arc<eve_server::warehouse::Tenant> {
        self.server
            .warehouse()
            .existing(TENANT)
            .expect("the tenant was opened at set-up")
    }

    /// Shuts the server down (releasing the tenant's store) and sums the
    /// tenant directory's bytes. With `recover`, also times
    /// `DurableEngine::open` on it; the recovered engine must be
    /// byte-identical to the one that shut down.
    pub fn finish(self, clients: Vec<Client>, recover: bool) -> Result<Closed, String> {
        let fingerprint = self.tenant().fingerprint();
        drop(clients);
        let dir = self.root.join(TENANT);
        self.server.shutdown();
        let mut closed = Closed {
            disk_bytes: dir_bytes(&dir),
            recovery_s: Vec::new(),
            replayed_records: 0,
        };
        // Short logs recover in a fraction of a second; reopen until a
        // second has been timed, so each round's samples are not one
        // scheduling hiccup.
        let mut timed = 0.0;
        while recover && timed < RECOVERY_MIN_S {
            let span = eve_trace::span("bench.recovery");
            let t = Instant::now();
            let (engine, report) =
                DurableEngine::open(&dir).map_err(|e| format!("recovery: {e}"))?;
            let took = t.elapsed().as_secs_f64();
            drop(span);
            timed += took;
            closed.recovery_s.push(took);
            closed.replayed_records = report.replayed_records;
            if engine.engine().snapshot_state().to_bytes() != fingerprint {
                return Err(
                    "the reopened tenant's fingerprint differs from the one before shutdown".into(),
                );
            }
        }
        std::fs::remove_dir_all(&self.root).ok();
        Ok(closed)
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
