//! The request/response protocol carried inside wire frames, encoded with
//! the store's canonical codec — the same [`eve_store::Codec`] machinery
//! that serializes log records and snapshots, so a statement travelling
//! to the server and an evolution op landing in a `seg-*.evl` segment
//! share one encoding discipline (and one corruption story: every decode
//! failure is a typed error, never a panic).

use eve_store::{from_bytes, to_bytes, vec_decode, vec_encode, Codec, Dec, Enc};
use eve_sync::EvolutionOp;

use crate::{Error, Result, TenantStats};

/// One client request: the session it belongs to plus the operation.
/// Session 0 is the "no session yet" id used by
/// [`RequestBody::OpenSession`].
#[derive(Debug)]
pub struct Request {
    /// Session id (0 until a session is opened).
    pub session: u64,
    /// The operation.
    pub body: RequestBody,
}

/// The operations a client can request.
#[derive(Debug)]
pub enum RequestBody {
    /// Open a session bound to `tenant`, creating the tenant's warehouse
    /// on first use. Answered with [`ResponseBody::SessionOpened`].
    OpenSession {
        /// Tenant name (one durable store directory per tenant).
        tenant: String,
    },
    /// Re-attach to an existing session (e.g. after a client reconnect):
    /// answers with the tenant the session is bound to.
    Attach,
    /// Close the request's session.
    CloseSession,
    /// Execute one shell statement (E-SQL view definitions, updates,
    /// schema changes, …) against the session's tenant. Mutating
    /// statements are serialized per tenant and subject to admission
    /// control.
    Statement {
        /// The statement line, in shell syntax.
        esql: String,
    },
    /// Apply a batch of evolution ops — the same payload a log record
    /// carries — against the session's tenant.
    Apply {
        /// The batch.
        ops: Vec<EvolutionOp>,
    },
    /// Evaluate a view and return its extent.
    Query {
        /// View name.
        view: String,
    },
    /// The tenant's admission/budget counters.
    Stats,
    /// Zero the tenant's budget usage and drain its deferred-mutation
    /// queue (applying the queued work, in arrival order).
    ResetBudget,
    /// A full metrics image: the process-global registry merged with the
    /// session tenant's engine telemetry and the server's own request
    /// latency histograms. Answered with [`ResponseBody::Metrics`].
    Metrics,
}

/// One server response, echoing the session it answers.
#[derive(Debug)]
pub struct Response {
    /// The session the response belongs to.
    pub session: u64,
    /// The payload.
    pub body: ResponseBody,
}

/// Response payloads.
#[derive(Debug)]
pub enum ResponseBody {
    /// A session was opened.
    SessionOpened {
        /// The new session id (never 0).
        session: u64,
    },
    /// [`RequestBody::Attach`] answer: the session's tenant.
    Attached {
        /// Tenant name.
        tenant: String,
    },
    /// The session was closed.
    Closed,
    /// A statement, query or apply completed; the display text.
    Output {
        /// Human-readable result (shell output or view extent).
        text: String,
    },
    /// The mutation was admitted into the tenant's deferred queue
    /// (admission policy [`crate::AdmissionPolicy::Queue`], budget
    /// spent); it will apply on the next budget reset.
    Queued {
        /// Position in the deferred queue (0 = next to drain).
        position: u64,
    },
    /// [`RequestBody::Stats`] answer: the tenant's admission and
    /// columnar-layer counters.
    Stats(TenantStats),
    /// [`RequestBody::ResetBudget`] answer.
    BudgetReset {
        /// Deferred mutations drained and applied by the reset.
        drained: u64,
    },
    /// [`RequestBody::Metrics`] answer: the merged metrics image.
    Metrics {
        /// Counters, gauges and histograms at the time of the request.
        snapshot: eve_trace::MetricsSnapshot,
    },
    /// The request failed; `code` is machine-matchable, `detail` human-
    /// readable.
    Err {
        /// The error class.
        code: ErrorCode,
        /// Explanation.
        detail: String,
    },
}

/// Machine-readable error classes carried in [`ResponseBody::Err`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Admission control rejected the mutation: budget spent.
    BudgetExceeded,
    /// The deferred queue is at capacity.
    QueueFull,
    /// The tenant's store is locked by another handle.
    Busy,
    /// The tenant's durable host is poisoned; checkpoint to heal.
    Poisoned,
    /// The server is shutting down.
    Shutdown,
    /// Unknown tenant.
    UnknownTenant,
    /// Unknown or closed session.
    UnknownSession,
    /// The request frame or payload was malformed.
    Malformed,
    /// Any other engine/store failure.
    Engine,
}

impl ErrorCode {
    /// Maps a server error to its wire code.
    #[must_use]
    pub fn of(err: &Error) -> ErrorCode {
        match err {
            Error::BudgetExceeded { .. } => ErrorCode::BudgetExceeded,
            Error::QueueFull { .. } => ErrorCode::QueueFull,
            Error::Busy { .. } => ErrorCode::Busy,
            Error::Poisoned { .. } => ErrorCode::Poisoned,
            Error::Shutdown { .. } => ErrorCode::Shutdown,
            Error::UnknownTenant { .. } => ErrorCode::UnknownTenant,
            Error::UnknownSession { .. } => ErrorCode::UnknownSession,
            Error::Frame { .. } | Error::Protocol { .. } => ErrorCode::Malformed,
            Error::Engine { .. } => ErrorCode::Engine,
        }
    }
}

impl Response {
    /// The error response for `err`, echoing `session`.
    #[must_use]
    pub fn error(session: u64, err: &Error) -> Response {
        Response {
            session,
            body: ResponseBody::Err {
                code: ErrorCode::of(err),
                detail: err.to_string(),
            },
        }
    }
}

/// Field order is the wire layout: ten little-endian `u64`s.
impl Codec for TenantStats {
    fn encode(&self, enc: &mut Enc) {
        enc.u64(self.candidates_used);
        enc.u64(self.io_used);
        enc.u64(self.candidate_budget);
        enc.u64(self.io_budget);
        enc.u64(self.queued);
        enc.u64(self.columnar_extents);
        enc.u64(self.index_hits);
        enc.u64(self.interned_symbols);
        enc.u64(self.exec_parallelism);
        enc.u64(self.exec_morsels);
    }

    fn decode(dec: &mut Dec<'_>) -> eve_store::Result<TenantStats> {
        Ok(TenantStats {
            candidates_used: dec.u64()?,
            io_used: dec.u64()?,
            candidate_budget: dec.u64()?,
            io_budget: dec.u64()?,
            queued: dec.u64()?,
            columnar_extents: dec.u64()?,
            index_hits: dec.u64()?,
            interned_symbols: dec.u64()?,
            exec_parallelism: dec.u64()?,
            exec_morsels: dec.u64()?,
        })
    }
}

impl Codec for ErrorCode {
    fn encode(&self, enc: &mut Enc) {
        enc.u8(match self {
            ErrorCode::BudgetExceeded => 0,
            ErrorCode::QueueFull => 1,
            ErrorCode::Busy => 2,
            ErrorCode::Poisoned => 3,
            ErrorCode::Shutdown => 4,
            ErrorCode::UnknownTenant => 5,
            ErrorCode::UnknownSession => 6,
            ErrorCode::Malformed => 7,
            ErrorCode::Engine => 8,
        });
    }

    fn decode(dec: &mut Dec<'_>) -> eve_store::Result<ErrorCode> {
        Ok(match dec.u8()? {
            0 => ErrorCode::BudgetExceeded,
            1 => ErrorCode::QueueFull,
            2 => ErrorCode::Busy,
            3 => ErrorCode::Poisoned,
            4 => ErrorCode::Shutdown,
            5 => ErrorCode::UnknownTenant,
            6 => ErrorCode::UnknownSession,
            7 => ErrorCode::Malformed,
            8 => ErrorCode::Engine,
            other => {
                return Err(eve_store::Error::corrupt(format!(
                    "invalid ErrorCode tag {other}"
                )))
            }
        })
    }
}

impl Codec for RequestBody {
    fn encode(&self, enc: &mut Enc) {
        match self {
            RequestBody::OpenSession { tenant } => {
                enc.u8(0);
                enc.str(tenant);
            }
            RequestBody::Attach => enc.u8(1),
            RequestBody::CloseSession => enc.u8(2),
            RequestBody::Statement { esql } => {
                enc.u8(3);
                enc.str(esql);
            }
            RequestBody::Apply { ops } => {
                enc.u8(4);
                vec_encode(ops, enc);
            }
            RequestBody::Query { view } => {
                enc.u8(5);
                enc.str(view);
            }
            RequestBody::Stats => enc.u8(6),
            RequestBody::ResetBudget => enc.u8(7),
            RequestBody::Metrics => enc.u8(8),
        }
    }

    fn decode(dec: &mut Dec<'_>) -> eve_store::Result<RequestBody> {
        Ok(match dec.u8()? {
            0 => RequestBody::OpenSession { tenant: dec.str()? },
            1 => RequestBody::Attach,
            2 => RequestBody::CloseSession,
            3 => RequestBody::Statement { esql: dec.str()? },
            4 => RequestBody::Apply {
                ops: vec_decode(dec)?,
            },
            5 => RequestBody::Query { view: dec.str()? },
            6 => RequestBody::Stats,
            7 => RequestBody::ResetBudget,
            8 => RequestBody::Metrics,
            other => {
                return Err(eve_store::Error::corrupt(format!(
                    "invalid RequestBody tag {other}"
                )))
            }
        })
    }
}

impl Codec for Request {
    fn encode(&self, enc: &mut Enc) {
        enc.u64(self.session);
        self.body.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> eve_store::Result<Request> {
        Ok(Request {
            session: dec.u64()?,
            body: RequestBody::decode(dec)?,
        })
    }
}

impl Codec for ResponseBody {
    fn encode(&self, enc: &mut Enc) {
        match self {
            ResponseBody::SessionOpened { session } => {
                enc.u8(0);
                enc.u64(*session);
            }
            ResponseBody::Attached { tenant } => {
                enc.u8(1);
                enc.str(tenant);
            }
            ResponseBody::Closed => enc.u8(2),
            ResponseBody::Output { text } => {
                enc.u8(3);
                enc.str(text);
            }
            ResponseBody::Queued { position } => {
                enc.u8(4);
                enc.u64(*position);
            }
            ResponseBody::Stats(stats) => {
                enc.u8(5);
                stats.encode(enc);
            }
            ResponseBody::BudgetReset { drained } => {
                enc.u8(6);
                enc.u64(*drained);
            }
            ResponseBody::Err { code, detail } => {
                enc.u8(7);
                code.encode(enc);
                enc.str(detail);
            }
            ResponseBody::Metrics { snapshot } => {
                enc.u8(8);
                encode_snapshot(snapshot, enc);
            }
        }
    }

    fn decode(dec: &mut Dec<'_>) -> eve_store::Result<ResponseBody> {
        Ok(match dec.u8()? {
            0 => ResponseBody::SessionOpened {
                session: dec.u64()?,
            },
            1 => ResponseBody::Attached { tenant: dec.str()? },
            2 => ResponseBody::Closed,
            3 => ResponseBody::Output { text: dec.str()? },
            4 => ResponseBody::Queued {
                position: dec.u64()?,
            },
            5 => ResponseBody::Stats(TenantStats::decode(dec)?),
            6 => ResponseBody::BudgetReset {
                drained: dec.u64()?,
            },
            7 => ResponseBody::Err {
                code: ErrorCode::decode(dec)?,
                detail: dec.str()?,
            },
            8 => ResponseBody::Metrics {
                snapshot: decode_snapshot(dec)?,
            },
            other => {
                return Err(eve_store::Error::corrupt(format!(
                    "invalid ResponseBody tag {other}"
                )))
            }
        })
    }
}

/// Wire layout for a [`eve_trace::MetricsSnapshot`]: three length-
/// prefixed name→value tables (counters, gauges, histograms), the
/// histogram buckets written in full so merged quantiles survive the
/// round-trip exactly. `MetricsSnapshot` lives in `eve-trace`, which
/// stays codec-free by design, so the encoding lives here with the rest
/// of the protocol.
fn encode_snapshot(snapshot: &eve_trace::MetricsSnapshot, enc: &mut Enc) {
    enc.usize(snapshot.counters.len());
    for (name, v) in &snapshot.counters {
        enc.str(name);
        enc.u64(*v);
    }
    enc.usize(snapshot.gauges.len());
    for (name, v) in &snapshot.gauges {
        enc.str(name);
        enc.i64(*v);
    }
    enc.usize(snapshot.histograms.len());
    for (name, h) in &snapshot.histograms {
        enc.str(name);
        enc.u64(h.sum);
        for b in &h.buckets {
            enc.u64(*b);
        }
    }
}

fn decode_snapshot(dec: &mut Dec<'_>) -> eve_store::Result<eve_trace::MetricsSnapshot> {
    let mut snapshot = eve_trace::MetricsSnapshot::default();
    for _ in 0..dec.len()? {
        let name = dec.str()?;
        snapshot.counters.insert(name, dec.u64()?);
    }
    for _ in 0..dec.len()? {
        let name = dec.str()?;
        snapshot.gauges.insert(name, dec.i64()?);
    }
    for _ in 0..dec.len()? {
        let name = dec.str()?;
        let mut h = eve_trace::HistogramSnapshot {
            sum: dec.u64()?,
            ..eve_trace::HistogramSnapshot::default()
        };
        for b in &mut h.buckets {
            *b = dec.u64()?;
        }
        snapshot.histograms.insert(name, h);
    }
    Ok(snapshot)
}

impl Codec for Response {
    fn encode(&self, enc: &mut Enc) {
        enc.u64(self.session);
        self.body.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> eve_store::Result<Response> {
        Ok(Response {
            session: dec.u64()?,
            body: ResponseBody::decode(dec)?,
        })
    }
}

/// Encodes a request as a frame payload.
#[must_use]
pub fn encode_request(req: &Request) -> Vec<u8> {
    to_bytes(req)
}

/// Decodes a request frame payload.
///
/// # Errors
///
/// [`Error::Protocol`] on any malformed payload.
pub fn decode_request(bytes: &[u8]) -> Result<Request> {
    from_bytes(bytes).map_err(|e| Error::protocol(e.to_string()))
}

/// Encodes a response as a frame payload.
#[must_use]
pub fn encode_response(resp: &Response) -> Vec<u8> {
    to_bytes(resp)
}

/// Decodes a response frame payload.
///
/// # Errors
///
/// [`Error::Protocol`] on any malformed payload.
pub fn decode_response(bytes: &[u8]) -> Result<Response> {
    from_bytes(bytes).map_err(|e| Error::protocol(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `Stats` response layout is part of the wire contract: session,
    /// tag 5, then the ten counters as little-endian `u64`s in declaration
    /// order. Pinned as literal bytes so a refactor of the payload type
    /// cannot move a field.
    #[test]
    fn stats_response_bytes_are_pinned() {
        let resp = Response {
            session: 7,
            body: ResponseBody::Stats(TenantStats {
                candidates_used: 1,
                io_used: 2,
                candidate_budget: 3,
                io_budget: 4,
                queued: 5,
                columnar_extents: 6,
                index_hits: 7,
                interned_symbols: 8,
                exec_parallelism: 9,
                exec_morsels: 10,
            }),
        };
        #[rustfmt::skip]
        let expected: [u8; 89] = [
            7, 0, 0, 0, 0, 0, 0, 0, // session
            5,                      // tag: Stats
            1, 0, 0, 0, 0, 0, 0, 0, // candidates_used
            2, 0, 0, 0, 0, 0, 0, 0, // io_used
            3, 0, 0, 0, 0, 0, 0, 0, // candidate_budget
            4, 0, 0, 0, 0, 0, 0, 0, // io_budget
            5, 0, 0, 0, 0, 0, 0, 0, // queued
            6, 0, 0, 0, 0, 0, 0, 0, // columnar_extents
            7, 0, 0, 0, 0, 0, 0, 0, // index_hits
            8, 0, 0, 0, 0, 0, 0, 0, // interned_symbols
            9, 0, 0, 0, 0, 0, 0, 0, // exec_parallelism
            10, 0, 0, 0, 0, 0, 0, 0, // exec_morsels
        ];
        let bytes = encode_response(&resp);
        assert_eq!(bytes, expected);
        let back = decode_response(&bytes).unwrap();
        assert_eq!(back.session, 7);
        assert_eq!(encode_response(&back), expected);
    }
}
