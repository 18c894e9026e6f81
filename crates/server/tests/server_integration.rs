//! Integration suite for the multi-tenant server: sessions, per-tenant
//! isolation, admission control over the wire, and byte-identical
//! convergence of concurrent mutation streams against a serial oracle.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use eve_server::protocol::{RequestBody, ResponseBody};
use eve_server::warehouse::{AdmissionPolicy, TenantBudget, Warehouse};
use eve_server::{ErrorCode, Server, ServerConfig, TenantStats};
use eve_system::Shell;

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "eve-server-it-{}-{}-{tag}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The statement script a writer applies to its tenant; kept in one place
/// so the serial oracle replays exactly the same lines.
fn writer_script(salt: usize) -> Vec<String> {
    let mut lines = vec![
        "site 1 customers".to_owned(),
        "site 2 flights".to_owned(),
        "relation Customer @1 (Name:text, City:text)".to_owned(),
        "relation FlightRes @2 (PName:text, Dest:text)".to_owned(),
        "insert Customer ('ann', 'Boston')".to_owned(),
        "insert FlightRes ('ann', 'Asia')".to_owned(),
        "view CREATE VIEW V (VE = '~') AS SELECT C.Name FROM Customer C (RR = true), \
         FlightRes F WHERE (C.Name = F.PName) AND (F.Dest = 'Asia')"
            .to_owned(),
    ];
    for i in 0..6 {
        lines.push(format!("update FlightRes insert ('p{salt}-{i}', 'Asia')"));
        lines.push(format!("update Customer insert ('p{salt}-{i}', 'City{i}')"));
    }
    lines
}

#[test]
fn sessions_open_attach_and_close() {
    let root = scratch("sessions");
    let server = Server::start(
        Arc::new(Warehouse::open(&root).unwrap()),
        ServerConfig::default(),
    );

    let mut c = server.connect().unwrap();
    let session = c.open_session("alpha").unwrap();
    assert!(session > 0);
    match c.request(RequestBody::Attach).unwrap() {
        ResponseBody::Attached { tenant } => assert_eq!(tenant, "alpha"),
        other => panic!("{other:?}"),
    }
    // A second client gets a distinct session on the same tenant.
    let mut c2 = server.connect().unwrap();
    let session2 = c2.open_session("alpha").unwrap();
    assert_ne!(session, session2);
    // Close, then every session-scoped request is refused with a typed
    // error code.
    assert!(matches!(
        c.request(RequestBody::CloseSession).unwrap(),
        ResponseBody::Closed
    ));
    match c.request(RequestBody::Stats).unwrap() {
        ResponseBody::Err { code, .. } => assert_eq!(code, ErrorCode::UnknownSession),
        other => panic!("{other:?}"),
    }
    // Unknown session ids (never opened) are equally refused.
    let mut c3 = server.connect().unwrap();
    match c3
        .call(&eve_server::Request {
            session: 999_999,
            body: RequestBody::Stats,
        })
        .unwrap()
        .body
    {
        ResponseBody::Err { code, .. } => assert_eq!(code, ErrorCode::UnknownSession),
        other => panic!("{other:?}"),
    }
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn tenants_mutate_in_isolation_and_match_a_serial_oracle() {
    let root = scratch("isolation");
    let oracle_root = scratch("isolation-oracle");
    let server = Server::start(
        Arc::new(Warehouse::open(&root).unwrap()),
        ServerConfig {
            shards: 3,
            readers: 2,
        },
    );

    // Interleave two tenants' writers through the same server.
    let mut a = server.connect().unwrap();
    a.open_session("alpha").unwrap();
    let mut b = server.connect().unwrap();
    b.open_session("beta").unwrap();
    let script_a = writer_script(1);
    let script_b = writer_script(2);
    for i in 0..script_a.len().max(script_b.len()) {
        if let Some(line) = script_a.get(i) {
            match a
                .request(RequestBody::Statement { esql: line.clone() })
                .unwrap()
            {
                ResponseBody::Output { .. } => {}
                other => panic!("alpha `{line}`: {other:?}"),
            }
        }
        if let Some(line) = script_b.get(i) {
            match b
                .request(RequestBody::Statement { esql: line.clone() })
                .unwrap()
            {
                ResponseBody::Output { .. } => {}
                other => panic!("beta `{line}`: {other:?}"),
            }
        }
    }

    // Serial oracles: the same scripts through plain durable shells.
    for (name, script) in [("alpha", &script_a), ("beta", &script_b)] {
        let mut oracle = Shell::new();
        oracle
            .execute(&format!("open {}", oracle_root.join(name).display()))
            .unwrap();
        for line in script {
            oracle.execute(line).unwrap();
        }
        let server_fp = server.warehouse().existing(name).unwrap().fingerprint();
        assert_eq!(
            server_fp,
            oracle.engine().snapshot_state().to_bytes(),
            "tenant {name} diverged from serial application"
        );
    }
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
    std::fs::remove_dir_all(&oracle_root).ok();
}

#[test]
fn admission_control_rejects_and_queues_over_the_wire() {
    let root = scratch("admission");
    let warehouse = Arc::new(Warehouse::open(&root).unwrap());
    // Pre-create tenants with tight budgets and opposite policies; the
    // setup script is 19 statements, so a budget of 19 I/O units is spent
    // exactly when the script finishes.
    let script = writer_script(0);
    let budget = TenantBudget {
        io: script.len() as u64,
        max_queue: 1,
        ..TenantBudget::default()
    };
    warehouse
        .tenant_with("strict", budget, AdmissionPolicy::Reject)
        .unwrap();
    warehouse
        .tenant_with("patient", budget, AdmissionPolicy::Queue)
        .unwrap();
    let server = Server::start(warehouse, ServerConfig::default());

    for tenant in ["strict", "patient"] {
        let mut c = server.connect().unwrap();
        c.open_session(tenant).unwrap();
        for line in &script {
            match c
                .request(RequestBody::Statement { esql: line.clone() })
                .unwrap()
            {
                ResponseBody::Output { .. } => {}
                other => panic!("{tenant} `{line}`: {other:?}"),
            }
        }
        // Budget spent: stats say so.
        match c.request(RequestBody::Stats).unwrap() {
            ResponseBody::Stats(TenantStats {
                io_used, io_budget, ..
            }) => assert!(io_used >= io_budget, "{tenant}: {io_used}/{io_budget}"),
            other => panic!("{other:?}"),
        }
        let over = RequestBody::Statement {
            esql: "update FlightRes insert ('late', 'Asia')".into(),
        };
        let over2 = RequestBody::Statement {
            esql: "update FlightRes insert ('later', 'Asia')".into(),
        };
        if tenant == "strict" {
            match c.request(over).unwrap() {
                ResponseBody::Err { code, .. } => assert_eq!(code, ErrorCode::BudgetExceeded),
                other => panic!("{other:?}"),
            }
            // Reads still answer while over budget.
            match c.request(RequestBody::Query { view: "V".into() }).unwrap() {
                ResponseBody::Output { text } => assert!(text.contains("ann"), "{text}"),
                other => panic!("{other:?}"),
            }
        } else {
            match c.request(over).unwrap() {
                ResponseBody::Queued { position } => assert_eq!(position, 0),
                other => panic!("{other:?}"),
            }
            // max_queue = 1: the next one cannot even queue.
            match c.request(over2).unwrap() {
                ResponseBody::Err { code, .. } => assert_eq!(code, ErrorCode::QueueFull),
                other => panic!("{other:?}"),
            }
            // Reset drains the queued mutation into the engine.
            match c.request(RequestBody::ResetBudget).unwrap() {
                ResponseBody::BudgetReset { drained } => assert_eq!(drained, 1),
                other => panic!("{other:?}"),
            }
            // The drained FlightRes row joins into V once the matching
            // Customer rows exist (the fresh budget admits them directly);
            // the overflowed `later` reservation was refused, so no join
            // partner can make it appear.
            for name in ["late", "later"] {
                match c
                    .request(RequestBody::Statement {
                        esql: format!("update Customer insert ('{name}', 'Laterville')"),
                    })
                    .unwrap()
                {
                    ResponseBody::Output { .. } => {}
                    other => panic!("{other:?}"),
                }
            }
            match c.request(RequestBody::Query { view: "V".into() }).unwrap() {
                ResponseBody::Output { text } => {
                    assert!(text.contains("late"), "queued mutation applied: {text}");
                    assert!(!text.contains("later"), "overflowed mutation lost: {text}");
                }
                other => panic!("{other:?}"),
            }
        }
    }
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn apply_batches_and_statements_share_one_durable_history() {
    let root = scratch("apply");
    let server = Server::start(
        Arc::new(Warehouse::open(&root).unwrap()),
        ServerConfig::default(),
    );
    let mut c = server.connect().unwrap();
    c.open_session("mixed").unwrap();
    for line in [
        "site 1 s1",
        "relation R @1 (K:int, V:text)",
        "insert R (1, 'a')",
        "view CREATE VIEW V (VE = '~') AS SELECT R.K FROM R (RR = true)",
    ] {
        c.request(RequestBody::Statement { esql: line.into() })
            .unwrap();
    }
    // An op batch over the wire, like a log record's payload.
    match c
        .request(RequestBody::Apply {
            ops: vec![eve_sync::EvolutionOp::insert(
                "R",
                vec![eve_relational::tup![2, "b"], eve_relational::tup![3, "c"]],
            )],
        })
        .unwrap()
    {
        ResponseBody::Output { text } => assert!(text.contains("applied batch"), "{text}"),
        other => panic!("{other:?}"),
    }
    match c.request(RequestBody::Query { view: "V".into() }).unwrap() {
        ResponseBody::Output { text } => {
            assert!(text.contains('2') && text.contains('3'), "{text}");
        }
        other => panic!("{other:?}"),
    }

    // The whole mixed history is durable: reopen the warehouse and the
    // tenant recovers to the same bytes.
    let fp = server.warehouse().existing("mixed").unwrap().fingerprint();
    server.shutdown();
    let reopened = Warehouse::open(&root).unwrap();
    assert_eq!(reopened.tenant("mixed").unwrap().fingerprint(), fp);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn malformed_statements_come_back_as_typed_errors_not_dead_connections() {
    let root = scratch("badstmt");
    let server = Server::start(
        Arc::new(Warehouse::open(&root).unwrap()),
        ServerConfig::default(),
    );
    let mut c = server.connect().unwrap();
    c.open_session("t").unwrap();
    match c
        .request(RequestBody::Statement {
            esql: "frobnicate the warehouse".into(),
        })
        .unwrap()
    {
        ResponseBody::Err { code, detail } => {
            assert_eq!(code, ErrorCode::Engine);
            assert!(detail.contains("unknown"), "{detail}");
        }
        other => panic!("{other:?}"),
    }
    // The connection (and session) survive the failed statement.
    match c.request(RequestBody::Stats).unwrap() {
        ResponseBody::Stats(_) => {}
        other => panic!("{other:?}"),
    }
    match c
        .request(RequestBody::Query {
            view: "NoSuchView".into(),
        })
        .unwrap()
    {
        ResponseBody::Err { code, .. } => assert_eq!(code, ErrorCode::Engine),
        other => panic!("{other:?}"),
    }
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn metrics_request_returns_server_and_engine_families() {
    let root = scratch("metrics");
    let server = Server::start(
        Arc::new(Warehouse::open(&root).unwrap()),
        ServerConfig::default(),
    );

    let mut c = server.connect().unwrap();
    c.open_session("obs").unwrap();
    for line in writer_script(0) {
        c.request(RequestBody::Statement { esql: line }).unwrap();
    }
    match c.request(RequestBody::Query { view: "V".into() }).unwrap() {
        ResponseBody::Output { .. } => {}
        other => panic!("{other:?}"),
    }

    let snap = c.metrics().unwrap();
    // Server-side families: the statements and the query were counted and
    // timed, per request type and per tenant.
    assert!(snap.counters["server.requests.statement"] >= 1, "{snap:?}");
    assert!(snap.counters["server.requests.query"] >= 1);
    assert!(snap.histograms["server.latency_us.query"].count() >= 1);
    assert!(snap.histograms["server.tenant.obs.latency_us"].count() >= 1);
    // Engine instance families merged into the same image.
    assert!(snap.counters.contains_key("mkb.index_hits"));
    assert!(snap.counters.contains_key("cache.rewrite_hits"));
    // The server's own registry only holds server.* names — everything
    // else came in through the merge with the global/engine snapshot.
    let local = server.metrics_registry().snapshot();
    assert!(local.counters.keys().all(|k| k.starts_with("server.")));
    assert!(local.histograms.keys().all(|k| k.starts_with("server.")));

    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}
