//! The generated inputs: what the benchmark sends to the server and replays
//! in-process against private engines.

use eve_server::RequestBody;
use eve_sync::EvolutionOp;
use eve_system::Shell;

/// One request the load generator issues.
#[derive(Debug, Clone)]
pub enum Op {
    /// A shell statement (`RequestBody::Statement`).
    Stmt(String),
    /// A batch of evolution ops (`RequestBody::Apply`).
    Apply(Vec<EvolutionOp>),
}

impl Op {
    pub fn body(&self) -> RequestBody {
        match self {
            Op::Stmt(esql) => RequestBody::Statement { esql: esql.clone() },
            Op::Apply(ops) => RequestBody::Apply { ops: ops.clone() },
        }
    }

    /// Bytes of user payload: the statement text, or the canonical
    /// encoding of the op batch.
    pub fn payload_bytes(&self) -> u64 {
        let n = match self {
            Op::Stmt(esql) => esql.len(),
            Op::Apply(ops) => ops.iter().map(|op| eve_store::to_bytes(op).len()).sum(),
        };
        n as u64
    }

    /// Runs the op on a private shell: statements through
    /// `Shell::execute`, batches through the durable engine when a store is
    /// open and through the plain engine otherwise.
    pub fn run_on(&self, shell: &mut Shell) -> eve_system::Result<String> {
        match self {
            Op::Stmt(line) => shell.execute(line),
            Op::Apply(ops) => {
                let outcome = if shell.durable().is_some() {
                    shell.durable_mut()?.apply_batch(ops.clone())?
                } else {
                    shell.engine_mut().apply_batch(ops.clone())?
                };
                Ok(format!("applied batch: {} reports", outcome.reports.len()))
            }
        }
    }
}
