//! A line-oriented command interpreter over [`EveEngine`] — the interactive
//! front-end used by `examples/eve_shell.rs`, and a convenient scripting
//! surface for demos and tests.
//!
//! ```text
//! site 1 customers
//! relation Customer @1 (Name:text, City:text)
//! insert Customer ('ann', 'Boston')
//! pc Customer (Name, City) = Mirror (FullName, Town)
//! view CREATE VIEW V (VE = '~') AS SELECT C.Name FROM Customer C (RR = true)
//! update Customer insert ('bob', 'Worcester')
//! change delete-relation Customer
//! show views
//! query V
//! costs
//! rebalance
//! ```

use eve_misd::{AttributeInfo, RelationInfo, SchemaChange, SiteId};
use eve_relational::{ColumnDef, ColumnRef, DataType, IndexKind, Relation, Schema, Tuple, Value};
use eve_sync::EvolutionOp;

use crate::durable::DurableEngine;
use crate::engine::{Applied, EveEngine, IndexHint};
use crate::error::{Error, Result};
use crate::Command;

/// The engine the shell drives: in-memory only, or durably backed by an
/// evolution store (after `open <dir>`).
#[derive(Debug)]
// One Host lives per Shell, so the size spread between the variants is
// irrelevant — boxing would only add a pointer chase to every command.
#[allow(clippy::large_enum_variant)]
enum Host {
    Plain(EveEngine),
    Durable(DurableEngine),
}

/// The interactive shell: an [`EveEngine`] plus a command interpreter.
/// Every mutating statement is lowered to a [`Command`] and run through
/// [`Shell::apply`], so a plain and a durable shell take the same engine
/// path and print the same text.
#[derive(Debug)]
pub struct Shell {
    host: Host,
    /// QC rewrite candidates searched by every command applied so far.
    candidates_searched: u64,
}

impl Default for Shell {
    fn default() -> Shell {
        Shell::new()
    }
}

impl Shell {
    /// A shell over a fresh (in-memory) engine.
    #[must_use]
    pub fn new() -> Shell {
        Shell::over(Host::Plain(EveEngine::new()))
    }

    /// A shell directly over a durable engine — the server's per-tenant
    /// host, where every session must hit the evolution log without an
    /// interactive `open` first.
    #[must_use]
    pub fn with_durable(durable: DurableEngine) -> Shell {
        Shell::over(Host::Durable(durable))
    }

    fn over(host: Host) -> Shell {
        Shell {
            host,
            candidates_searched: 0,
        }
    }

    /// The wrapped engine.
    #[must_use]
    pub fn engine(&self) -> &EveEngine {
        match &self.host {
            Host::Plain(e) => e,
            Host::Durable(d) => d.engine(),
        }
    }

    /// Mutable engine access. With an open store this bypasses the
    /// evolution log — prefer [`Shell::apply`], which logs.
    pub fn engine_mut(&mut self) -> &mut EveEngine {
        match &mut self.host {
            Host::Plain(e) => e,
            Host::Durable(d) => d.engine_mut(),
        }
    }

    /// The open durable engine, if `open <dir>` was executed.
    #[must_use]
    pub fn durable(&self) -> Option<&DurableEngine> {
        match &self.host {
            Host::Plain(_) => None,
            Host::Durable(d) => Some(d),
        }
    }

    /// Applies one mutation to the host engine — durably, when a store is
    /// open (a poisoned store refuses it before the engine is touched).
    ///
    /// # Errors
    ///
    /// Engine or store failures, or [`Error::Poisoned`].
    pub fn apply(&mut self, command: Command) -> Result<Applied> {
        let applied = match &mut self.host {
            Host::Plain(e) => e.apply(&command)?,
            Host::Durable(d) => d.apply(command)?,
        };
        let reports = &applied.outcome.reports;
        self.candidates_searched += reports.iter().map(|r| r.candidates as u64).sum::<u64>();
        Ok(applied)
    }

    /// QC rewrite candidates searched by every command this shell applied
    /// — what admission control bills a mutation by, measured before and
    /// after it runs.
    #[must_use]
    pub fn candidates_searched(&self) -> u64 {
        self.candidates_searched
    }

    /// Executes one command line, returning the text to display.
    ///
    /// # Errors
    ///
    /// Any engine error; unknown commands and malformed arguments surface as
    /// [`Error::State`] with a usage hint.
    pub fn execute(&mut self, line: &str) -> Result<String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(String::new());
        }
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        match cmd.to_ascii_lowercase().as_str() {
            "help" => Ok(HELP.trim().to_owned()),
            "site" => self.cmd_site(rest),
            "relation" => self.cmd_relation(rest),
            "insert" => self.cmd_seed(rest),
            "pc" => self.cmd_pc(rest),
            "jc" => self.cmd_jc(rest),
            "view" => self.cmd_view(rest),
            "update" => self.cmd_update(rest),
            "change" => self.cmd_change(rest),
            "index" => self.cmd_index(rest),
            "exec" => self.cmd_exec(rest),
            "query" => self.cmd_query(rest),
            "show" => self.cmd_show(rest),
            "costs" => self.cmd_costs(),
            "stats" => Ok(self.cmd_stats()),
            "metrics" => self.cmd_metrics(rest),
            "trace" => self.cmd_trace(rest),
            "rebalance" => self.cmd_rebalance(),
            "open" => self.cmd_open(rest),
            "checkpoint" => self.cmd_checkpoint(),
            "log-stats" => self.cmd_log_stats(),
            "travel" => self.cmd_travel(rest),
            "compact" => self.cmd_compact(),
            other => Err(usage(&format!("unknown command `{other}` — try `help`"))),
        }
    }

    fn cmd_site(&mut self, rest: &str) -> Result<String> {
        let mut parts = rest.split_whitespace();
        let id: u32 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| usage("site <id> <name>"))?;
        let name = parts.next().ok_or_else(|| usage("site <id> <name>"))?;
        self.apply(Command::AddSite {
            id,
            name: name.to_owned(),
        })?;
        Ok(format!("registered site {id} ({name})"))
    }

    /// `relation Name @site (attr:type[:bytes], …) [sel=σ] [bfr=n]`
    fn cmd_relation(&mut self, rest: &str) -> Result<String> {
        const USAGE: &str = "relation <Name> @<site> (<attr>:<type>[:bytes], ...) [sel=σ] [bfr=n]";
        let (head, attrs_and_opts) = rest.split_once('(').ok_or_else(|| usage(USAGE))?;
        let mut head_parts = head.split_whitespace();
        let name = head_parts.next().ok_or_else(|| usage(USAGE))?.to_owned();
        let site: u32 = head_parts
            .next()
            .and_then(|s| s.strip_prefix('@'))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| usage(USAGE))?;
        let (attr_list, opts) = attrs_and_opts.split_once(')').ok_or_else(|| usage(USAGE))?;

        let mut attributes = Vec::new();
        for spec in attr_list.split(',') {
            let mut f = spec.trim().split(':');
            let attr_name = f
                .next()
                .filter(|s| !s.is_empty())
                .ok_or_else(|| usage(USAGE))?;
            let ty = match f.next().map(str::to_ascii_lowercase).as_deref() {
                Some("int") | None => DataType::Int,
                Some("float") => DataType::Float,
                Some("bool") => DataType::Bool,
                Some("text") => DataType::Text,
                Some(other) => return Err(usage(&format!("unknown type `{other}`"))),
            };
            let attr = match f.next() {
                Some(bytes) => AttributeInfo::sized(
                    attr_name,
                    ty,
                    bytes.trim().parse().map_err(|_| usage(USAGE))?,
                ),
                None => AttributeInfo::new(attr_name, ty),
            };
            attributes.push(attr);
        }

        let mut info = RelationInfo::new(name.clone(), SiteId(site), attributes, 0);
        for opt in opts.split_whitespace() {
            if let Some(v) = opt.strip_prefix("sel=") {
                info.selectivity = v.parse().map_err(|_| usage(USAGE))?;
            } else if let Some(v) = opt.strip_prefix("bfr=") {
                info.blocking_factor = v.parse().map_err(|_| usage(USAGE))?;
            } else if !opt.is_empty() {
                return Err(usage(USAGE));
            }
        }

        let schema = Schema::new(
            info.attributes
                .iter()
                .map(|a| ColumnDef::sized(ColumnRef::bare(a.name.clone()), a.ty, a.byte_size))
                .collect(),
        )?;
        let extent = Relation::empty(name.clone(), schema);
        self.apply(Command::RegisterRelation { info, extent })?;
        Ok(format!("registered relation {name} @ site {site}"))
    }

    /// Parses `('ann', 3, true)` into a tuple (types checked on insert).
    fn parse_tuple(text: &str) -> Result<Tuple> {
        let inner = text
            .trim()
            .strip_prefix('(')
            .and_then(|s| s.strip_suffix(')'))
            .ok_or_else(|| usage("tuple must be parenthesized: (v1, v2, ...)"))?;
        let mut values = Vec::new();
        for field in split_top_level(inner) {
            let f = field.trim();
            let value = if let Some(s) = f.strip_prefix('\'').and_then(|s| s.strip_suffix('\'')) {
                Value::Text(s.to_owned())
            } else if f.eq_ignore_ascii_case("true") {
                Value::Bool(true)
            } else if f.eq_ignore_ascii_case("false") {
                Value::Bool(false)
            } else if let Ok(i) = f.parse::<i64>() {
                Value::Int(i)
            } else if let Ok(x) = f.parse::<f64>() {
                Value::float(x)?
            } else {
                return Err(usage(&format!("cannot parse value `{f}`")));
            };
            values.push(value);
        }
        Ok(Tuple::new(values))
    }

    /// `insert <Relation> (v1, v2, …)` — seeds base data *without* view
    /// maintenance (initial loading).
    fn cmd_seed(&mut self, rest: &str) -> Result<String> {
        let (rel, tuple_text) = rest
            .split_once(char::is_whitespace)
            .ok_or_else(|| usage("insert <Relation> (v1, v2, ...)"))?;
        let tuple = Self::parse_tuple(tuple_text)?;
        self.apply(Command::SeedTuples {
            relation: rel.to_owned(),
            tuples: vec![tuple],
        })?;
        Ok(format!("seeded 1 tuple into {rel}"))
    }

    /// `pc A (x, y) <=|=|>= B (u, v)` — containment constraint.
    fn cmd_pc(&mut self, rest: &str) -> Result<String> {
        const USAGE: &str = "pc <A> (attrs) <= | = | >= <B> (attrs)";
        let (left, op, right) = split_constraint(rest).ok_or_else(|| usage(USAGE))?;
        let parse_side = |s: &str| -> Result<eve_misd::PcSide> {
            let (rel, attrs) = s.split_once('(').ok_or_else(|| usage(USAGE))?;
            let attrs = attrs.trim().strip_suffix(')').ok_or_else(|| usage(USAGE))?;
            let names: Vec<&str> = attrs.split(',').map(str::trim).collect();
            Ok(eve_misd::PcSide::projection(rel.trim(), &names))
        };
        let relationship = match op {
            "<=" => eve_misd::PcRelationship::Subset,
            "=" => eve_misd::PcRelationship::Equivalent,
            ">=" => eve_misd::PcRelationship::Superset,
            _ => return Err(usage(USAGE)),
        };
        let pc = eve_misd::PcConstraint::new(parse_side(left)?, relationship, parse_side(right)?);
        self.apply(Command::AddPcConstraint(pc))?;
        Ok("registered PC constraint".to_owned())
    }

    /// `jc A.x = B.y`
    fn cmd_jc(&mut self, rest: &str) -> Result<String> {
        const USAGE: &str = "jc <A>.<x> = <B>.<y>";
        let (l, r) = rest.split_once('=').ok_or_else(|| usage(USAGE))?;
        let lref = ColumnRef::parse(l.trim());
        let rref = ColumnRef::parse(r.trim());
        let (Some(lq), Some(rq)) = (lref.qualifier.clone(), rref.qualifier.clone()) else {
            return Err(usage(USAGE));
        };
        let jc = eve_misd::JoinConstraint::new(
            lq,
            rq,
            vec![eve_relational::PrimitiveClause::eq(lref, rref)],
        );
        self.apply(Command::AddJoinConstraint(jc))?;
        Ok("registered join constraint".to_owned())
    }

    fn cmd_view(&mut self, rest: &str) -> Result<String> {
        let def = eve_esql::parse_view(rest)?;
        let name = def.name.clone();
        self.apply(Command::DefineView(def))?;
        let mv = self.engine().view(&name)?;
        Ok(format!(
            "materialized view {} with {} rows",
            mv.def.name,
            mv.extent.cardinality()
        ))
    }

    /// `update <Relation> insert|delete (v1, …)`
    fn cmd_update(&mut self, rest: &str) -> Result<String> {
        const USAGE: &str = "update <Relation> insert|delete (v1, v2, ...)";
        let mut parts = rest.splitn(3, char::is_whitespace);
        let rel = parts.next().ok_or_else(|| usage(USAGE))?;
        let kind = parts.next().ok_or_else(|| usage(USAGE))?;
        let tuple = Self::parse_tuple(parts.next().ok_or_else(|| usage(USAGE))?)?;
        let op = match kind.to_ascii_lowercase().as_str() {
            "insert" => EvolutionOp::insert(rel, vec![tuple]),
            "delete" => EvolutionOp::delete(rel, vec![tuple]),
            _ => return Err(usage(USAGE)),
        };
        let traces = self.apply(Command::Batch(vec![op]))?.outcome.traces;
        let mut out = format!("update applied to {rel}");
        for (view, t) in traces {
            out.push_str(&format!(
                "\n  {view}: {} msgs, {} bytes, {} I/Os, +{} −{} rows",
                t.messages, t.bytes, t.ios, t.view_inserts, t.view_deletes
            ));
        }
        Ok(out)
    }

    /// `change delete-relation R | delete-attribute R.A |
    ///  rename-relation A B | rename-attribute R.A B`
    fn cmd_change(&mut self, rest: &str) -> Result<String> {
        const USAGE: &str = "change delete-relation <R> | delete-attribute <R>.<A> | \
             rename-relation <A> <B> | rename-attribute <R>.<A> <B>";
        let mut parts = rest.split_whitespace();
        let kind = parts.next().ok_or_else(|| usage(USAGE))?;
        let change = match kind.to_ascii_lowercase().as_str() {
            "delete-relation" => SchemaChange::DeleteRelation {
                relation: parts.next().ok_or_else(|| usage(USAGE))?.to_owned(),
            },
            "delete-attribute" => {
                let c = ColumnRef::parse(parts.next().ok_or_else(|| usage(USAGE))?);
                SchemaChange::DeleteAttribute {
                    relation: c.qualifier.ok_or_else(|| usage(USAGE))?,
                    attribute: c.name,
                }
            }
            "rename-relation" => SchemaChange::RenameRelation {
                from: parts.next().ok_or_else(|| usage(USAGE))?.to_owned(),
                to: parts.next().ok_or_else(|| usage(USAGE))?.to_owned(),
            },
            "rename-attribute" => {
                let c = ColumnRef::parse(parts.next().ok_or_else(|| usage(USAGE))?);
                SchemaChange::RenameAttribute {
                    relation: c.qualifier.ok_or_else(|| usage(USAGE))?,
                    from: c.name,
                    to: parts.next().ok_or_else(|| usage(USAGE))?.to_owned(),
                }
            }
            _ => return Err(usage(USAGE)),
        };
        let mut out = format!("applied {change}");
        let reports = self
            .apply(Command::Batch(vec![EvolutionOp::Capability {
                change,
                new_extent: None,
            }]))?
            .outcome
            .reports;
        for r in reports {
            if !r.affected {
                continue;
            }
            if let Some(adopted) = &r.adopted {
                out.push_str(&format!(
                    "\n  {}: adopted rewriting (QC {:.4}, DD {:.4}) — {}",
                    r.view_name, adopted.qc, adopted.divergence.dd, adopted.rewriting.provenance
                ));
            } else {
                out.push_str(&format!(
                    "\n  {}: no legal rewriting — dropped",
                    r.view_name
                ));
            }
        }
        Ok(out)
    }

    fn cmd_query(&mut self, rest: &str) -> Result<String> {
        let mv = self.engine().view(rest.trim())?;
        Ok(mv.extent.distinct().to_string())
    }

    fn cmd_show(&mut self, rest: &str) -> Result<String> {
        match rest.trim().to_ascii_lowercase().as_str() {
            "views" => {
                let mut out = String::new();
                for mv in self.engine().views() {
                    out.push_str(&format!(
                        "{} [{} rows]\n{}\n",
                        mv.def.name,
                        mv.extent.cardinality(),
                        mv.def
                    ));
                }
                Ok(if out.is_empty() {
                    "(no views)".into()
                } else {
                    out
                })
            }
            "relations" => {
                let mut out = String::new();
                for info in self.engine().mkb().relations() {
                    out.push_str(&format!("{info}\n"));
                }
                Ok(if out.is_empty() {
                    "(no relations)".into()
                } else {
                    out
                })
            }
            "constraints" => {
                let mut out = String::new();
                for pc in self.engine().mkb().pc_constraints() {
                    out.push_str(&format!("{pc}\n"));
                }
                for jc in self.engine().mkb().join_constraints() {
                    out.push_str(&format!("{jc}\n"));
                }
                Ok(if out.is_empty() {
                    "(no constraints)".into()
                } else {
                    out
                })
            }
            other => Err(usage(&format!(
                "show views|relations|constraints (got `{other}`)"
            ))),
        }
    }

    fn cmd_costs(&mut self) -> Result<String> {
        let mut out = String::new();
        for report in self.engine().cost_report()? {
            out.push_str(&format!(
                "{}: total {:.1}\n",
                report.view_name, report.total_cost
            ));
            for (origin, f) in report.per_origin {
                out.push_str(&format!(
                    "  origin {origin}: CF_M {:.0}, CF_T {:.0}, CF_IO {:.0}\n",
                    f.messages, f.transfer, f.io
                ));
            }
        }
        Ok(if out.is_empty() {
            "(no views)".into()
        } else {
            out
        })
    }

    /// `index <Relation> <column> [hash|sorted]` — declare (and warm) a
    /// secondary index on a hosted base relation. Durable hosts log the
    /// declaration so it survives recovery.
    fn cmd_index(&mut self, rest: &str) -> Result<String> {
        const USAGE: &str = "index <Relation> <column> [hash|sorted]";
        let mut parts = rest.split_whitespace();
        let relation = parts.next().ok_or_else(|| usage(USAGE))?.to_owned();
        let column = parts.next().ok_or_else(|| usage(USAGE))?.to_owned();
        let (kind, shape) = match parts.next().map(str::to_ascii_lowercase).as_deref() {
            Some("hash") | None => (IndexKind::Hash, "hash"),
            Some("sorted") => (IndexKind::Sorted, "sorted"),
            Some(other) => return Err(usage(&format!("unknown index kind `{other}`"))),
        };
        let added = self
            .apply(Command::DeclareIndex(IndexHint {
                relation: relation.clone(),
                column: column.clone(),
                kind,
            }))?
            .changed;
        Ok(if added {
            format!("declared {shape} index on {relation}.{column}")
        } else {
            format!("{shape} index on {relation}.{column} already declared (re-warmed)")
        })
    }

    /// `exec [<parallelism> [<morsel-rows>]]` — set (or show) the engine's
    /// intra-query execution knobs. A runtime tuning knob only: it is not
    /// logged, so recovery starts serial.
    fn cmd_exec(&mut self, rest: &str) -> Result<String> {
        const USAGE: &str = "exec [<parallelism> [<morsel-rows>]]";
        let mut parts = rest.split_whitespace();
        let Some(par) = parts.next() else {
            let o = self.engine().exec_options;
            return Ok(format!(
                "exec: {} worker(s), {} rows/morsel",
                o.parallelism.max(1),
                o.morsel_rows()
            ));
        };
        let parallelism: usize = par.parse().map_err(|_| usage(USAGE))?;
        if parallelism == 0 || parallelism > 256 {
            return Err(usage("parallelism must be in 1..=256"));
        }
        let morsel_rows = match parts.next() {
            None => self.engine().exec_options.morsel_rows(),
            Some(m) => {
                let m: usize = m.parse().map_err(|_| usage(USAGE))?;
                if m == 0 {
                    return Err(usage("morsel-rows must be at least 1"));
                }
                m
            }
        };
        let opts = &mut self.engine_mut().exec_options;
        opts.parallelism = parallelism;
        opts.morsel_rows = morsel_rows;
        Ok(format!(
            "exec: {parallelism} worker(s), {morsel_rows} rows/morsel"
        ))
    }

    /// `stats` — measured resource accounting since the last reset, plus
    /// the cache/index counters of the rewrite-search machinery and (with
    /// an open store) the evolution-log I/O counters.
    fn cmd_stats(&mut self) -> String {
        let (rw_hits, rw_misses) = self.engine().rewrite_cache_stats();
        let (pc_hits, pc_misses) = self.engine().partner_cache_stats();
        let (ix_hits, ix_misses) = self.engine().mkb_index_stats();
        let cl = self.engine().column_layer_stats();
        let mut out = format!(
            "total I/O: {} blocks\n\
             total messages: {}\n\
             rewrite cache: {rw_hits} hits, {rw_misses} misses\n\
             partner cache: {pc_hits} hits, {pc_misses} misses\n\
             mkb index: {ix_hits} hits, {ix_misses} misses\n\
             columnar: {}/{} extents materialized\n\
             indexes: {} hash, {} sorted ({} builds, {} hits, {} maintenance ops)\n\
             interned: {} symbols ({} hits, {} misses)\n\
             exec: {} workers, {} morsels ({} steals), {} partitions, \
             {} parallel ops, {} declined",
            self.engine().total_io(),
            self.engine().total_messages(),
            cl.columnar_built,
            cl.extents,
            cl.index.hash_indexes,
            cl.index.sorted_indexes,
            cl.index.builds,
            cl.index.hits,
            cl.index.maintenance_ops,
            cl.intern.symbols,
            cl.intern.hits,
            cl.intern.misses,
            self.engine().exec_options.parallelism.max(1),
            cl.exec.morsels,
            cl.exec.steals,
            cl.exec.partitions,
            cl.exec.parallel_ops,
            cl.exec.serial_fallbacks
        );
        if let Host::Durable(d) = &self.host {
            let s = d.store_stats();
            out.push_str(&format!(
                "\nstore: {} records, {} log bytes, {} fsyncs, {} snapshots \
                 ({} bytes), {} replayed, {} torn bytes truncated",
                s.records_appended,
                s.log_bytes_appended,
                s.fsyncs,
                s.snapshots_written,
                s.snapshot_bytes_written,
                s.records_replayed,
                s.torn_bytes_truncated
            ));
        }
        out
    }

    /// `metrics [prom|reset]` — the merged metrics-registry snapshot:
    /// process-global families (`exec.`, `index.`, `intern.`, `store.`,
    /// `search.`, `engine.`) plus this engine's per-instance counters
    /// (`mkb.`, `cache.`). `prom` renders Prometheus text exposition;
    /// `reset` zeroes every counter and histogram.
    fn cmd_metrics(&mut self, rest: &str) -> Result<String> {
        match rest {
            "" => Ok(self
                .engine()
                .metrics_snapshot()
                .render_text()
                .trim_end()
                .to_owned()),
            "prom" => Ok(self
                .engine()
                .metrics_snapshot()
                .prometheus()
                .trim_end()
                .to_owned()),
            "reset" => {
                eve_trace::global().reset();
                self.engine().telemetry_registry().reset();
                Ok("metrics reset".to_owned())
            }
            other => Err(usage(&format!("metrics [prom|reset] (got `{other}`)"))),
        }
    }

    /// `trace on|off|json|clear` — span recording control and the
    /// `chrome://tracing` JSON dump of the recorded events.
    fn cmd_trace(&mut self, rest: &str) -> Result<String> {
        match rest {
            "on" => {
                eve_trace::set_enabled(true);
                Ok("tracing on".to_owned())
            }
            "off" => {
                eve_trace::set_enabled(false);
                Ok("tracing off".to_owned())
            }
            "clear" => {
                eve_trace::clear_spans();
                Ok("trace buffer cleared".to_owned())
            }
            "json" => Ok(eve_trace::chrome_json()),
            _ => Err(usage("trace on|off|json|clear")),
        }
    }

    /// `open <dir>` — attach an evolution store: recover from it when it
    /// exists, otherwise create it around the shell's current engine state.
    fn cmd_open(&mut self, rest: &str) -> Result<String> {
        let dir = rest.trim();
        if dir.is_empty() {
            return Err(usage("open <store-directory>"));
        }
        if self.durable().is_some() {
            return Err(Error::State {
                detail: "a store is already open in this shell".into(),
            });
        }
        let path = std::path::Path::new(dir);
        if eve_store::EvolutionStore::exists(path)? {
            let (durable, report) = DurableEngine::open(path)?;
            let msg = format!(
                "recovered store {dir}: snapshot seq {:?}, {} records replayed, \
                 {} torn bytes truncated, generation {}",
                report.snapshot_seq,
                report.replayed_records,
                report.torn_bytes_truncated,
                report.generation
            );
            self.host = Host::Durable(durable);
            Ok(msg)
        } else {
            // Bootstrap the store with the current in-memory state. Clone
            // rather than move: a failing creation (bad path, full disk)
            // must leave the session's engine untouched.
            let durable = DurableEngine::create_with(path, self.engine().clone())?;
            self.host = Host::Durable(durable);
            Ok(format!("created store {dir} (bootstrap snapshot written)"))
        }
    }

    /// The open durable engine, mutably — the server drives checkpoints
    /// and budget resets through this.
    ///
    /// # Errors
    ///
    /// [`Error::State`] when no store is open.
    pub fn durable_mut(&mut self) -> Result<&mut DurableEngine> {
        match &mut self.host {
            Host::Durable(d) => Ok(d),
            Host::Plain(_) => Err(Error::State {
                detail: "no store is open — run `open <dir>` first".into(),
            }),
        }
    }

    /// `checkpoint` — write a snapshot and rotate the log segment.
    fn cmd_checkpoint(&mut self) -> Result<String> {
        let d = self.durable_mut()?;
        let seq = d.checkpoint()?;
        Ok(format!(
            "snapshot written at seq {seq} (generation {})",
            d.engine().mkb().generation()
        ))
    }

    /// `log-stats` — the store's layout and I/O counters.
    fn cmd_log_stats(&mut self) -> Result<String> {
        let d = self.durable_mut()?;
        let s = d.store_stats();
        let snapshots = d.snapshot_index()?;
        let segments = d.segment_count()?;
        let mut out = format!(
            "store {}\nnext seq: {}\nsegments: {segments}\nsnapshots: {}\n",
            d.dir().display(),
            d.next_seq(),
            snapshots.len()
        );
        for meta in snapshots {
            let kind = match meta.kind {
                eve_store::SnapshotKind::Full => "full",
                eve_store::SnapshotKind::Delta => "delta",
            };
            out.push_str(&format!(
                "  snap seq {} @ generation {} [{kind}]\n",
                meta.seq, meta.generation
            ));
        }
        let records_per_fsync = if s.fsyncs == 0 {
            0.0
        } else {
            s.records_appended as f64 / s.fsyncs as f64
        };
        out.push_str(&format!(
            "appended: {} records, {} bytes, {} fsyncs \
             ({} group commits, {records_per_fsync:.1} records/fsync)\n\
             snapshots written: {} ({} bytes, {} deltas)\n\
             replayed: {} records; torn: {} bytes / {} records truncated\n\
             recovery: {} threads, {} segments read in parallel",
            s.records_appended,
            s.log_bytes_appended,
            s.fsyncs,
            s.group_commits,
            s.snapshots_written,
            s.snapshot_bytes_written,
            s.delta_snapshots_written,
            s.records_replayed,
            s.torn_bytes_truncated,
            s.torn_records_truncated,
            s.replay_threads,
            s.segments_read_parallel
        ));
        Ok(out)
    }

    /// `travel <generation> [<view>]` — reconstruct a historical state;
    /// with a view name, print that view's extent as of the generation.
    fn cmd_travel(&mut self, rest: &str) -> Result<String> {
        const USAGE: &str = "travel <generation> [<view>]";
        let mut parts = rest.split_whitespace();
        let generation: u64 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| usage(USAGE))?;
        let view = parts.next();
        let dir = self.durable_mut()?.dir().to_path_buf();
        let historical = DurableEngine::open_at(&dir, generation)?;
        match view {
            Some(name) => {
                let mv = historical.view(name)?;
                Ok(format!(
                    "{name} @ generation {generation} (actual {}):\n{}",
                    historical.mkb().generation(),
                    mv.extent.distinct()
                ))
            }
            None => {
                let mut out = format!(
                    "state @ generation {generation} (actual {}):\n",
                    historical.mkb().generation()
                );
                out.push_str(&format!(
                    "  relations: {}\n",
                    historical
                        .mkb()
                        .relations()
                        .map(|r| r.name.clone())
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
                for mv in historical.views() {
                    out.push_str(&format!(
                        "  view {} [{} rows]\n",
                        mv.def.name,
                        mv.extent.cardinality()
                    ));
                }
                Ok(out)
            }
        }
    }

    /// `compact` — drop history before the newest snapshot.
    fn cmd_compact(&mut self) -> Result<String> {
        let d = self.durable_mut()?;
        let (segs, snaps) = d.compact()?;
        Ok(format!(
            "compacted: {segs} segments and {snaps} snapshots dropped \
             (time travel now starts at the newest snapshot)"
        ))
    }

    fn cmd_rebalance(&mut self) -> Result<String> {
        let mut out = String::new();
        let reports = match &mut self.host {
            Host::Plain(e) => e.rebalance_views()?,
            Host::Durable(d) => d.rebalance_views()?,
        };
        for r in reports {
            if r.migrated {
                out.push_str(&format!(
                    "{}: migrated {} → {} (cost {:.1} → {:.1})\n",
                    r.view_name,
                    r.from_relation.unwrap_or_default(),
                    r.to_relation.unwrap_or_default(),
                    r.old_cost,
                    r.new_cost
                ));
            } else {
                out.push_str(&format!("{}: no cheaper equivalent source\n", r.view_name));
            }
        }
        Ok(if out.is_empty() {
            "(no views)".into()
        } else {
            out
        })
    }
}

fn usage(msg: &str) -> Error {
    Error::State {
        detail: format!("usage: {msg}"),
    }
}

/// Splits on commas that are not inside single quotes.
fn split_top_level(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '\'' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() || !out.is_empty() {
        out.push(cur);
    }
    out
}

/// Splits `A (…) OP B (…)` on the constraint operator outside parentheses.
fn split_constraint(s: &str) -> Option<(&str, &str, &str)> {
    let mut depth = 0i32;
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'(' => depth += 1,
            b')' => depth -= 1,
            b'<' | b'>' if depth == 0 && i + 1 < bytes.len() && bytes[i + 1] == b'=' => {
                return Some((&s[..i], &s[i..i + 2], &s[i + 2..]));
            }
            b'=' if depth == 0 => {
                return Some((&s[..i], "=", &s[i + 1..]));
            }
            _ => {}
        }
        i += 1;
    }
    None
}

const HELP: &str = "
EVE shell commands:
  site <id> <name>                         register an information source
  relation <N> @<site> (a:type[:bytes], …) register a relation (empty extent)
  insert <N> (v1, v2, …)                   seed base data (no maintenance)
  pc <A> (attrs) <=|=|>= <B> (attrs)       containment constraint
  jc <A>.<x> = <B>.<y>                     join constraint
  view CREATE VIEW …                       define an E-SQL view
  update <N> insert|delete (v1, …)         data update + view maintenance
  change delete-relation <R> | delete-attribute <R>.<A>
         | rename-relation <A> <B> | rename-attribute <R>.<A> <B>
  index <R> <column> [hash|sorted]         declare a secondary index (durable hint)
  exec [<parallelism> [<morsel-rows>]]     set/show intra-query morsel parallelism
  query <View>                             print a view's extent
  show views|relations|constraints         inspect the warehouse / MKB
  costs                                    per-view analytic maintenance cost
  stats                                    measured I/O + messages, cache/index counters
  metrics [prom|reset]                     metrics-registry snapshot (text or Prometheus)
  trace on|off|json|clear                  span recording + chrome://tracing dump
  rebalance                                migrate views to cheaper replicas
  open <dir>                               attach a durable evolution store (recover or create)
  checkpoint                               write a snapshot, rotate the log segment
  log-stats                                store layout + I/O counters
  travel <generation> [<view>]             reconstruct a past state (optionally query a view)
  compact                                  drop history before the newest snapshot
  help                                     this text
";

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_shell() -> Shell {
        let mut sh = Shell::new();
        for cmd in [
            "site 1 customers",
            "site 2 flights",
            "relation Customer @1 (Name:text, City:text)",
            "relation FlightRes @2 (PName:text, Dest:text)",
            "insert Customer ('ann', 'Boston')",
            "insert Customer ('bob', 'Worcester')",
            "insert FlightRes ('ann', 'Asia')",
            "view CREATE VIEW V (VE = '~') AS SELECT C.Name FROM Customer C (RR = true), \
             FlightRes F WHERE (C.Name = F.PName) AND (F.Dest = 'Asia')",
        ] {
            sh.execute(cmd).unwrap_or_else(|e| panic!("{cmd}: {e}"));
        }
        sh
    }

    #[test]
    fn full_session_flows() {
        let mut sh = seeded_shell();
        let out = sh.execute("query V").unwrap();
        assert!(out.contains("'ann'"), "{out}");
        assert!(!out.contains("'bob'"));

        let out = sh
            .execute("update FlightRes insert ('bob', 'Asia')")
            .unwrap();
        assert!(out.contains("+1"), "{out}");
        assert!(sh.execute("query V").unwrap().contains("'bob'"));

        let out = sh.execute("show views").unwrap();
        assert!(out.contains("CREATE VIEW V"));
        let out = sh.execute("show relations").unwrap();
        assert!(out.contains("Customer"));
        let out = sh.execute("costs").unwrap();
        assert!(out.contains("V: total"));
        let out = sh.execute("stats").unwrap();
        assert!(out.contains("total I/O"), "{out}");
        assert!(out.contains("total messages"), "{out}");
        assert!(out.contains("rewrite cache"), "{out}");
        assert!(out.contains("partner cache"), "{out}");
        assert!(out.contains("mkb index"), "{out}");
        assert!(out.contains("columnar:"), "{out}");
        assert!(out.contains("indexes:"), "{out}");
        assert!(out.contains("interned:"), "{out}");
    }

    #[test]
    fn metrics_and_trace_commands() {
        let mut sh = seeded_shell();
        sh.execute("update FlightRes insert ('cal', 'Asia')")
            .unwrap();
        let out = sh.execute("metrics").unwrap();
        assert!(out.contains("mkb.index_hits"), "{out}");
        assert!(out.contains("cache.rewrite_hits"), "{out}");
        assert!(out.contains("engine.data_updates"), "{out}");
        let out = sh.execute("metrics prom").unwrap();
        assert!(out.contains("engine_data_updates"), "{out}");
        assert!(sh.execute("metrics bogus").is_err());

        sh.execute("trace on").unwrap();
        sh.execute("update FlightRes insert ('dee', 'Asia')")
            .unwrap();
        let json = sh.execute("trace json").unwrap();
        assert!(json.contains("engine.apply_batch"), "{json}");
        sh.execute("trace off").unwrap();
        sh.execute("trace clear").unwrap();
        assert!(sh.execute("trace bogus").is_err());
    }

    #[test]
    fn index_command_declares_warms_and_reports() {
        let mut sh = seeded_shell();
        let out = sh.execute("index Customer Name").unwrap();
        assert!(
            out.contains("declared hash index on Customer.Name"),
            "{out}"
        );
        let out = sh.execute("index Customer Name hash").unwrap();
        assert!(out.contains("already declared"), "{out}");
        let out = sh.execute("index FlightRes Dest sorted").unwrap();
        assert!(
            out.contains("declared sorted index on FlightRes.Dest"),
            "{out}"
        );
        assert!(sh.execute("index Customer Ghost").is_err());
        assert!(sh.execute("index Customer Name btree").is_err());
        let stats = sh.execute("stats").unwrap();
        assert!(stats.contains("1 hash, 1 sorted"), "{stats}");
    }

    #[test]
    fn capability_change_through_shell() {
        let mut sh = seeded_shell();
        for cmd in [
            "site 3 mirror",
            "relation Members @3 (FullName:text, Town:text)",
            "insert Members ('ann', 'Boston')",
            "insert Members ('bob', 'Worcester')",
            "pc Customer (Name, City) = Members (FullName, Town)",
        ] {
            sh.execute(cmd).unwrap();
        }
        let out = sh.execute("change delete-relation Customer").unwrap();
        assert!(out.contains("adopted rewriting"), "{out}");
        let out = sh.execute("query V").unwrap();
        assert!(out.contains("'ann'"), "{out}");
        let out = sh.execute("show constraints").unwrap();
        assert!(!out.contains("Customer"), "constraints evolved: {out}");
    }

    #[test]
    fn rename_and_delete_attribute_commands() {
        let mut sh = seeded_shell();
        let out = sh
            .execute("change rename-attribute FlightRes.Dest Target")
            .unwrap();
        assert!(out.contains("change-attribute-name"), "{out}");
        assert!(sh.execute("query V").unwrap().contains("'ann'"));
        sh.execute("change rename-relation FlightRes Bookings")
            .unwrap();
        assert!(sh.engine().mkb().has_relation("Bookings"));
    }

    #[test]
    fn tuple_parsing_accepts_all_types() {
        let t = Shell::parse_tuple("( 'a, b' , 7, -3, 2.5, true, false )").unwrap();
        assert_eq!(t.arity(), 6);
        assert_eq!(t.get(0), &Value::Text("a, b".into()));
        assert_eq!(t.get(1), &Value::Int(7));
        assert_eq!(t.get(2), &Value::Int(-3));
        assert_eq!(t.get(3), &Value::Float(2.5));
        assert_eq!(t.get(4), &Value::Bool(true));
    }

    #[test]
    fn errors_carry_usage_hints() {
        let mut sh = Shell::new();
        for bad in [
            "frobnicate",
            "site one two",
            "relation Broken",
            "pc A B",
            "update X teleport (1)",
            "change explode R",
            "show everything",
        ] {
            let err = sh.execute(bad).unwrap_err().to_string();
            assert!(
                err.contains("usage:") || err.contains("unknown"),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let mut sh = Shell::new();
        assert_eq!(sh.execute("").unwrap(), "");
        assert_eq!(sh.execute("   # a comment").unwrap(), "");
    }

    #[test]
    fn help_lists_commands() {
        let mut sh = Shell::new();
        let help = sh.execute("help").unwrap();
        for kw in ["site", "relation", "view", "update", "change", "rebalance"] {
            assert!(help.contains(kw));
        }
    }

    #[test]
    fn durable_session_checkpoint_travel_and_recover() {
        let dir =
            std::env::temp_dir().join(format!("eve-shell-durable-{}-session", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let dir_str = dir.to_string_lossy().to_string();

        let mut sh = seeded_shell();
        let out = sh.execute(&format!("open {dir_str}")).unwrap();
        assert!(out.contains("created store"), "{out}");
        let g0 = sh.engine().mkb().generation();

        // Durable mutations flow through the log.
        sh.execute("update FlightRes insert ('bob', 'Asia')")
            .unwrap();
        let out = sh.execute("checkpoint").unwrap();
        assert!(out.contains("snapshot written"), "{out}");
        sh.execute("site 3 mirror").unwrap();
        sh.execute("relation Members @3 (FullName:text, Town:text)")
            .unwrap();
        sh.execute("insert Members ('ann', 'Boston')").unwrap();
        sh.execute("insert Members ('bob', 'Worcester')").unwrap();
        sh.execute("pc Customer (Name, City) = Members (FullName, Town)")
            .unwrap();
        sh.execute("change delete-relation Customer").unwrap();
        assert!(sh.engine().mkb().generation() > g0);

        let out = sh.execute("log-stats").unwrap();
        assert!(out.contains("segments:"), "{out}");
        assert!(out.contains("appended:"), "{out}");
        let out = sh.execute("stats").unwrap();
        assert!(out.contains("store:"), "store counters in stats: {out}");

        // Time travel: before the capability change, Customer still exists.
        let out = sh.execute(&format!("travel {g0}")).unwrap();
        assert!(out.contains("Customer"), "{out}");
        let out = sh.execute(&format!("travel {g0} V")).unwrap();
        assert!(out.contains("'ann'"), "{out}");

        // While this session holds the store, a second opener is refused —
        // two live writers would interleave appends.
        let mut sh2 = Shell::new();
        let err = sh2.execute(&format!("open {dir_str}")).unwrap_err();
        assert!(err.to_string().contains("already open"), "{err}");

        // After the first session ends, a second shell recovers the state.
        let expected = sh.engine().snapshot_state().to_bytes();
        drop(sh);
        let out = sh2.execute(&format!("open {dir_str}")).unwrap();
        assert!(out.contains("recovered store"), "{out}");
        assert_eq!(
            sh2.engine().snapshot_state().to_bytes(),
            expected,
            "recovered shell state is byte-identical"
        );
        assert!(sh2.execute("query V").unwrap().contains("'bob'"));

        // Compact bounds the horizon.
        sh2.execute("checkpoint").unwrap();
        let out = sh2.execute("compact").unwrap();
        assert!(out.contains("compacted"), "{out}");
        let err = sh2.execute(&format!("travel {g0}")).unwrap_err();
        assert!(err.to_string().contains("horizon"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_commands_error_cleanly_instead_of_panicking() {
        let mut sh = Shell::new();
        // Store commands without an open store.
        for cmd in ["checkpoint", "log-stats", "travel 3", "compact"] {
            let err = sh.execute(cmd).unwrap_err().to_string();
            assert!(err.contains("no store is open"), "{cmd}: {err}");
        }
        // A bad filename must not panic the shell: /dev/null is not a
        // directory, so store creation fails with a proper error — and the
        // session's in-memory engine must survive the failure.
        sh.execute("site 9 survivor").unwrap();
        let err = sh.execute("open /dev/null/not-a-dir").unwrap_err();
        assert!(err.to_string().contains("store"), "{err}");
        assert!(
            sh.engine().mkb().sites().any(|(id, _)| id.0 == 9),
            "failed open must not destroy the in-memory engine"
        );
        // Missing operand.
        let err = sh.execute("open").unwrap_err().to_string();
        assert!(err.contains("usage"), "{err}");
        // Malformed generation.
        let dir =
            std::env::temp_dir().join(format!("eve-shell-durable-{}-badgen", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        sh.execute(&format!("open {}", dir.display())).unwrap();
        let err = sh.execute("travel eleventy").unwrap_err().to_string();
        assert!(err.contains("usage"), "{err}");
        // Opening twice is rejected, not silently re-bootstrapped.
        let err = sh.execute("open /tmp/somewhere-else").unwrap_err();
        assert!(err.to_string().contains("already open"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shell_open_on_locked_store_reports_busy_with_lock_path() {
        // Pins the satellite bugfix: `open` on a directory whose store
        // lock another live session holds must surface the typed "store
        // busy" error naming the lock file — not a raw flock failure, and
        // never a panic.
        let dir =
            std::env::temp_dir().join(format!("eve-shell-durable-{}-locked", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let dir_str = dir.to_string_lossy().to_string();

        let mut holder = Shell::new();
        holder.execute(&format!("open {dir_str}")).unwrap();

        let mut sh = Shell::new();
        sh.execute("site 4 survivor").unwrap();
        let err = sh.execute(&format!("open {dir_str}")).unwrap_err();
        assert!(
            matches!(err, Error::Busy { .. }),
            "expected Error::Busy, got {err:?}"
        );
        let msg = err.to_string();
        assert!(msg.contains("store busy"), "{msg}");
        assert!(msg.contains("store.lock"), "lock path named: {msg}");
        assert!(msg.contains("already open"), "{msg}");
        // The refused open leaves the in-memory session intact.
        assert!(sh.engine().mkb().sites().any(|(id, _)| id.0 == 4));
        // Once the holder closes, the same open succeeds.
        drop(holder);
        let out = sh.execute(&format!("open {dir_str}")).unwrap();
        assert!(out.contains("recovered store"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn poisoned_durable_host_fails_closed() {
        // Pins the satellite bugfix: when a failed mutation's re-anchoring
        // snapshot ALSO fails, the store is behind the live engine. The
        // shell must refuse further mutations (fail closed, engine
        // untouched) instead of operating on a half-applied engine — and a
        // successful explicit checkpoint must heal the host.
        let dir =
            std::env::temp_dir().join(format!("eve-shell-durable-{}-poison", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut sh = seeded_shell();
        sh.execute(&format!("open {}", dir.display())).unwrap();

        // Yank the store directory out from under the session, then apply
        // an op the engine rejects: the failed batch triggers the
        // re-anchoring snapshot, which cannot be written any more.
        std::fs::remove_dir_all(&dir).unwrap();
        let err = sh.execute("update Ghost insert ('x')").unwrap_err();
        assert!(
            matches!(err, Error::Poisoned { .. }),
            "expected Error::Poisoned, got {err:?}"
        );
        assert!(sh.durable().unwrap().is_poisoned());

        // Every mutating command now fails closed *before* the engine.
        let err = sh.execute("site 9 late").unwrap_err();
        assert!(matches!(err, Error::Poisoned { .. }), "{err:?}");
        assert!(
            err.to_string().contains("checkpoint"),
            "remedy named: {err}"
        );
        assert!(
            !sh.engine().mkb().sites().any(|(id, _)| id.0 == 9),
            "fail closed means the engine was never touched"
        );
        for cmd in [
            "relation Late @1 (X:int)",
            "insert Customer ('eve', 'Salem')",
            "update FlightRes insert ('eve', 'Asia')",
            "change delete-relation FlightRes",
            "rebalance",
            "compact",
        ] {
            let err = sh.execute(cmd).unwrap_err();
            assert!(matches!(err, Error::Poisoned { .. }), "{cmd}: {err:?}");
        }
        // Reads stay available on the live engine.
        assert!(sh.execute("query V").unwrap().contains("'ann'"));

        // `checkpoint` is the remedy and stays allowed: restore the
        // directory, re-anchor, and the host is live again.
        std::fs::create_dir_all(&dir).unwrap();
        sh.execute("checkpoint").unwrap();
        assert!(!sh.durable().unwrap().is_poisoned());
        sh.execute("site 9 late").unwrap();
        assert!(sh.engine().mkb().sites().any(|(id, _)| id.0 == 9));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plain_and_durable_shells_agree() {
        const SCRIPT: &[&str] = &[
            "site 1 s1",
            "site 2 s2",
            "site 3 s3",
            "relation R @1 (K:int, P:int)",
            "relation S @2 (K:int, P:int)",
            "relation T @3 (K:int, P:int)",
            "insert R (1, 10)",
            "insert S (2, 20)",
            "insert T (2, 20)",
            "pc S (K, P) = T (K, P)",
            "view CREATE VIEW VR (VE = '~') AS SELECT R.K, R.P FROM R (RR = true)",
            "view CREATE VIEW VS (VE = '~') AS SELECT S.K FROM S (RR = true)",
            "index R K",
            "index R K",
            "index T P sorted",
            "update R insert (5, 6)",
            "update S insert (3, 30)",
            "insert T (3, 30)",
            "change delete-relation S",
            "update T delete (2, 20)",
            "query VS",
            "show views",
        ];
        let run = |sh: &mut Shell| -> Vec<String> {
            SCRIPT
                .iter()
                .map(|line| sh.execute(line).unwrap_or_else(|e| panic!("{line}: {e}")))
                .collect()
        };
        let dir =
            std::env::temp_dir().join(format!("eve-shell-durable-{}-agree", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let mut plain = Shell::new();
        let mut durable = Shell::new();
        durable.execute(&format!("open {}", dir.display())).unwrap();
        let plain_out = run(&mut plain);
        let durable_out = run(&mut durable);
        for ((line, p), d) in SCRIPT.iter().zip(&plain_out).zip(&durable_out) {
            assert_eq!(p, d, "`{line}` printed differently");
        }
        assert_eq!(
            plain.engine().snapshot_state().to_bytes(),
            durable.engine().snapshot_state().to_bytes()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn relation_options_parse() {
        let mut sh = Shell::new();
        sh.execute("site 1 s").unwrap();
        sh.execute("relation R @1 (K:int:50, P:float) sel=0.25 bfr=20")
            .unwrap();
        let info = sh.engine().mkb().relation("R").unwrap();
        assert_eq!(info.attributes[0].byte_size, 50);
        assert_eq!(info.attributes[1].ty, DataType::Float);
        assert!((info.selectivity - 0.25).abs() < 1e-12);
        assert_eq!(info.blocking_factor, 20);
    }
}
